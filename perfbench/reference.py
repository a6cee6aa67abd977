"""Independent references for checking mexlab's outputs.

Nothing here imports mexlab.  Graphs are (n, adj) pairs where adj[v] is a
Python int whose bit w marks the edge vw.  Closed forms come from the
literature (Mantel, Turan, Zykov, OEIS A006855) or from elementary
counting; everything else is brute force over tiny graphs or a direct
bitset computation written for this benchmark.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, product

# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------


def adj_from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def edges_of(adj) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in _bits(adj[u]) if u < v]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse the 'n m' header plus 'u v' lines; raise ValueError when the
    text breaks the documented format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = (int(x) for x in lines[0])
    edges = [(int(a), int(b)) for a, b in lines[1:]]
    if len(edges) != m or any(not 0 <= u < v < n for u, v in edges):
        raise ValueError("malformed edge list")
    if len(set(edges)) != m:
        raise ValueError("duplicate edge")
    return n, edges


def format_edge_list(n: int, edges) -> str:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


# ---------------------------------------------------------------------------
# Pattern literals: K5, K3_4, K2_2_2, C5, S4, and the 2K2 matching
# ---------------------------------------------------------------------------

_LITERAL = re.compile(r"^(K|C|S)(\d+(?:_\d+)*)$")


def multipartite_edges(sizes) -> tuple[int, list[tuple[int, int]]]:
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    edges = [(u, v)
             for i, j in combinations(range(len(sizes)), 2)
             for u in range(starts[i], starts[i + 1])
             for v in range(starts[j], starts[j + 1])]
    return starts[-1], edges


def literal(text: str) -> tuple[int, list[int]]:
    """(n, adj) of a shorthand pattern literal."""
    if text == "2K2":
        return 4, adj_from_edges(4, [(0, 1), (2, 3)])
    kind, nums = _LITERAL.match(text).groups()
    nums = [int(x) for x in nums.split("_")]
    if kind == "K":
        n, edges = multipartite_edges(nums if len(nums) > 1 else [1] * nums[0])
    elif kind == "C":
        n, edges = nums[0], [(v, (v + 1) % nums[0]) for v in range(nums[0])]
    else:
        n, edges = nums[0] + 1, [(0, v) for v in range(1, nums[0] + 1)]
    return n, adj_from_edges(n, edges)


# ---------------------------------------------------------------------------
# Subgraph search and counting
# ---------------------------------------------------------------------------


def _pattern_order(padj) -> list[int]:
    """Most-constrained-first order: next the vertex with the most placed
    neighbours, then the highest degree, then the lowest index."""
    order: list[int] = []
    placed = 0
    for _ in range(len(padj)):
        v = max((w for w in range(len(padj)) if not placed >> w & 1),
                key=lambda w: ((padj[w] & placed).bit_count(),
                               padj[w].bit_count(), -w))
        order.append(v)
        placed |= 1 << v
    return order


def count_embeddings(padj, hadj, limit: int | None = None) -> int:
    """Injective edge-preserving maps pattern -> host, stopping at limit."""
    k = len(padj)
    order = _pattern_order(padj)
    earlier = [[order.index(w) for w in _bits(padj[v]) if order.index(w) < i]
               for i, v in enumerate(order)]
    full = (1 << len(hadj)) - 1
    image = [0] * k
    found = 0

    def extend(i: int, used: int) -> bool:
        nonlocal found
        if i == k:
            found += 1
            return limit is None or found < limit
        cand = full & ~used
        for j in earlier[i]:
            cand &= hadj[image[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            image[i] = low.bit_length() - 1
            if not extend(i + 1, used | low):
                return False
        return True

    extend(0, 0)
    return found


def contains(padj, hadj) -> bool:
    return count_embeddings(padj, hadj, limit=1) > 0


def count_copies(padj, hadj) -> int:
    """Subgraphs of the host isomorphic to the pattern."""
    return count_embeddings(padj, hadj) // count_embeddings(padj, padj)


def clique_counts(adj, R: int) -> list[int]:
    """[k_0, k_1, ..., k_R]: each clique is listed once, in increasing
    vertex order."""
    n = len(adj)
    up = [adj[v] >> (v + 1) << (v + 1) for v in range(n)]
    counts = [0] * (R + 1)
    counts[0] = 1

    def grow(cand: int, size: int) -> None:
        counts[size] += cand.bit_count()
        if size == R:
            return
        while cand:
            low = cand & -cand
            cand ^= low
            nxt = cand & up[low.bit_length() - 1]
            if nxt:
                grow(nxt, size + 1)

    if n:
        grow((1 << n) - 1, 1)
    return counts


def participation(adj, r: int) -> dict:
    """Edge (u, v), u < v -> number of r-cliques containing it."""
    return {(u, v): _cliques_in(adj, adj[u] & adj[v], r - 2)
            for u, v in edges_of(adj)}


def _cliques_in(adj, mask: int, k: int) -> int:
    """k-cliques inside the vertex set mask."""
    if k == 1:
        return mask.bit_count()
    return sum(_cliques_in(adj, adj[v] & (mask >> (v + 1) << (v + 1)), k - 1)
               for v in _bits(mask))


def max_common_neighbours(adj, group: int) -> int:
    """Largest common neighbourhood over every group-subset of vertices."""
    best = 0
    n = len(adj)

    def walk(start: int, depth: int, common: int) -> None:
        nonlocal best
        if depth == group:
            best = max(best, common.bit_count())
            return
        for v in range(start, n):
            nxt = common & adj[v]
            if nxt.bit_count() > best:  # common sets only shrink deeper
                walk(v + 1, depth + 1, nxt)

    walk(0, 0, (1 << n) - 1)
    return best


def kst_free(adj, s: int, t: int) -> bool:
    """No K_{s,t}: no s vertices with t common neighbours."""
    return max_common_neighbours(adj, s) < t


def c4_copies(adj) -> int:
    """Each 4-cycle has two diagonals, each a pair with two common
    neighbours on the cycle."""
    total = 0
    for u, v in combinations(range(len(adj)), 2):
        c = (adj[u] & adj[v]).bit_count()
        total += c * (c - 1) // 2
    return total // 2


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

# OEIS A006855: maximum edges of a C4-free graph on n vertices, n = 1..10.
A006855 = [0, 1, 3, 4, 6, 7, 9, 11, 13, 16]


def elementary_symmetric(sizes, k: int) -> int:
    """k-cliques of the complete multipartite graph with these part sizes."""
    e = [1] + [0] * k
    for s in sizes:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * s
    return e[k]


def turan_parts(n: int, r: int) -> list[int]:
    return [n // r + (1 if i < n % r else 0) for i in range(r)]


def ex_closed_form(n: int, target: str, forbidden: str) -> int | None:
    """ex(n, T, F) where a classical theorem gives it, else None.

    Turan (Mantel for r = 2): ex(n, K2, K_{r+1}) = e(T(n, r)).
    Zykov: ex(n, K_t, K_{r+1}) = k_t(T(n, r)).
    OEIS A006855: ex(n, K2, C4).
    """
    f = re.fullmatch(r"K(\d+)", forbidden)
    t = re.fullmatch(r"K(\d+)", target)
    if f and t:
        r = int(f.group(1)) - 1
        return elementary_symmetric(turan_parts(n, r), int(t.group(1)))
    if target == "K2" and forbidden == "C4" and 1 <= n <= len(A006855):
        return A006855[n - 1]
    return None


def mex_closed_form(m: int, target: str, forbidden: str) -> int | None:
    """mex(m, T, F) where it is elementary, else None.

    The matching mK2 avoids every F with a vertex of degree >= 2.  K2: every
    graph with m edges has m copies.  2K2: the copies are pairs of disjoint
    edges, at most C(m, 2), and mK2 attains it.  K_t with F = K_s, s <= t:
    no copy is possible.
    """
    _, fadj = literal(forbidden)
    matching_is_free = max(a.bit_count() for a in fadj) >= 2
    if target == "K2" and matching_is_free:
        return m
    if target == "2K2" and matching_is_free:
        return m * (m - 1) // 2
    t = re.fullmatch(r"K(\d+)", target)
    f = re.fullmatch(r"K(\d+)", forbidden)
    if t and f and int(f.group(1)) <= int(t.group(1)):
        return 0
    return None


def cor14_exponent(r: int, s: int) -> Fraction:
    """(rs - C(r,2)) / (2s - 1): the exponent norm graphs attain for k_r
    against edges when K_{s,t} is forbidden (Corollary 1.4)."""
    return Fraction(r * s - r * (r - 1) // 2, 2 * s - 1)


def kst_exponent(u: int, r: int, s: int, t: int) -> Fraction:
    """Theorem 4.1: the lower-bound exponent of k_r against k_u for
    K_{s,t}-free graphs, the general Theorem 1.5 formula written out for
    v = s + t vertices and e = st edges."""
    num = 2 * r * s * t - r * (r - 1) * (s + t) - r * (r - 1) * (r - 2)
    den = (2 * u * s * t - u * (u - 1) * (s + t) - u * r * (r - 1)
           + 2 * u * (u - 1))
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Norm graphs H(q, s) for s in {2, 3}
# ---------------------------------------------------------------------------


def _smallest_monic_quadratic(q: int) -> tuple[int, int]:
    """(c0, c1) of the first irreducible t^2 + c1 t + c0, with (c0, c1)
    ordered lexicographically: irreducible means no root in GF(q)."""
    for c0, c1 in product(range(q), repeat=2):
        if all((x * x + c1 * x + c0) % q for x in range(q)):
            return c0, c1
    raise ValueError(f"no irreducible quadratic mod {q}")


def norm_graph_edges(q: int, s: int) -> tuple[int, list[tuple[int, int]]]:
    """H(q, s): vertices (A, a) in GF(q^(s-1)) x GF(q)*, with (A,a) ~ (B,b)
    iff N(A + B) = a b.  Vertex (A, a) has index idx(A) (q - 1) + a - 1,
    where idx reads the coefficients of A, low degree first, as base-q
    digits.  For s = 3 the norm of x0 + x1 t with t^2 = -c1 t - c0 is
    x0^2 - c1 x0 x1 + c0 x1^2."""
    if s == 2:
        ext, norm, add = q, (lambda x: x), (lambda x, y: (x + y) % q)
    elif s == 3:
        c0, c1 = _smallest_monic_quadratic(q)
        ext = q * q

        def norm(x):
            x0, x1 = x % q, x // q
            return (x0 * x0 - c1 * x0 * x1 + c0 * x1 * x1) % q

        def add(x, y):
            return (x % q + y % q) % q + ((x // q + y // q) % q) * q
    else:
        raise ValueError("only s = 2 and s = 3 are supported")
    n = ext * (q - 1)
    edges = set()
    for A in range(ext):
        for B in range(ext):
            c = norm(add(A, B))
            if c == 0:
                continue
            for a in range(1, q):
                b = c * pow(a, -1, q) % q
                i, j = A * (q - 1) + a - 1, B * (q - 1) + b - 1
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


# ---------------------------------------------------------------------------
# SplitMix64 G(n, p), the documented sampler of mexlab's deletion method
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def splitmix64_stream(seed: int):
    """The standard SplitMix64 generator (Steele, Lea, Flood 2014)."""
    state = seed & _M64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def splitmix_gnp(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Slot i of the lexicographic pair order is an edge iff draw i of the
    stream is below round(p * 2^64)."""
    threshold = round(p * 2.0 ** 64)
    draws = splitmix64_stream(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if next(draws) < threshold]


def deletion_probability(v: int, e: int, r: int, n: int, c: float) -> float:
    return min(1.0, c * n ** (-float(Fraction(v - 2, e - r * (r - 1) // 2))))


# ---------------------------------------------------------------------------
# Slopes and extraction thresholds
# ---------------------------------------------------------------------------


def loglog_slope(xs, ys) -> float:
    """Ordinary least-squares slope of log y on log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def tripartite_parts(n: int) -> list[int]:
    """Parts n, floor(sqrt n), floor(cbrt n) of the tripartite experiment."""
    c = 0
    while (c + 1) ** 3 <= n:
        c += 1
    return [n, math.isqrt(n), c]
