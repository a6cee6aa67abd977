"""Bitset-backed graphs, deterministic generators, and exact subgraph counting.

Adjacency is stored as one Python int per vertex (bit v of ``adj[u]`` is the
edge uv).  All counting routines are exact integer computations and pure
functions of the graph, so results never depend on evaluation order.

Clique counts, whole-graph (``count_cliques``) and per edge
(``edge_clique_participation``), come from one kernel, ``_clique_counts``:
a succinct clique tree that pivots where the candidate set is dense and
deep, so a k-clique inside a pivot set is counted by a binomial rather than
listed, and that enumerates cliques one by one, with bulk popcounts for the
last two sizes, where the set is small or shallow.  The whole-graph
count runs over the vertices sorted by degree, the order with which Chiba
and Nishizeki (SIAM J. Comput. 1985) list K_r in O(a(G)^(r-2) m) time.

Pattern copies (``count_copies``, ``is_free``, ``iter_copies``) come from one
map search, ``_backtrack`` over a pattern's plan, which visits one map per
copy prefix and counts the tail, an independent twin class, by a binomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

PATTERN_MAX_ORDER = 16
COUNTING_MAX_ORDER = 12
CHROMATIC_MAX_ORDER = 16
EDGE_LIST_MAX_VERTICES = 50000
LITERAL_MAX_EDGES = 1000000

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """Return the index-th 64-bit output of a SplitMix64 stream.

    SplitMix64 is counter-based: output(i) depends only on (seed, i), so
    individual draws are addressable without sequential state.  This is the
    only randomness source in the package.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = adj

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] & ~((1 << (u + 1)) - 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def add_edge(self, u: int, v: int) -> "Graph":
        g = Graph(self.n)
        g.adj = list(self.adj)
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad edge ({u},{v})")
        g.adj[u] |= 1 << v
        g.adj[v] |= 1 << u
        return g

    def remove_edges(self, edges) -> "Graph":
        g = Graph(self.n)
        g.adj = list(self.adj)
        for u, v in edges:
            g.adj[u] &= ~(1 << v)
            g.adj[v] &= ~(1 << u)
        return g

    def padded(self, n: int) -> "Graph":
        """Same graph with isolated vertices appended up to order n."""
        if n < self.n:
            raise ValueError("cannot pad to a smaller order")
        g = Graph(n)
        g.adj[: self.n] = self.adj
        return g

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" with u < v.
# ---------------------------------------------------------------------------

def read_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if n > EDGE_LIST_MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds cap {EDGE_LIST_MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    adj = [0] * n
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u},{v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    g = Graph(n)
    g.adj = adj
    return g


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return read_edge_list(fh.read())


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_edge_list(g))


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_multipartite(sizes) -> Graph:
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive integers")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(bounds[i], bounds[i + 1]):
                for v in range(bounds[j], bounds[j + 1]):
                    edges.append((u, v))
    return Graph(n, edges)


def star(leaves: int) -> Graph:
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def cycle(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(length, [(v, (v + 1) % length) for v in range(length)])


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) sampled with SplitMix64.

    Edge slots are visited in lexicographic (u, v) order; slot i is present
    iff splitmix64(seed, i) < round(p * 2**64).  Identical (n, p, seed)
    always produce the identical labeled graph on every platform.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 0:
        raise ValueError("n must be non-negative")
    seed &= _MASK64
    threshold = round(p * 2.0 ** 64)
    edges = []
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if splitmix64(seed, i) < threshold:
                edges.append((u, v))
            i += 1
    return Graph(n, edges)


_LITERAL_RE = re.compile(r"^(K|C|S)(\d+(?:_\d+)*)$")


def parse_pattern_literal(text: str) -> Graph | None:
    """Expand shorthand literals: K5, K3_4, K2_2_2, C5, S4 (star with 4 leaves).

    Returns None when the text is not a literal (callers fall back to a path).
    A literal with more than LITERAL_MAX_EDGES edges is a ValueError, raised
    before any edge is generated.
    """
    m = _LITERAL_RE.match(text.strip())
    if not m:
        return None
    kind, nums = m.group(1), [int(x) for x in m.group(2).split("_")]
    if kind != "K" and len(nums) != 1:
        return None
    if kind != "K":
        edges = nums[0]
    elif len(nums) == 1:
        edges = nums[0] * (nums[0] - 1) // 2
    else:
        edges = (sum(nums) ** 2 - sum(x * x for x in nums)) // 2
    if edges > LITERAL_MAX_EDGES:
        raise ValueError(f"{text.strip()} has {edges} edges, above cap {LITERAL_MAX_EDGES}")
    if kind == "C":
        return cycle(nums[0])
    if kind == "S":
        return star(nums[0])
    return complete(nums[0]) if len(nums) == 1 else complete_multipartite(nums)


# ---------------------------------------------------------------------------
# Clique counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliqueVector:
    """Exact clique counts k_1..k_R; counts[r] is the number of r-cliques."""

    R: int
    counts: tuple

    def __getitem__(self, r: int) -> int:
        return self.counts[r]


# A clique-tree node goes on the stack, where it may pivot, only with more
# than _PIVOT_DEPTH clique sizes left to count and _PIVOT_PROBE or more
# vertices in its cand.  A pivot is taken only if it sees at least half of
# cand.
_PIVOT_DEPTH = 3
_PIVOT_PROBE = 12


def _clique_counts(adj, cand: int, R: int) -> list:
    """counts[k] is the number of k-cliques inside cand, for 0 <= k <= R.

    A succinct clique tree (Jain & Seshadhri, WSDM 2020).  A node is a set
    cand with `held` vertices that every clique below it contains and `piv`
    pivots that it may contain, so it stands for x^held (1+x)^piv times the
    clique polynomial of cand.  The node pivots on the vertex p of cand with
    the most neighbours in cand: a clique either lies in p's closed
    neighbourhood (then p becomes a pivot and cand shrinks to cand & N(p),
    in a loop) or holds a first non-neighbour v of p (a held branch on the
    explicit stack, with the earlier non-neighbours removed).  Where no
    vertex sees half of cand, every vertex of cand is held once in the same
    way, and the pivot chain ends.

    A small cand, or one with a shallow remainder, is enumerated instead:
    each clique grows from its lowest vertex upward, the last two sizes are
    counted by bulk popcounts, and the counts land in the node's (held, piv)
    row.  The clique of a node's held vertices alone is counted by its
    parent, with its siblings', except at the end of a pivot chain.
    counts[k] sums row[a] * C(piv, k - a).

    adj[v] may hold neighbours on both sides of v.  The enumeration is the
    only recursion, and it starts only on a cand of fewer than _PIVOT_PROBE
    vertices or with at most _PIVOT_DEPTH sizes left, so its depth does not
    grow with the clique size.  A node on the stack has more than
    _PIVOT_DEPTH sizes left, so its held branches fit in the rows.
    """
    top = max(cand.bit_count(), 1)
    if R > top:  # no clique of cand has more than top vertices
        return _clique_counts(adj, cand, top) + [0] * (R - top)
    rows = {0: [1] + [0] * R}  # rows[piv][a]: nodes with a chosen vertices
    stack = []

    def row(piv: int) -> list:
        r = rows.get(piv)
        if r is None:
            r = rows[piv] = [0] * (R + 1)
        return r

    def enum(cand: int, size: int, row: list) -> None:
        size += 1
        row[size] += cand.bit_count()
        if size + 1 >= R:
            if size < R:
                total = 0
                while cand:
                    low = cand & -cand
                    cand ^= low
                    total += (cand & adj[low.bit_length() - 1]).bit_count()
                row[R] += total
            return
        while cand:
            low = cand & -cand
            cand ^= low
            sub = cand & adj[low.bit_length() - 1]
            if sub:
                enum(sub, size, row)

    def branch(cand: int, held: int, piv: int) -> None:
        if R - held > _PIVOT_DEPTH and cand.bit_count() >= _PIVOT_PROBE:
            stack.append((cand, held, piv))
        else:
            enum(cand, held, row(piv))

    branch(cand, 0, 0)
    while stack:
        cand, held, piv = stack.pop()
        first = piv
        while cand:
            s = cand.bit_count()
            best = -1
            univ = 0
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                d = (adj[v] & cand).bit_count()
                if d > best:
                    best, p = d, v
                if d == s - 1:
                    univ |= low
            if univ:  # pivot on every vertex that sees all of cand at once
                piv += univ.bit_count()
                cand ^= univ
                continue
            pivot = 2 * best >= s
            rest = cand
            nonnbr = cand & ~adj[p] ^ (1 << p) if pivot else cand
            row(piv)[held + 1] += nonnbr.bit_count()
            while nonnbr:
                low = nonnbr & -nonnbr
                nonnbr ^= low
                rest ^= low
                sub = rest & adj[low.bit_length() - 1]
                if sub:
                    branch(sub, held + 1, piv)
            if not pivot:
                break
            cand &= adj[p]
            piv += 1
        if piv != first:  # the chain's own cliques, with first..piv pivots
            row(piv)[held] += 1
            row(first)[held] -= 1
    if len(rows) == 1:
        return rows[0]
    counts = [0] * (R + 1)
    for piv, r in rows.items():
        for a, c in enumerate(r):
            if c:
                for j in range(min(piv, R - a) + 1):
                    counts[a + j] += c  # c * C(piv, j)
                    c = c * (piv - j) // (j + 1)
    return counts


def count_cliques(g: Graph, R: int) -> CliqueVector:
    """Exact number of r-cliques for every 1 <= r <= R, counted over the
    vertices in ascending (degree, label) order: each clique grows from its
    vertex of least degree, which lists K_r in O(a(G)^(r-2) m) time for
    arboricity a(G) (Chiba & Nishizeki, SIAM J. Comput. 1985)."""
    if not 1 <= R <= EDGE_LIST_MAX_VERTICES:
        raise ValueError(f"R must lie in 1..{EDGE_LIST_MAX_VERTICES}")
    n = g.n
    degs = g.degrees()
    pos = [0] * n
    for i, v in enumerate(sorted(range(n), key=degs.__getitem__)):  # ties by label
        pos[v] = i
    radj = [0] * n
    for v in range(n):
        row = 0
        for w in bits(g.adj[v]):
            row |= 1 << pos[w]
        radj[pos[v]] = row
    return CliqueVector(R, tuple(_clique_counts(radj, (1 << n) - 1, R)))


def edge_clique_participation(g: Graph, r: int) -> dict:
    """For each edge e, the number of r-cliques containing e."""
    if not 3 <= r <= EDGE_LIST_MAX_VERTICES:
        raise ValueError(f"r must lie in 3..{EDGE_LIST_MAX_VERTICES}")
    if g.m == 0:
        raise ValueError("graph has no edges")
    adj = g.adj
    return {(u, v): _clique_counts(adj, adj[u] & adj[v], r - 2)[r - 2]
            for u, v in g.edges()}


# ---------------------------------------------------------------------------
# Pattern embeddings (injective edge-preserving maps)
# ---------------------------------------------------------------------------

def _twin_classes(g: Graph) -> list[int]:
    """Each vertex's twin class, named by its lowest member.  u and w are
    twins iff N(u) - {w} = N(w) - {u}; twinhood is an equivalence, and every
    permutation within one class is an automorphism.

    False twins share their open row adj[v], true twins their closed row
    adj[v] | 1 << v.  An open row never equals another vertex's closed row,
    and no vertex has both a false and a true twin, so one dict maps each
    row to the first vertex that had it."""
    first: dict[int, int] = {}
    return [first.setdefault(row, first.setdefault(row | 1 << v, v))
            for v, row in enumerate(g.adj)]


def _embedding_plan(f: Graph):
    """Static vertex order for backtracking (most already-placed neighbors
    first) with symmetry-breaking bounds, as (prev, low, size, feeds).

    prev[i] lists the earlier positions adjacent to position i in f, so the
    pairs (j, i) with j in prev[i] are the edges of f.  low[i] is the earlier
    position whose image position i's image must lie above, or -1.  Images
    rising within each twin class leave one map per coset of the twin group.
    The automorphisms left permute the classes, and Grochow and Kellis's
    conditions (RECOMB 2007) break them: walking the classes in order, class
    C's first image lies below the first image of every other class in its
    orbit, then the group shrinks to C's stabilizer.  If class D lies in the
    orbits of C and then of a later C', C' lies in C's orbit, so D's bound
    from C' implies its bound from C; each position keeps only its latest
    bound.

    The last size positions are the tail: the largest independent twin class
    but its first member, which keeps its greedy place, or else the last
    vertex.  Its members share their neighbours, all placed before them, so
    their images are any size-subset of one set; feeds marks the neighbours.
    """
    n = f.n
    degs = f.degrees()
    nbrs = [set(bits(f.adj[v])) for v in range(n)]
    order: list[int] = []
    chosen: set[int] = set()
    for _ in range(n):
        v = max((u for u in range(n) if u not in chosen),
                key=lambda u: (len(nbrs[u] & chosen), degs[u], -u))
        order.append(v)
        chosen.add(v)
    cls = _twin_classes(f)
    classes = [[v for v in order if cls[v] == c] for c in sorted(set(cls))]
    free = [c for c in classes if len(c) > 1 and c[1] not in nbrs[c[0]]]
    tail = max(free, key=len)[1:] if free else order[n - 1:]
    order = [v for v in order if v not in tail] + tail
    size = len(tail)
    posof = {v: i for i, v in enumerate(order)}
    prev = [tuple(sorted(posof[w] for w in nbrs[v] if posof[w] < i))
            for i, v in enumerate(order)]
    feeds = [i in prev[-1] for i in range(n)]
    low = [max((j for j in range(i) if cls[order[j]] == cls[v]), default=-1)
           for i, v in enumerate(order)]
    heads = [i for i, t in enumerate(low) if t < 0]  # each class's first position
    head_of = {cls[order[h]]: k for k, h in enumerate(heads)}
    group = []  # each self-map as the permutation of class indices it induces

    def each(images, cand):
        for images[n - size:] in combinations(bits(cand), size):
            group.append([head_of[cls[images[h]]] for h in heads])
        return True

    _backtrack(prev, low, size, feeds, f, each)
    for k, h in enumerate(heads):
        for d in {perm[k] for perm in group} - {k}:
            low[heads[d]] = h
        group = [perm for perm in group if perm[k] == k]
    return prev, low, size, feeds


def _backtrack(prev, low, size, feeds, g: Graph, visit) -> bool:
    """The map search: enumerate the copies of a pattern in g over the
    pattern's plan (prev, low, size, feeds), one visit per copy *prefix*.

    Two maps give the same copy iff they differ by an automorphism of the
    pattern.  The plan's lower bounds admit exactly one map of each
    automorphism orbit.  The search places positions 0..k-size-1 and carries
    the tail's mask: the AND of its placed neighbours' neighbourhoods, above
    the tail's bound once that is placed.  A candidate that leaves the mask
    fewer than size vertices is dropped.  Each size-subset of a full prefix's
    tail candidates cand completes it to one admitted map, so the copies
    number sum C(|cand|, size).

    visit(images, cand) is called on each full prefix (images[i] hosts plan
    position i < k - size); it returns True to continue or False to stop
    the search.  Returns False iff a visit stopped the search.
    """
    k = len(prev)
    stop = k - size
    gadj = g.adj
    full = (1 << g.n) - 1
    images = [0] * k
    top = low[stop] if size else -1  # the tail's bound
    after = top + 1 if top >= 0 else -1

    def rec(i: int, used: int, mask: int) -> bool:
        if i == after:  # the tail's images lie above position top's
            mask &= -2 << images[top]
        if i == stop:
            return visit(images, mask & ~used)
        cand = full & ~used
        for j in prev[i]:
            cand &= gadj[images[j]]
        t = low[i]
        if t >= 0:
            cand &= -2 << images[t]  # strictly above that position's image
        feed = feeds[i]
        sub = mask
        while cand:
            low_bit = cand & -cand
            cand ^= low_bit
            v = low_bit.bit_length() - 1
            if feed:
                sub = mask & gadj[v]
                if sub.bit_count() < size:
                    continue
            images[i] = v
            if not rec(i + 1, used | low_bit, sub):
                return False
        return True

    return rec(0, 0, full)


class Pattern:
    """A small counted or forbidden graph with cached brute-force invariants."""

    def __init__(self, graph: Graph, name: str | None = None):
        if graph.n > PATTERN_MAX_ORDER:
            raise ValueError(f"pattern order {graph.n} exceeds cap {PATTERN_MAX_ORDER}")
        self.graph = graph
        self.name = name or f"{graph.n}v{graph.m}e"

    @property
    def order(self) -> int:
        return self.graph.n

    @property
    def size(self) -> int:
        return self.graph.m

    @cached_property
    def plan(self):
        if self.order > COUNTING_MAX_ORDER:
            raise ValueError(
                f"embedding search capped at {COUNTING_MAX_ORDER} pattern vertices")
        return _embedding_plan(self.graph)

    @cached_property
    def max_avg_degree(self) -> Fraction:
        return max_avg_degree(self)

    def __repr__(self):
        return f"Pattern({self.name})"


def pattern(text: str) -> Pattern:
    """The Pattern of a shorthand literal like 'K3_4', named by it."""
    g = parse_pattern_literal(text)
    if g is None:
        raise ValueError(f"not a pattern literal: {text!r}")
    return Pattern(g, text)


def count_copies(f: Pattern, g: Graph) -> int:
    """Number of subgraphs of g isomorphic to f (copies, not induced).

    The search visits one map per copy prefix, and a prefix whose tail has
    c candidates completes to C(c, size) copies.
    """
    if f.order == 0:
        raise ValueError("pattern must have at least one vertex")
    size = f.plan[2]
    total = 0

    def visit(_, cand):
        nonlocal total
        total += comb(cand.bit_count(), size)
        return True

    _backtrack(*f.plan, g, visit)
    return total


def is_free(f: Pattern, g: Graph) -> bool:
    """True iff g contains no copy of f; exits on the first copy found."""
    size = f.plan[2]
    return _backtrack(*f.plan, g, lambda _, cand: cand.bit_count() < size)


def iter_copies(f: Pattern, g: Graph, limit: int) -> list:
    """The copies of f in g, in search order, each as the tuple of its host
    edges (u, v), u < v, listed by plan position.

    The search visits each copy once.  More than limit copies is a
    ValueError, raised before a tail that would pass the limit is listed.
    """
    prev, _, size, _ = f.plan
    k = len(prev)
    key_edges = [(j, i) for i in range(k) for j in prev[i]]
    found = []

    def visit(images, cand):
        if len(found) + comb(cand.bit_count(), size) > limit:
            raise ValueError(f"more than {limit} copies of {f.name}")
        for images[k - size:] in combinations(bits(cand), size):
            found.append(tuple((min(images[j], images[i]), max(images[j], images[i]))
                               for j, i in key_edges))
        return True

    _backtrack(*f.plan, g, visit)
    return found


# ---------------------------------------------------------------------------
# Chromatic number, max average degree
# ---------------------------------------------------------------------------

def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by incremental k-colorability backtracking."""
    if g.n > CHROMATIC_MAX_ORDER:
        raise ValueError(f"order {g.n} exceeds cap {CHROMATIC_MAX_ORDER}")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    color = [-1] * n

    def colorable(i: int, used: int, k: int) -> bool:
        if i == n:
            return True
        v = order[i]
        forbidden = 0
        for w in bits(g.adj[v]):
            if color[w] >= 0:
                forbidden |= 1 << color[w]
        limit = min(k, used + 1)
        for c in range(limit):
            if not forbidden >> c & 1:
                color[v] = c
                if colorable(i + 1, max(used, c + 1), k):
                    return True
        color[v] = -1
        return False

    for k in range(2, n + 1):
        for v in range(n):
            color[v] = -1
        if colorable(0, 0, k):
            return k
    return n


def max_avg_degree(f: Pattern) -> Fraction:
    """max over subgraphs F0 with e(F0) > 0 of 2 e(F0) / v(F0), exact.

    Ranging over induced subgraphs of vertex subsets suffices: removing an
    edge at fixed vertex set only lowers the ratio.
    """
    if f.size == 0:
        raise ValueError("pattern has no edges")
    adj = f.graph.adj
    return max(Fraction(sum((adj[v] & mask).bit_count() for v in bits(mask)),
                        mask.bit_count())
               for mask in range(1, 1 << f.order))
