"""Bitset-backed graphs, deterministic generators, and exact subgraph counting.

Adjacency is stored as one Python int per vertex (bit v of ``adj[u]`` is the
edge uv).  All counting routines are exact integer computations and pure
functions of the graph, so results never depend on evaluation order.

Clique counts, whole-graph (``count_cliques``) and per edge
(``edge_clique_participation``), come from one kernel, ``_clique_counts``:
a succinct clique tree that pivots where the candidate set is dense and
deep, so a k-clique inside a pivot set is counted by a binomial rather than
listed, and that enumerates cliques one by one, with bulk popcounts for the
last two sizes, where the set is small or shallow.  Enumeration visits each
clique once whatever the vertex order, and only a pivot reads it.  So the
whole-graph count runs on the host's own labels where no node can pivot:
at R <= _PIVOT_DEPTH, on fewer than _PIVOT_PROBE vertices, and at R =
_PIVOT_DEPTH + 1 when every degree is below n/2.  Every other count
runs over the vertices sorted by degree, the order with which Chiba and
Nishizeki (SIAM J. Comput. 1985) list K_r in O(a(G)^(r-2) m) time.
Per edge, the kernel runs once on each edge's common neighbourhood, except
on small dense hosts with 4 <= r <= _PIVOT_DEPTH + 2, where it would only
enumerate: there each vertex x gets G[N(x)]'s upper-triangular adjacency
matrix packed into one n^2-bit int, each (r-2)-clique S is visited once,
and the AND of its vertices' matrices counts the r-cliques through S in one
popcount, in place of the enumeration's last two levels.  The matrices take
n^3/8 bytes, about 1 MB at the order cut-off n = 200.

Pattern copies (``count_copies``, ``is_free``, ``iter_copies``) come from one
map search, ``_search`` over a pattern's plan, built once, which returns
the number of copies, or stops at the first: it reaches one map per copy
prefix and counts the tail, an independent twin class, by a binomial.
For K_{s,t}, plus any isolated vertices, the tail is a whole side, and the
placed side's later vertices are filtered in bulk: one pass (``_at_least``),
by saturating registers for t <= 3 and bit-sliced counters above, keeps
the vertices with at least t neighbours in the common neighbourhood of the
earlier ones.  A plan may be rooted at an arc (a, b) of the pattern, with a
and b pinned to the ends of a host edge (``_copies_through``): one rooted
plan per automorphism orbit of arcs finds each copy through that edge
exactly once.

``gnp`` draws slot i of G(n, p) from ``splitmix64(seed, i)``, but computes
whole chunks of 1024 slots, one slot per 128-bit lane of one Python int, so
each step of the mix is one big-int operation, and cuts the flags of the
last chunk to C(n, 2).  A threshold added to every lane leaves one flag bit
per slot; the flags come out as b"0"/b"1" bytes, laid out as an n x n grid
from which each vertex's upper and lower neighbours are each read as one
base-2 numeral.

A kernel whose nested function calls itself deletes that function before
it returns or raises: the function and its closure cell form a reference
cycle, which would keep the call's state alive until the cyclic collector
ran, and set that collector running inside the queries.
"""

from __future__ import annotations

import re
from collections import defaultdict, namedtuple
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

    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is counter-based:
    output(i) depends only on (seed, i), so individual draws are addressable
    without sequential state.  This is the only randomness source in the
    package, and the definition of every draw: ``gnp`` computes the same
    outputs many slots at a time.
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

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u, row in enumerate(self.adj):
            row >>= u + 1
            while row:
                low = row & -row
                row ^= low
                out.append((u, u + low.bit_length()))
        return out

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


class EdgeListError(ValueError):
    """An edge-list file whose content is malformed, named by its path."""


def load_edge_list(path) -> Graph:
    """The graph of the edge-list file at path.  An OSError passes through;
    malformed content, non-ASCII bytes included, is an EdgeListError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return read_edge_list(fh.read())
    except ValueError as exc:
        raise EdgeListError(f"{path}: {exc}") from exc


def format_edge_list(g: Graph) -> str:
    edges = g.edges()
    ends = tuple(x for e in edges for x in e)
    return f"{g.n} {len(edges)}\n" + "%d %d\n" * len(edges) % ends


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_edge_list(g))


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    g = Graph(n)
    full = (1 << n) - 1
    g.adj = [full ^ 1 << v for v in range(n)]
    return g


def complete_multipartite(sizes) -> Graph:
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive integers")
    g = Graph(sum(sizes))
    full = (1 << g.n) - 1
    g.adj = []
    for s in sizes:  # each vertex is adjacent to all but its own part
        g.adj += [full ^ ((1 << s) - 1) << len(g.adj)] * s
    return g


def star(leaves: int) -> Graph:
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def cycle(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(length, [(v, (v + 1) % length) for v in range(length)])


# gnp runs SplitMix64 on _LANES slots at once, one slot per 128-bit lane of
# a Python int: a lane holds a 64-bit value and, after a multiply by a 64-bit
# constant, its full product, so no carry crosses into the next lane.  _ONES
# has a 1 at the bottom of every lane, _RAMP holds k * _GOLDEN mod 2^64 in
# lane k.
_LANES = 1024
_ONES = int.from_bytes((1).to_bytes(16, "little") * _LANES, "little")
_RAMP = int.from_bytes(b"".join((k * _GOLDEN & _MASK64).to_bytes(16, "little")
                                for k in range(_LANES)), "little")
_EDGE_FLAG = bytes.maketrans(b"\x00\x01", b"10")


def _slot_flags(seed: int, threshold: int, count: int) -> bytes:
    """One byte per slot 0..count-1: b"1" iff splitmix64(seed, slot) <
    threshold, else b"0".

    Each chunk of _LANES slots is one int, and each step of the mix is one
    operation on it, masked back to 64 bits per lane.  The counters of the
    next chunk are this chunk's plus _LANES * _GOLDEN per lane.  Adding
    2^64 - threshold to a lane leaves its bit 64 clear exactly when the draw
    is below threshold, and byte 8 of every 16 little-endian bytes holds that
    bit.  Every chunk is whole and the joined flags are cut to count, so a
    call with few slots pays for one whole chunk: gnp(10) takes about
    0.24 ms on a shared 2-core host, where a chunk cut to its 45 slots took
    0.04 ms.
    """
    low = _MASK64 * _ONES
    step = (_LANES * _GOLDEN & _MASK64) * _ONES
    over = ((1 << 64) - threshold) * _ONES
    c = ((seed + _GOLDEN & _MASK64) * _ONES + _RAMP) & low
    out = []
    for _ in range(0, count, _LANES):
        z = ((c ^ c >> 30) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ z >> 27) & low) * 0x94D049BB133111EB & low
        z = (z ^ z >> 31) + over
        out.append(z.to_bytes(16 * _LANES, "little")[8::16])
        c = (c + step) & low
    return b"".join(out)[:count].translate(_EDGE_FLAG)


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) sampled with SplitMix64.

    Edge slots are visited in lexicographic (u, v) order; slot i is present
    iff splitmix64(seed, i) < round(p * 2**64).  Identical (n, p, seed)
    always produce the identical labeled graph on every platform.

    All C(n, 2) draws come from one ``_slot_flags`` call.  Each row u is
    padded with u + 1 b"0" to n flag bytes, and the n x n grid is reversed
    once: row u, read as a base-2 numeral, is then u's upper neighbours, and
    every n-th byte from the end, column u, its lower neighbours.  The flags,
    the rows and the grid hold about 3.5 * n^2 bytes at once (tracemalloc:
    3.4 MiB at n = 1000, 13.5 MiB at n = 2000), against n^2 / 8 for the
    graph itself.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 0:
        raise ValueError("n must be non-negative")
    flags = _slot_flags(seed, round(p * 2.0 ** 64), comb(n, 2))
    zeros = b"0" * n
    parts = []
    o = 0
    for u in range(n):
        parts += zeros[:u + 1], flags[o:o + n - 1 - u]
        o += n - 1 - u
    grid = b"".join(parts)[::-1]
    g = Graph(n)
    g.adj = [int(grid[(n - 1 - u) * n:(n - u) * n], 2) | int(grid[n - 1 - u::n], 2)
             for u in range(n)]
    return g


_LITERAL_RE = re.compile(r"^(K|C|S)(\d+(?:_\d+)*)$")


def parse_pattern_literal(text: str) -> Graph | None:
    """Expand shorthand literals: K5, K3_4, K2_2_2, C5, S4 (star with 4 leaves).

    Returns None when the text is not a literal (load_graph reads it as a path).
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


def load_graph(spec: str) -> Graph:
    """The graph that a CLI or spec argument names: the pattern literal spec
    if it parses as one, and otherwise the edge-list file at the path spec."""
    g = parse_pattern_literal(spec)
    return load_edge_list(spec) if g is None else g


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

# Per-edge participation for 4 <= r <= _PIVOT_DEPTH + 2 is counted over
# packed neighbourhood matrices on hosts of at most _PACKED_MAX_ORDER
# vertices and edge density at least _PACKED_MIN_DENSITY.  Elsewhere the
# n^2-bit ANDs cost more than the enumeration they replace
# (scripts/participation_sweep.py).
_PACKED_MAX_ORDER = 200
_PACKED_MIN_DENSITY = 0.2


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
    rows = defaultdict(lambda: [0] * (R + 1))  # rows[piv][a]: nodes with a chosen vertices
    rows[0][0] = 1
    stack = []

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
            enum(cand, held, rows[piv])

    try:
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
                rows[piv][held + 1] += nonnbr.bit_count()
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
                rows[piv][held] += 1
                rows[first][held] -= 1
    finally:
        del enum
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
    """Exact number of r-cliques for every 1 <= r <= R.

    An enumerating node of the clique tree visits each clique once, from its
    lowest vertex, at a few bitset operations per clique, whatever the
    vertex order; only a pivoting node reads the order.  So the kernel runs
    on g's own labels wherever no node can pivot: R <= _PIVOT_DEPTH, n <
    _PIVOT_PROBE (the root enumerates), or R = _PIVOT_DEPTH + 1 with a root
    that does not pivot, every degree being below n/2.  Elsewhere the
    vertices are relabeled in ascending (degree, label) order, the order
    with which Chiba and Nishizeki (SIAM J. Comput. 1985) list K_r in
    O(a(G)^(r-2) m) time for arboricity a(G): each clique grows from its
    vertex of least degree.
    """
    if not 1 <= R <= EDGE_LIST_MAX_VERTICES:
        raise ValueError(f"R must lie in 1..{EDGE_LIST_MAX_VERTICES}")
    n, adj = g.n, g.adj
    if R > _PIVOT_DEPTH and n >= _PIVOT_PROBE:
        degs = g.degrees()
        if R > _PIVOT_DEPTH + 1 or 2 * max(degs) >= n:
            pos = [0] * n
            for i, v in enumerate(sorted(range(n), key=degs.__getitem__)):  # ties by label
                pos[v] = i
            adj = [0] * n
            for v in range(n):
                row = 0
                for w in bits(g.adj[v]):
                    row |= 1 << pos[w]
                adj[pos[v]] = row
    return CliqueVector(R, tuple(_clique_counts(adj, (1 << n) - 1, R)))


def edge_clique_participation(g: Graph, r: int) -> dict:
    """For each edge e, the number of r-cliques containing e.

    For 4 <= r <= _PIVOT_DEPTH + 2, where the kernel would only enumerate,
    on a host of at most _PACKED_MAX_ORDER vertices and edge density at
    least _PACKED_MIN_DENSITY, the map comes from packed neighbourhood
    matrices (_packed_participation), which take n^3/8 bytes: about 1 MB at
    n = 200.  Otherwise r = 3 is one popcount per edge, an edge whose common
    neighbourhood has fewer than r - 2 vertices gets 0, and every other edge
    takes one kernel call on its common neighbourhood.
    """
    if not 3 <= r <= EDGE_LIST_MAX_VERTICES:
        raise ValueError(f"r must lie in 3..{EDGE_LIST_MAX_VERTICES}")
    m, n = g.m, g.n
    if m == 0:
        raise ValueError("graph has no edges")
    if (4 <= r <= _PIVOT_DEPTH + 2 and n <= _PACKED_MAX_ORDER
            and m >= _PACKED_MIN_DENSITY * comb(n, 2)):
        return _packed_participation(g, r)
    return _kernel_participation(g, r)


def _kernel_participation(g: Graph, r: int) -> dict:
    """edge_clique_participation's map, one kernel call per edge whose common
    neighbourhood may hold an (r-2)-clique."""
    adj = g.adj
    if r == 3:
        return {(u, v): (adj[u] & adj[v]).bit_count() for u, v in g.edges()}
    k = r - 2
    part = {}
    for u, v in g.edges():
        common = adj[u] & adj[v]
        part[(u, v)] = _clique_counts(adj, common, k)[k] if common.bit_count() >= k else 0
    return part


def _packed_participation(g: Graph, r: int) -> dict:
    """edge_clique_participation's map for r >= 4 from packed matrices.

    mats[x] is the upper-triangular adjacency matrix of G[N(x)] as one
    n^2-bit int, bit i*n + j for i < j.  col = adj[x] * rep repeats N(x) in
    every row; (col & diag) * full fills row i from its diagonal on iff i is
    in N(x), the spill into row i+1 lying below its diagonal, and masking
    both with G's own upper triangle up leaves G[N(x)]'s edges.  The AND of
    mats[s] over an (r-2)-clique S holds the edges of S's common
    neighbourhood, so its popcount is the number of r-cliques containing S.
    Each (r-2)-clique is visited once, growing over forward neighbours, and
    its count goes to each of its C(r-2, 2) edges; an r-clique through an
    edge uv holds C(r-2, 2) of the (r-2)-cliques through uv, so one exact
    division ends.
    """
    n, adj = g.n, g.adj
    full = (1 << n) - 1
    rep = ((1 << n * n) - 1) // full  # bit i*n for every row i
    diag = ((1 << n * (n + 1)) - 1) // ((2 << n) - 1)  # bit i*n + i
    up = 0
    for i in reversed(range(n)):
        up = up << n | adj[i] >> i + 1 << i + 1
    mats = []
    for row in adj:
        col = row * rep
        mats.append(up & col & (col & diag) * full)
    fwd = [row >> v + 1 << v + 1 for v, row in enumerate(adj)]
    part = dict.fromkeys(g.edges(), 0)
    k = r - 2

    def grow(clique: list, cand: int, acc: int) -> None:
        if len(clique) + 1 < k:
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                sub, nxt = acc & mats[v], cand & fwd[v]
                if sub and nxt:
                    grow(clique + [v], nxt, sub)
            return
        total = 0  # the last vertex v closes S: c goes to its edges xv here
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            c = (acc & mats[v]).bit_count()
            if c:
                total += c
                for x in clique:
                    part[x, v] += c
        if total:  # and the sum to the edges among the earlier vertices
            for e in combinations(clique, 2):
                part[e] += total

    try:
        grow([], full, -1)
    finally:
        del grow
    if k > 2:
        d = comb(k, 2)
        for e in part:
            part[e] //= d
    return part


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


# A pattern's map-search plan (see _embedding_plan), with the values that
# every search of it reads: stop, the first tail position; top, the tail's
# bound, and after, the position from which the tail's mask lies above top's
# image (both -1 for none); lead, the first feed.
_Plan = namedtuple("_Plan", "prev low size feeds stop top after lead")


def _plan(prev, low, size: int, feeds) -> _Plan:
    k = len(prev)
    top = low[k - size] if size else -1
    return _Plan(tuple(prev), tuple(low), size, tuple(feeds), k - size, top,
                 top + 1 if top >= 0 else -1,
                 feeds.index(True) if True in feeds else k)


def _embedding_plan(f: Graph, root: tuple = ()) -> _Plan:
    """Static vertex order for the map search (most already-placed
    neighbors first) with symmetry-breaking bounds, as a _Plan.

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
    bound.  The group is found by the same map search, of f in itself, over
    the twin bounds alone; the plan returned is built after the bounds above.

    A plan rooted at an arc (a, b) of f places a and b at positions 0 and 1,
    each its own class, and the rest greedily after them.  Its maps are the
    searches that pin a and b (`_search`'s root), so only the stabilizer
    of a and b is left to break: the self-map search that finds it is rooted
    at (a, b) in f as well, and no class's bound points at a or b.

    The last size positions are the tail: the largest independent twin class,
    or else the last vertex (none when only the root is left).  The whole
    class is the tail when every edge of f touches it or the root, so that f
    is K_{s,t} with any isolated vertices; otherwise its first member keeps
    its greedy place.  The tail's members share their neighbours, all placed
    before them, so their images are any size-subset of one set; feeds marks
    the neighbours.
    """
    n = f.n
    degs = f.degrees()
    nbrs = [set(bits(f.adj[v])) for v in range(n)]
    order: list[int] = list(root)
    chosen: set[int] = set(root)
    for _ in range(n - len(root)):
        v = max((u for u in range(n) if u not in chosen),
                key=lambda u: (len(nbrs[u] & chosen), degs[u], -u))
        order.append(v)
        chosen.add(v)
    cls = _twin_classes(f)
    for i, v in enumerate(root):  # a class of its own, named apart
        cls[v] = n + i
    classes = [[v for v in order if cls[v] == c] for c in sorted(set(cls))]
    free = [c for c in classes if len(c) > 1 and c[1] not in nbrs[c[0]]]
    tail = max(free, key=len) if free else order[max(n - 1, len(root)):]
    if free:
        spare = set(tail) | set(root)
        if any(x not in spare and y not in spare for x, y in f.edges()):
            tail = tail[1:]  # an edge misses the class and the root
    order = [v for v in order if v not in tail] + tail
    size = len(tail)
    posof = {v: i for i, v in enumerate(order)}
    prev = [tuple(sorted(posof[w] for w in nbrs[v] if posof[w] < i))
            for i, v in enumerate(order)]
    feeds = [size > 0 and i in prev[-1] for i in range(n)]
    low = [max((j for j in range(i) if cls[order[j]] == cls[v]), default=-1)
           for i, v in enumerate(order)]
    heads = [i for i, t in enumerate(low) if t < 0]  # each class's first position
    head_of = {cls[order[h]]: k for k, h in enumerate(heads)}
    group = []  # each self-map as the permutation of class indices it induces

    def each(images, cand):
        for images[n - size:] in combinations(bits(cand), size):
            group.append([head_of[cls[images[h]]] for h in heads])

    _search(_plan(prev, low, size, feeds), f, root, visit=each)
    for k, h in enumerate(heads):
        for d in {perm[k] for perm in group} - {k}:
            low[heads[d]] = h
        group = [perm for perm in group if perm[k] == k]
    return _plan(prev, low, size, feeds)


def _at_least(adj, mask: int, k: int, full: int) -> int:
    """The vertices of full with at least k >= 1 neighbours in mask, found
    in one pass over mask.  For k <= 3, three saturating registers: adding
    adj[b] for each b of mask, r3 |= r2 & adj[b], then r2 |= r1 & adj[b],
    then r1 |= adj[b], so r_j holds the vertices counted j times or more.
    For larger k, bit-sliced counters: slices[j] holds bit j of every
    vertex's counter.  Each counter starts at 2^w - k, w the bit length of
    k, and adding adj[b] ripples a carry up the w slices; a counter carries
    out of its top slice, into over, iff it has counted k.  Every int stays
    non-negative."""
    if k <= 3:
        r1 = r2 = r3 = 0
        while mask:
            low = mask & -mask
            mask ^= low
            row = adj[low.bit_length() - 1]
            r3 |= r2 & row
            r2 |= r1 & row
            r1 |= row
        return (r1, r2, r3)[k - 1]
    w = k.bit_length()
    slices = [full if ((1 << w) - k) >> j & 1 else 0 for j in range(w)]
    over = 0
    while mask:
        low = mask & -mask
        mask ^= low
        carry = adj[low.bit_length() - 1]
        for j, s in enumerate(slices):
            slices[j] = s ^ carry
            carry &= s
        over |= carry
    return over


def _search(plan: _Plan, g: Graph, root: tuple = (), first: bool = False,
            visit=None) -> int:
    """The map search: the number of copies of a pattern in g, found over
    the pattern's plan one map per copy *prefix*.

    Two maps give the same copy iff they differ by an automorphism of the
    pattern.  The plan's lower bounds admit exactly one map of each
    automorphism orbit.  The search places positions 0..stop-1 and carries
    the tail's mask: the AND of its placed neighbours' neighbourhoods, above
    the tail's bound once that is placed.  A candidate that leaves the mask
    fewer than size vertices is dropped.  At a feed after the first with no
    placed neighbour, where cand is all unused vertices above its bound, the
    mask is a common neighbourhood and _at_least drops those candidates in
    one pass; either way the same candidates are tried in the same order.
    Each size-subset of a full prefix's tail candidates cand completes it to
    one admitted map, so the copies number sum C(|cand|, size).

    With a root (u, v), an edge of g, and a plan rooted at an arc (a, b),
    positions 0 and 1 are pinned to u and v: the search starts at position 2
    with u and v used and the tail's mask cut by their neighbourhoods where
    they feed, so it counts the maps taking a to u and b to v, one per coset
    of the stabilizer of a and b.

    With first, the search stops at the first full prefix with a copy and
    returns its count, so the result is 0 iff there is no copy.  visit, if
    given, is called as visit(images, cand) on each full prefix, in search
    order (images[i] hosts plan position i < stop).
    """
    prev, low, size, feeds, stop, top, after, lead = plan
    gadj = g.adj
    full = (1 << g.n) - 1
    images = [0] * len(prev)

    def rec(i: int, used: int, mask: int) -> int:
        if i == after:  # the tail's images lie above position top's
            mask &= -2 << images[top]
        if i == stop:
            cand = mask & ~used
            if visit:
                visit(images, cand)
            return comb(cand.bit_count(), size)
        cand = full & ~used
        for j in prev[i]:
            cand &= gadj[images[j]]
        t = low[i]
        if t >= 0:
            cand &= -2 << images[t]  # strictly above that position's image
        feed = feeds[i]
        if feed and i > lead and not prev[i]:  # cand is not cut by adjacency
            cand &= _at_least(gadj, mask, size, full)
        total = 0
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
            total += rec(i + 1, used | low_bit, sub)
            if first and total:
                break
        return total

    try:
        if not root:
            return rec(0, 0, full)
        u, v = images[0], images[1] = root
        mask = full
        if feeds[0]:
            mask &= gadj[u]
        if feeds[1]:
            mask &= gadj[v]
        return rec(2, 1 << u | 1 << v, mask) if mask.bit_count() >= size else 0
    finally:
        del rec


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

    def _searchable(self) -> Graph:
        if self.order > COUNTING_MAX_ORDER:
            raise ValueError(
                f"embedding search capped at {COUNTING_MAX_ORDER} pattern vertices")
        return self.graph

    @cached_property
    def plan(self) -> _Plan:
        """The embedding plan of the whole pattern; the empty pattern, which
        has no copy to search for, is refused."""
        if self.order == 0:
            raise ValueError("pattern must have at least one vertex")
        return _embedding_plan(self._searchable())

    @cached_property
    def rooted_plans(self) -> list:
        """One plan rooted at each orbit of Aut(f) on the arcs (a, b), ab an
        edge of f, at its first arc in lexicographic order.  An arc joins the
        orbit of a kept one iff that one's rooted search, pinned to the arc
        in f itself, finds a map: a copy of f holding a host edge uv is then
        found by exactly one plan, the one whose arc maps onto (u, v)."""
        f = self._searchable()
        plans = []
        for a, b in sorted(e for x, y in f.edges() for e in ((x, y), (y, x))):
            if not _copies_through(plans, f, a, b, True):
                plans.append(_embedding_plan(f, (a, b)))
        return plans

    @cached_property
    def max_avg_degree(self) -> Fraction:
        return max_avg_degree(self)

    def __repr__(self):
        return f"Pattern({self.name})"


def pattern(text: str) -> Pattern:
    """The Pattern, named by text, of the literal text if it parses as one,
    and otherwise of the edge-list file at the path text (load_graph's rule)."""
    return Pattern(load_graph(text), text)


def count_copies(f: Pattern, g: Graph) -> int:
    """Number of subgraphs of g isomorphic to f (copies, not induced).  The
    empty pattern is refused, by f.plan."""
    return _search(f.plan, g)


def _copies_through(plans, g: Graph, u: int, v: int, first: bool = False) -> int:
    """The number of copies holding the edge uv of g of the pattern whose
    rooted plans are plans, one search per plan pinned to (u, v); with first,
    1 if there is one and 0 if not, stopping at the first."""
    total = 0
    for plan in plans:
        total += _search(plan, g, (u, v), first)
        if first and total:
            return 1
    return total


def is_free(f: Pattern, g: Graph) -> bool:
    """True iff g contains no copy of f; exits on the first copy found.
    The empty pattern is refused, by f.plan."""
    return not _search(f.plan, g, first=True)


def iter_copies(f: Pattern, g: Graph, limit: int) -> list:
    """The copies of f in g, in search order, each as the tuple of its host
    edges (u, v), u < v, listed by plan position.  The search order, and so
    the order of the copies and of each copy's edges, follows f's plan.

    The search visits each copy once.  More than limit copies is a
    ValueError, raised before a tail that would pass the limit is listed.
    The empty pattern is refused, by f.plan.
    """
    plan = f.plan
    stop, size = plan.stop, plan.size
    key_edges = [(j, i) for i, js in enumerate(plan.prev) for j in js]
    found = []

    def visit(images, cand):
        if len(found) + comb(cand.bit_count(), size) > limit:
            raise ValueError(f"more than {limit} copies of {f.name}")
        for images[stop:] in combinations(bits(cand), size):
            found.append(tuple((min(images[j], images[i]), max(images[j], images[i]))
                               for j, i in key_edges))

    _search(plan, g, visit=visit)
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
    n = g.n
    degs = g.degrees()
    order = sorted(range(n), key=lambda v: (-degs[v], v))
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

    k = 1  # a failed search leaves every colour at -1
    try:
        while not colorable(0, 0, k):
            k += 1
    finally:
        del colorable
    return k


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
