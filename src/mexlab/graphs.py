"""Bitset-backed graphs, deterministic generators, and exact subgraph counting.

Adjacency is stored as one Python int per vertex (bit v of ``adj[u]`` is the
edge uv).  All counting routines are exact integer computations and pure
functions of the graph, so results never depend on evaluation order.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


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

    def to_json(self) -> dict:
        return {f"k{r}": self.counts[r] for r in range(1, self.R + 1)}


def _degeneracy_order(g: Graph) -> list[int]:
    n = g.n
    cur = g.degrees()
    heap = [(d, v) for v, d in enumerate(cur)]
    heapq.heapify(heap)
    removed = [False] * n
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != cur[v]:
            continue
        removed[v] = True
        order.append(v)
        for w in bits(g.adj[v]):
            if not removed[w]:
                cur[w] -= 1
                heapq.heappush(heap, (cur[w], w))
    return order


def _clique_counts(adj, cand: int, R: int) -> list:
    """counts[k] is the number of k-cliques inside cand, for 0 <= k <= R.

    Each clique is grown from its lowest vertex upward, so adj[v] may hold
    neighbors on both sides of v.
    """
    counts = [1] + [0] * R

    def rec(cand: int, size: int) -> None:
        size += 1
        counts[size] += cand.bit_count()
        if size >= R:
            return
        while cand:
            low = cand & -cand
            cand ^= low
            sub = cand & adj[low.bit_length() - 1]
            if sub:
                rec(sub, size)

    rec(cand, 0)
    return counts


def count_cliques(g: Graph, R: int) -> CliqueVector:
    """Exact number of r-cliques for every 1 <= r <= R."""
    if not 1 <= R <= EDGE_LIST_MAX_VERTICES:
        raise ValueError(f"R must lie in 1..{EDGE_LIST_MAX_VERTICES}")
    n = g.n
    pos = [0] * n
    for i, v in enumerate(_degeneracy_order(g)):
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
    permutation within one class is an automorphism."""
    adj = g.adj

    def twins(u: int, w: int) -> bool:
        pair = 1 << u | 1 << w
        return adj[u] & ~pair == adj[w] & ~pair

    return [next(u for u in range(v + 1) if twins(u, v)) for v in range(g.n)]


def _embedding_plan(f: Graph):
    """Static vertex order for backtracking: most already-placed neighbors first.

    Returns (order, prev, twin) where prev[i] lists the positions of earlier
    order entries adjacent to order[i] in f, and twin[i] is the latest earlier
    position holding a twin of order[i], or -1.
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
    posof = {v: i for i, v in enumerate(order)}
    prev = [tuple(sorted(posof[w] for w in nbrs[v] if posof[w] < i))
            for i, v in enumerate(order)]
    cls = _twin_classes(f)
    twin = [max((j for j in range(i) if cls[order[j]] == cls[v]), default=-1)
            for i, v in enumerate(order)]
    return order, prev, twin


def _search_embeddings(f: Pattern, g: Graph, visit) -> bool:
    """Enumerate injective edge-preserving maps f -> g, one per orbit of f's
    twin group.

    Permuting a twin class is an automorphism of f, so a map is visited only
    if its images rise along the plan within each twin class.  Each orbit
    holds one such map, so the visits number the maps over the product of
    |class|!.

    visit(images) is called on each visited map (images[i] hosts plan
    position i); it returns True to continue or False to stop the search.
    Returns False iff a visit stopped the search.
    """
    if f.order > COUNTING_MAX_ORDER:
        raise ValueError(
            f"embedding search capped at {COUNTING_MAX_ORDER} pattern vertices")
    _, prev, twin = f.plan
    k = f.order
    if k == 0:
        return visit([])
    gadj = g.adj
    full = (1 << g.n) - 1
    images = [0] * k

    def rec(i: int, used: int) -> bool:
        if i == k:
            return visit(images)
        cand = full & ~used
        for j in prev[i]:
            cand &= gadj[images[j]]
        t = twin[i]
        if t >= 0:
            cand &= -2 << images[t]  # strictly above the twin's image
        while cand:
            low = cand & -cand
            cand ^= low
            images[i] = low.bit_length() - 1
            if not rec(i + 1, used | low):
                return False
        return True

    return rec(0, 0)


def _stop(_) -> bool:
    """Visitor that ends a search at its first map."""
    return False


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
        return _embedding_plan(self.graph)

    @cached_property
    def self_maps(self) -> int:
        """Automorphisms counted one per orbit of the twin group."""
        return _count_maps(self, self.graph)

    @cached_property
    def aut_count(self) -> int:
        """Number of adjacency-preserving vertex permutations: self_maps
        times the twin group's order, the product of |class|! over classes."""
        cls = _twin_classes(self.graph)
        return self.self_maps * math.prod(math.factorial(cls.count(c)) for c in set(cls))

    @cached_property
    def max_avg_degree(self) -> Fraction:
        return max_avg_degree(self)

    def __repr__(self):
        return f"Pattern({self.name})"


def pattern(spec, name: str | None = None) -> Pattern:
    """Build a Pattern from a Graph or a shorthand literal like 'K3_4'."""
    if isinstance(spec, Pattern):
        return spec
    if isinstance(spec, Graph):
        return Pattern(spec, name)
    g = parse_pattern_literal(spec)
    if g is None:
        raise ValueError(f"not a pattern literal: {spec!r}")
    return Pattern(g, name or spec)


def _count_maps(f: Pattern, g: Graph) -> int:
    """Injective edge-preserving maps f -> g, one per orbit of f's twin group."""
    total = 0

    def visit(_):
        nonlocal total
        total += 1
        return True

    _search_embeddings(f, g, visit)
    return total


def count_copies(f: Pattern, g: Graph) -> int:
    """Number of subgraphs of g isomorphic to f (copies, not induced).

    copies = injective maps / |Aut(f)|; the search leaves the twin group's
    factor out of both counts, so copies = maps(f, g) // maps(f, f).
    """
    if f.order == 0:
        raise ValueError("pattern must have at least one vertex")
    total = _count_maps(f, g)
    assert total % f.self_maps == 0
    return total // f.self_maps


def is_free(f: Pattern, g: Graph) -> bool:
    """True iff g contains no copy of f; exits on the first embedding found."""
    return _search_embeddings(f, g, _stop)


def iter_copies(f: Pattern, g: Graph, limit: int):
    """Distinct copies of f in g as (vertex frozenset, edge frozenset) pairs,
    sorted for deterministic downstream processing.

    The search finds each copy |Aut(f)| / |twin group| times, so found
    copies are deduplicated.  More than limit distinct copies is a
    ValueError, raised as soon as the search finds one too many.
    """
    fedges = f.graph.edges()
    seen = set()

    def visit(images):
        vs = frozenset(images)
        es = frozenset((min(images[x], images[y]), max(images[x], images[y]))
                       for x, y in key_edges)
        seen.add((vs, es))
        if len(seen) > limit:
            raise ValueError(f"more than {limit} copies of {f.name}")
        return True

    order = f.plan[0]
    posof = {v: i for i, v in enumerate(order)}
    key_edges = [(posof[x], posof[y]) for x, y in fedges]
    _search_embeddings(f, g, visit)
    return sorted(seen, key=lambda c: (sorted(c[0]), sorted(c[1])))


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
