"""Exhaustive ground truth for tiny extremal values.

Graphs are enumerated one isomorphism class at a time by edge augmentation:
children of a class add one edge (between existing vertices, to one fresh
vertex, or as a fresh disjoint edge) and a child is kept only when deleting
its canonically largest edge recreates the parent; a canonical-form set
removes residual duplicates.  Containment by the forbidden pattern is
monotone under edge addition, so pruning non-free children keeps the search
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, Pattern, bits, count_copies, is_free

ORACLE_MAX_EDGES = 8
ORACLE_MAX_N = 8
CANON_MAX_ORDER = 16


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

def _canonical_order(g: Graph) -> list[int]:
    """Vertex order minimizing the packed upper-triangle adjacency string.

    Branch and bound over partial orders: a position contributes the bits of
    the new vertex against the already-placed ones; branches whose prefix
    exceeds the best known string are cut, and interchangeable twin
    candidates are explored once.  Candidate columns are maintained
    incrementally (one shifted bit per level).
    """
    n = g.n
    if n == 0:
        return []
    adj = g.adj
    best = [1 << k for k in range(n)]  # sentinel above any real k-bit column
    best_perm: list[int] | None = None
    order: list[int] = []

    def dfs(k: int, cols: list) -> None:
        nonlocal best_perm
        if k == n:
            best_perm = order[:]
            return
        cands = sorted(cols)
        tried: list[tuple[int, int]] = []
        for col, v in cands:
            if col > best[k]:
                break
            twin = False
            for col2, w in tried:
                if col2 == col:
                    pair = (1 << v) | (1 << w)
                    if adj[v] & ~pair == adj[w] & ~pair:
                        twin = True
                        break
            if twin:
                continue
            tried.append((col, v))
            if col < best[k]:
                best[k] = col
                for j in range(k + 1, n):
                    best[j] = 1 << j
                best_perm = None
            order.append(v)
            dfs(k + 1, [(c << 1 | (adj[w] >> v & 1), w)
                        for c, w in cols if w != v])
            order.pop()

    dfs(0, [(0, v) for v in range(n)])
    assert best_perm is not None
    return best_perm


def _form_from_order(g: Graph, perm: list[int]) -> bytes:
    acc = 0
    nbits = 0
    for k in range(1, g.n):
        col = 0
        av = g.adj[perm[k]]
        for p in perm[:k]:
            col = col << 1 | (av >> p & 1)
        acc = acc << k | col
        nbits += k
    return bytes([g.n]) + acc.to_bytes((nbits + 7) // 8, "big")


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal for two graphs iff they are isomorphic."""
    if g.n > CANON_MAX_ORDER:
        raise ValueError(f"canonical form capped at {CANON_MAX_ORDER} vertices")
    return _form_from_order(g, _canonical_order(g))


def canonical_relabel(g: Graph) -> Graph:
    perm = _canonical_order(g)
    pos = {v: i for i, v in enumerate(perm)}
    return Graph(g.n, [(min(pos[u], pos[v]), max(pos[u], pos[v]))
                       for u, v in g.edges()])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)


def _largest_edge_in_order(g: Graph, perm: list[int]) -> tuple[int, int]:
    """The edge mapping to the largest position pair under the given labeling."""
    for i in range(g.n - 1, 0, -1):
        row = g.adj[perm[i]]
        for j in range(i - 1, -1, -1):
            if row >> perm[j] & 1:
                u, v = perm[i], perm[j]
                return (min(u, v), max(u, v))
    raise ValueError("graph has no edges")


# ---------------------------------------------------------------------------
# Isomorph-free enumeration by edge augmentation
# ---------------------------------------------------------------------------

def _twin_classes(g: Graph) -> list[int]:
    """Union-find classes of vertices with equal neighborhoods apart from each
    other; swapping two class members is an automorphism."""
    n = g.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            pair = (1 << u) | (1 << v)
            if g.adj[u] & ~pair == g.adj[v] & ~pair:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(n)]


class _Enumerator:
    """Edge-augmentation levels of graphs without isolated vertices.

    admissible(graph) must be monotone under edge deletion (true for
    pattern-freeness); non-admissible children are counted but not expanded.
    """

    def __init__(self, max_vertices: int, admissible=None):
        self.max_vertices = max_vertices
        self.admissible = admissible or (lambda g: True)
        self.graphs_examined = 0
        self.classes_examined = 0

    def levels(self, max_edges: int):
        empty = Graph(0)
        level = [(empty, canonical_form(empty))]
        self.classes_examined += 1
        yield 0, level
        for _ in range(max_edges):
            nxt = []
            accepted = set()
            parent_of: dict[bytes, bytes] = {}  # child key -> canonical parent key
            for parent, parent_key in level:
                for child in self._children(parent):
                    self.graphs_examined += 1
                    if not self.admissible(child):
                        continue
                    perm = _canonical_order(child)
                    key = _form_from_order(child, perm)
                    if key in accepted:
                        continue
                    back_key = parent_of.get(key)
                    if back_key is None:
                        e0 = _largest_edge_in_order(child, perm)
                        back = child.remove_edges([e0]).drop_isolated()
                        back_key = canonical_form(back)
                        parent_of[key] = back_key
                    if back_key != parent_key:
                        continue
                    accepted.add(key)
                    self.classes_examined += 1
                    nxt.append((child, key))
            level = nxt
            if not level:
                return
            yield level[0][0].m, level

    def _children(self, g: Graph):
        """One edge added: between existing vertices, to a fresh vertex, or as
        a fresh disjoint edge.  Twin vertices (equal neighborhoods apart from
        each other) attach isomorphically, so only one edge per twin-class
        pair is generated."""
        n = g.n
        cls = _twin_classes(g)
        seen_pairs = set()
        for u in range(n):
            row = ~g.adj[u] & (((1 << n) - 1) ^ ((1 << (u + 1)) - 1))
            for v in bits(row):
                key = (cls[u], cls[v]) if cls[u] <= cls[v] else (cls[v], cls[u])
                if key in seen_pairs:
                    continue
                seen_pairs.add(key)
                yield g.add_edge(u, v)
        if n + 1 <= self.max_vertices:
            fresh = g.padded(n + 1)
            seen_attach = set()
            for u in range(n):
                if cls[u] in seen_attach:
                    continue
                seen_attach.add(cls[u])
                yield fresh.add_edge(u, n)
        if n + 2 <= self.max_vertices:
            yield g.padded(n + 2).add_edge(n, n + 1)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass
class OracleQuery:
    mode: str                 # "mex" or "ex"
    size: int                 # m for mex, n for ex
    target: Pattern
    forbidden: Pattern
    max_edges: int = ORACLE_MAX_EDGES
    max_vertices: int | None = None

    def __post_init__(self):
        if self.mode not in ("mex", "ex"):
            raise ValueError("mode must be 'mex' or 'ex'")
        if self.forbidden.order < 3 and self.forbidden.size < 1:
            raise ValueError("forbidden pattern must have >= 3 vertices or an edge")


@dataclass
class OracleResult:
    value: int
    witness: Graph
    graphs_examined: int
    iso_classes_examined: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "witness": {"n": self.witness.n,
                        "edges": [[u, v] for u, v in self.witness.edges()]},
            "graphsExamined": self.graphs_examined,
            "isoClassesExamined": self.iso_classes_examined,
        }


def mex_exact(query: OracleQuery) -> OracleResult:
    """Exact maximum of target-copy counts over forbidden-free graphs with
    exactly `size` edges and no isolated vertices."""
    if query.mode != "mex":
        raise ValueError("query mode must be 'mex'")
    m = query.size
    if m < 0 or m > query.max_edges:
        raise ValueError(f"edge count must lie in 0..{query.max_edges}")
    if query.target.size == 0:
        raise ValueError("target pattern must have at least one edge")
    max_v = query.max_vertices if query.max_vertices is not None else min(2 * m, 12)
    enum = _Enumerator(max_v, lambda g: is_free(query.forbidden, g))
    final = []
    for edges, level in enum.levels(m):
        if edges == m:
            final = level
    best_val = -1
    best_key = None
    best_graph = None
    for g, key in final:
        val = count_copies(query.target, g)
        if val > best_val or (val == best_val and key < best_key):
            best_val, best_key, best_graph = val, key, g
    if best_graph is None:
        raise ValueError("no admissible graph with the requested edge count")
    return OracleResult(best_val, best_graph,
                        enum.graphs_examined, enum.classes_examined)


def ex_exact(n: int, target: Pattern, forbidden: Pattern) -> OracleResult:
    """Exact maximum of target-copy counts over forbidden-free graphs on
    exactly n vertices."""
    if not 0 <= n <= ORACLE_MAX_N:
        raise ValueError(f"vertex count must lie in 0..{ORACLE_MAX_N}")
    OracleQuery("ex", n, target, forbidden)  # shared validation
    enum = _Enumerator(n, lambda g: is_free(forbidden, g.padded(n)))
    best_val = -1
    best_key = None
    best_graph = None
    for _, level in enum.levels(n * (n - 1) // 2):
        for g, key in level:
            padded = g.padded(n)
            val = count_copies(target, padded)
            if val > best_val or (val == best_val and key < best_key):
                best_val, best_key, best_graph = val, key, padded
    if best_graph is None:
        raise ValueError("no admissible graph on the requested vertex count")
    return OracleResult(best_val, best_graph,
                        enum.graphs_examined, enum.classes_examined)


def mex_exhaustive_reference(m: int, target: Pattern, forbidden: Pattern) -> int:
    """Independent cross-check: enumerate every edge subset of K_{2m} with no
    isomorph rejection at all, filter, maximize."""
    if m < 1:
        return 0
    n = 2 * m
    slots = list(combinations(range(n), 2))
    best = 0
    for chosen in combinations(slots, m):
        g = Graph(n, chosen)
        if is_free(forbidden, g):
            val = count_copies(target, g)
            if val > best:
                best = val
    return best
