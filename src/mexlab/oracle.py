"""Exhaustive ground truth for tiny extremal values.

Graphs are enumerated one isomorphism class at a time by canonical edge
augmentation (McKay 1998): children of a class add one edge (between
existing vertices, to one fresh vertex, or as a fresh disjoint edge) and a
child is kept only when its added edge lies in the automorphism orbit of its
canonical deletion edge, so that each class has exactly one accepted parent;
isomorphic siblings are merged by canonical form.  Containment by the
forbidden pattern is monotone under edge addition, so pruning non-free
children keeps the search exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, Pattern, _twin_classes, bits, count_copies, is_free

ORACLE_MAX_EDGES = 8
ORACLE_MAX_N = 8
CANON_MAX_ORDER = 16


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

def _refine(adj: list[int], cells: list[int], splitters: list[int]) -> None:
    """Refine the ordered partition `cells` (vertex bitmasks) in place until
    every vertex of a cell has as many neighbours in each splitter as the
    other vertices of its cell.  A cell splits by that count into pieces in
    ascending count order, and the pieces become splitters too, so starting
    from all cells (or from a new singleton of an equitable partition) ends
    equitable.  No step looks at a vertex label, so refinement commutes with
    relabeling."""
    n = len(adj)
    for w in splitters:  # grows while it is read
        if len(cells) == n:
            return
        reach = 0
        for v in bits(w):
            reach |= adj[v]
        i = 0
        while i < len(cells):
            x = cells[i]
            if x & (x - 1) == 0 or not x & reach:
                i += 1
                continue
            pieces: dict[int, int] = {}
            for v in bits(x):
                c = (adj[v] & w).bit_count()
                pieces[c] = pieces.get(c, 0) | 1 << v
            if len(pieces) == 1:
                i += 1
                continue
            split = [pieces[c] for c in sorted(pieces)]
            cells[i:i + 1] = split
            splitters += split
            i += len(split)


def _packed(adj: list[int], perm: list[int]) -> int:
    """The upper-triangle adjacency string under a vertex order, as an int:
    for k = 1..n-1, k bits telling which of perm[0..k-1] (most significant
    first) are adjacent to perm[k]."""
    n = len(perm)
    rbit = [0] * n
    for i, v in enumerate(perm):
        rbit[v] = 1 << (n - 1 - i)
    acc = 0
    for k in range(1, n):
        row = 0
        for w in bits(adj[perm[k]]):
            row |= rbit[w]
        acc = acc << k | row >> (n - k)
    return acc


def _orbit_closure(mask: int, gens: list[list[int]]) -> int:
    """The union of the orbits of the vertices in mask under gens."""
    frontier = mask
    while frontier:
        grown = 0
        for v in bits(frontier):
            for gamma in gens:
                grown |= 1 << gamma[v]
        frontier = grown & ~mask
        mask |= frontier
    return mask


def _canonical_order(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Canonical vertex order of g and generators of its automorphism group,
    by individualization-refinement (McKay & Piperno 2014).

    The root is the partition of the vertices by ascending degree, refined
    to be equitable.  A node individualizes each vertex of its first
    non-singleton cell in turn, placing it in front of the rest of its cell,
    and refines again.  A leaf is a discrete partition, i.e. a vertex order,
    and its certificate is the packed adjacency string of that order; the
    canonical order is the first leaf of least certificate.  Two leaves with
    equal certificates differ by an automorphism, which is recorded.  A child
    in the orbit of an explored sibling under the recorded automorphisms
    that fix the node's individualized vertices is skipped, and a leaf equal
    to the best one ends the search up to the node where their paths part:
    the rest of that subtree is the automorphism's image of one already
    searched.  Every automorphism is then a product of recorded ones.
    """
    n = g.n
    adj = g.adj
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    root = [by_degree[d] for d in sorted(by_degree)]
    _refine(adj, root, list(root))
    gens: list[list[int]] = []
    best = None  # (certificate, order, path) of the best leaf so far

    def search(cells: list[int], path: list[int]) -> int:
        """Search below a node; return the depth at which to resume."""
        nonlocal best
        depth = len(path)
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            cert = _packed(adj, order)
            if best is None or cert < best[0]:
                best = (cert, order, path)
            elif cert == best[0]:
                gamma = [0] * n
                for v, w in zip(best[1], order):
                    gamma[v] = w
                gens.append(gamma)
                depth = 0  # resume where the two paths part
                while path[depth] == best[2][depth]:
                    depth += 1
            return depth
        t = 0
        while cells[t] & (cells[t] - 1) == 0:
            t += 1
        target = cells[t]
        done = 0  # explored children and, once known, their orbits
        applied = 0
        for v in bits(target):
            low = 1 << v
            if done:
                if applied < len(gens):
                    applied = len(gens)
                    done = _orbit_closure(done, [
                        gamma for gamma in gens
                        if all(gamma[p] == p for p in path)])
                if done & low:
                    continue
            done |= low
            child = cells[:t] + [low, target ^ low] + cells[t + 1:]
            _refine(adj, child, [low])
            back = search(child, path + [v])
            if back < depth:
                return back
        return depth

    search(root, [])
    return best[1], gens


def _form_from_order(g: Graph, perm: list[int]) -> bytes:
    nbits = g.n * (g.n - 1) // 2
    return bytes([g.n]) + _packed(g.adj, perm).to_bytes((nbits + 7) // 8, "big")


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal for two graphs iff they are isomorphic."""
    if g.n > CANON_MAX_ORDER:
        raise ValueError(f"canonical form capped at {CANON_MAX_ORDER} vertices")
    return _form_from_order(g, _canonical_order(g)[0])


def _largest_edge_in_order(g: Graph, perm: list[int]) -> tuple[int, int]:
    """The edge mapping to the largest position pair under the given labeling."""
    for i in range(g.n - 1, 0, -1):
        row = g.adj[perm[i]]
        for j in range(i - 1, -1, -1):
            if row >> perm[j] & 1:
                u, v = perm[i], perm[j]
                return (min(u, v), max(u, v))
    raise ValueError("graph has no edges")


def _in_edge_orbit(edge: tuple[int, int], start: tuple[int, int],
                   gens: list[list[int]]) -> bool:
    """Whether edge lies in the orbit of start under the group gens generate."""
    orbit = {start}
    frontier = [start]
    while frontier:
        u, v = frontier.pop()
        for gamma in gens:
            a, b = gamma[u], gamma[v]
            image = (a, b) if a < b else (b, a)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return edge in orbit


# ---------------------------------------------------------------------------
# Isomorph-free enumeration by edge augmentation
# ---------------------------------------------------------------------------

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
            for parent, _ in level:
                siblings = set()
                for child, edge in self._children(parent):
                    self.graphs_examined += 1
                    if not self.admissible(child):
                        continue
                    perm, gens = _canonical_order(child)
                    deletion = _largest_edge_in_order(child, perm)  # canonical
                    if not _in_edge_orbit(edge, deletion, gens):
                        continue
                    key = _form_from_order(child, perm)
                    if key in siblings:
                        continue
                    siblings.add(key)
                    self.classes_examined += 1
                    nxt.append((child, key))
            level = nxt
            if not level:
                return
            yield level[0][0].m, level

    def _children(self, g: Graph):
        """(child, added edge) pairs, one edge added: between existing
        vertices, to a fresh vertex, or as a fresh disjoint edge.  Twin
        vertices (equal neighborhoods apart from each other) attach
        isomorphically, so only one edge per twin-class pair is generated."""
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
                yield g.add_edge(u, v), (u, v)
        if n + 1 <= self.max_vertices:
            fresh = g.padded(n + 1)
            seen_attach = set()
            for u in range(n):
                if cls[u] in seen_attach:
                    continue
                seen_attach.add(cls[u])
                yield fresh.add_edge(u, n), (u, n)
        if n + 2 <= self.max_vertices:
            yield g.padded(n + 2).add_edge(n, n + 1), (n, n + 1)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

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


def _best(enum: _Enumerator, target: Pattern, candidates, none_msg: str) -> OracleResult:
    """The (graph, canonical key) candidate with the most target copies; a
    tie goes to the smaller key.  Reads enum's counters once candidates,
    which may be drawn from it lazily, are exhausted."""
    best = min(((count_copies(target, g), key, g) for g, key in candidates),
               key=lambda c: (-c[0], c[1]), default=None)
    if best is None:
        raise ValueError(none_msg)
    return OracleResult(best[0], best[2], enum.graphs_examined, enum.classes_examined)


def _check_forbidden(forbidden: Pattern) -> None:
    if forbidden.order < 3 and forbidden.size < 1:
        raise ValueError("forbidden pattern must have >= 3 vertices or an edge")


def mex_exact(m: int, target: Pattern, forbidden: Pattern) -> OracleResult:
    """Exact maximum of target-copy counts over forbidden-free graphs with
    exactly m edges and no isolated vertices."""
    _check_forbidden(forbidden)
    if m < 0 or m > ORACLE_MAX_EDGES:
        raise ValueError(f"edge count must lie in 0..{ORACLE_MAX_EDGES}")
    if target.size == 0:
        raise ValueError("target pattern must have at least one edge")
    if not all(target.graph.adj):
        # each added isolated vertex would add target copies
        raise ValueError("target pattern must have no isolated vertex: "
                         "mex is unbounded for it")
    enum = _Enumerator(2 * m, lambda g: is_free(forbidden, g))
    final = []
    for edges, level in enum.levels(m):
        if edges == m:
            final = level
    return _best(enum, target, final,
                 "no admissible graph with the requested edge count")


def ex_exact(n: int, target: Pattern, forbidden: Pattern) -> OracleResult:
    """Exact maximum of target-copy counts over forbidden-free graphs on
    exactly n vertices."""
    if not 0 <= n <= ORACLE_MAX_N:
        raise ValueError(f"vertex count must lie in 0..{ORACLE_MAX_N}")
    _check_forbidden(forbidden)
    enum = _Enumerator(n, lambda g: is_free(forbidden, g.padded(n)))
    candidates = ((g.padded(n), key) for _, level in enum.levels(n * (n - 1) // 2)
                  for g, key in level)
    return _best(enum, target, candidates,
                 "no admissible graph on the requested vertex count")
