"""Exhaustive ground truth for tiny extremal values.

Graphs are enumerated one isomorphism class at a time by canonical edge
augmentation (McKay 1998), one level per edge count (`_levels`): a class is
padded with up to two fresh isolated vertices, each child adds one non-edge
of the padded graph, one per pair of twin classes and read off their lowest
members (`_children`), and each child has one canonical deletion edge, so
that each class has exactly one accepted parent.  The deletion edge is
chosen first by an edge invariant that relabeling preserves, as nauty's
geng does: a child whose added edge falls short of the greatest invariant
is rejected before it is labeled.  Among the edges of greatest invariant,
the one last in canonical order is the deletion edge, and a child is kept
only when its added edge lies in that edge's automorphism orbit.  Two kept
children of one parent are then isomorphic iff their added edges lie in one
orbit of Aut(parent) (McKay 1998; McKay & Piperno 2014), so only the first
child of each such orbit is built and tested.  Degrees only grow as
edges are added, so a parent edge of greatest sorted degree pair (the
parent's floor) has at least that pair in every child: a child whose added
edge has a smaller sorted degree pair in the child cannot be canonical, and
it is rejected before its orbit is looked up or it is built.  A class is
kept only when its added edge has the greatest sorted degree pair of its
edges, so its floor is that edge's pair, carried with the class.  Containment
by the forbidden pattern is monotone under edge addition, so pruning
non-free children keeps the search exact.

A class is labeled only when something reads its labeling, the empty class
included.  A child whose added edge is its only edge of greatest invariant
is canonical without one, and so is a child whose edges of greatest
invariant all join the same two twin classes as its added edge: swapping
twins is an automorphism, so they all lie in the added edge's orbit.  Such
a class carries no generators, not the twin transpositions, which generate
only a subgroup of its automorphism group.  Aut(parent) is read only to
tell apart two children of one parent past its floor, so a parent that came
unlabeled is labeled at its second such child.  A canonical certificate is
read only in `_best`, to break a tie for the best value: it labels the
candidates tied at that value and at the least order, when there are two or
more.

No class is searched whole.  A copy in a child that is not in its parent,
of the forbidden pattern or of the target, holds the child's added edge uv:
so each class carries its target-copy count and whether it contains the
forbidden pattern, each its parent's value plus the searches rooted at uv
(`graphs._copies_through`).  Isolated vertices of a pattern are left to a
binomial and to the host order, so edgeless patterns take the same path.

`_canonical_order` deletes its recursive search before it returns or
raises, as the graph kernels do theirs, so that no labeling leaves a
reference cycle holding its leaves for the cyclic collector.

A query's one size limit is a budget, `ORACLE_MAX_GRAPHS` = 2^19 =
524,288, on the children it generates (its `graphs_examined`): it is
answered iff that count is at most the budget, and refused otherwise.  The
cost of a child varies little from query to query (about 6-13
microseconds of CPU on a 2-core host), so an answer takes at most about
5 s, and a refusal has spent 3-5 s before it is made.  Each level but the
last generates a child, so the budget also bounds the number of levels,
and m needs no cap of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import (EDGE_LIST_MAX_VERTICES, Graph, Pattern, _copies_through,
                     _twin_classes, bits)

ORACLE_MAX_GRAPHS = 2 ** 19


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

def _refine(adj: list[int], cells: list[int], splitters: list[int]) -> None:
    """Refine the ordered partition `cells` (vertex bitmasks) in place until
    every vertex of a cell has as many neighbours in each splitter as the
    other vertices of its cell.  A cell splits by that count into pieces in
    ascending count order, and the pieces become splitters too, so starting
    from all cells (or from a new singleton of an equitable partition) ends
    equitable.  A singleton splitter {v} gives each vertex 0 or 1, so a cell
    that N(v) cuts splits in O(1) into its non-neighbours and neighbours of
    v.  No step looks at a vertex label, so refinement commutes with
    relabeling."""
    n = len(adj)
    for w in splitters:  # grows while it is read
        k = len(cells)
        if k == n:
            return
        if w & (w - 1) == 0:  # a singleton {v}: counts 0 and 1 only
            reach = adj[w.bit_length() - 1]
            i = 0
            while i < k:
                x = cells[i]
                hit = x & reach
                if hit and hit != x:
                    split = [x ^ hit, hit]
                    cells[i:i + 1] = split
                    splitters += split
                    i += 2
                    k += 1
                else:
                    i += 1
            continue
        reach = 0
        rest = w
        while rest:
            low = rest & -rest
            reach |= adj[low.bit_length() - 1]
            rest ^= low
        i = 0
        while i < k:
            x = cells[i]
            if x & (x - 1) == 0 or not x & reach:
                i += 1
                continue
            pieces: dict[int, int] = {}
            rest = x
            while rest:
                low = rest & -rest
                c = (adj[low.bit_length() - 1] & w).bit_count()
                pieces[c] = pieces.get(c, 0) | low
                rest ^= low
            if len(pieces) == 1:
                i += 1
                continue
            split = [pieces[c] for c in sorted(pieces)]
            cells[i:i + 1] = split
            splitters += split
            i += len(split)
            k += len(split) - 1


def _packed(nbrs: list[list[int]], perm: list[int]) -> int:
    """The upper-triangle adjacency string under a vertex order, as an int:
    for k = 1..n-1, k bits telling which of perm[0..k-1] (most significant
    first) are adjacent to perm[k].  nbrs[v] lists the neighbours of v."""
    n = len(perm)
    rbit = [0] * n
    for i, v in enumerate(perm):
        rbit[v] = 1 << (n - 1 - i)
    acc = 0
    for k in range(1, n):
        row = 0
        for w in nbrs[perm[k]]:
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


def _canonical_order(g: Graph) -> tuple[list[int], list[list[int]], int]:
    """Canonical vertex order of g, generators of its automorphism group and
    canonical certificate, by individualization-refinement (McKay & Piperno
    2014).

    The root is the one cell of all vertices, refined to be equitable, so
    that its first split is by ascending degree.  A node individualizes each
    vertex of its first non-singleton cell in turn, placing it in front of
    the rest of its cell, and refines again.  A leaf is a discrete partition, i.e. a vertex order,
    and its certificate is the packed adjacency string of that order; the
    canonical order is the first leaf of least certificate, and that is g's
    certificate: two graphs of one order have equal certificates iff they
    are isomorphic.  Only `_best` reads it.
    Two leaves with equal certificates differ by an automorphism, which is
    recorded.  A child in the orbit of an explored sibling under the
    recorded automorphisms that fix the node's individualized vertices is
    skipped, and a leaf equal to the best one ends the search up to the node
    where their paths part: the rest of that subtree is the automorphism's
    image of one already searched.  Every automorphism is then a product of
    recorded ones.
    """
    n = g.n
    adj = g.adj
    nbrs = [list(bits(row)) for row in adj]  # read by every leaf
    root = [(1 << n) - 1] if n else []
    _refine(adj, root, list(root))
    gens: list[list[int]] = []
    best = None  # (certificate, order, path) of the best leaf so far

    def search(cells: list[int], path: list[int]) -> int:
        """Search below a node; return the depth at which to resume."""
        nonlocal best
        depth = len(path)
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            cert = _packed(nbrs, order)
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

    try:
        search(root, [])
    finally:
        del search
    return best[1], gens, best[0]


def _top_edges(g: Graph, edge: tuple[int, int]) -> list[tuple[int, int]] | None:
    """The edges of g of greatest invariant, or None when edge, given as
    (low, high), is not one of them.  inv(u, v) is the sorted pair of
    endpoint degrees, then the number of common neighbours, then the sorted
    pair of endpoint neighbour-degree sums, compared lexicographically.  No
    part reads a vertex label, so relabeling preserves it.

    The sorted degree pairs are compared first, on vertex masks.  The rest
    is computed only for the edges tied with edge, edge's first, each end's
    degree sum once, and only until one of them exceeds edge's."""
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    a, b = deg[edge[0]], deg[edge[1]]
    if a > b:
        a, b = b, a
    above_a = at_a = above_b = at_b = 0
    for v, d in enumerate(deg):
        if d > a:
            above_a |= 1 << v
        elif d == a:
            at_a |= 1 << v
        if d > b:
            above_b |= 1 << v
        elif d == b:
            at_b |= 1 << v
    # An edge's sorted degree pair exceeds (a, b) iff both of its ends lie
    # above a, or one end has degree a and the other lies above b.
    rest = above_a
    while rest:
        low = rest & -rest
        if adj[low.bit_length() - 1] & above_a:
            return None
        rest ^= low
    tied = []  # each edge with ends of degree a and b once, as (low, high)
    rest = at_a
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if adj[u] & above_b:
            return None
        for v in bits(adj[u] & at_b):
            if u < v:
                tied.append((u, v))
            elif a < b:
                tied.append((v, u))
        rest ^= low
    if len(tied) == 1:
        return tied
    tied.remove(edge)
    sums = {}  # the neighbour-degree sum of each end reached
    top = []
    mine = None
    for u, v in (edge, *tied):
        for x in u, v:
            if x not in sums:
                total = 0
                rest = adj[x]
                while rest:
                    low = rest & -rest
                    total += deg[low.bit_length() - 1]
                    rest ^= low
                sums[x] = total
        common = (adj[u] & adj[v]).bit_count()
        su, sv = sums[u], sums[v]
        inv = (common, su, sv) if su <= sv else (common, sv, su)
        if mine is None:
            mine = inv
        elif inv > mine:
            return None
        elif inv < mine:
            continue
        top.append((u, v))
    return top


def _last_in_order(edges: list[tuple[int, int]], perm: list[int]) -> tuple[int, int]:
    """The edge mapping to the largest position pair under the vertex order."""
    pos = [0] * len(perm)
    for i, v in enumerate(perm):
        pos[v] = i
    return max(edges, key=lambda e: (max(pos[e[0]], pos[e[1]]),
                                     min(pos[e[0]], pos[e[1]])))


def _twins_settle(g: Graph, edge: tuple[int, int],
                  top: list[tuple[int, int]]) -> bool:
    """Whether every edge of top joins the same unordered pair of twin
    classes of g as edge.  A permutation within a twin class is an
    automorphism, so two twin transpositions then map each edge of top onto
    edge, and top lies in edge's Aut(g)-orbit."""
    cls = _twin_classes(g)
    pair = {cls[edge[0]], cls[edge[1]]}
    return all({cls[a], cls[b]} == pair for a, b in top)


def _edge_orbit(start: tuple[int, int], gens: list[list[int]]) -> set[tuple[int, int]]:
    """The orbit of the edge start under the group gens generate."""
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
    return orbit


# ---------------------------------------------------------------------------
# Isomorph-free enumeration by edge augmentation
# ---------------------------------------------------------------------------

def _core(p: Pattern) -> Pattern:
    """p without its isolated vertices, the rest relabeled in order."""
    keep = [v for v, row in enumerate(p.graph.adj) if row]
    pos = {v: i for i, v in enumerate(keep)}
    return Pattern(Graph(len(keep), [(pos[x], pos[y]) for x, y in p.graph.edges()]))


def _levels(max_edges: int, target: Pattern, forbidden: Pattern,
            order: int | None = None) -> tuple[list, int]:
    """(levels, examined): levels[m] lists the admissible classes with m
    edges and no isolated vertex, as records (graph, copies, contains, gens,
    floor): T' copies, whether it contains F', Aut generators or None, and
    degree floor.  Levels stop at max_edges or at the first empty level;
    examined counts the children generated.  After each parent's children
    it is checked against `ORACLE_MAX_GRAPHS`, read at call time, and a
    ValueError that names the budget is raised once it is exceeded.

    Write F = F' + kK1 for forbidden and T = T' + jK1 for target, F' and T'
    without isolated vertices.  A class is admissible iff it does not contain
    F' or its host order, order or else its own, is below |F|; this is
    monotone under edge deletion, so a child that fails it is counted but
    not expanded.  A child adds the edge uv to its parent, so its copies of
    T' are the parent's plus those through uv, and it contains F' iff the
    parent does or a copy goes through uv: both come from searches rooted at
    uv (`graphs._copies_through`), never from a whole-graph search.

    A parent on n vertices is padded to n + 2, capped at order when given,
    and its generators are extended to fix the fresh vertices; a class with
    j edges and no isolated vertex has at most 2j vertices, so mex needs no
    cap.  Children whose added edges lie in one orbit of Aut(parent) pass
    or fail every test alike, and two kept children in different orbits are
    not isomorphic (McKay 1998): so only the first child of each orbit is
    built and tested.  The first child past the floor shares an orbit with
    no explored child, so the generators are first read at the second: they
    are kept from the parent's own labeling, or, if it was accepted
    unlabeled, it is labeled then, and the orbits start with the first
    child's.

    A child is canonical iff its added edge lies in the orbit of its
    deletion edge, the last in canonical order of the edges that
    `_top_edges` returns.  When that is one edge it is the added edge, and
    the child is kept unlabeled, with generators None.  When the edges all
    join the added edge's two twin classes (`_twins_settle`), twin swaps map
    the deletion edge, whichever it is, onto the added edge, and the child
    is kept unlabeled too.  Its generators are None rather than the twin
    transpositions: those may generate a proper subgroup of Aut(child), and
    the orbits of its children must be full orbits, or two isomorphic
    children would both be kept; so it is labeled, as any unlabeled class,
    at its second child past the floor.  Otherwise the child is labeled,
    and kept with its generators if canonical.

    Before its orbit is looked up, a child whose added edge's sorted degree
    pair in the child lies below the parent's floor is rejected unbuilt,
    since a parent edge then outranks it; Aut(parent) preserves degrees, so
    a whole orbit passes or fails this together.  The floor is the greatest
    sorted degree pair of the parent's edges, (0, 0) for the empty graph: a
    kept child's is the pair of its added edge, which `_top_edges` has
    checked is the greatest, so each class carries it with its generators."""
    # on the whole patterns, before enumerating: a core can lie under the cap
    target._searchable()
    forbidden._searchable()
    counted = _core(target).rooted_plans
    banned = _core(forbidden).rooted_plans

    def admissible(contains, n: int) -> bool:
        return not contains or (n if order is None else order) < forbidden.order

    # The empty graph holds one copy of T' and contains F' iff they are empty.
    start = (Graph(0), int(not counted), not banned, [], (0, 0))
    levels = [[start] if admissible(start[2], 0) else []]
    examined = 0
    while len(levels) <= max_edges:
        nxt = []
        for parent, copies, held, parent_gens, floor in levels[-1]:
            padded = parent.padded(parent.n + 2 if order is None
                                   else min(parent.n + 2, order))
            fresh = list(range(parent.n, padded.n))
            deg = padded.degrees()
            first = None  # the first child past the floor
            done = set()  # orbits of the children explored, once a second comes
            for edge in _children(padded):
                examined += 1
                u, v = edge
                du, dv = deg[u] + 1, deg[v] + 1
                pair = (du, dv) if du <= dv else (dv, du)
                if pair < floor:
                    continue  # a parent edge outranks edge in the child
                if edge in done:
                    continue
                if first is None:
                    first = edge  # no explored child to share an orbit with
                else:
                    if not done:
                        if parent_gens is None:
                            parent_gens = _canonical_order(parent)[1]
                        padded_gens = [gamma + fresh for gamma in parent_gens]
                        done = _edge_orbit(first, padded_gens)
                        if edge in done:
                            continue
                    done |= _edge_orbit(edge, padded_gens)
                child = parent.padded(max(parent.n, v + 1))
                child.adj[u] |= 1 << v
                child.adj[v] |= 1 << u
                top = _top_edges(child, edge)
                if top is None:
                    continue
                contains = held or _copies_through(banned, child, u, v, True) > 0
                if not admissible(contains, child.n):
                    continue
                if len(top) == 1 or _twins_settle(child, edge, top):
                    gens = None  # edge is in the deletion edge's orbit: canonical
                else:
                    perm, gens, _ = _canonical_order(child)
                    if edge not in _edge_orbit(_last_in_order(top, perm), gens):
                        continue
                nxt.append((child, copies + _copies_through(counted, child, u, v),
                            contains, gens, pair))
            if examined > ORACLE_MAX_GRAPHS:
                raise ValueError(f"over the oracle's budget: the query examines more "
                                 f"than {ORACLE_MAX_GRAPHS:,} graphs")
        if not nxt:
            break
        levels.append(nxt)
    return levels, examined


def _children(g: Graph):
    """The non-edges of g that make its children, one per pair of twin
    classes (twins attach isomorphically), in lexicographic order.  Twins
    share their neighbours outside their class, so the first non-edge
    between two classes joins their lowest members, and the first inside a
    class of non-adjacent twins joins its two lowest members: each lowest
    member u is joined to the lowest members above it that it misses, and
    to its own second member.  On a padded parent the fresh vertices are
    twins of each other only, so an edge joins two parent vertices, a
    parent vertex and the first fresh vertex, or the two fresh vertices."""
    lowest = 0
    second = {}  # each class's second member, as a mask
    for v, c in enumerate(_twin_classes(g)):
        if c == v:
            lowest |= 1 << v
        elif c not in second:
            second[c] = 1 << v
    for u in bits(lowest):
        ends = (lowest | second.get(u, 0)) >> u + 1 << u + 1  # those above u
        for v in bits(ends & ~g.adj[u]):
            yield u, v


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    """graphs_examined counts every child generated, including those skipped
    unbuilt as duplicates within an Aut(parent) orbit.  The witness is the
    class of greatest value, then of least order, then of least canonical
    certificate; only classes tied at that value and order are labeled to
    find it, and only when there are two or more (`_best`)."""

    value: int
    witness: Graph
    graphs_examined: int
    iso_classes_examined: int


def _best(candidates, scale: int, levels: list, examined: int,
          none_msg: str) -> OracleResult:
    """The `_levels` record (graph, copies, *_) with the most target copies,
    scale per T' copy; a tie goes to the least order, then to the least
    canonical certificate, which tells apart classes of one order.  The
    tie-break is the only reader of a certificate, so the candidates tied
    at the greatest scaled count and the least order are labeled here, and
    only when there are two or more.  The empty class is alone at order 0,
    so it is never labeled.  Every class examined lies in one level."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError(none_msg)
    rank = max((copies * scale, -g.n) for g, copies, *_ in candidates)
    tied = [g for g, copies, *_ in candidates if (copies * scale, -g.n) == rank]
    if len(tied) > 1:
        tied.sort(key=lambda g: _canonical_order(g)[2])
    return OracleResult(rank[0], tied[0], examined, sum(map(len, levels)))


def _check_forbidden(forbidden: Pattern) -> None:
    if forbidden.order < 3 and forbidden.size < 1:
        raise ValueError("forbidden pattern must have >= 3 vertices or an edge")


def mex_exact(m: int, target: Pattern, forbidden: Pattern) -> OracleResult:
    """Exact maximum of target-copy counts over forbidden-free graphs with
    exactly m edges and no isolated vertices.  Any m >= 0 is taken; the
    query is refused with a ValueError, after about 3-5 s of CPU on a
    2-core host, once it examines more than `ORACLE_MAX_GRAPHS` graphs."""
    _check_forbidden(forbidden)
    if m < 0:
        raise ValueError("edge count must be non-negative")
    if target.size == 0:
        raise ValueError("target pattern must have at least one edge")
    if not all(target.graph.adj):
        # each added isolated vertex would add target copies
        raise ValueError("target pattern must have no isolated vertex: "
                         "mex is unbounded for it")
    levels, examined = _levels(m, target, forbidden)
    return _best(levels[m] if m < len(levels) else [], 1, levels, examined,
                 "no admissible graph with the requested edge count")


def ex_exact(n: int, target: Pattern, forbidden: Pattern) -> OracleResult:
    """Exact maximum of target-copy counts over forbidden-free graphs on
    exactly n vertices.  n may lie in 0..EDGE_LIST_MAX_VERTICES, as the
    witness is padded to n vertices; the query is refused with a
    ValueError, after about 3-5 s of CPU on a 2-core host, once it examines
    more than `ORACLE_MAX_GRAPHS` graphs."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > EDGE_LIST_MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds cap {EDGE_LIST_MAX_VERTICES}")
    _check_forbidden(forbidden)
    if target.order == 0:
        raise ValueError("pattern must have at least one vertex")
    levels, examined = _levels(n * (n - 1) // 2, target, forbidden, n)
    # a copy of T = T' + jK1 is a copy of T' and j of the other vertices
    t_order = sum(1 for row in target.graph.adj if row)
    scale = comb(n - t_order, target.order - t_order) if n >= t_order else 0
    res = _best((c for level in levels for c in level), scale, levels, examined,
                "no admissible graph on the requested vertex count")
    res.witness = res.witness.padded(n)
    return res
