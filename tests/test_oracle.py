"""Canonical labeling and the exhaustive small-case maxima."""

import hashlib
import math
import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bowtie, cyclic_garbage, disjoint_union, k4_minus_edge,
                      label_ordered_edge_sets, mex_exhaustive_reference, path,
                      petersen, ref)
from mexlab.bounds import lemma_constant
from mexlab.graphs import (Graph, Pattern, complete, complete_multipartite, cycle,
                           format_edge_list, gnp, pattern, star)
from mexlab import graphs, oracle
from mexlab.oracle import (_best, _canonical_order, _children, _edge_orbit,
                           _last_in_order, _levels, _refine, _top_edges, ex_exact,
                           mex_exact)

TWO_K2 = Pattern(Graph(4, [(0, 1), (2, 3)]), "2K2")

# OEIS A000664: graphs with m edges and no isolated vertices, m = 0..11.
A000664 = [1, 1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613, 15216]
# OEIS A000088: graphs on n vertices, n = 0..7.
A000088 = [1, 1, 2, 4, 11, 34, 156, 1044]
# OEIS A006785 and A006786: triangle-free and C4-free graphs on n vertices,
# n = 0..9.
A006785 = [1, 1, 2, 3, 7, 14, 38, 107, 410, 1897]
A006786 = [1, 1, 2, 4, 8, 18, 44, 117, 351, 1230]


def _relabeled(n, edges, perm):
    return Graph(n, [(min(perm[u], perm[v]), max(perm[u], perm[v]))
                     for u, v in edges])


def _without_isolated(g):
    """g with its isolated vertices removed, the rest relabeled in order."""
    verts = [v for v in range(g.n) if g.adj[v]]
    pos = {v: i for i, v in enumerate(verts)}
    return Graph(len(verts), [(pos[u], pos[v]) for u, v in g.edges()])


def _form(g):
    """(order, canonical certificate): equal for two graphs iff they are
    isomorphic, and ordered as the oracle breaks its ties."""
    return g.n, _canonical_order(g)[2]


def _same_class(g, h):
    return _form(g) == _form(h)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_examples():
    assert _form(cycle(4)) == _form(complete_multipartite([2, 2]))
    assert _form(path(4)) != _form(star(3))


def test_all_four_vertex_classes_distinct():
    slots = list(combinations(range(4), 2))
    forms = set()
    for k in range(7):
        for chosen in combinations(slots, k):
            forms.add(_form(Graph(4, chosen)))
    assert len(forms) == 11


def _canonical_relabel(g):
    """g relabeled so that vertex i is the i-th of its canonical order."""
    pos = {v: i for i, v in enumerate(_canonical_order(g)[0])}
    return Graph(g.n, [(min(pos[u], pos[v]), max(pos[u], pos[v]))
                       for u, v in g.edges()])


def test_canonical_relabel_is_isomorphic_and_stable():
    for seed in range(20):
        g = gnp(8, 0.4, seed)
        h = _canonical_relabel(g)
        assert sorted(_canonical_order(g)[0]) == list(range(g.n))
        assert (h.n, h.m) == (g.n, g.m)
        assert _form(g) == _form(h)
        assert _canonical_relabel(h).edges() == h.edges()


@given(st.integers(2, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_isomorphism_invariant(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    perm = data.draw(st.permutations(range(n)))
    g = Graph(n, chosen)
    h = Graph(n, [(min(perm[u], perm[v]), max(perm[u], perm[v]))
                  for u, v in chosen])
    assert _form(g) == _form(h)


def test_canonical_form_separates_same_degree_sequence():
    # C6 and two triangles share the degree sequence but differ
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert _form(cycle(6)) != _form(two_triangles)


def test_canonical_form_on_the_graph_atlas():
    # Read & Wilson's atlas lists every graph on at most 7 vertices once.
    nx = pytest.importorskip("networkx")
    rng = random.Random(1)
    forms = set()
    atlas = nx.graph_atlas_g()
    for atlas_graph in atlas:
        n = atlas_graph.number_of_nodes()
        edges = list(atlas_graph.edges())
        form = _form(_relabeled(n, edges, list(range(n))))
        forms.add(form)
        perm = list(range(n))
        rng.shuffle(perm)
        assert _form(_relabeled(n, edges, perm)) == form
    assert len(atlas) == 1253 and len(forms) == 1253


def test_labeling_of_the_graph_atlas_is_pinned():
    # Canonical certificates break witness ties, so any drift in the
    # labeling can change a report: pin the certificates, orders and
    # generators of every atlas graph, in atlas order and unrelabeled.  A
    # certificate is hashed as the byte n and then its C(n, 2) bits in
    # big-endian bytes.
    nx = pytest.importorskip("networkx")
    forms, labelings = hashlib.sha256(), hashlib.sha256()
    for atlas_graph in nx.graph_atlas_g():
        g = Graph(atlas_graph.number_of_nodes(), list(atlas_graph.edges()))
        order, gens, cert = _canonical_order(g)
        nbytes = (math.comb(g.n, 2) + 7) // 8
        forms.update(bytes([g.n]) + cert.to_bytes(nbytes, "big"))
        labelings.update(bytes(order) + bytes([len(gens)]))
        for gamma in gens:
            labelings.update(bytes(gamma))
    assert forms.hexdigest() == (
        "00f9ba2d20d65472f6d69b9ee47740f46c36cedd3f96a8235bc1f905f5594bc7")
    assert labelings.hexdigest() == (
        "4d51a5cb586165f9d50e82b68bd07d968aed342e2e043784e06989abcc4bf73b")


def _refined_by_sets(nbrs, cells, splitters):
    """Equitable refinement on Python sets: for each splitter in turn, split
    every cell by its vertices' neighbour counts in the splitter, ascending,
    and append the pieces of each split cell as splitters."""
    cells = [set(c) for c in cells]
    queue = [set(w) for w in splitters]
    for w in queue:  # grows while it is read
        out = []
        for cell in cells:
            by_count = {}
            for v in cell:
                by_count.setdefault(len(nbrs[v] & w), set()).add(v)
            pieces = [by_count[c] for c in sorted(by_count)]
            out += pieces
            if len(pieces) > 1:
                queue += pieces
        cells = out
    return cells


def _mask(vertices):
    return sum(1 << v for v in vertices)


def test_refinement_matches_a_set_reference_on_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    for atlas_graph in nx.graph_atlas_g()[1:]:
        n = atlas_graph.number_of_nodes()
        g = Graph(n, list(atlas_graph.edges()))
        nbrs = [set(atlas_graph[v]) for v in range(n)]
        everything = set(range(n))
        root = [_mask(everything)]
        _refine(g.adj, root, list(root))
        want = _refined_by_sets(nbrs, [everything], [everything])
        assert root == [_mask(c) for c in want]
        t = next((i for i, c in enumerate(want) if len(c) > 1), None)
        if t is None:
            continue
        for v in sorted(want[t]):
            start = want[:t] + [{v}, want[t] - {v}] + want[t + 1:]
            cells = [_mask(c) for c in start]
            _refine(g.adj, cells, [1 << v])
            assert cells == [_mask(c) for c in _refined_by_sets(nbrs, start, [{v}])]


def test_canonical_form_on_graphs_with_many_automorphisms():
    rng = random.Random(2)
    for g in (Graph(16, [(2 * i, 2 * i + 1) for i in range(8)]), petersen(),
              complete(8), complete_multipartite([4, 4]), cycle(16),
              disjoint_union(cycle(5), cycle(5))):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert _form(_relabeled(g.n, g.edges(), perm)) == _form(g)


def _automorphisms(nx, atlas_graph):
    """Every automorphism of an atlas graph, as a list, by networkx's VF2."""
    n = atlas_graph.number_of_nodes()
    matcher = nx.algorithms.isomorphism.GraphMatcher(atlas_graph, atlas_graph)
    return [[phi[v] for v in range(n)] for phi in matcher.isomorphisms_iter()]


def test_generators_generate_the_automorphism_group_on_the_graph_atlas():
    # The oracle skips a child whose added edge lies in the orbit of an
    # earlier sibling's, which is exact only if the generators from the
    # parent's labeling generate all of Aut(parent).
    nx = pytest.importorskip("networkx")
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        gens = _canonical_order(Graph(n, list(atlas_graph.edges())))[1]
        group = {tuple(range(n))}
        frontier = list(group)
        while frontier:
            p = frontier.pop()
            for gamma in gens:
                q = tuple(gamma[x] for x in p)
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        assert len(group) == len(_automorphisms(nx, atlas_graph))


def test_edge_orbits_match_networkx_automorphisms():
    nx = pytest.importorskip("networkx")
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n > 6:
            break
        g = Graph(n, list(atlas_graph.edges()))
        # as _levels extends them: the fresh vertices n and n + 1 are fixed
        gens = [gamma + [n, n + 1] for gamma in _canonical_order(g)[1]]
        auts = _automorphisms(nx, atlas_graph)
        for u, v in combinations(range(n), 2):
            if not g.adj[u] >> v & 1:
                images = {tuple(sorted((phi[u], phi[v]))) for phi in auts}
                assert _edge_orbit((u, v), gens) == images
        for u in range(n):  # attachments to the fresh vertex n
            assert _edge_orbit((u, n), gens) == {(phi[u], n) for phi in auts}
        assert _edge_orbit((n, n + 1), gens) == {(n, n + 1)}


def _three_kinds_of_child(atlas_graph, cap):
    """The children's edges by kind, with twins read off networkx: one
    non-edge per pair of twin classes of existing vertices, the first in
    lexicographic order; then, while the order stays within cap, an edge
    from the lowest member of each twin class to the fresh vertex n, and the
    fresh disjoint edge (n, n + 1)."""
    n = atlas_graph.number_of_nodes()
    nbrs = [set(atlas_graph[v]) for v in range(n)]
    lowest = [min(w for w in range(n) if nbrs[v] - {w} == nbrs[w] - {v})
              for v in range(n)]
    edges, pairs = [], set()
    for u, v in combinations(range(n), 2):
        pair = tuple(sorted((lowest[u], lowest[v])))
        if v not in nbrs[u] and pair not in pairs:
            pairs.add(pair)
            edges.append((u, v))
    if n + 1 <= cap:
        edges += [(u, n) for u in range(n) if lowest[u] == u]
    if n + 2 <= cap:
        edges.append((n, n + 1))
    return edges


def test_children_of_the_padded_graph_are_the_three_kinds():
    nx = pytest.importorskip("networkx")
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if min((d for _, d in atlas_graph.degree()), default=1) == 0:
            continue
        g = Graph(n, list(atlas_graph.edges()))
        for cap in (n, n + 1, n + 2):
            got = list(_children(g.padded(min(n + 2, cap))))
            # in lexicographic order, so with no repeats
            assert got == sorted(_three_kinds_of_child(atlas_graph, cap))


def test_children_of_larger_padded_graphs_are_the_three_kinds():
    # Past the atlas's 7 vertices: G(n, p) graphs without isolated vertices,
    # and complete multipartite graphs whose repeated part sizes give twin
    # classes of 3 or more false twins, next to true twins from parts of 1.
    nx = pytest.importorskip("networkx")
    rng = random.Random(34)
    hosts = []
    while len(hosts) < 150:
        g = gnp(rng.randrange(8, 13), rng.uniform(0.2, 0.9), rng.randrange(10 ** 9))
        if all(g.adj):
            hosts.append(g)
    for parts in ([3, 3], [3, 3, 3], [2, 2, 2, 2], [1, 1, 3, 3], [1, 1, 1, 4, 4],
                  [2, 2, 3, 3], [1, 2, 2, 5], [4, 4, 4]):
        hosts.append(complete_multipartite(parts))
    for g in hosts:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        for cap in (g.n, g.n + 1, g.n + 2):
            got = list(_children(g.padded(cap)))
            assert got == sorted(_three_kinds_of_child(h, cap)), (g.edges(), cap)


def test_enumerator_level_sizes_match_oeis():
    # K6 has 15 edges, so no graph of at most 11 edges contains it
    levels, _ = _levels(11, pattern("K2"), pattern("K6"))
    sizes = [len(level) for level in levels]
    assert sizes == A000664


@pytest.mark.parametrize("forbidden", ["K3", "K4", "C4", "K2_3", "C5"])
@pytest.mark.parametrize("target", ["K2", "K3", "2K2"])
def test_levels_need_no_vertex_cap(target, forbidden):
    # A class with j edges and no isolated vertex has at most 2j vertices,
    # so mex pads each parent by two with no vertex cap.
    t = TWO_K2 if target == "2K2" else pattern(target)
    levels, _ = _levels(9, t, pattern(forbidden))
    for j, level in enumerate(levels):
        assert all(g.n <= 2 * j for g, *_ in level)


@pytest.mark.parametrize("max_edges,forbidden", [
    (8, lambda: pattern("K6")), (9, lambda: pattern("K4")),
    pytest.param(10, lambda: pattern("C4"), id="10-C4"),
    pytest.param(9, lambda: pattern("K2_3"), id="9-K2_3")])
def test_levels_hold_pairwise_distinct_classes(max_edges, forbidden):
    # The records carry no canonical certificate, so each class is labeled
    # here; a level's classes share their edge count, not their order.
    # C4- and K2_3-free graphs, windmills and stars among them, are rich in
    # twins, so many of their classes are kept by `_twins_settle` unlabeled.
    levels, _ = _levels(max_edges, pattern("K2"), forbidden())
    for level in levels:
        forms = {_form(g) for g, *_ in level}
        assert len(forms) == len(level)


@pytest.mark.parametrize("query", ["mex", "ex"])
@pytest.mark.parametrize("forbidden", ["K3", "K4", "C4", "K2_3", "C5"])
@pytest.mark.parametrize("target", ["K2", "K3", "2K2"])
def test_twins_settle_only_children_the_labeling_keeps(monkeypatch, target,
                                                       forbidden, query):
    # A child that `_twins_settle` keeps unlabeled must be one the full
    # labeling would keep: its added edge lies in the Aut(child)-orbit of
    # its deletion edge, the last of its top edges in canonical order.
    settled, settle = [], oracle._twins_settle

    def recorded(g, edge, top):
        ok = settle(g, edge, top)
        if ok:
            settled.append((g, edge, top))
        return ok

    monkeypatch.setattr(oracle, "_twins_settle", recorded)
    t = TWO_K2 if target == "2K2" else pattern(target)
    if query == "mex":
        _levels(7, t, pattern(forbidden))
    else:
        _levels(21, t, pattern(forbidden), 7)
    assert settled  # the rule was exercised
    for g, edge, top in settled:
        perm, gens, _ = _canonical_order(g)
        assert edge in _edge_orbit(_last_in_order(top, perm), gens), (g.edges(), edge)


def test_mex_k3_k4_labeling_count_is_pinned(monkeypatch):
    # Labeling is on demand: a child whose added edge is its only top edge
    # is canonical unlabeled, and so is one whose top edges all join the
    # same two twin classes as its added edge; a parent is labeled only at
    # its second child past the floor, and `_best` labels only the
    # candidates tied at the greatest value and the least order, all 7 of
    # them: certificates are not kept.  The empty class is never labeled.
    # That is 1,030 labelings (1,023 in `_levels`, 7 in `_best`), down from
    # 1,324 before the twin rule, which was up from 1,322 when `_best`
    # reused the forms `_levels` had kept, and down from 2,280 when every
    # child kept by its orbit was labeled and 3,790 when every child that
    # passes the invariant was.  The degree floor leaves 3,969 children to
    # build: 11,827 with no floor, while a floor one above the true pair
    # keeps 11 classes.
    calls, built = [], []
    labeled, ranked = _canonical_order, _top_edges

    def counted(g):
        calls.append(g.n)
        return labeled(g)

    def counted_top(g, edge):
        built.append(edge)
        return ranked(g, edge)

    monkeypatch.setattr(oracle, "_canonical_order", counted)
    monkeypatch.setattr(oracle, "_top_edges", counted_top)
    res = mex_exact(9, pattern("K3"), pattern("K4"))
    assert (res.value, res.iso_classes_examined, len(calls)) == (4, 2230, 1030)
    assert len(built) == 3969


@pytest.mark.parametrize("query,size,target,forbidden,tied", [
    ("mex", 9, "K3", "K4", 7), ("ex", 6, "K2", "C4", 4)])
def test_best_witness_does_not_depend_on_record_order(query, size, target,
                                                      forbidden, tied):
    # `_best` ranks the candidates tied at the greatest value and the least
    # order by their certificates, never by where a record sits in a level.
    t, f = pattern(target), pattern(forbidden)
    if query == "mex":
        levels, examined = _levels(size, t, f)
    else:
        levels, examined = _levels(math.comb(size, 2), t, f, size)

    def best(levels):
        records = levels[size] if query == "mex" else [r for lv in levels for r in lv]
        rank = max((copies, -g.n) for g, copies, *_ in records)
        assert sum((copies, -g.n) == rank for g, copies, *_ in records) == tied
        return _best(records, 1, levels, examined, "none").witness

    want = best(levels)
    rng = random.Random(size)
    for _ in range(5):
        assert best([rng.sample(level, len(level)) for level in levels]) == want


def test_ex_unfiltered_class_counts_match_oeis():
    # K9 fits in no graph examined, so nothing is filtered; each graph on n
    # vertices is one class without isolated vertices on at most n, padded.
    for n in range(1, 8):
        res = ex_exact(n, pattern("K2"), pattern("K9"))
        assert res.iso_classes_examined == A000088[n]


@pytest.mark.parametrize("forbidden,counts", [("K3", A006785), ("C4", A006786)])
def test_ex_filtered_class_counts_match_oeis(forbidden, counts):
    # F-freeness passes to subgraphs, so ex examines exactly the F-free
    # classes: one per F-free graph on n vertices
    for n, count in enumerate(counts):
        assert ex_exact(n, pattern("K2"), pattern(forbidden)).iso_classes_examined == count
    # the atlas, which holds each graph on at most 7 vertices once, agrees
    nx = pytest.importorskip("networkx")
    f = ref.literal(forbidden)[1]
    free = [0] * 8
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        free[n] += not ref.contains(f, ref.adj_from_edges(n, a.edges()))
    assert free == counts[:8]


# ---------------------------------------------------------------------------
# Canonical deletion edge: greatest invariant first, then canonical order
# ---------------------------------------------------------------------------

def _invariant_by_definition(g, u, v):
    """(sorted endpoint degrees, common neighbours, sorted neighbour-degree
    sums), read off the edge list."""
    nbrs = {x: set() for x in range(g.n)}
    for a, b in g.edges():
        nbrs[a].add(b)
        nbrs[b].add(a)
    sums = sorted(sum(len(nbrs[w]) for w in nbrs[x]) for x in (u, v))
    return (*sorted((len(nbrs[u]), len(nbrs[v]))), len(nbrs[u] & nbrs[v]), *sums)


def _deletion_position(g):
    """Where g's canonical deletion edge sits in its canonical order."""
    top = next(t for t in (_top_edges(g, e) for e in g.edges()) if t is not None)
    order = _canonical_order(g)[0]
    pos = {v: i for i, v in enumerate(order)}
    return sorted((pos[v] for v in _last_in_order(top, order)), reverse=True)


def _check_top_edges(n, edges, perm):
    """_top_edges on the graph of edges, and on its relabeling by perm,
    returns the edges of greatest invariant by its definition, and None for
    every other edge; the deletion edge sits in one place of the canonical
    order under either labeling."""
    g = Graph(n, edges)
    h = _relabeled(n, edges, perm)
    inv = {e: _invariant_by_definition(g, *e) for e in g.edges()}
    best = max(inv.values())
    greatest = sorted(e for e in inv if inv[e] == best)
    image = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in greatest)
    order = _canonical_order(g)[0]
    for u, v in inv:
        top = _top_edges(g, (u, v))
        top_h = _top_edges(h, tuple(sorted((perm[u], perm[v]))))
        if inv[(u, v)] < best:
            assert top is None and top_h is None
            continue
        assert sorted(top) == greatest and sorted(top_h) == image
        assert inv[_last_in_order(top, order)] == best
    # the same edge of the canonical graph, whatever the labeling
    assert _deletion_position(g) == _deletion_position(h)


@given(st.integers(2, 9), st.data(), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_deletion_edge_has_the_greatest_invariant(n, data, seed):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    _check_top_edges(n, chosen, perm)


def test_deletion_edge_has_the_greatest_invariant_on_the_atlas():
    # every graph on at most 7 vertices with an edge, under a seeded shuffle
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for atlas_graph in nx.graph_atlas_g():
        if atlas_graph.number_of_edges() == 0:
            continue
        n = atlas_graph.number_of_nodes()
        perm = list(range(n))
        rng.shuffle(perm)
        _check_top_edges(n, sorted(tuple(sorted(e)) for e in atlas_graph.edges()), perm)


def test_degree_floor_rejects_only_children_the_invariant_rejects():
    # _levels skips a child whose added edge's sorted degree pair in the
    # child lies below the parent's floor, before building it.
    nx = pytest.importorskip("networkx")
    rejected = 0
    for atlas_graph in nx.graph_atlas_g():
        if atlas_graph.number_of_edges() == 0:
            continue
        n = atlas_graph.number_of_nodes()
        parent = Graph(n, list(atlas_graph.edges())).padded(n + 2)
        deg = parent.degrees()
        # the floor by its definition: the greatest sorted degree pair of an
        # edge of the parent, or (0, 0) when it has none
        floor = max((tuple(sorted((deg[u], deg[v]))) for u, v in atlas_graph.edges()),
                    default=(0, 0))
        for u, v in combinations(range(n + 2), 2):
            if parent.adj[u] >> v & 1:
                continue
            if tuple(sorted((deg[u] + 1, deg[v] + 1))) >= floor:
                continue
            rejected += 1
            child = parent.padded(n + 2)
            child.adj[u] |= 1 << v
            child.adj[v] |= 1 << u
            assert _top_edges(child, (u, v)) is None
    assert rejected > 0


# ---------------------------------------------------------------------------
# mex
# ---------------------------------------------------------------------------

def test_mex_examples():
    res = mex_exact(4, pattern("K1_2"), pattern("K2_2"))
    assert res.value == 6
    assert _same_class(res.witness, star(4))

    res = mex_exact(2, pattern("K3"), pattern("K4"))
    assert res.value == 0

    res = mex_exact(5, pattern("K3"), pattern("K4"))
    assert res.value == 2
    assert _same_class(res.witness, k4_minus_edge())

    res = mex_exact(3, pattern("K3"), pattern("K2_2"))
    assert res.value == 1
    assert _same_class(res.witness, complete(3))


def test_mex_witness_contract():
    for m in range(1, 7):
        res = mex_exact(m, pattern("K3"), pattern("K2_2"))
        assert res.witness.m == m
        assert not ref.contains(ref.literal("K2_2")[1], res.witness.adj)
        assert ref.count_copies(ref.literal("K3")[1], res.witness.adj) == res.value
        assert all(res.witness.adj[v] for v in range(res.witness.n))


def test_mex_2k2_k3_needs_all_2m_vertices():
    # 7K2 has 14 vertices and C(7,2) = 21 copies of 2K2; a cap of 12
    # vertices gave 19.
    res = mex_exact(7, TWO_K2, pattern("K3"))
    assert res.value == 21
    assert res.witness.n == 14
    res = mex_exact(10, TWO_K2, pattern("K3"))
    assert res.value == math.comb(10, 2) == 45
    assert res.witness.n == 20


@pytest.mark.parametrize("m,value,graphs,classes", [
    (8, 4, 4714, 778), (9, 4, 16041, 2230), (10, 5, 56361, 6759)])
def test_mex_k3_k4_counters_are_pinned(m, value, graphs, classes):
    # Counts of the enumeration without the invariant prefilter, which must
    # drop only children that the orbit test would drop.
    res = mex_exact(m, pattern("K3"), pattern("K4"))
    assert (res.value, res.graphs_examined, res.iso_classes_examined) == (
        value, graphs, classes)


def test_mex_rejects():
    with pytest.raises(ValueError):
        mex_exact(3, Pattern(Graph(2)), pattern("K4"))
    with pytest.raises(ValueError):  # K2 + K1: unbounded, one isolated vertex
        mex_exact(3, Pattern(Graph(3, [(0, 1)])), pattern("K3"))
    with pytest.raises(ValueError):
        mex_exact(3, pattern("K3"), Pattern(Graph(2)))


def test_over_cap_patterns_are_refused_before_enumerating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("_children ran")

    monkeypatch.setattr(oracle, "_children", enumerate_nothing)
    for target, forbidden in (("K13", "K4"), ("K3", "K13")):
        with pytest.raises(ValueError, match="capped at 12 pattern vertices"):
            mex_exact(10, pattern(target), pattern(forbidden))
        with pytest.raises(ValueError, match="capped at 12 pattern vertices"):
            ex_exact(8, pattern(target), pattern(forbidden))


def test_direction_check_k3_k4():
    values = []
    tripartite_best = []
    for m in range(3, 9):
        res = mex_exact(m, pattern("K3"), pattern("K4"))
        values.append(res.value)
        best = 0
        for a in range(1, 4):
            for b in range(a, 4):
                for c in range(b, 4):
                    if a * b + a * c + b * c <= m:
                        best = max(best, a * b * c)
        tripartite_best.append(best)
    assert values == sorted(values)
    assert all(v >= w for v, w in zip(values, tripartite_best))


def test_oracle_never_exceeds_clique_bound():
    for m in range(2, 7):
        for forb in ("K4", "K2_2"):
            res = mex_exact(m, pattern("K3"), pattern(forb))
            assert res.value < lemma_constant(2, 3) * m ** 1.5


def _full_scan_reference(m, target, forbidden):
    """Every m-subset of the edges of K_2m, no isomorph rejection at all."""
    slots = list(combinations(range(2 * m), 2))
    best = 0
    for chosen in combinations(slots, m):
        g = ref.adj_from_edges(2 * m, chosen)
        if not ref.contains(forbidden.graph.adj, g):
            best = max(best, ref.count_copies(target.graph.adj, g))
    return best


@pytest.mark.parametrize("target,forbidden", [("K1_2", "K2_2"), ("K3", "K4"),
                                              ("K3", "K2_2")])
def test_label_ordered_reference_matches_full_scan(target, forbidden):
    for m in range(1, 5):
        assert (mex_exhaustive_reference(m, pattern(target), pattern(forbidden))
                == _full_scan_reference(m, pattern(target), pattern(forbidden)))


def test_label_ordered_edge_sets_cover_every_class():
    for m in range(7):
        graphs = list(label_ordered_edge_sets(m))
        assert all(g.m == m and all(g.adj) for g in graphs)
        assert len({_form(g) for g in graphs}) == A000664[m]


def test_cross_strategy_small():
    for m in range(1, 5):
        fast = mex_exact(m, pattern("K1_2"), pattern("K2_2")).value
        dumb = mex_exhaustive_reference(m, pattern("K1_2"), pattern("K2_2"))
        assert fast == dumb
    assert (mex_exact(4, pattern("K3"), pattern("K4")).value
            == mex_exhaustive_reference(4, pattern("K3"), pattern("K4")))


# ---------------------------------------------------------------------------
# ex
# ---------------------------------------------------------------------------

def test_ex_examples():
    res = ex_exact(5, pattern("K3"), pattern("K2_2"))
    assert res.value == 2
    assert _same_class(res.witness, bowtie())

    res = ex_exact(6, pattern("K3"), pattern("K4"))
    assert res.value == 8
    assert _same_class(res.witness, complete_multipartite([2, 2, 2]))


def test_ex_mantel():
    for n in range(1, 9):
        res = ex_exact(n, pattern("K2"), pattern("K3"))
        assert res.value == n * n // 4
        assert res.witness.n == n
        assert not ref.contains(ref.literal("K3")[1], res.witness.adj)


@pytest.mark.parametrize("n,target,forb,value,graphs,classes", [
    (6, pattern("K3"), pattern("C4"), 2, 240, 44),
    (7, pattern("K3"), pattern("C4"), 3, 1030, 117),
    (7, pattern("K3"), pattern("K4"), 12, 5874, 685),
    (7, TWO_K2, pattern("C5"), 36, 1904, 251)])
def test_ex_counters_are_pinned(n, target, forb, value, graphs, classes):
    res = ex_exact(n, target, forb)
    assert (res.value, res.graphs_examined, res.iso_classes_examined) == (
        value, graphs, classes)


@pytest.mark.parametrize("n,target,forbidden,value", [
    (9, "K2", "K3", 20),  # Mantel
    (9, "K2", "C4", 13),  # OEIS A006855
    (10, "K2", "C4", 16),
])
def test_ex_past_n_8_matches_the_closed_forms(n, target, forbidden, value):
    assert ref.ex_closed_form(n, target, forbidden) == value
    assert ex_exact(n, pattern(target), pattern(forbidden)).value == value


def test_ex_rejects():
    assert ex_exact(9, pattern("K2"), pattern("K3")).value == 20
    with pytest.raises(ValueError):
        ex_exact(3, pattern("K3"), Pattern(Graph(2)))
    # every graph on 3 vertices, the edgeless one too, contains 3K1
    with pytest.raises(ValueError, match="no admissible graph on the requested"):
        ex_exact(3, pattern("K2"), Pattern(Graph(3)))


def test_ex_witness_has_exact_order():
    res = ex_exact(6, pattern("K3"), pattern("K2_2"))
    assert res.witness.n == 6
    assert ref.count_copies(ref.literal("K3")[1], res.witness.adj) == res.value


def test_forbidden_pattern_with_isolated_vertex():
    # forbidding a triangle plus an isolated vertex: K3 itself stays legal
    f = Pattern(Graph(4, [(0, 1), (1, 2), (0, 2)]))
    res = ex_exact(3, pattern("K3"), f)
    assert res.value == 1
    res = ex_exact(4, pattern("K3"), f)
    assert res.value == 0
    # in mex the host is the graph itself: K3 has too few vertices to hold
    # K3 + K1, and every 4-edge graph without isolated vertices has enough
    res = mex_exact(3, pattern("K3"), f)
    assert (res.value, res.witness.n) == (1, 3)
    res = mex_exact(4, pattern("K3"), f)
    assert res.value == 0


# Patterns with isolated vertices, against brute force over labeled graphs
# with the unpruned search of perfbench/reference.py.
WITH_ISOLATED = {
    "K3+K1": Graph(4, [(0, 1), (1, 2), (0, 2)]),
    "K2+K1": Graph(3, [(0, 1)]),
    "3K1": Graph(3),
    "C4+2K1": Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}


def _brute_force_best(classes, target, forbidden):
    """(value, least key of that value) over the classes free of forbidden,
    or None when none is."""
    scored = [(ref.count_copies(target.adj, g.adj), key) for key, g in classes.items()
              if not ref.contains(forbidden.adj, g.adj)]
    if not scored:
        return None
    best = max(value for value, _ in scored)
    return best, min(key for value, key in scored if value == best)


def _check_against_brute_force(query, classes, target, forbidden, strip):
    expected = _brute_force_best(classes, target, forbidden)
    if expected is None:
        with pytest.raises(ValueError, match="no admissible graph"):
            query(Pattern(target), Pattern(forbidden))
        return
    res = query(Pattern(target), Pattern(forbidden))
    assert (res.value, _form(strip(res.witness))) == expected


@pytest.mark.parametrize("forb", sorted(WITH_ISOLATED))
def test_mex_with_isolated_vertices_matches_brute_force(forb):
    for m in range(1, 6):
        classes = {}
        for g in label_ordered_edge_sets(m):
            classes.setdefault(_form(g), g)
        for target in (complete(3), star(2), TWO_K2.graph):
            _check_against_brute_force(
                lambda t, f: mex_exact(m, t, f), classes, target,
                WITH_ISOLATED[forb], lambda g: g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ex_with_isolated_vertices_matches_brute_force(n):
    targets = [complete(2), complete(3), Graph(3, [(0, 1)]),  # K2 + K1
               Graph(5, [(0, 1), (2, 3)])]  # 2K2 + K1
    forbidden = list(WITH_ISOLATED.values()) + [complete(3), cycle(4)]
    for target in targets:
        for forb in forbidden:
            _check_against_brute_force(
                lambda t, f: ex_exact(n, t, f), _labeled_classes(n), target,
                forb, _without_isolated)


def test_oracle_makes_no_whole_graph_search(monkeypatch):
    def whole_graph(*args):
        raise AssertionError("a whole-graph search ran")

    for module in (graphs, oracle):
        for name in ("is_free", "count_copies"):
            monkeypatch.setattr(module, name, whole_graph, raising=False)
    assert mex_exact(6, pattern("K3"), pattern("K4")).value == 2
    assert mex_exact(5, TWO_K2, Pattern(WITH_ISOLATED["C4+2K1"])).value == 10
    assert ex_exact(6, Pattern(Graph(5, [(0, 1), (2, 3)])),
                    Pattern(WITH_ISOLATED["K3+K1"])).value == 36
    assert ex_exact(5, pattern("K3"), Pattern(Graph(6))).value == 10


# The reports of a grid of 588 queries, hashed when every copy was found by
# a whole-graph search: rooted searches must not change a reported number.
GRID_SHA256 = "8024b8341e0b7af26b4a3dce24f168c6e382a1433add9807a4ebf3153495f016"


def test_report_grid_is_pinned():
    def report(query, size, t, f):
        try:
            res = query(size, TWO_K2 if t == "2K2" else pattern(t), pattern(f))
        except ValueError as exc:
            return f"error {exc}"
        return (f"{res.value} {res.graphs_examined} {res.iso_classes_examined} "
                f"{format_edge_list(res.witness)!r}")

    digest = hashlib.sha256()
    for t in ("K2", "K3", "K1_2", "C4", "K1_3", "2K2"):
        for f in ("K3", "K4", "C4", "C5", "K2_3", "K1_3", "K1_2"):
            for mode, query in (("mex", mex_exact), ("ex", ex_exact)):
                for size in range(1, 8):
                    line = f"{mode} {size} {t} {f} {report(query, size, t, f)}\n"
                    digest.update(line.encode())
    assert digest.hexdigest() == GRID_SHA256


# ---------------------------------------------------------------------------
# Tie-break: the witness is the class of largest value whose order and
# canonical certificate (of the graph without isolated vertices) are least.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _labeled_classes(n):
    """Every graph on n labeled vertices, grouped by the `_form` of
    the graph without its isolated vertices; one member per group."""
    slots = list(combinations(range(n), 2))
    classes = {}
    for mask in range(1 << len(slots)):
        g = Graph(n, [e for i, e in enumerate(slots) if mask >> i & 1])
        classes.setdefault(_form(_without_isolated(g)), g)
    return classes


def _check_witness(res, classes, target, forbidden):
    value, key = _brute_force_best(classes, target.graph, forbidden.graph)
    assert res.value == value
    assert _form(_without_isolated(res.witness)) == key


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ex_witness_is_the_least_form_of_greatest_value(n):
    for target in (pattern("K2"), pattern("K3"), TWO_K2):
        for forb in ("K3", "K4", "C4", "K2_3", "C5"):
            res = ex_exact(n, target, pattern(forb))
            _check_witness(res, _labeled_classes(n), target, pattern(forb))


@pytest.mark.parametrize("forb", ["K4", "K2_3", "C4"])
def test_ex_witness_tie_break_on_seven_vertices(forb):
    # 2^21 labeled graphs are too many; the atlas has each class once.
    nx = pytest.importorskip("networkx")
    classes = {}
    for atlas_graph in nx.graph_atlas_g():
        if atlas_graph.number_of_nodes() == 7:
            g = Graph(7, list(atlas_graph.edges()))
            classes[_form(_without_isolated(g))] = g
    assert len(classes) == 1044
    _check_witness(ex_exact(7, TWO_K2, pattern(forb)), classes, TWO_K2,
                   pattern(forb))


@pytest.mark.parametrize("m,target,forb", [
    (4, pattern("K1_2"), "K2_2"), (5, pattern("K3"), "K4"),
    (6, pattern("K3"), "C4"), (6, TWO_K2, "K3"), (7, pattern("K3"), "C5"),
])
def test_mex_witness_is_the_least_form_of_greatest_value(m, target, forb):
    # Label-ordered edge sets hold every class with m edges and no isolated
    # vertex, without using the oracle's enumeration.
    classes = {}
    for g in label_ordered_edge_sets(m):
        classes.setdefault(_form(g), g)
    res = mex_exact(m, target, pattern(forb))
    _check_witness(res, classes, target, pattern(forb))


@pytest.mark.parametrize("call", [
    lambda: mex_exact(6, pattern("K3"), pattern("K4")),
    lambda: ex_exact(7, TWO_K2, pattern("K4")),
], ids=["mex_exact", "ex_exact"])
def test_queries_leave_no_cyclic_garbage(call):
    assert cyclic_garbage(call) == 0
