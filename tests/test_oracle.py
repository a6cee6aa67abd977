"""Canonical labeling and the exhaustive small-case maxima."""

import math
import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bowtie, disjoint_union, k4_minus_edge,
                      label_ordered_edge_sets, mex_exhaustive_reference, path,
                      petersen)
from mexlab.bounds import lemma_constant
from mexlab.graphs import (Graph, Pattern, complete, complete_multipartite,
                           count_copies, cycle, gnp, is_free, pattern, star)
from mexlab.oracle import (_canonical_order, _Enumerator, canonical_form,
                           ex_exact, mex_exact)

TWO_K2 = Pattern(Graph(4, [(0, 1), (2, 3)]), "2K2")

# OEIS A000664: graphs with m edges and no isolated vertices, m = 0..8.
A000664 = [1, 1, 2, 5, 11, 26, 68, 177, 497]


def _relabeled(n, edges, perm):
    return Graph(n, [(min(perm[u], perm[v]), max(perm[u], perm[v]))
                     for u, v in edges])


def _without_isolated(g):
    """g with its isolated vertices removed, the rest relabeled in order."""
    verts = [v for v in range(g.n) if g.adj[v]]
    pos = {v: i for i, v in enumerate(verts)}
    return Graph(len(verts), [(pos[u], pos[v]) for u, v in g.edges()])


def _same_class(g, h):
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_examples():
    assert canonical_form(cycle(4)) == canonical_form(complete_multipartite([2, 2]))
    assert canonical_form(path(4)) != canonical_form(star(3))


def test_all_four_vertex_classes_distinct():
    slots = list(combinations(range(4), 2))
    forms = set()
    for k in range(7):
        for chosen in combinations(slots, k):
            forms.add(canonical_form(Graph(4, chosen)))
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
        assert canonical_form(g) == canonical_form(h)
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
    assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_same_degree_sequence():
    # C6 and two triangles share the degree sequence but differ
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(cycle(6)) != canonical_form(two_triangles)


def test_canonical_cap():
    with pytest.raises(ValueError):
        canonical_form(Graph(17))


def test_canonical_form_on_the_graph_atlas():
    # Read & Wilson's atlas lists every graph on at most 7 vertices once.
    nx = pytest.importorskip("networkx")
    rng = random.Random(1)
    forms = set()
    atlas = nx.graph_atlas_g()
    for atlas_graph in atlas:
        n = atlas_graph.number_of_nodes()
        edges = list(atlas_graph.edges())
        form = canonical_form(_relabeled(n, edges, list(range(n))))
        forms.add(form)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(_relabeled(n, edges, perm)) == form
    assert len(atlas) == 1253 and len(forms) == 1253


def test_canonical_form_on_graphs_with_many_automorphisms():
    rng = random.Random(2)
    for g in (Graph(16, [(2 * i, 2 * i + 1) for i in range(8)]), petersen(),
              complete(8), complete_multipartite([4, 4]), cycle(16),
              disjoint_union(cycle(5), cycle(5))):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(_relabeled(g.n, g.edges(), perm)) == canonical_form(g)


def test_enumerator_level_sizes_match_oeis():
    sizes = [len(level) for _, level in _Enumerator(16).levels(8)]
    assert sizes == A000664


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
        assert is_free(pattern("K2_2"), res.witness)
        assert count_copies(pattern("K3"), res.witness) == res.value
        assert all(res.witness.adj[v] for v in range(res.witness.n))


def test_mex_2k2_k3_needs_all_2m_vertices():
    # 7K2 has 14 vertices and C(7,2) = 21 copies of 2K2; a cap of 12
    # vertices gave 19.
    res = mex_exact(7, TWO_K2, pattern("K3"))
    assert res.value == 21
    assert res.witness.n == 14


def test_mex_rejects():
    with pytest.raises(ValueError):
        mex_exact(9, pattern("K3"), pattern("K4"))
    with pytest.raises(ValueError):
        mex_exact(3, Pattern(Graph(2)), pattern("K4"))
    with pytest.raises(ValueError):  # K2 + K1: unbounded, one isolated vertex
        mex_exact(3, Pattern(Graph(3, [(0, 1)])), pattern("K3"))
    with pytest.raises(ValueError):
        mex_exact(3, pattern("K3"), Pattern(Graph(2)))


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
        g = Graph(2 * m, chosen)
        if is_free(forbidden, g):
            best = max(best, count_copies(target, g))
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
        assert len({canonical_form(g) for g in graphs}) == A000664[m]


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
        assert is_free(pattern("K3"), res.witness)


def test_ex_rejects():
    with pytest.raises(ValueError):
        ex_exact(9, pattern("K2"), pattern("K3"))
    with pytest.raises(ValueError):
        ex_exact(3, pattern("K3"), Pattern(Graph(2)))


def test_ex_witness_has_exact_order():
    res = ex_exact(6, pattern("K3"), pattern("K2_2"))
    assert res.witness.n == 6
    assert count_copies(pattern("K3"), res.witness) == res.value


def test_forbidden_pattern_with_isolated_vertex():
    # forbidding a triangle plus an isolated vertex: K3 itself stays legal
    f = Pattern(Graph(4, [(0, 1), (1, 2), (0, 2)]))
    res = ex_exact(3, pattern("K3"), f)
    assert res.value == 1
    res = ex_exact(4, pattern("K3"), f)
    assert res.value == 0


# ---------------------------------------------------------------------------
# Tie-break: the witness is the class of largest value whose canonical form
# (of the graph without isolated vertices) is smallest.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _labeled_classes(n):
    """Every graph on n labeled vertices, grouped by the canonical form of
    the graph without its isolated vertices; one member per group."""
    slots = list(combinations(range(n), 2))
    classes = {}
    for mask in range(1 << len(slots)):
        g = Graph(n, [e for i, e in enumerate(slots) if mask >> i & 1])
        classes.setdefault(canonical_form(_without_isolated(g)), g)
    return classes


def _tie_break_winner(classes, target, forbidden):
    scored = [(count_copies(target, g), key) for key, g in classes.items()
              if is_free(forbidden, g)]
    best = max(value for value, _ in scored)
    return best, min(key for value, key in scored if value == best)


def _check_witness(res, classes, target, forbidden):
    value, key = _tie_break_winner(classes, target, forbidden)
    assert res.value == value
    assert canonical_form(_without_isolated(res.witness)) == key


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
            classes[canonical_form(_without_isolated(g))] = g
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
        classes.setdefault(canonical_form(g), g)
    res = mex_exact(m, target, pattern(forb))
    _check_witness(res, classes, target, pattern(forb))
