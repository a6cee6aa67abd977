"""Graph core: generators, exact counting, invariants."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bowtie, petersen
from mexlab.bounds import clique_vector_obeys_bound
from mexlab.graphs import (Graph, Pattern, blowup, chromatic_number, complete,
                           complete_multipartite, count_cliques, count_copies,
                           cycle, disjoint_union, edge_clique_participation,
                           format_edge_list, gnp, hom_exists, is_free,
                           iter_copies, max_avg_degree, parse_pattern_literal,
                           path, pattern, read_edge_list, splitmix64, star,
                           turan_graph)
from mexlab.oracle import are_isomorphic


def seeded_graphs(count, max_n=12, ps=(0.3, 0.5, 0.8)):
    for i in range(count):
        n = 4 + i % (max_n - 3)
        yield gnp(n, ps[i % len(ps)], seed=i)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def test_count_cliques_examples():
    assert count_cliques(complete(5), 3)[3] == 10
    assert count_cliques(complete_multipartite([2, 2, 2]), 3)[3] == 8
    assert count_cliques(petersen(), 3)[3] == 0


def test_count_cliques_basics():
    cv = count_cliques(complete(6), 6)
    assert [cv[r] for r in range(1, 7)] == [math.comb(6, r) for r in range(1, 7)]
    empty = count_cliques(Graph(0), 4)
    assert all(empty[r] == 0 for r in range(1, 5))
    assert count_cliques(Graph(3), 2).counts == (1, 3, 0)


def test_clique_vector_zero_tail():
    for g in seeded_graphs(60):
        cv = count_cliques(g, 6)
        assert cv[1] == g.n and cv[2] == g.m
        for i in range(1, 6):
            if cv[i] == 0:
                assert all(cv[j] == 0 for j in range(i, 7))


def test_participation_examples():
    assert set(edge_clique_participation(complete(4), 3).values()) == {2}
    assert set(edge_clique_participation(complete_multipartite([2, 2, 2]), 3).values()) == {2}
    assert set(edge_clique_participation(star(5), 3).values()) == {0}


def test_participation_sums_to_clique_count():
    for g in seeded_graphs(40, max_n=10):
        if g.m == 0:
            continue
        for r in (3, 4):
            part = edge_clique_participation(g, r)
            assert sum(part.values()) == math.comb(r, 2) * count_cliques(g, r)[r]


def test_participation_matches_brute_force():
    # r-cliques through uv are the (r-2)-subsets of N(u) & N(v) that span a clique
    for i, g in enumerate(seeded_graphs(30, max_n=10, ps=(0.5, 0.7, 0.9))):
        if g.m == 0:
            continue
        edges = set(g.edges())

        def adjacent(a, b):
            return (min(a, b), max(a, b)) in edges

        for r in (3, 4, 5):
            part = edge_clique_participation(g, r)
            for u, v in edges:
                common = [w for w in range(g.n) if adjacent(u, w) and adjacent(v, w)]
                expect = sum(all(adjacent(a, b) for a, b in combinations(c, 2))
                             for c in combinations(common, r - 2))
                assert part[(u, v)] == expect, (i, r, (u, v))


def test_participation_requires_edges():
    with pytest.raises(ValueError):
        edge_clique_participation(Graph(4), 3)


def test_count_copies_examples():
    assert count_copies(pattern("K1_2"), complete(3)) == 3
    assert count_copies(pattern("C4"), complete_multipartite([2, 3])) == 3
    assert count_copies(pattern("K1_2"), complete(4)) == 12


def test_iter_copies_stops_above_limit():
    assert len(iter_copies(pattern("K3"), complete(5), 10)) == 10
    with pytest.raises(ValueError):
        iter_copies(pattern("K3"), complete(5), 9)


def test_count_copies_rejects_empty_pattern():
    with pytest.raises(ValueError):
        count_copies(Pattern(Graph(0)), complete(3))


def test_star_identity():
    for g in seeded_graphs(30, max_n=10):
        for r in (2, 3, 4):
            expect = sum(math.comb(d, r) for d in g.degrees())
            assert count_copies(pattern(f"K1_{r}"), g) == expect


def test_clique_consistency():
    for g in seeded_graphs(200):
        cv = count_cliques(g, 5)
        for r in range(2, 6):
            assert count_copies(pattern(f"K{r}"), g) == cv[r]


def test_lemma21_bound_on_random_graphs():
    for g in seeded_graphs(150):
        cv = count_cliques(g, 5)
        assert clique_vector_obeys_bound(cv.counts)


def test_monotone_under_edge_deletion():
    for g in seeded_graphs(25, max_n=9):
        cv = count_cliques(g, 5)
        for e in g.edges():
            cv2 = count_cliques(g.remove_edges([e]), 5)
            assert all(cv2[r] <= cv[r] for r in range(1, 6))


def test_is_free_examples():
    assert is_free(pattern("K3"), star(5))
    assert not is_free(pattern("C4"), complete_multipartite([2, 3]))


# ---------------------------------------------------------------------------
# Chromatic number, homomorphisms, max average degree
# ---------------------------------------------------------------------------

def test_chromatic_examples():
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(complete_multipartite([2, 2, 2])) == 3
    for r in range(2, 7):
        assert chromatic_number(complete(r)) == r
    assert chromatic_number(petersen()) == 3
    assert chromatic_number(Graph(0)) == 0
    assert chromatic_number(Graph(5)) == 1


def test_chromatic_cap():
    with pytest.raises(ValueError):
        chromatic_number(Graph(17))


def test_max_avg_degree_examples():
    assert max_avg_degree(pattern("K2_3")) == Fraction(12, 5)
    assert max_avg_degree(pattern("K3")) == 2
    assert max_avg_degree(Pattern(bowtie())) == Fraction(12, 5)
    with pytest.raises(ValueError):
        max_avg_degree(Pattern(Graph(3)))


def test_max_avg_degree_multipartite_attained_by_whole_graph():
    # every non-decreasing part vector with at least 2 parts, total <= 9
    def parts(total, minimum):
        if total == 0:
            yield []
        for first in range(minimum, total + 1):
            for rest in parts(total - first, first):
                yield [first] + rest

    for total in range(2, 10):
        for sizes in parts(total, 1):
            if len(sizes) < 2:
                continue
            g = complete_multipartite(sizes)
            if g.m == 0:
                continue
            assert max_avg_degree(Pattern(g)) == Fraction(2 * g.m, g.n)


def test_hom_exists_examples():
    assert not hom_exists(pattern("C5"), pattern("K2"))
    assert hom_exists(pattern("K2_4"), pattern("K2"))
    assert not hom_exists(pattern("K4"), pattern("K3"))


def test_hom_exists_matches_chromatic():
    corpus = [pattern("K3"), pattern("C5"), pattern("C6"), pattern("K2_3"),
              pattern("K2_2_2"), Pattern(bowtie()), Pattern(petersen()),
              pattern("K4"), pattern("S4"), Pattern(path(5))]
    for f in corpus:
        for t in (2, 3, 4):
            assert hom_exists(f, pattern(f"K{t}")) == (f.chromatic <= t)


def _hom_brute_force(f, t):
    """Whether some map V(f) -> V(t) sends every edge of f to an edge of t."""
    fe, te = f.edges(), set(t.edges())
    return any(all((min(m[a], m[b]), max(m[a], m[b])) in te for a, b in fe)
               for m in product(range(t.n), repeat=f.n))


def test_hom_exists_matches_brute_force():
    checked = 0
    for i in range(120):
        f = gnp(i % 7, (0.3, 0.5, 0.8)[i % 3], seed=i)
        t = gnp(i // 7 % 6, (0.4, 0.7)[i % 2], seed=1000 + i)
        assert hom_exists(Pattern(f), Pattern(t)) == _hom_brute_force(f, t), i
        checked += f.n > t.n and f.m > 0
    assert checked > 20  # cases where any map must reuse host vertices
    assert hom_exists(pattern("C7"), pattern("C5"))
    assert not hom_exists(pattern("C5"), pattern("C7"))
    assert _hom_brute_force(cycle(7), cycle(5))
    assert not _hom_brute_force(cycle(5), cycle(7))


# ---------------------------------------------------------------------------
# Pattern invariants
# ---------------------------------------------------------------------------

def test_pattern_cached_fields_recompute():
    for g in [cycle(4), bowtie(), petersen(), complete(4), star(3)]:
        f = Pattern(g)
        assert f.order == g.n and f.size == g.m
        assert math.factorial(f.order) % f.aut_count == 0
        assert f.chromatic == chromatic_number(g)
        assert f.max_avg_degree == max_avg_degree(Pattern(g))
        if f.size > 0:
            assert f.max_avg_degree >= Fraction(2 * f.size, f.order)
            assert f.chromatic >= 2


def test_aut_counts():
    # self_maps counts automorphisms one per orbit of the twin group
    assert [pattern(s).self_maps for s in ("K3_4", "K2_2_2", "C4", "K4")] == [1, 6, 2, 1]
    assert pattern("C4").aut_count == 8
    assert pattern("K4").aut_count == 24
    assert pattern("K3_4").aut_count == math.factorial(3) * math.factorial(4)
    assert Pattern(petersen()).aut_count == 120
    assert pattern("S4").aut_count == 24


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_generator_examples():
    g = complete_multipartite([2, 2, 2])
    assert (g.n, g.m) == (6, 12)
    t = turan_graph(7, 3)
    assert t.m == 16
    assert sorted(t.degrees(), reverse=True) == [5, 5, 5, 5, 4, 4, 4]
    assert are_isomorphic(blowup(complete(3), 2), complete_multipartite([2, 2, 2]))
    assert star(5).m == 5 and star(5).n == 6
    assert cycle(5).m == 5
    assert disjoint_union(complete(3), complete(2)).m == 4


def test_gnp_determinism_and_bounds():
    g1 = gnp(12, 0.5, 99)
    g2 = gnp(12, 0.5, 99)
    assert g1 == g2
    assert gnp(10, 0.0, 5).m == 0
    assert gnp(10, 1.0, 5).m == 45
    with pytest.raises(ValueError):
        gnp(5, 1.5, 0)


def test_splitmix64_reference_vector():
    # first outputs of the stream seeded with 0, as published for SplitMix64
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64(0, 2) == 0x06C45D188009454F


@given(st.integers(2, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_handshake(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    g = Graph(n, chosen)
    assert sum(g.degrees()) == 2 * g.m
    assert g.m == len(chosen)


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

def test_edge_list_round_trip():
    for g in [complete(5), star(4), petersen(), gnp(9, 0.4, 3)]:
        assert read_edge_list(format_edge_list(g)) == g


@pytest.mark.parametrize("text", [
    "",
    "2\n",
    "2 1\n0 0\n",            # loop
    "3 1\n2 1\n",            # u >= v
    "3 2\n0 1\n0 1\n",       # duplicate
    "3 1\n0 3\n",            # out of range
    "3 2\n0 1\n",            # wrong edge count
    "100000000000 1\n0 1\n",  # vertex count above the cap, before allocation
])
def test_edge_list_rejects(text):
    with pytest.raises(ValueError):
        read_edge_list(text)


def test_pattern_literals():
    assert parse_pattern_literal("K5") == complete(5)
    assert parse_pattern_literal("K3_4") == complete_multipartite([3, 4])
    assert parse_pattern_literal("K2_2_2") == complete_multipartite([2, 2, 2])
    assert parse_pattern_literal("C6") == cycle(6)
    assert parse_pattern_literal("S4") == star(4)
    assert parse_pattern_literal("nope") is None
    assert parse_pattern_literal("k5") is None
    for big in ("K100000", "K1000_2000", "C10000000", "S10000000"):
        with pytest.raises(ValueError):
            parse_pattern_literal(big)
