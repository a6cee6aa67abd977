"""Graph core: generators, exact counting, invariants."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bowtie, disjoint_union, hom_brute_force, path,
                      petersen, recursion_headroom)
from mexlab.bounds import lemma_constant
from mexlab.graphs import (Graph, Pattern, chromatic_number, complete,
                           complete_multipartite, count_cliques, count_copies,
                           cycle, edge_clique_participation, format_edge_list,
                           gnp, is_free, iter_copies, max_avg_degree,
                           parse_pattern_literal, pattern, read_edge_list,
                           splitmix64, star)


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
    # r-cliques through uv are the (r-2)-subsets of N(u) & N(v) that span a
    # clique.  The G(18, 0.9) hosts give common neighbourhoods of about 13
    # vertices, where r = 6 and 7 take the clique tree's pivot path.
    hosts = list(seeded_graphs(30, max_n=10, ps=(0.5, 0.7, 0.9)))
    hosts += [gnp(18, 0.9, seed) for seed in (1, 2)]
    for i, g in enumerate(hosts):
        if g.m == 0:
            continue
        edges = set(g.edges())

        def adjacent(a, b):
            return (min(a, b), max(a, b)) in edges

        for r in (3, 4, 5, 6, 7):
            part = edge_clique_participation(g, r)
            for u, v in edges:
                common = [w for w in range(g.n) if adjacent(u, w) and adjacent(v, w)]
                expect = sum(all(adjacent(a, b) for a, b in combinations(c, 2))
                             for c in combinations(common, r - 2))
                assert part[(u, v)] == expect, (i, r, (u, v))


def test_complete_graph_counts_are_binomials():
    for n in range(1, 61):
        assert count_cliques(complete(n), n).counts == tuple(
            math.comb(n, k) for k in range(n + 1)), n


def test_multipartite_counts_are_elementary_symmetric():
    # k_r of a complete multipartite graph is e_r of its part sizes, the
    # coefficient of x^r in the product of (1 + a x) over the parts
    for i in range(40):
        sizes = [1 + (7 * i + 3 * j) % 9 for j in range(1 + i % 6)]
        poly = [1]
        for a in sizes:
            poly = [c + a * b for c, b in zip(poly + [0], [0] + poly)]
        R = len(sizes) + 2
        want = tuple(poly + [0] * (R + 1 - len(poly)))
        assert count_cliques(complete_multipartite(sizes), R).counts == want, sizes


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


# The reference lists every clique, so n is capped per p to keep that list
# near 10^5 cliques.
_NX_MAX_N = {0.5: 40, 0.7: 32, 0.9: 22}


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(sorted(_NX_MAX_N)), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_count_cliques_matches_networkx(nx, p, seed, data):
    n = data.draw(st.integers(0, _NX_MAX_N[p]), label="n")
    g = gnp(n, p, seed)
    R = max(n, 1)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges())
    want = [1] + [0] * R
    for clique in nx.enumerate_all_cliques(h):
        want[len(clique)] += 1
    assert count_cliques(g, R).counts == tuple(want)


def test_deep_counts_stay_under_the_recursion_limit():
    # A K200 beside 300 isolated vertices makes the whole vertex set sparse:
    # the root takes one enumeration level, and the K200's out-neighbourhoods
    # below it pivot.
    g = disjoint_union(complete(200), Graph(300))
    with recursion_headroom(60):
        cv = count_cliques(g, 200)
    assert cv.counts == (1, 500) + tuple(math.comb(200, k) for k in range(2, 201))


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
    # strict k_r < C(u,r) k_u^(r/u) for every u < r with k_u > 0
    for g in seeded_graphs(150):
        cv = count_cliques(g, 5)
        for u in range(1, 5):
            for r in range(u + 1, 6):
                assert cv[u] == 0 or cv[r] < lemma_constant(u, r) * cv[u] ** (r / u)


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


def _colorable(g, t):
    """Whether g has a proper t-colouring: a map V(g) -> V(K_t) keeping
    every edge an edge, found by trying every map."""
    return hom_brute_force(g, complete(t))


def test_hom_exists_examples():
    assert chromatic_number(cycle(5)) == 3 and not _colorable(cycle(5), 2)
    assert chromatic_number(complete_multipartite([2, 4])) == 2
    assert chromatic_number(complete(4)) == 4 and not _colorable(complete(4), 3)
    assert hom_brute_force(cycle(7), cycle(5))
    assert not hom_brute_force(cycle(5), cycle(7))


def test_hom_exists_matches_chromatic():
    corpus = [complete(3), cycle(5), cycle(6), complete_multipartite([2, 3]),
              complete_multipartite([2, 2, 2]), bowtie(), petersen(),
              complete(4), star(4), path(5)]
    for g in corpus:
        for t in (2, 3, 4):
            assert _colorable(g, t) == (chromatic_number(g) <= t)


def test_hom_exists_matches_brute_force():
    for i in range(120):
        g = gnp(i % 8, (0.3, 0.5, 0.8)[i % 3], seed=i)
        chi = chromatic_number(g)
        assert chi == next(t for t in range(g.n + 1) if _colorable(g, t)), i


# ---------------------------------------------------------------------------
# Pattern invariants
# ---------------------------------------------------------------------------

def test_pattern_cached_fields_recompute():
    for g in [cycle(4), bowtie(), petersen(), complete(4), star(3)]:
        f = Pattern(g)
        assert f.order == g.n and f.size == g.m
        assert f.max_avg_degree == max_avg_degree(Pattern(g))
        if f.size > 0:
            assert f.max_avg_degree >= Fraction(2 * f.size, f.order)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_generator_examples():
    g = complete_multipartite([2, 2, 2])
    assert (g.n, g.m) == (6, 12)
    assert star(5).m == 5 and star(5).n == 6
    assert cycle(5).m == 5


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
