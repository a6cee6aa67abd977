"""Graph core: generators, exact counting, invariants."""

import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bowtie, cyclic_garbage, disjoint_union,
                      hom_brute_force, path, petersen, recursion_headroom, ref)
from mexlab import graphs
from mexlab.bounds import lemma_constant
from mexlab.constructions import deletion_method
from mexlab.graphs import (EdgeListError, Graph, Pattern, _at_least,
                           _twin_classes, chromatic_number, complete,
                           complete_multipartite, count_cliques, count_copies,
                           cycle, edge_clique_participation, format_edge_list, gnp,
                           is_free, iter_copies, load_graph, max_avg_degree,
                           parse_pattern_literal, pattern, read_edge_list,
                           save_edge_list, splitmix64, star)


def seeded_graphs(count, max_n=12, ps=(0.3, 0.5, 0.8)):
    for i in range(count):
        n = 4 + i % (max_n - 3)
        yield gnp(n, ps[i % len(ps)], seed=i)


def test_graph_is_mutable_so_unhashable():
    assert Graph(2, [(0, 1)]) == Graph(2, [(0, 1)])
    with pytest.raises(TypeError):
        hash(Graph(2))


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
    # r-cliques through uv are the (r-2)-cliques inside N(u) & N(v).  The
    # G(18, 0.9) hosts give common neighbourhoods of about 13 vertices,
    # where r = 6 and 7 take the clique tree's pivot path.
    hosts = list(seeded_graphs(30, max_n=10, ps=(0.5, 0.7, 0.9)))
    hosts += [gnp(18, 0.9, seed) for seed in (1, 2)]
    for i, g in enumerate(hosts):
        if g.m == 0:
            continue
        for r in (3, 4, 5, 6, 7):
            assert edge_clique_participation(g, r) == ref.participation(g.adj, r), (i, r)


def test_complete_graph_counts_are_binomials():
    for n in range(1, 61):
        assert count_cliques(complete(n), n).counts == tuple(
            math.comb(n, k) for k in range(n + 1)), n


def test_multipartite_counts_are_elementary_symmetric():
    # k_r of a complete multipartite graph is e_r of its part sizes, the
    # coefficient of x^r in the product of (1 + a x) over the parts
    for i in range(40):
        sizes = [1 + (7 * i + 3 * j) % 9 for j in range(1 + i % 6)]
        R = len(sizes) + 2
        want = tuple(ref.elementary_symmetric(sizes, k) for k in range(R + 1))
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


def _star_host(n: int, leaves: int, hub: int) -> Graph:
    """A star with leaves leaves and its hub at label hub (0 or n - 1),
    beside isolated vertices up to order n."""
    others = [v for v in range(n) if v != hub][:leaves]
    return Graph(n, [(min(hub, v), max(hub, v)) for v in others])


def _relabel_rule_hosts():
    """(host, top) pairs: count_cliques runs on the host's own labels at R
    <= top, where no node of the clique tree can pivot, and relabels above.
    A host of fewer than _PIVOT_PROBE vertices never pivots; above it, the
    root pivots at R = _PIVOT_DEPTH + 1 iff a vertex sees at least half of
    the vertices, and deeper nodes may pivot at any larger R."""
    from mexlab.constructions import norm_graph
    depth, probe = graphs._PIVOT_DEPTH, graphs._PIVOT_PROBE
    hosts = [(Graph(0), 10), (Graph(1), 10), (gnp(probe - 1, 0.9, 1), 10),
             (complete(probe - 1), 10)]
    for n in (probe, probe + 1, 40):
        half = -(-n // 2)
        for hub in (0, n - 1):
            hosts.append((_star_host(n, half, hub), depth))
            hosts.append((_star_host(n, half - 1, hub), depth + 1))
    hosts.append((gnp(200, 0.05, 7), depth + 1))
    hosts.append((gnp(40, 0.6, 8), depth))
    hosts += [(norm_graph(q, 2), depth + 1) for q in (5, 7, 11)]
    return hosts


def _nx_clique_counts(nx, g, R):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    want = [1] + [0] * R
    for clique in nx.enumerate_all_cliques(h):
        if len(clique) > R:
            break
        want[len(clique)] += 1
    return tuple(want)


def test_count_cliques_matches_networkx_on_both_sides_of_the_relabel_rule(nx):
    for g, _ in _relabel_rule_hosts():
        for R in (3, 4, 5):
            assert count_cliques(g, R).counts == _nx_clique_counts(nx, g, R), (g, R)


def test_norm_graph_triangles_on_both_sides_of_the_relabel_rule():
    # H(q, 2) has C(q - 1, 3) triangles and no K4; the counts at R = 3 and
    # 4 run on its own labels, the count at R = 5 relabels
    from mexlab.constructions import norm_graph
    for q in (5, 7, 11, 13):
        g = norm_graph(q, 2)
        for R in (3, 4, 5):
            cv = count_cliques(g, R)
            assert cv[3] == math.comb(q - 1, 3)
            assert all(cv[r] == 0 for r in range(4, R + 1))


def test_count_runs_on_the_host_labels_exactly_where_no_node_can_pivot(monkeypatch):
    calls = []
    kernel = graphs._clique_counts
    monkeypatch.setattr(graphs, "_clique_counts",
                        lambda adj, cand, R: calls.append(adj) or kernel(adj, cand, R))
    hosts = _relabel_rule_hosts()
    for g, top in hosts:
        for R in range(1, graphs._PIVOT_DEPTH + 4):
            calls.clear()
            count_cliques(g, R)
            # the first call is count_cliques' own; a kernel call on a cand
            # smaller than R calls the kernel again on the same adj
            assert (calls[0] is g.adj) == (R <= top), (g, R)
    assert sorted({top for _, top in hosts}) == [
        graphs._PIVOT_DEPTH, graphs._PIVOT_DEPTH + 1, 10]


def _nx_participation(nx, g, top):
    """For each r <= top and each edge, the number of r-cliques through the
    edge, from networkx's listing of every clique in order of size."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    want = {r: dict.fromkeys(g.edges(), 0) for r in range(3, top + 1)}
    for clique in nx.enumerate_all_cliques(h):
        if len(clique) > top:
            break
        if len(clique) >= 3:
            for e in combinations(sorted(clique), 2):
                want[len(clique)][e] += 1
    return want


def _participation_hosts():
    """Dense and sparse hosts at the packed path's order cut-off and one
    above it, and small dense hosts."""
    cut = graphs._PACKED_MAX_ORDER
    return [gnp(cut, 0.3, 1), gnp(cut + 1, 0.3, 2), gnp(cut, 0.05, 3),
            gnp(cut + 1, 0.05, 4), gnp(30, 0.7, 5), gnp(45, 0.5, 6)]


def test_participation_matches_networkx_on_both_paths(nx):
    for i, g in enumerate(_participation_hosts()):
        perm = list(range(g.n))
        random.Random(i).shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        want = _nx_participation(nx, g, 6)
        for r in (3, 4, 5, 6):
            part = edge_clique_participation(g, r)
            assert part == want[r], (i, r)
            assert list(part) == g.edges()
            moved = {(min(perm[u], perm[v]), max(perm[u], perm[v])): c
                     for (u, v), c in part.items()}
            assert edge_clique_participation(h, r) == moved, (i, r)


def test_participation_keys_are_in_edge_order_on_both_paths():
    # the participation report lists the map as it stands, so its order is
    # the edges' lexicographic order on every path
    for g in _participation_hosts():
        edges = g.edges()
        assert list(edge_clique_participation(g, 3)) == edges
        for r in (4, 5):
            assert list(graphs._packed_participation(g, r)) == edges, (g.n, r)
            assert list(graphs._kernel_participation(g, r)) == edges, (g.n, r)


def test_packed_path_runs_only_where_it_is_cut_to(monkeypatch):
    calls = []
    packed = graphs._packed_participation
    monkeypatch.setattr(graphs, "_packed_participation",
                        lambda g, r: calls.append((g.n, r)) or packed(g, r))
    hosts = _participation_hosts()
    rs = range(3, graphs._PIVOT_DEPTH + 5)
    for g in hosts:
        for r in rs:
            edge_clique_participation(g, r)
    # the dense hosts at or below the order cut-off, at 4 <= r <= _PIVOT_DEPTH + 2
    assert calls == [(g.n, r) for g in (hosts[0], hosts[4], hosts[5])
                     for r in rs if 4 <= r <= graphs._PIVOT_DEPTH + 2]


# Per p, the largest n drawn, which keeps the r = 6 counts of the kernel
# path under a second.
_SUM_MAX_N = {0.1: 150, 0.3: 90, 0.5: 50, 0.7: 35, 0.9: 22}


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(sorted(_SUM_MAX_N)), seed=st.integers(0, 2 ** 32 - 1),
       r=st.integers(3, 6), data=st.data())
def test_participation_sums_to_the_clique_count_on_gnp(p, seed, r, data):
    g = gnp(data.draw(st.integers(2, _SUM_MAX_N[p]), label="n"), p, seed)
    if g.m:
        part = edge_clique_participation(g, r)
        assert sum(part.values()) == math.comb(r, 2) * count_cliques(g, r)[r]


def test_deep_counts_stay_under_the_recursion_limit():
    # A K200 beside 300 isolated vertices makes the whole vertex set sparse:
    # the root takes one enumeration level, and the K200's out-neighbourhoods
    # below it pivot.
    g = disjoint_union(complete(200), Graph(300))
    with recursion_headroom(60):
        cv = count_cliques(g, 200)
    assert cv.counts == (1, 500) + tuple(math.comb(200, k) for k in range(2, 201))


def test_participation_recursion_does_not_deepen_with_the_clique_size():
    # u = 0 and v = 1 see 2..32: a K20 on 2..21 and 22..32, which have no
    # other edges.  The common neighbourhood has 31 vertices and its top
    # vertex sees none of them; enumerating it clique by clique would recurse
    # once per clique size.  The one 22-clique on the edge is 0, 1 and the
    # K20.
    edges = [(0, 1)] + [(u, w) for u in (0, 1) for w in range(2, 33)]
    edges += [(a, b) for a in range(2, 22) for b in range(a + 1, 22)]
    g = Graph(33, edges)
    with recursion_headroom(20):
        assert edge_clique_participation(g, 22)[(0, 1)] == 1


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


def test_iter_copies_refuses_a_large_tail_before_listing_it():
    # K8_40 holds C(8,2) C(40,10) copies of K2_10; the first full prefix
    # already leaves 39 candidates for the 9 collapsed leaves
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than 1000000 copies"):
        iter_copies(pattern("K2_10"), parse_pattern_literal("K8_40"), 10 ** 6)
    assert time.perf_counter() - start < 1.0


def test_count_copies_rejects_empty_pattern():
    with pytest.raises(ValueError):
        count_copies(Pattern(Graph(0)), complete(3))


def test_is_free_rejects_empty_pattern_as_count_copies_does():
    with pytest.raises(ValueError, match="^pattern must have at least one vertex$"):
        is_free(Pattern(Graph(0)), complete(3))


def test_iter_copies_rejects_empty_pattern_as_count_copies_does():
    with pytest.raises(ValueError, match="^pattern must have at least one vertex$"):
        iter_copies(pattern("K0"), complete(3), 10)


_SPARSE = gnp(30, 0.3, 1)


@pytest.mark.parametrize("call", [
    lambda: count_cliques(gnp(40, 0.7, 2), 8),  # the root pivots
    lambda: edge_clique_participation(gnp(120, 0.5, 3), 4),  # packed matrices
    lambda: edge_clique_participation(gnp(40, 0.6, 3), 6),  # kernel per edge
    lambda: count_copies(pattern("C4"), _SPARSE),
    lambda: is_free(pattern("K4"), _SPARSE),
    lambda: iter_copies(pattern("C4"), _SPARSE, 10 ** 6),
    lambda: iter_copies(pattern("C4"), _SPARSE, 3),  # over the limit
    lambda: chromatic_number(gnp(12, 0.5, 4)),
    lambda: deletion_method(pattern("K3_4"), 2, 3, 40, 1),
], ids=["count_cliques", "participation-packed", "participation-kernel",
        "count_copies", "is_free", "iter_copies", "iter_copies-over-limit",
        "chromatic_number", "deletion_method"])
def test_kernels_leave_no_cyclic_garbage(call):
    assert cyclic_garbage(call) == 0


def test_star_identity():
    # the leaves of S_t are one independent twin class, counted in bulk
    hosts = [*seeded_graphs(30, max_n=10), gnp(40, 0.3, 1), gnp(60, 0.2, 2)]
    for g in hosts:
        for r in (2, 3, 4, 7, 11):
            expect = sum(math.comb(d, r) for d in g.degrees())
            assert count_copies(pattern(f"S{r}"), g) == expect


def test_twin_classes_on_the_graph_atlas():
    # u and w are twins iff N(u) - {w} = N(w) - {u}; each class is named by
    # its lowest member
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    for atlas_graph in atlas:
        n = atlas_graph.number_of_nodes()
        nbrs = [set(atlas_graph[v]) for v in range(n)]
        expected = [min(u for u in range(n) if nbrs[u] - {w} == nbrs[w] - {u})
                    for w in range(n)]
        assert _twin_classes(Graph(n, list(atlas_graph.edges()))) == expected
    assert len(atlas) == 1253


@given(n=st.integers(0, 200), p=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
       seed=st.integers(0, 2 ** 32), data=st.data())
@settings(max_examples=150, deadline=None)
def test_at_least_k_neighbours_in_mask_matches_brute_force(n, p, seed, data):
    g = gnp(n, p, seed)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    k = data.draw(st.integers(1, mask.bit_count() + 2))
    expected = sum(1 << v for v in range(n) if (g.adj[v] & mask).bit_count() >= k)
    assert _at_least(g.adj, mask, k, (1 << n) - 1) == expected


@pytest.mark.parametrize("k", range(1, 6))
def test_at_least_on_both_sides_of_the_register_cut(k):
    # k <= 3 is counted in saturating registers, k >= 4 in bit-sliced
    # counters
    rng = random.Random(k)
    for i, (n, p) in enumerate([(0, 0.5), (1, 0.5), (12, 0.9), (64, 0.5),
                                (65, 0.3), (150, 0.1), (90, 0.9)]):
        g = gnp(n, p, i)
        full = (1 << n) - 1
        for mask in [0, full] + [rng.getrandbits(n) if n else 0 for _ in range(20)]:
            expected = sum(1 << v for v in range(n) if (g.adj[v] & mask).bit_count() >= k)
            assert _at_least(g.adj, mask, k, full) == expected, (n, p, mask)


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


def test_complete_multipartite_matches_networkx(nx):
    for k in range(1, 5):
        for sizes in product(range(1, 5), repeat=k):
            g = complete_multipartite(sizes)
            want = nx.complete_multipartite_graph(*sizes)
            assert g.n == want.number_of_nodes(), sizes
            assert set(g.edges()) == {(min(e), max(e)) for e in want.edges()}, sizes
    for sizes in ([], [2, 0], [0], [3, -1, 2]):
        with pytest.raises(ValueError, match="part sizes must be positive integers"):
            complete_multipartite(sizes)


def test_complete_matches_networkx(nx):
    for n in range(41):  # K0 included
        g = complete(n)
        want = nx.complete_graph(n)
        assert g.n == want.number_of_nodes(), n
        assert set(g.edges()) == {(min(e), max(e)) for e in want.edges()}, n
        assert g == Graph(n, g.edges())
    with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
        complete(-1)


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


# p at the ends of the threshold range: 0, a subnormal, one draw in 2^64,
# a half, the largest double below 1, and 1
_EDGE_PS = {0.0: 0, 5e-324: 0, 2.0 ** -64: 1, 0.5: 2 ** 63,
            1 - 2.0 ** -53: 2 ** 64 - 2 ** 11, 1.0: 2 ** 64}
_EDGE_SEEDS = (0, -1, 2 ** 64 - 1, 2 ** 70 + 5)


def test_gnp_is_the_splitmix64_slot_definition():
    for n, p, seed in [(0, 0.5, 1), (1, 0.5, 1), (2, 0.5, 3), (17, 0.3, 0),
                       (30, 0.5, 12345), (40, 0.05, 2 ** 64 - 1), (25, 0.9, 2 ** 70 + 5)]:
        assert gnp(n, p, seed) == Graph(n, ref.splitmix_gnp(n, p, seed)), (n, p, seed)
    # no C(n, 2) is one of these chunk ends, so n and n + 1 bracket each;
    # test_slot_flags_across_chunk_ends takes the counts themselves
    lanes = graphs._LANES
    ends = {lanes - 1, lanes, lanes + 1, 2 * lanes + 1}
    assert not any(math.comb(n, 2) in ends for n in range(2 * lanes))
    below = {max(n for n in range(2 * lanes) if math.comb(n, 2) < end) for end in ends}
    for n in sorted({*below, *(n + 1 for n in below), 500}):
        for p, threshold in _EDGE_PS.items():
            assert round(p * 2.0 ** 64) == threshold
            for seed in _EDGE_SEEDS:
                if n == 500 and p not in (0.5, 1 - 2.0 ** -53):
                    continue
                assert gnp(n, p, seed) == Graph(n, ref.splitmix_gnp(n, p, seed)), (n, p, seed)
    # n = 512 fills the grid with n^2 = 2^18 flag bytes; 511 and 513 bracket it
    for n, p, seed in [(511, 0.5, -1), (512, 2.0 ** -64, 0), (512, 0.5, 2 ** 70 + 5),
                       (513, 1 - 2.0 ** -53, 2 ** 64 - 1)]:
        assert gnp(n, p, seed) == Graph(n, ref.splitmix_gnp(n, p, seed)), (n, p, seed)


def test_slot_flags_across_chunk_ends():
    lanes = graphs._LANES
    for count in (0, 1, lanes - 1, lanes, lanes + 1, 2 * lanes + 1):
        for threshold in (0, 1, 2 ** 63, 2 ** 64 - 2 ** 11, 2 ** 64):
            for seed in _EDGE_SEEDS:
                want = bytes(48 + (splitmix64(seed, i) < threshold)
                             for i in range(count))
                assert graphs._slot_flags(seed, threshold, count) == want


def test_gnp_transient_memory_at_the_largest_deletion_host():
    # the flags, rows and grid of one pass: about 3.5 * n^2 bytes, 0.87 MiB
    gnp(500, 0.5, 7)
    tracemalloc.start()
    try:
        gnp(500, 0.5, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2 ** 20


@given(st.integers(0, 120), st.floats(0.0, 1.0), st.integers(-2 ** 70, 2 ** 70))
@settings(max_examples=60, deadline=None)
def test_gnp_matches_the_per_slot_definition(n, p, seed):
    assert gnp(n, p, seed) == Graph(n, ref.splitmix_gnp(n, p, seed))


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


def test_load_graph_reads_a_literal_or_else_a_path(tmp_path):
    path = str(tmp_path / "k3_4.el")
    save_edge_list(complete_multipartite([3, 4]), path)
    assert load_graph("K3_4") == load_graph(path) == complete_multipartite([3, 4])
    assert pattern(path).graph == pattern("K3_4").graph
    assert pattern(path).name == path
    bad = tmp_path / "bad.el"
    for content in (b"3 x\n", b"2 1\n0 \xff\n"):  # a bad header, a non-ASCII byte
        bad.write_bytes(content)
        with pytest.raises(EdgeListError, match=f"^{re.escape(str(bad))}: "):
            load_graph(str(bad))
    with pytest.raises(FileNotFoundError):
        load_graph(str(tmp_path / "missing.el"))
