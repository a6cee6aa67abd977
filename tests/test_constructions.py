"""Norm graphs, the deletion procedure, and scaling experiments."""

import math
from fractions import Fraction

import pytest

from mexlab.bounds import COND_MADC, ConditionError
from mexlab.constructions import (EXPERIMENT_MAX_INSTANCES, ExperimentSpec,
                                  NormGraphParams, deletion_method,
                                  fit_loglog_slope, norm_graph, run_experiment,
                                  tripartite_parts)
from mexlab.graphs import (Pattern, bits, count_cliques, count_copies, gnp,
                           is_free, iter_copies, pattern)


def test_norm_graph_small():
    g = norm_graph(3, 2)
    assert (g.n, g.m) == (6, 5)


def test_norm_graph_params_validation():
    with pytest.raises(ValueError):
        NormGraphParams(4, 2)
    with pytest.raises(ValueError):
        NormGraphParams(3, 1)
    with pytest.raises(ValueError):
        norm_graph(97, 4)          # vertex cap


def test_norm_graph_shape():
    for q, s in [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]:
        g = norm_graph(q, s)
        assert g.n == q ** (s - 1) * (q - 1)
        for v in range(g.n):
            assert not g.adj[v] >> v & 1
        assert all(g.adj[u] >> v & 1 == g.adj[v] >> u & 1
                   for u in range(g.n) for v in bits(g.adj[u]))


def test_norm_graph_bipartite_freeness_small():
    for q in (3, 5, 7):
        assert is_free(pattern("K2_2"), norm_graph(q, 2))
    assert is_free(pattern("K3_3"), norm_graph(3, 3))


def test_norm_graph_freeness_by_common_neighborhoods():
    # independent of the embedding search: codegree bound s.t. K_{2,2}-free
    for q in (5, 7, 11):
        g = norm_graph(q, 2)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert (g.adj[u] & g.adj[v]).bit_count() <= 1
    g = norm_graph(5, 3)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = g.adj[u] & g.adj[v]
            if common.bit_count() < 3:
                continue
            for w in bits(common):
                if w > v:
                    assert (common & g.adj[w]).bit_count() <= 2


def test_norm_graph_triangle_count_closed_form():
    # H(q,2) built here from its definition, (A,a) ~ (B,b) iff A+B = ab mod q,
    # with (A, a) at index A*(q-1) + (a-1) as norm_graph documents.
    from itertools import combinations
    from math import comb
    for q in (3, 5, 7, 11, 13):
        verts = [(A, a) for A in range(q) for a in range(1, q)]
        edges = {(i, j) for (i, (A, a)), (j, (B, b))
                 in combinations(enumerate(verts), 2)
                 if (A + B - a * b) % q == 0}
        g = norm_graph(q, 2)
        assert set(g.edges()) == edges
        assert len(edges) == (q - 1) * (q * q - q - 1) // 2
        nbrs = [set() for _ in verts]
        for i, j in edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        triangles = sum(1 for i, j, k in combinations(range(len(verts)), 3)
                        if j in nbrs[i] and k in nbrs[i] and k in nbrs[j])
        assert triangles == comb(q - 1, 3)
        assert count_cliques(g, 3)[3] == comb(q - 1, 3)


def test_deletion_rejects_bad_patterns():
    with pytest.raises(ConditionError) as err:
        deletion_method(pattern("K3_3"), 2, 3, 40, seed=1)
    assert err.value.condition == COND_MADC
    with pytest.raises(ValueError):
        deletion_method(pattern("K3_4"), 2, 3, 1000, seed=1)
    for c in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            deletion_method(pattern("K3_4"), 2, 3, 10, seed=1, c=c)


def test_deletion_run_small():
    f = pattern("K3_4")
    g, run = deletion_method(f, 2, 3, 60, seed=1)
    assert run.f_free and is_free(f, g)
    assert run.kr_after > 0
    assert run.ku_after <= run.ku_before and run.kr_after <= run.kr_before
    assert run.edges_deleted <= run.copies_found or run.copies_found == 0
    g2, run2 = deletion_method(f, 2, 3, 60, seed=1)
    assert g == g2 and run.to_json() == run2.to_json()


def test_deletion_actually_deletes_when_copies_exist():
    # boost the leading constant until copies appear, then check accounting
    f = pattern("K3_4")
    g, run = deletion_method(f, 2, 3, 90, seed=4, c=2.0)
    assert run.copies_found > 0
    assert run.edges_deleted >= 1
    assert is_free(f, g)
    assert count_copies(f, g) == 0


def scan_greedy_deletion(copies) -> list:
    """The greedy deletion by a scan over every live edge per deleted edge,
    as it was computed before the lazy heap."""
    live = {}
    for cid, es in enumerate(copies):
        for e in es:
            live.setdefault(e, set()).add(cid)
    deleted = []
    alive = set(range(len(copies)))
    while alive:
        target = max(live, key=lambda e: (len(live[e]), (-e[0], -e[1])))
        deleted.append(target)
        for cid in list(live[target]):
            alive.discard(cid)
            for e2 in copies[cid]:
                live[e2].discard(cid)
        del live[target]
    return deleted


@pytest.mark.parametrize("pat,n,seed,c", [
    ("K3_4", 90, 4, 2.0), ("K3_4", 120, 7, 2.5), ("K2_2_2", 150, 3, 1.5),
    ("K2_2_2", 200, 11, 2.0)])
def test_deletion_matches_scan_reference(pat, n, seed, c):
    f = pattern(pat)
    g, run = deletion_method(f, 2, 3, n, seed, c)
    host = gnp(n, run.p, seed)
    deleted = scan_greedy_deletion(iter_copies(f, host, 10 ** 4))
    assert run.copies_found > 1 and run.edges_deleted == len(deleted)
    assert g == host.remove_edges(deleted)


def test_tripartite_instance_parts():
    assert tripartite_parts(64) == [64, 8, 4]
    assert tripartite_parts(1024) == [1024, 32, 10]
    assert tripartite_parts(8000) == [8000, 89, 20]  # 873,780 edges
    for n in (10000, 50001, 10 ** 400):  # 1,212,100 edges; the K literal cap
        with pytest.raises(ValueError):
            tripartite_parts(n)


def test_fit_loglog_slope():
    xs = [10, 100, 1000]
    ys = [3 * x ** 1.5 for x in xs]
    assert fit_loglog_slope(xs, ys) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        fit_loglog_slope([1, 2], [1, 2])
    with pytest.raises(ValueError):
        fit_loglog_slope([1, 2, 3], [0, 1, 2])
    with pytest.raises(ValueError):
        fit_loglog_slope([5, 5, 5], [1, 2, 3])


@pytest.mark.parametrize("qs", [(5, 7, 11, 13), (11, 13, 17, 19, 23),
                                (7, 11, 13, 17)])
def test_fit_loglog_slope_matches_exact_least_squares(qs):
    """On the norm-graph counts m = (q-1)(q^2-q-1)/2 and k3 = C(q-1,3), the
    fit equals the least-squares slope of the same float logs computed in
    exact rational arithmetic."""
    xs = [(q - 1) * (q * q - q - 1) // 2 for q in qs]
    ys = [math.comb(q - 1, 3) for q in qs]
    lx = [Fraction(math.log(x)) for x in xs]
    ly = [Fraction(math.log(y)) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    exact = (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
             / sum((a - mx) ** 2 for a in lx))
    assert abs(Fraction(fit_loglog_slope(xs, ys)) - exact) <= Fraction(1e-15) * exact


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"family": "norm_graph", "q": 5},
    {"family": "norm_graph", "q": [5, 7, None]},
    {"family": "deletion", "c": 10 ** 400},  # no float holds it
])
def test_experiment_spec_rejects_malformed_json(obj):
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(obj)


def test_experiment_instance_cap():
    ns = list(range(8, 8 + EXPERIMENT_MAX_INSTANCES))
    res = run_experiment(ExperimentSpec(family="tripartite", n_list=ns))
    assert len(res.rows) == EXPERIMENT_MAX_INSTANCES
    with pytest.raises(ValueError, match="instances"):
        run_experiment(ExperimentSpec(family="tripartite", n_list=ns + [100]))


def test_experiment_tripartite():
    res = run_experiment(ExperimentSpec(family="tripartite", n_list=[16, 32, 64]))
    assert len(res.rows) == 3
    assert res.rows[0].k3 == 16 * 4 * 2
    assert res.predicted_exponent == pytest.approx(11 / 9)
    assert res.rows[0].k2 == res.rows[0].m


def test_experiment_norm_graph():
    res = run_experiment(ExperimentSpec(family="norm_graph", q_list=[5, 7, 11], s=2))
    assert [row.n for row in res.rows] == [20, 42, 110]
    assert res.predicted_exponent == pytest.approx(1.0)


def test_experiment_deletion_uses_seeds():
    spec = ExperimentSpec(family="deletion", pattern="K3_4", u=2, r=3,
                          n_list=[40, 60, 80], seeds=[1])
    res = run_experiment(spec)
    assert len(res.rows) == 3
    assert all(row.param.endswith("seed=1") for row in res.rows)


def test_experiment_requires_enough_instances():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(family="tripartite", n_list=[16, 32]))
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(family="nonsense"))
