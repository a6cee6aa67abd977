"""Norm graphs, the deletion procedure, and scaling experiments."""

import hashlib
import math
from fractions import Fraction

import pytest

from conftest import ref
from mexlab import constructions
from mexlab.bounds import COND_MADC, ConditionError
from mexlab.cli import EXIT_OK, main
from mexlab.constructions import (EXPERIMENT_MAX_INSTANCES, deletion_method,
                                  fit_loglog_slope, norm_graph, run_experiment,
                                  tripartite_parts)
from mexlab.graphs import (Graph, Pattern, bits, complete, count_cliques, count_copies,
                           format_edge_list, gnp, is_free, iter_copies, pattern)


def test_norm_graph_small():
    g = norm_graph(3, 2)
    assert (g.n, g.m) == (6, 5)


def test_norm_graph_params_validation():
    with pytest.raises(ValueError):
        norm_graph(4, 2)
    with pytest.raises(ValueError):
        norm_graph(3, 1)
    with pytest.raises(ValueError):
        norm_graph(97, 4)          # vertex cap


def test_norm_graph_at_q_2_is_complete():
    for s in range(2, 6):
        assert norm_graph(2, s) == complete(2 ** (s - 1))


def test_norm_graph_past_the_field_prime_cap():
    # the prime cap bounds the irreducible-polynomial search, which s = 2
    # does not make
    q = 101
    g = norm_graph(q, 2)
    assert (g.n, g.m) == (10100, (q - 1) * (q * q - q - 1) // 2)


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


def test_bipartite_counts_on_a_norm_graph_match_codegree_sums():
    # a copy of K2_t is a vertex pair and t of its common neighbours; a C4
    # is counted once from each of its two diagonals
    g = norm_graph(5, 3)
    codegs = [(g.adj[u] & g.adj[v]).bit_count()
              for u in range(g.n) for v in range(u + 1, g.n)]
    assert count_copies(pattern("K2_3"), g) == sum(math.comb(c, 3) for c in codegs) == 79248
    assert count_copies(pattern("C4"), g) == sum(math.comb(c, 2) for c in codegs) // 2 == 31716


def test_norm_graph_triangle_count_closed_form():
    # H(q,2) as the reference builds it from its definition, (A,a) ~ (B,b)
    # iff A+B = ab mod q, with (A, a) at index A*(q-1) + (a-1) as norm_graph
    # documents.
    for q in (3, 5, 7, 11, 13):
        n, edges = ref.norm_graph_edges(q, 2)
        g = norm_graph(q, 2)
        assert (g.n, g.edges()) == (n, edges)
        assert len(edges) == (q - 1) * (q * q - q - 1) // 2
        assert ref.clique_counts(ref.adj_from_edges(n, edges), 3)[3] == math.comb(q - 1, 3)
        assert count_cliques(g, 3)[3] == math.comb(q - 1, 3)


# sha256 of format_edge_list(norm_graph(q, s)) for s = 3, 4, 5, whose norms
# are products in GF(q^2), GF(q^3) and GF(q^4)
@pytest.mark.parametrize("q,s,sha", [
    (5, 3, "6557e8884e238e4fa945a261b0d27d4961b71e8b4a28000f606b3c0d7f81e016"),
    (7, 3, "4f6ea8db3dd67f676a02ab44eb7a4476f184585d8c05427497294947f4e9ac79"),
    (3, 4, "ebfb08de443384ffca1ebb87b157c25bbe7ac082eeefb9549487f975bdfd19c9"),
    (5, 4, "3cc6b4a1d76be00944f112ad5615b1297caba8c2d2f13b0db69d35f3e1f1215a"),
    (3, 5, "736ced73078652d30e6e926ebaf05df7eab717b1bde9482f8fb751f861a97ea6")])
def test_norm_graph_edge_lists_are_pinned(q, s, sha):
    text = format_edge_list(norm_graph(q, s))
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def test_deletion_rejects_bad_patterns():
    with pytest.raises(ConditionError) as err:
        deletion_method(pattern("K3_3"), 2, 3, 40, seed=1)
    assert err.value.condition == COND_MADC
    with pytest.raises(ValueError):
        deletion_method(pattern("K3_4"), 2, 3, 1000, seed=1)
    for c in (float("nan"), float("inf"), 0.0, -1.0, True):
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
    assert g == g2 and run == run2


def test_deletion_actually_deletes_when_copies_exist():
    # boost the leading constant until copies appear, then check accounting
    f = pattern("K3_4")
    g, run = deletion_method(f, 2, 3, 90, seed=4, c=2.0)
    assert run.copies_found > 0
    assert run.edges_deleted >= 1
    assert is_free(f, g)
    assert count_copies(f, g) == 0


def _nx_graph(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _nx_holds(nx, h, f) -> bool:
    """Whether the networkx graph h holds a copy of f: by a clique of f's
    order for a complete f, since VF2 would visit each smaller clique in
    every order of its vertices, and otherwise by a VF2 monomorphism search."""
    k = f.order
    if f.size == k * (k - 1) // 2:
        return any(len(clique) >= k for clique in nx.find_cliques(h))
    matcher = nx.algorithms.isomorphism.GraphMatcher(h, _nx_graph(nx, f.graph))
    return matcher.subgraph_is_monomorphic()


# Every (u, r) with 2 <= u < r <= 5 that thm15_general accepts for these
# patterns, on hosts where edges get deleted.  The hosts of the bipartite
# and tripartite patterns have 9 to 14 vertices: VF2 searches them in 0.1
# to 1 s, and hosts of 30 vertices in seconds to minutes.
@pytest.mark.parametrize("pat,u,r,n,seed,c", [
    ("K3_4", 2, 3, 10, 2, 3.0), ("K2_2_2", 2, 3, 14, 2, 2.0),
    ("K4_4", 2, 3, 9, 2, 2.5), ("K8", 2, 3, 45, 1, 1.5),
    ("K8", 2, 4, 45, 2, 1.8), ("K8", 2, 4, 40, 2, 2.0), ("K8", 3, 4, 45, 1, 1.8)])
def test_deletion_counts_and_freeness_by_networkx(pat, u, r, n, seed, c):
    """The reported counts against a count of the output, and the counts and
    f_free against references that share no code with mexlab: networkx's
    clique listing and a networkx search for f, which must find f in the
    host."""
    nx = pytest.importorskip("networkx")
    f = pattern(pat)
    out, run = deletion_method(f, u, r, n, seed, c)
    assert run.copies_found > 0 and run.edges_deleted > 0 and run.f_free
    counts = count_cliques(out, r)
    assert (run.ku_after, run.kr_after) == (counts[u], counts[r])
    h = _nx_graph(nx, out)
    want = [0] * (r + 1)
    for clique in nx.enumerate_all_cliques(h):
        if len(clique) > r:
            break
        want[len(clique)] += 1
    assert (run.ku_after, run.kr_after) == (want[u], want[r])
    assert not _nx_holds(nx, h, f)
    assert _nx_holds(nx, _nx_graph(nx, gnp(n, run.p, seed)), f)


def test_deletion_catches_an_edge_left_in(monkeypatch):
    """A removal that keeps the last edge of its list fails the certificate."""
    keep_last = Graph.remove_edges
    monkeypatch.setattr(Graph, "remove_edges",
                        lambda self, edges: keep_last(self, list(edges)[:-1]))
    with pytest.raises(AssertionError):
        deletion_method(pattern("K3_4"), 2, 3, 30, 2, 2.5)


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


@pytest.mark.parametrize("pat,n,seed,c", [("K3_4", 90, 4, 2.0), ("K2_2_2", 150, 3, 1.5)])
def test_deletion_does_not_depend_on_copy_order(pat, n, seed, c, monkeypatch):
    # iter_copies lists copies in search order, which follows the plan
    f = pattern(pat)
    g, run = deletion_method(f, 2, 3, n, seed, c)
    monkeypatch.setattr(constructions, "iter_copies",
                        lambda *args: iter_copies(*args)[::-1])
    g2, run2 = deletion_method(f, 2, 3, n, seed, c)
    assert format_edge_list(g2) == format_edge_list(g) and run2 == run


# sha256 of the report and of the written edge list of `construct deletion`:
# with u = 2, r = 3 at the sizes of the benchmark's deletion runs, and at
# r = 4 and 5, where the post-deletion counts reach cliques of 4 and 5
# vertices through the deleted edges
@pytest.mark.parametrize("pat,n,c,seed,report_sha,graph_sha,u,r", [
    ("K3_4", 300, 1.2, 3,
     "b6f2e9b8c19db7bff6d80a4db002de42f841d645bd9ae524f4d587d302eef389",
     "9d4a1ee32cb5ca1a3e27dc93740400a2d4ead79d5b43da4c08a4242301d2a792", 2, 3),
    ("K2_2_2", 300, 1.3, 1,
     "477e4187a2e09cf47197b4882ac788f9999ed3c93bf89bee69d72f3c01884f59",
     "2fc88adc63fd127e2c00625b765626eed37b5d94d8a1e1df232986e9b008051c", 2, 3),
    ("K2_2_2", 500, 1.5, 1,
     "c0ab5a7163b396bc67c3652edb0b740113fbe42776c3a35538824f1f159ff8d5",
     "ba75d9fcee0dc35be5fac5421a7190ea579a29e6d70d96d31387e14168a9a521", 2, 3),
    ("K8", 80, 1.5, 1,  # 11 copies, 4 edges deleted
     "a1b95c115177a2a4e567fb7c72a465750897709a14908f656d499e26d160ec0b",
     "c9c96293404d1255e036bedca4e48917f5b9863865a00e9e819ac4e5a38f1968", 2, 4),
    ("K8", 40, 2.0, 2,  # 7,643 copies, 30 edges deleted
     "65b4b56a34c00d158a86518bb4dc87c85bd77285aaafce198aea3ab823a32107",
     "7b2e894956b718fa451f5a5a61aab0529d7d5182c92e5550e6ca2686c6577a1e", 2, 4),
    ("K8", 150, 1.5, 3,
     "644f492664761a7850ab7759dca24b7d228eaae79954550886d0822ccf4af120",
     "005664edf766ec63c847fc938f5d4058bf5446dfc1e2d0d2e844e0d2117202a7", 3, 4),
    ("K12", 30, 1.5, 2,
     "bac0e0386b9cbdfaabd284f1e03851e2f9ac04b07299b45651da29099d743234",
     "ad20b760dd6c6141a9778c258d9f90f747d11ac3b0dc5f1ac95c21bc276cf572", 2, 5),
    ("K12", 30, 1.5, 2,
     "4089651346ddd29be231f8499e9d53d7384f1d1ae097b7defc2ec2f3af6cb558",
     "ad20b760dd6c6141a9778c258d9f90f747d11ac3b0dc5f1ac95c21bc276cf572", 4, 5),
    ("K12", 30, 1.5, 1,
     "bde8ce88b26e6bbb4ba8a3632b3777324114c4685a1001e303bfb102befc37df",
     "c98751e563bf44f4dad170c8f613c64f32b612e31a6b0dcc6ec6464d3cc2d6e0", 3, 5)])
def test_deletion_outputs_are_pinned(tmp_path, pat, n, c, seed, report_sha, graph_sha,
                                     u, r):
    report, out = tmp_path / "report.json", tmp_path / "graph.el"
    code = main(["construct", "deletion", "--pattern", pat, "--u", str(u), "--r", str(r),
                 "--n", str(n), "--seed", str(seed), "--c", str(c),
                 "--out", str(out), "--report", str(report)])
    assert code == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == graph_sha


def test_tripartite_instance_parts():
    assert tripartite_parts(64) == [64, 8, 4]
    assert tripartite_parts(1024) == [1024, 32, 10]
    assert tripartite_parts(8000) == [8000, 89, 20]  # 873,780 edges
    for n in (10000, 50001, 10 ** 400):  # 1,212,100 edges; the K literal cap
        with pytest.raises(ValueError):
            tripartite_parts(n)
    for n in (0, -1, -10 ** 400):  # refused before math.isqrt sees them
        with pytest.raises(ValueError, match=f"^tripartite n = {n} must be a "
                                             "positive integer$"):
            tripartite_parts(n)


def test_fit_loglog_slope():
    xs = [10, 100, 1000]
    ys = [3 * x ** 1.5 for x in xs]
    assert fit_loglog_slope(xs, ys) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        fit_loglog_slope([1, 2], [1, 2])
    with pytest.raises(ValueError):
        fit_loglog_slope([1, 2, 3], [0, 1, 2])
    # Three equal logs less their float mean need not round to 0: for x = 6,
    # 17 and 47 the float sum of squares was a tiny nonzero and the fit 0.0.
    for x in (5, 6, 17, 47):
        with pytest.raises(ValueError, match="at least two distinct x values"):
            fit_loglog_slope([x, x, x], [1, 2, 3])
    # Distinct xs can share a float log; the fit is judged on the logs.
    with pytest.raises(ValueError, match="at least two distinct x values"):
        fit_loglog_slope([10 ** 15, 10 ** 15 + 1, 10 ** 15 + 2], [1, 2, 3])


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
        run_experiment(obj)


def test_experiment_instance_cap():
    ns = list(range(8, 8 + EXPERIMENT_MAX_INSTANCES))
    rows, _, _ = run_experiment({"family": "tripartite", "n": ns})
    assert len(rows) == EXPERIMENT_MAX_INSTANCES
    with pytest.raises(ValueError, match="instances"):
        run_experiment({"family": "tripartite", "n": ns + [100]})


def test_experiment_tripartite():
    rows, predicted, _ = run_experiment({"family": "tripartite", "n": [16, 32, 64]})
    assert len(rows) == 3
    assert rows[0]["k3"] == 16 * 4 * 2
    assert predicted == pytest.approx(11 / 9)
    assert rows[0]["k2"] == rows[0]["m"]


def test_experiment_norm_graph():
    rows, predicted, _ = run_experiment({"family": "norm_graph", "q": [5, 7, 11], "s": 2})
    assert [row["n"] for row in rows] == [20, 42, 110]
    assert predicted == pytest.approx(1.0)


def test_experiment_deletion_uses_seeds():
    spec = {"family": "deletion", "pattern": "K3_4", "u": 2, "r": 3,
            "n": [40, 60, 80], "seeds": [1]}
    rows, _, _ = run_experiment(spec)
    assert len(rows) == 3
    assert all(row["param"].endswith("seed=1") for row in rows)


def test_experiment_requires_enough_instances():
    with pytest.raises(ValueError):
        run_experiment({"family": "tripartite", "n": [16, 32]})
    with pytest.raises(ValueError):
        run_experiment({"family": "nonsense"})
