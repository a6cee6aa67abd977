"""Threshold edge filtering and its proved output guarantees."""

import pytest

from conftest import complete_plus_matching
from mexlab.extraction import extract_dense
from mexlab.graphs import (Graph, complete, count_cliques,
                           edge_clique_participation, gnp, star)


def test_params_validation():
    g = complete(5)
    with pytest.raises(ValueError, match="r must lie"):
        extract_dense(g, 2, 1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        extract_dense(g, 3, 0.5, 1.0)   # alpha <= 2/r
    with pytest.raises(ValueError, match="alpha"):
        extract_dense(g, 3, 1.1, 1.0)
    for C in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="C must"):
            extract_dense(g, 3, 1.0, C)


def test_params_are_checked_in_order_before_the_edge_count():
    empty = Graph(4)
    with pytest.raises(ValueError, match="r must lie"):
        extract_dense(empty, 2, 0.5, -1.0)
    with pytest.raises(ValueError, match="alpha"):
        extract_dense(empty, 3, 0.5, -1.0)
    with pytest.raises(ValueError, match="C must"):
        extract_dense(empty, 3, 1.0, -1.0)


def test_params_reject_r_beyond_the_lemma_constants(monkeypatch):
    # the guarantees need C(i, r), defined for r <= 20 only, so a larger r
    # must be rejected before the participation pass
    extract_dense(complete(5), 20, 1.0, 1.0)

    def participation_pass(g, r):
        raise AssertionError(f"r = {r} reached the participation pass")

    monkeypatch.setattr("mexlab.extraction.edge_clique_participation",
                        participation_pass)
    for r in (2, 21):
        with pytest.raises(ValueError, match="r must lie"):
            extract_dense(complete(5), r, 1.0, 1.0)


def test_worked_example_complete_plus_matching():
    g = complete_plus_matching(10, 20)
    out, rep = extract_dense(g, 3, 1.0, 0.2)
    assert g.m == 65
    assert rep.threshold == pytest.approx(0.1 * 65 ** 0.5)
    assert rep.e1_count == 20 and rep.e2_count == 45
    assert rep.hypothesis_met
    assert out == complete(10)
    assert rep.cliques[3] == 120
    assert rep.all_guarantees_pass()


def test_worked_example_nothing_filtered():
    out, rep = extract_dense(complete(8), 3, 1.0, 0.2)
    assert rep.e1_count == 0
    assert out == complete(8)
    assert rep.hypothesis_met and rep.all_guarantees_pass()


def test_worked_example_hypothesis_unmet():
    out, rep = extract_dense(star(10), 3, 1.0, 1.0)
    assert not rep.hypothesis_met
    assert out.n == 0 and rep.n0 == 0
    assert all(not gu.applicable for gu in rep.guarantees.values())
    assert all(gu.passed is None for gu in rep.guarantees.values())


def test_unmet_hypothesis_derives_no_guarantee_constant():
    # C = 1e200 leaves tau finite, while a guarantee constant such as
    # (C/2) c0^(-3) would overflow; no report reads one when the
    # hypothesis fails, so none is derived.
    out, rep = extract_dense(complete(5), 3, 1.0, 1e200)
    assert not rep.hypothesis_met and rep.e2_count == 0 and out.n == 0
    assert list(rep.guarantees) == list("abcde")
    assert all(not gu.applicable for gu in rep.guarantees.values())


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        extract_dense(Graph(4), 3, 1.0, 1.0)


def test_idempotent_on_complete_graphs():
    for n in range(5, 12):
        for C in (0.1, 0.2, 0.5):
            out, rep = extract_dense(complete(n), 3, 1.0, C)
            if rep.threshold < n - 2:
                assert out == complete(n)


def test_destruction_accounting():
    # cliques lost never exceed the participation mass of removed edges
    for i in range(100):
        g = gnp(6 + i % 7, (0.4, 0.6, 0.8)[i % 3], seed=1000 + i)
        if g.m == 0:
            continue
        r = 3 + i % 2
        out, rep = extract_dense(g, r, 1.0, (0.05, 0.2, 1.0)[i % 3])
        part = edge_clique_participation(g, r)
        kept = {e for e in g.edges() if part[e] > rep.threshold}
        removed_mass = sum(cnt for e, cnt in part.items() if e not in kept)
        lost = count_cliques(g, r)[r] - rep.cliques[r]
        assert 0 <= lost <= removed_mass


def test_guarantees_hold_on_seeded_inputs():
    checked = 0
    for i in range(60):
        g = gnp(8 + i % 5, 0.7 + 0.1 * (i % 3), seed=7000 + i)
        if g.m == 0:
            continue
        out, rep = extract_dense(g, 3, 1.0, 0.1)
        if rep.hypothesis_met:
            checked += 1
            assert rep.all_guarantees_pass()
        assert rep.e1_count + rep.e2_count == g.m
        assert rep.n0 <= 2 * rep.e2_count
    assert checked >= 30


def test_determinism():
    g = gnp(12, 0.6, seed=5)
    a = extract_dense(g, 3, 0.9, 0.3)
    b = extract_dense(g, 3, 0.9, 0.3)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_fractional_alpha():
    g = gnp(12, 0.8, seed=11)
    out, rep = extract_dense(g, 3, 0.8, 0.2)
    assert rep.guarantees["e"].applicable is False
    if rep.hypothesis_met:
        assert rep.all_guarantees_pass()
