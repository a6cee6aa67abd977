"""Closed-form constants, exponent formulas, and their algebraic identities."""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import bowtie, lemma_constant_recursive, petersen
from mexlab.bounds import (COND_EDGE_COUNT, COND_MADC, COR14_MAX_S,
                           cor12_exponent, cor14_kst, cor17_classifier,
                           cor44_tripartite_lower, lemma_constant,
                           remark42_one_part, thm13_f, thm15_general,
                           thm41_kst_lower, thm43_multipartite,
                           thm46_join_cycle)
from mexlab.graphs import Pattern, pattern


def test_lemma_constant_values():
    assert lemma_constant(1, 2) == 0.5
    assert abs(lemma_constant(2, 3) - math.sqrt(2) / 3) < 1e-15
    assert lemma_constant(3, 6) == pytest.approx(0.05, abs=1e-15)


def test_lemma_constant_validation():
    for bad in [(0, 2), (2, 2), (3, 2), (1, 21)]:
        with pytest.raises(ValueError):
            lemma_constant(*bad)


def test_recursion_matches_closed_form():
    assert lemma_constant_recursive(1, 2) == 0.5
    assert abs(lemma_constant_recursive(2, 3) - 2 / 3 * 0.5 ** 0.5) < 1e-15
    for u in range(1, 10):
        for r in range(u + 1, 11):
            assert abs(lemma_constant(u, r) - lemma_constant_recursive(u, r)) < 1e-12


def test_cor12():
    assert cor12_exponent(3, 2) == pytest.approx(4 / 3)
    for r in range(3, 7):
        assert cor12_exponent(r, r) == pytest.approx(r / 2)
    assert cor12_exponent(3, Fraction(11, 4)) == thm43_multipartite(3, [2, 2, 2]).value_rational
    with pytest.raises(ValueError):
        cor12_exponent(3, 1)


def test_thm13():
    assert thm13_f(2, 2) == 1.5
    for alpha in (1.5, 2, 3.7):
        assert thm13_f(alpha, 1) == 1
    with pytest.raises(ValueError):
        thm13_f(1.0, 2.0)


def test_scalar_exponents_are_exact_on_exact_inputs():
    # (r-1)s/(r+s-2) and 1 + (beta-1)(1 - 1/alpha), written out
    for r in range(3, 8):
        for s in [*range(2, r + 1), Fraction(3, 2), Fraction(2 * r - 1, 2)]:
            got = cor12_exponent(r, s)
            assert type(got) is Fraction and got == Fraction((r - 1) * s, r + s - 2)
    for alpha in (2, 5, Fraction(3, 2)):
        for beta in (1, 3, Fraction(5, 4)):
            got = thm13_f(alpha, beta)
            assert type(got) is Fraction
            assert got == 1 + (Fraction(beta) - 1) * (1 - Fraction(1, 1) / alpha)
    # a float input keeps the float arithmetic
    assert cor12_exponent(4, 1.5) == 3 * 1.5 / 3.5
    assert thm13_f(1e5, 2) == 1 + 1 * (1 - 1 / 1e5)
    assert type(thm13_f(Fraction(3, 2), 2.0)) is float


def test_cor14():
    r = cor14_kst(3, 2)
    assert r.value_rational == 1 and r.tight
    r = cor14_kst(3, 3)
    assert r.value_rational == Fraction(6, 5) and r.tight
    r = cor14_kst(4, 6)
    assert r.value_rational == Fraction(18, 11) and r.tight
    assert any("t >= (s-1)!+1 = 121" in c.text for c in r.conditions)
    assert not cor14_kst(4, 5).tight
    assert not cor14_kst(5, 7).tight
    assert cor14_kst(5, 8).tight
    assert cor14_kst(3, COR14_MAX_S).value_rational == Fraction(2997, 1999)
    with pytest.raises(ValueError):  # before (s-1)! is computed
        cor14_kst(3, COR14_MAX_S + 1)


def test_thm15_examples():
    rep = thm15_general(2, 3, pattern("K3_4"))
    assert rep.value_rational == Fraction(12, 13)
    assert not rep.failed_conditions()

    rep = thm15_general(2, 3, pattern("K3_3"))
    assert [c.text for c in rep.failed_conditions()] == [COND_MADC]

    rep = thm15_general(2, 3, pattern("K2_2"))
    assert COND_EDGE_COUNT in [c.text for c in rep.failed_conditions()]


def test_thm41_examples():
    rep = thm41_kst_lower(2, 3, 4, 4)
    assert rep.value_rational == Fraction(21, 20)
    assert not rep.failed_conditions()
    rep = thm41_kst_lower(2, 3, 2, 2)
    assert rep.failed_conditions()


def test_specialization_identity():
    for u, r in [(2, 3), (2, 4), (3, 4), (2, 5)]:
        for s in range(3, 9):
            for t in range(s, 9):
                a = thm15_general(u, r, pattern(f"K{s}_{t}")).value
                b = thm41_kst_lower(u, r, s, t).value
                assert abs(a - b) < 1e-12


def _thm41_closed_form(u, r, s, t):
    """Thm 4.1's exponent as the paper states it; None at a zero denominator."""
    num = 2 * r * s * t - r * (r - 1) * (s + t) - r * (r - 1) * (r - 2)
    den = 2 * u * s * t - u * (u - 1) * (s + t) - u * r * (r - 1) + 2 * u * (u - 1)
    return Fraction(num, den) if den != 0 else None


def test_thm41_is_its_closed_form_exactly():
    zero_denominators = 0
    for r in range(3, 7):
        for u in range(2, r):
            for s in range(1, 9):
                for t in range(s, 9):
                    want = _thm41_closed_form(u, r, s, t)
                    rep = thm41_kst_lower(u, r, s, t)
                    assert rep.value_rational == want
                    assert rep.value == (None if want is None else float(want))
                    zero_denominators += want is None
    assert zero_denominators
    # s = t = 1 is thm41's own case: thm15 refuses a pattern on two vertices
    assert thm41_kst_lower(2, 3, 1, 1).value_rational == Fraction(3, 2)
    with pytest.raises(ValueError):
        thm15_general(2, 3, pattern("K1_1"))
    assert thm41_kst_lower(2, 3, 1, 5).value is None  # 4st - 2(s+t) - 8 = 0


def test_multipartite_exponents_are_their_closed_forms_exactly():
    for r, top in [(3, 6), (4, 4), (5, 3)]:
        for sizes in combinations_with_replacement(range(1, top + 1), r):
            s = r - Fraction(1, math.prod(sizes[:-1]))
            rep = thm43_multipartite(r, sizes)
            assert rep.aux["s_effective"] == s
            assert rep.value_rational == (r - 1) * s / (r + s - 2)
            if r == 3:
                upper = cor44_tripartite_lower(*sizes).aux["upper"]
                assert upper == Fraction(3, 2) - Fraction(1, 8 * sizes[0] * sizes[1] - 2)


def test_composition_identity():
    for r in range(3, 7):
        for s in range(r, 11):
            a = cor14_kst(r, s).value
            b = thm13_f(2 - 1 / s, (r - 1) - (r - 1) * (r - 2) / (2 * (s - 1)))
            assert abs(a - b) < 1e-12


def test_ordering_sanity():
    for r in range(3, 6):
        for s in range(max(2 * r - 2, r * (r - 1) // 2), 10):
            for t in range(s, 10):
                lower = thm41_kst_lower(2, r, s, t).value
                upper = cor14_kst(r, s).value
                assert lower <= upper + 1e-12


def test_thm43():
    rep = thm43_multipartite(3, [1, 1, 1])
    assert rep.value_rational == Fraction(4, 3)
    assert rep.aux["improved"] == 1
    assert thm43_multipartite(3, [2, 2, 2]).value_rational == Fraction(22, 15)
    assert thm43_multipartite(3, [1, 2, 2]).aux["improved"] == Fraction(5, 4)
    assert "improved" not in thm43_multipartite(3, [2, 2, 3]).aux
    with pytest.raises(ValueError):
        thm43_multipartite(3, [2, 1, 2])
    with pytest.raises(ValueError):
        thm43_multipartite(3, [2, 2])


def test_remark42():
    rep = remark42_one_part(3, [1, 2, 2])
    assert rep.value_rational == Fraction(5, 4)
    rep = remark42_one_part(4, [1, 2, 3, 3])
    assert rep.value_rational == (4 - Fraction(1, 6)) / 2
    assert remark42_one_part(3, [2, 2, 2]).value is None


def test_cor44():
    rep = cor44_tripartite_lower(2, 2, 2)
    assert rep.aux["upper"] == Fraction(22, 15)
    assert rep.value_rational == Fraction(15, 14)
    rep = cor44_tripartite_lower(1, 1, 1)
    assert rep.value is None and rep.conditions[0].passed is False
    assert cor44_tripartite_lower(1, 1, 1).aux["upper"] == Fraction(3, 2) - Fraction(1, 6)
    assert cor44_tripartite_lower(2, 3, 3).value_rational == Fraction(6, 5)


def test_thm46():
    rep = thm46_join_cycle(3, 1, 4)
    assert rep.value_rational == Fraction(5, 4) and not rep.tight
    rep = thm46_join_cycle(3, 2, 5)
    assert rep.value_rational == Fraction(3, 2) and rep.tight
    rep = thm46_join_cycle(4, 1, 5)
    assert rep.value_rational == Fraction(5, 4) and not rep.tight
    with pytest.raises(ValueError):
        thm46_join_cycle(3, 1, 3)


def test_cor17():
    assert cor17_classifier(pattern("K4"), 3)
    assert not cor17_classifier(pattern("C5"), 3)
    assert cor17_classifier(pattern("K2_2_2"), 2)
    assert not cor17_classifier(Pattern(petersen()), 3)
    with pytest.raises(ValueError):
        cor17_classifier(pattern("K3"), 1)


def _phi(f, rho):
    """min over vertex subsets spanning an edge of v - rho * e."""
    g = f.graph
    if g.m == 0:
        raise ValueError("phi needs a pattern with an edge")
    best = None
    for k in range(2, g.n + 1):
        for sub in combinations(range(g.n), k):
            e = sum(1 for u, v in g.edges() if u in sub and v in sub)
            if e and (best is None or k - rho * e < best):
                best = k - rho * e
    return best


def test_phi_exponent():
    # the reference _phi that test_phi_positive_under_thm15_conditions uses
    assert _phi(pattern("K3"), 1) == 0
    assert _phi(pattern("K2_2"), Fraction(1, 2)) == Fraction(3, 2)
    for f in [pattern("K3"), pattern("K2_3"), Pattern(bowtie())]:
        assert _phi(f, 0) == 2
    with pytest.raises(ValueError):
        _phi(Pattern(pattern("K3").graph.remove_edges([(0, 1), (0, 2), (1, 2)])), 1)


def test_phi_positive_under_thm15_conditions():
    corpus = ["K3_4", "K3_5", "K4_4", "K4_5", "K2_2_3", "K2_3_3", "K3_3_3",
              "K2_2", "K3_3", "K2_3"]
    for name in corpus:
        f = pattern(name)
        for r in (3, 4):
            if r * (r - 1) // 2 >= f.size:
                continue
            rep = thm15_general(2, r, f)
            rho = Fraction(f.order - 2, f.size - r * (r - 1) // 2)
            if not rep.failed_conditions():
                assert _phi(f, rho) > 0
