"""Acceptance suite: one pass/fail line per criterion, stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5b checks the s = 2 norm-graph experiment against its exact
finite-q value, not against the asymptotic slope 1.  The witness H(q, 2) has
exactly m = (q-1)(q^2-q-1)/2 edges and k_3 = C(q-1, 3) triangles, so the
least-squares slope of ln k_3 against ln m over the q-set {5, 7, 11, 13} is
1.2496..., and no correct program gives a slope in [0.85, 1.15] there.  5b
asserts the rows' exact counts, the predicted exponent 1, the fitted slope
against a pure-Python fit of the closed forms (to 1e-9), and that k_3/m
rises toward its limit 1/3, so the slope's excess over 1 is the finite-size
term.  The window [0.85, 1.15] is asserted by the convergence test below,
over q = 11..23, where the family meets it.
"""

import math
import time
from fractions import Fraction
from math import comb

from conftest import (bowtie, diamond, disjoint_union, hom_brute_force,
                      lemma_constant_recursive, mex_exhaustive_reference, path,
                      paw, petersen)
from mexlab.bounds import (COND_EDGE_COUNT, COND_MADC, cor14_kst,
                           cor17_classifier, lemma_constant, thm13_f,
                           thm15_general, thm41_kst_lower)
from mexlab.constructions import deletion_method, norm_graph, run_experiment
from mexlab.extraction import extract_dense
from mexlab.graphs import Pattern, complete, count_cliques, gnp, is_free, pattern
from mexlab.oracle import mex_exact


def criterion(tag, ok, detail):
    print(f"\nACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {tag}: {detail}"


def test_criterion_1_clique_bound_property_suite():
    t0 = time.time()
    ps = (0.3, 0.5, 0.8)
    violations = 0
    for i in range(500):
        g = gnp(4 + i % 9, ps[i % 3], seed=i)
        cv = count_cliques(g, 5)
        for u in range(1, 5):
            if cv[u] <= 0:
                continue
            for r in range(u + 1, 6):
                if not cv[r] < lemma_constant(u, r) * cv[u] ** (r / u):
                    violations += 1
    elapsed = time.time() - t0
    criterion("1", violations == 0 and elapsed < 10,
              f"500 seeded graphs, strict k_r < C(u,r) k_u^(r/u); "
              f"violations={violations}, {elapsed:.1f}s (< 10 s)")


def test_criterion_2_constant_recursion():
    worst = max(abs(lemma_constant(u, r) - lemma_constant_recursive(u, r))
                for u in range(1, 10) for r in range(u + 1, 11))
    exact = (lemma_constant(1, 2) == 0.5
             and abs(lemma_constant(2, 3) - math.sqrt(2) / 3) < 1e-15)
    criterion("2", worst < 1e-12 and exact,
              f"closed form vs recursion agree to 1e-12 (worst {worst:.2e}); "
              f"C(1,2)=0.5, C(2,3)=sqrt(2)/3")


def _complete_plus_matching(n, extra):
    g = complete(n)
    for _ in range(extra):
        g = disjoint_union(g, complete(2))
    return g


def test_criterion_3_extraction_guarantees():
    t0 = time.time()
    met = []
    for n in range(6, 17):
        for extra in range(0, 15, 2):
            out, rep = extract_dense(_complete_plus_matching(n, extra), 3, 1.0, 0.2)
            if rep.hypothesis_met:
                met.append(rep)
            if len(met) == 50:
                break
        if len(met) == 50:
            break
    flags_ok = all(rep.all_guarantees_pass() for rep in met)
    out, rep = extract_dense(_complete_plus_matching(10, 20), 3, 1.0, 0.2)
    exact_ok = out == complete(10)
    elapsed = time.time() - t0
    criterion("3", len(met) == 50 and flags_ok and exact_ok and elapsed < 5,
              f"50 hypothesis-met instances, all flags (a)-(e) pass={flags_ok}; "
              f"K_10 + 20 edges -> exactly K_10: {exact_ok}; {elapsed:.1f}s (< 5 s)")


def test_criterion_4_norm_graph_freeness():
    t0 = time.time()
    k22 = all(is_free(pattern("K2_2"), norm_graph(q, 2))
              for q in (3, 5, 7, 11, 13))
    k33 = is_free(pattern("K3_3"), norm_graph(5, 3))
    elapsed = time.time() - t0
    criterion("4", k22 and k33 and elapsed < 60,
              f"K_2,2-free H(q,2) for q in 3..13: {k22}; "
              f"K_3,3-free H(5,3): {k33}; {elapsed:.1f}s (< 60 s)")


def test_criterion_5a_norm_graph_triangle_ratio():
    h = norm_graph(5, 3)
    ratio = count_cliques(h, 3)[3] / (h.n ** 2 / 6)
    criterion("5a", 0.5 <= ratio <= 1.5,
              f"k_3(H(5,3)) / (n^2/6) = {ratio:.4f} in [0.5, 1.5]")


def _least_squares_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def test_criterion_5b_norm_graph_slope():
    qs = [5, 7, 11, 13]
    r, s = 3, 2
    rows, predicted_exponent, slope = run_experiment(
        {"family": "norm_graph", "q": qs, "s": s})
    edges = [(q - 1) * (q * q - q - 1) // 2 for q in qs]
    triangles = [comb(q - 1, 3) for q in qs]
    rows_ok = [(row["n"], row["m"], row["k2"], row["k3"], row["k4"])
               for row in rows] == [
        (q * (q - 1), m, m, k3, 0) for q, m, k3 in zip(qs, edges, triangles)]
    predicted = Fraction(r * s - comb(r, 2), 2 * s - 1)
    exponent_ok = predicted == 1 and predicted_exponent == predicted
    # One edge or one triangle more or fewer at any q moves this slope by
    # more than 3.1e-4, so 1e-9 leaves no room for a miscount.
    exact_slope = _least_squares_slope(edges, triangles)
    slope_ok = abs(slope - exact_slope) <= 1e-9
    ratios = [Fraction(k3, m) for m, k3 in zip(edges, triangles)]
    ratios_ok = (all(a < b for a, b in zip(ratios, ratios[1:]))
                 and ratios[-1] < Fraction(1, 3))
    criterion("5b", rows_ok and exponent_ok and slope_ok and ratios_ok,
              f"s=2 norm graphs, q in {{5,7,11,13}}: rows n=q(q-1), "
              f"m=k2=(q-1)(q^2-q-1)/2, k3=C(q-1,3), k4=0: {rows_ok}; "
              f"predicted exponent 1: {exponent_ok}; fitted slope "
              f"{slope:.10f} = closed-form fit {exact_slope:.10f} "
              f"to 1e-9: {slope_ok}; k3/m rising below 1/3: {ratios_ok}")


def test_norm_graph_slope_converges_toward_prediction():
    """Supplementary (not an acceptance criterion): the same fit over larger q
    enters the stated window, so the deviation in 5b is a small-q effect,
    not a construction error."""
    _, _, slope = run_experiment({"family": "norm_graph",
                                  "q": [11, 13, 17, 19, 23], "s": 2})
    assert 0.85 <= slope <= 1.15


def test_criterion_6_tripartite_slope():
    t0 = time.time()
    _, _, slope = run_experiment({"family": "tripartite", "n": [64, 256, 1024]})
    elapsed = time.time() - t0
    ok = abs(slope - 11 / 9) <= 0.1 and elapsed < 30
    criterion("6", ok,
              f"tripartite slope {slope:.4f} within 11/9 +- 0.1; "
              f"{elapsed:.1f}s (< 30 s)")


def test_criterion_7_oracle_vs_star_count_formula():
    t0 = time.time()
    base_ok = True
    for m in range(2, 7):
        res = mex_exact(m, pattern("K1_2"), pattern("K2_2"))
        base_ok = base_ok and res.value == comb(m, 2)
    cross_ok = True
    queries = ([(m, "K1_2", "K2_2") for m in range(2, 6)]
               + [(2, "K3", "K4"), (3, "K3", "K2_2"), (5, "K3", "K4")])
    for m, target, forbidden in queries:
        fast = mex_exact(m, pattern(target), pattern(forbidden)).value
        dumb = mex_exhaustive_reference(m, pattern(target), pattern(forbidden))
        cross_ok = cross_ok and fast == dumb
    elapsed = time.time() - t0
    criterion("7", base_ok and cross_ok and elapsed < 300,
              f"mex(m, K_1,2, K_2,2) = C(m,2) for m=2..6: {base_ok}; "
              f"cross-strategy agreement on all m<=5 queries: {cross_ok}; "
              f"{elapsed:.0f}s (< 300 s)")


def test_criterion_8_deletion_soundness():
    t0 = time.time()
    f = pattern("K3_4")
    runs = []
    for n in (60, 120, 240):
        for seed in (1, 2, 3, 4, 5):
            g, run = deletion_method(f, 2, 3, n, seed)
            runs.append(run)
            assert is_free(f, g)
    free_ok = all(r.f_free for r in runs)
    k3_ok = all(r.kr_after > 0 for r in runs)
    _, _, slope = run_experiment({"family": "deletion", "pattern": "K3_4",
                                  "u": 2, "r": 3, "n": [60, 120, 240],
                                  "seeds": [1, 2, 3, 4, 5]})
    elapsed = time.time() - t0
    ok = free_ok and k3_ok and slope >= 0.8 and elapsed < 600
    criterion("8", ok,
              f"15 runs all K_3,4-free: {free_ok}; k_3 > 0: {k3_ok}; "
              f"slope {slope:.4f} >= 0.8 (prediction 12/13 ~ 0.923); "
              f"{elapsed:.0f}s (< 600 s)")


def test_criterion_9_bounds_identities_and_rejections():
    worst_comp = max(abs(cor14_kst(r, s).value
                         - thm13_f(2 - 1 / s,
                                   (r - 1) - (r - 1) * (r - 2) / (2 * (s - 1))))
                     for r in range(3, 7) for s in range(r, 11))
    worst_spec = max(abs(thm15_general(u, r, pattern(f"K{s}_{t}")).value
                         - thm41_kst_lower(u, r, s, t).value)
                     for u, r in [(2, 3), (2, 4), (3, 4)]
                     for s in range(3, 9) for t in range(s, 9))
    k33 = [c.text for c in thm15_general(2, 3, pattern("K3_3")).failed_conditions()]
    k22 = [c.text for c in thm15_general(2, 3, pattern("K2_2")).failed_conditions()]
    named_ok = k33 == [COND_MADC] and COND_EDGE_COUNT in k22
    ok = worst_comp < 1e-12 and worst_spec < 1e-12 and named_ok
    criterion("9", ok,
              f"composition identity worst {worst_comp:.2e}, specialization "
              f"identity worst {worst_spec:.2e} (both < 1e-12); "
              f"K_3,3 and K_2,2 rejected with named conditions: {named_ok}")


def test_criterion_10_classifier_corpus():
    corpus = [pattern("K2"), pattern("K3"), pattern("K4"), pattern("K5"),
              pattern("C4"), pattern("C5"), pattern("C6"), pattern("C7"),
              Pattern(path(4)), Pattern(path(5)), pattern("S3"), pattern("S5"),
              pattern("K2_2"), pattern("K2_3"), pattern("K3_3"),
              pattern("K3_4"), pattern("K2_2_2"), pattern("K1_2_2"),
              Pattern(bowtie()), Pattern(diamond()), Pattern(paw()),
              Pattern(petersen())]
    assert len(corpus) >= 20
    # chi(f) > t iff no map V(f) -> [t] is a proper colouring
    agree = all(cor17_classifier(f, t) == (not hom_brute_force(f.graph, complete(t)))
                for f in corpus for t in (2, 3, 4))
    criterion("10", agree,
              f"classifier agrees with a brute-force t-colouring on "
              f"{len(corpus)} patterns, t in {{2,3,4}}")
