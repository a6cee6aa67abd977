"""One-pass edge filtering that keeps only edges lying in many r-cliques.

Edges whose r-clique participation is at most the threshold
tau = (1/2) C m^((alpha r - 2)/2) are discarded; the surviving edge set
induces the output graph.  When the input satisfies the density hypothesis
k_r >= C m^(alpha r / 2), the report verifies a family of guaranteed
inequalities on the output whose constants follow from the filtering
argument itself, so a failed flag always means an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bounds import LEMMA_CONSTANT_MAX_R, lemma_constant
from .graphs import CliqueVector, Graph, count_cliques, edge_clique_participation

REL_SLACK = 1e-9  # absorbs float rounding of m**alpha in the flag checks


@dataclass
class GuaranteeCheck:
    applicable: bool
    passed: bool | None = None
    lhs: float | None = None
    rhs: float | None = None
    constant: float | None = None


@dataclass
class GuaranteeCases(GuaranteeCheck):
    """Guarantee (d): one check per clique size 2..r, and it passes when
    every case does."""

    cases: list = field(default_factory=list)


@dataclass
class ExtractionReport:
    threshold: float
    e1_count: int
    e2_count: int
    n0: int
    cliques: CliqueVector
    hypothesis_met: bool
    guarantees: dict = field(default_factory=dict)

    def all_guarantees_pass(self) -> bool:
        return all(g.passed for g in self.guarantees.values() if g.applicable)


def _check(lhs: int, rhs: float, constant: float,
           at_most: bool = False) -> GuaranteeCheck:
    """The guarantee lhs >= rhs, or lhs <= rhs if at_most, up to REL_SLACK."""
    passed = (lhs <= rhs * (1 + REL_SLACK) if at_most
              else lhs >= rhs * (1 - REL_SLACK))
    return GuaranteeCheck(True, passed, float(lhs), rhs, constant)


def extract_dense(g: Graph, r: int, alpha: float, C: float):
    """Filter low-participation edges once and verify the output guarantees.

    The clique size r lies in 3..LEMMA_CONSTANT_MAX_R (the guarantees need
    C(i, r)), the density exponent alpha in (2/r, 1] and the constant C in
    (0, inf); any other value is a ValueError, raised before g is read.

    A tau beyond the float range is an OverflowError, raised once tau is
    computed; the guarantee constants are derived, and can overflow, only
    under the hypothesis, the one case whose report reads them.

    Returns (subgraph, report).  The subgraph is induced by the surviving
    edge set and relabeled over its non-isolated vertices in sorted order.
    """
    if not 3 <= r <= LEMMA_CONSTANT_MAX_R:
        raise ValueError(f"r must lie in 3..{LEMMA_CONSTANT_MAX_R}")
    if not 2.0 / r < alpha <= 1.0:
        raise ValueError("alpha must lie in (2/r, 1]")
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be a finite positive number, got {C}")
    m = g.m
    if m == 0:
        raise ValueError("input graph has no edges")

    participation = edge_clique_participation(g, r)
    tau = 0.5 * C * m ** ((alpha * r - 2) / 2)
    if tau == math.inf:
        raise OverflowError(f"tau = {0.5 * C} * {m} ** {(alpha * r - 2) / 2}")
    kept = [e for e, c in participation.items() if c > tau]
    e2_count = len(kept)
    e1_count = m - e2_count

    verts = sorted({u for e in kept for u in e})
    relabel = {v: i for i, v in enumerate(verts)}
    out = Graph(len(verts), [(relabel[u], relabel[v]) for u, v in kept])
    n0 = out.n

    # each r-clique of g is counted once at each of its C(r, 2) edges
    kr_input = sum(participation.values()) // math.comb(r, 2)
    hypothesis_met = kr_input >= C * m ** (alpha * r / 2)
    cliques = count_cliques(out, r)

    guarantees = {key: GuaranteeCheck(applicable=False) for key in "abcde"}
    if hypothesis_met:
        c2r = lemma_constant(2, r)
        edge_const = (C / (2 * c2r)) ** (2 / r)
        c0 = 2.0 * (math.factorial(r - 2) * C / 2.0) ** (-1.0 / (r - 2))
        # exponent of n0 in the r-clique guarantee; the matching constant
        # comes from eliminating m between the two proved inequalities
        n0_exp = r * (r - 2) * alpha / ((2 - alpha) * r - 2)
        cr = (C / 2.0) * c0 ** (-n0_exp)
        guarantees["a"] = _check(e2_count, edge_const * m ** alpha, edge_const)
        guarantees["b"] = _check(cliques[r], (C / 2) * m ** (alpha * r / 2), C / 2)
        guarantees["c"] = _check(
            n0, c0 * m ** (((2 - alpha) * r - 2) / (2 * (r - 2))), c0, at_most=True)
        cases = []
        for i in range(2, r + 1):
            ci = cr if i == r else (cr / lemma_constant(i, r)) ** (i / r)
            cases.append(_check(
                cliques[i], ci * n0 ** (i * (r - 2) * alpha / ((2 - alpha) * r - 2)), ci))
        guarantees["d"] = GuaranteeCases(True, all(c.passed for c in cases), cases=cases)
        if alpha == 1.0:
            dense_const = edge_const / (c0 * c0)
            guarantees["e"] = _check(cliques[2], dense_const * n0 * n0, dense_const)

    report = ExtractionReport(tau, e1_count, e2_count, n0, cliques,
                              hypothesis_met, guarantees)
    return out, report
