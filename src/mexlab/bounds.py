"""Closed-form constants, exponents, and validity checks for clique-count bounds.

Every exponent with integral (or rational) inputs carries an exact Fraction
twin next to its float value, so tightness and identity checks never hinge
on float noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Pattern, chromatic_number

LEMMA_CONSTANT_MAX_R = 20
COR14_MAX_S = 1000  # keeps the reported (s-1)! + 1 under 2600 digits


class ConditionError(ValueError):
    """A validity condition of a formula or procedure failed."""

    def __init__(self, condition: str, message: str | None = None):
        super().__init__(message or f"condition failed: {condition}")
        self.condition = condition


COND_EDGE_COUNT = "e > (r-1)/2*v + r(r-1)/2 - (r-1)"
COND_MADC = "madc < (2e-r(r-1))/(v-2)"


@dataclass
class Condition:
    text: str
    passed: bool | None  # None: recorded hypothesis, not checkable here


@dataclass
class ExponentReport:
    formula_id: str
    params: dict
    value: float | bool | None = None  # float(value_rational) when unset
    value_rational: Fraction | None = None
    conditions: list = field(default_factory=list)
    tight: bool = False
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value is None and self.value_rational is not None:
            self.value = float(self.value_rational)

    def failed_conditions(self) -> list:
        return [c for c in self.conditions if c.passed is False]


# ---------------------------------------------------------------------------
# Clique-count constants C(u, r)
# ---------------------------------------------------------------------------

def lemma_constant(u: int, r: int) -> float:
    """C(u, r) = (u!)^(r/u) / r!: for every graph, k_r < C(u,r) * k_u^(r/u)."""
    if not 1 <= u < r <= LEMMA_CONSTANT_MAX_R:
        raise ValueError(f"need 1 <= u < r <= {LEMMA_CONSTANT_MAX_R}, got ({u},{r})")
    return math.factorial(u) ** (r / u) / math.factorial(r)


# ---------------------------------------------------------------------------
# Exponent formulas
# ---------------------------------------------------------------------------

def _exact(*xs) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in xs)


def cor12_exponent(r: int, s):
    """(r-1)s / (r+s-2); a Fraction on int or Fraction inputs."""
    if r < 3:
        raise ValueError("r must be >= 3")
    if not 1 < s <= r:
        raise ValueError("s must lie in (1, r]")
    if _exact(r, s):
        s = Fraction(s)
    return (r - 1) * s / (r + s - 2)


def thm13_f(alpha, beta):
    """1 + (beta-1)(1 - 1/alpha); a Fraction on int or Fraction inputs."""
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if _exact(alpha, beta):
        alpha = Fraction(alpha)
    return 1 + (beta - 1) * (1 - 1 / alpha)


def cor14_kst(r: int, s: int) -> ExponentReport:
    """Exponent (rs - r(r-1)/2) / (2s-1) for complete-bipartite forbidden graphs."""
    if r < 3:
        raise ValueError("r must be >= 3")
    if not 2 <= s <= COR14_MAX_S:
        raise ValueError(f"s must lie in 2..{COR14_MAX_S}")
    frac = Fraction(r * s - math.comb(r, 2), 2 * s - 1)
    s_min = 2 if r == 3 else r
    tight = (r >= 4 and s >= 2 * r - 2) or (r == 3 and s >= 2)
    t_min = math.factorial(s - 1) + 1
    conditions = [
        Condition(f"upper bound requires s >= {s_min} (and t >= s)", s >= s_min),
        Condition(f"tightness requires t >= (s-1)!+1 = {t_min}", None),
    ]
    return ExponentReport("cor14_kst", {"r": r, "s": s}, value_rational=frac,
                          conditions=conditions, tight=tight)


def _thm15_exponent(u: int, r: int, v: int, e: int) -> Fraction | None:
    """Thm 1.5's exponent for a forbidden graph with v vertices and e edges;
    None where its denominator vanishes."""
    br, bu = math.comb(r, 2), math.comb(u, 2)
    den = u * e - bu * v - u * br + 2 * bu
    return Fraction(r * e - br * v - r * br + 2 * br, den) if den != 0 else None


def thm15_general(u: int, r: int, f: Pattern) -> ExponentReport:
    """Lower-bound exponent of k_r in terms of k_u for graphs avoiding f.

    Failed conditions are reported, not raised; the exponent is still computed.
    """
    if not 2 <= u < r:
        raise ValueError("need r > u >= 2")
    v, e = f.order, f.size
    if v <= 2:
        raise ValueError("pattern must have more than 2 vertices")
    frac = _thm15_exponent(u, r, v, e)
    c1 = 2 * e > (r - 1) * v + 2 * math.comb(r, 2) - 2 * (r - 1)
    if e == 0:
        c2 = False
    else:
        c2 = f.max_avg_degree < Fraction(2 * e - r * (r - 1), v - 2)
    conditions = [Condition(COND_EDGE_COUNT, c1), Condition(COND_MADC, c2)]
    return ExponentReport("thm15_general",
                          {"u": u, "r": r, "pattern": f.name, "v": v, "e": e},
                          value_rational=frac, conditions=conditions)


def thm41_kst_lower(u: int, r: int, s: int, t: int) -> ExponentReport:
    """thm15_general specialized to a complete bipartite forbidden graph."""
    if not 2 <= u < r:
        raise ValueError("need r > u >= 2")
    if not 1 <= s <= t:
        raise ValueError("need t >= s >= 1")
    frac = _thm15_exponent(u, r, s + t, s * t)
    s_min = max(math.comb(r, 2), 2 * r - 2)
    conditions = [Condition(f"s >= max(r(r-1)/2, 2r-2) = {s_min}", s >= s_min)]
    return ExponentReport("thm41_kst_lower", {"u": u, "r": r, "s": s, "t": t},
                          value_rational=frac, conditions=conditions)


def _validate_parts(r: int, sizes) -> list[int]:
    sizes = list(sizes)
    if r < 3:
        raise ValueError("r must be >= 3")
    if len(sizes) != r:
        raise ValueError(f"need exactly r = {r} part sizes")
    if any(x < 1 for x in sizes):
        raise ValueError("part sizes must be positive")
    if sizes != sorted(sizes):
        raise ValueError("part sizes must be non-decreasing")
    return sizes


def thm43_multipartite(r: int, sizes) -> ExponentReport:
    """o() exponent for complete multipartite forbidden graphs.

    With smallest part 1 the aux field also carries the sharper one-apex
    exponent (see remark42_one_part).
    """
    sizes = _validate_parts(r, sizes)
    s_eff = r - Fraction(1, math.prod(sizes[: r - 1]))
    frac = cor12_exponent(r, s_eff)
    aux = {"s_effective": s_eff}
    if sizes[0] == 1:
        aux["improved"] = _one_part_exponent(r, sizes)
    return ExponentReport("thm43_multipartite", {"r": r, "sizes": sizes},
                          value_rational=frac, aux=aux)


def _one_part_exponent(r: int, sizes) -> Fraction:
    return (r - Fraction(1, math.prod(sizes[1: r - 1]))) / 2


def remark42_one_part(r: int, sizes) -> ExponentReport:
    """Sharper exponent when the smallest part of the forbidden multipartite
    graph is a single vertex."""
    sizes = _validate_parts(r, sizes)
    cond = sizes[0] == 1
    conditions = [Condition("smallest part size is 1", cond)]
    frac = _one_part_exponent(r, sizes) if cond else None
    return ExponentReport("remark42_one_part", {"r": r, "sizes": sizes},
                          value_rational=frac, conditions=conditions)


def cor44_tripartite_lower(s1: int, s2: int, s3: int) -> ExponentReport:
    """Triangle-count exponents for a complete tripartite forbidden graph:
    value is the lower-bound exponent (when valid), aux['upper'] the o() one."""
    if not 1 <= s1 <= s2 <= s3:
        raise ValueError("need 1 <= s1 <= s2 <= s3")
    upper = cor12_exponent(3, 3 - Fraction(1, s1 * s2))  # thm43 at r = 3
    sig = s1 + s2 + s3
    prd = s1 * s2 + s2 * s3 + s3 * s1
    applicable = Fraction(prd, sig) > Fraction(3, 2)
    conditions = [Condition("(s1*s2+s2*s3+s3*s1)/(s1+s2+s3) > 3/2", applicable)]
    lower = None
    if applicable:
        lower = Fraction(3, 2) - Fraction(3 * sig - 6, 4 * prd - 2 * sig - 8)
    return ExponentReport("cor44_tripartite_lower", {"s1": s1, "s2": s2, "s3": s3},
                          value_rational=lower, conditions=conditions,
                          aux={"upper": upper})


def thm46_join_cycle(r: int, s: int, l: int) -> ExponentReport:
    """Exponent when the forbidden graph is a clique joined to a cycle."""
    if r < 3:
        raise ValueError("r must be >= 3")
    if s < 1:
        raise ValueError("s must be >= 1")
    if l < 4:
        raise ValueError("l must be >= 4")
    t = l // 2
    upper_case = (l % 2 == 0 and r >= s + 2) or (l % 2 == 1 and r >= s + 3)
    conditions = [Condition("l even and r >= s+2, or l odd and r >= s+3", upper_case)]
    if upper_case:
        frac = Fraction(s + 1, 2) + Fraction(1, 2 * t)
        tight = False
    else:
        frac = Fraction(r, 2)
        tight = True
    return ExponentReport("thm46_join_cycle", {"r": r, "s": s, "l": l},
                          value_rational=frac, conditions=conditions, tight=tight)


def cor17_classifier(f: Pattern, t: int) -> bool:
    """True iff the t-clique count of f-free graphs can grow at the clique
    exponent t/2, which happens exactly when chi(f) > t."""
    if t < 2:
        raise ValueError("t must be >= 2")
    return chromatic_number(f.graph) > t
