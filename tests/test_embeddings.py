"""The embedding search, which visits one map per copy, against the
unpruned reference search (tests/embedding_reference.py), which visits every
injective map."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import embedding_reference as ref
from mexlab.graphs import (Pattern, complete, count_copies, gnp, is_free,
                           iter_copies, parse_pattern_literal)

LITERALS = [f"K{n}" for n in range(1, 9)] + [
    "K1_2", "K1_3", "K2_2", "K2_3", "K3_3", "K2_4", "K3_4", "K4_4",
    "K2_2_2", "K1_1_2", "K1_2_3", "C4", "C5", "C6", "S3"]


@st.composite
def patterns(draw):
    if draw(st.booleans()):
        return parse_pattern_literal(draw(st.sampled_from(LITERALS)))
    return gnp(draw(st.integers(1, 8)), draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])),
               draw(st.integers(0, 2 ** 32)))


@st.composite
def hosts(draw):
    return gnp(draw(st.integers(0, 14)), draw(st.sampled_from([0.2, 0.35, 0.5, 0.7])),
               draw(st.integers(0, 2 ** 32)))


@given(patterns(), hosts())
@settings(max_examples=300, deadline=None)
def test_search_matches_unpruned_reference(f, g):
    # the reference visits every injective map; keep its expected count small
    host_p = 2 * g.m / (g.n * (g.n - 1)) if g.n > 1 else 0.0
    assume(math.perm(g.n, f.n) * host_p ** f.m <= 20000)
    pat = Pattern(f)
    assert count_copies(pat, g) == ref.count_copies(f, g)
    assert is_free(pat, g) == ref.is_free(f, g)
    assert (sorted(sorted(c) for c in iter_copies(pat, g, 10 ** 9))
            == sorted(sorted(edges) for _, edges in ref.copies(f, g)))


@given(patterns())
@settings(max_examples=200, deadline=None)
def test_search_visits_one_map_of_a_pattern_in_itself(f):
    assert count_copies(Pattern(f), f) == 1


def test_visits_equal_copies():
    # K2_2_2_2 has 4! automorphism cosets of its twin group, so a search
    # that breaks only twin symmetry visits each copy 24 times (2520 visits).
    f = Pattern(parse_pattern_literal("K2_2_2_2"))
    assert count_copies(f, complete(8)) == math.factorial(8) // (2 ** 4 * 24)
