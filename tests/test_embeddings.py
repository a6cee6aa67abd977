"""The embedding search, which visits one map per copy, against the
unpruned reference search (tests/embedding_reference.py), which visits every
injective map."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import embedding_reference as ref
from mexlab.constructions import norm_graph
from mexlab.graphs import (Graph, Pattern, _copies_through, _search, bits,
                           complete, count_copies, gnp, is_free, iter_copies,
                           parse_pattern_literal)

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
def twin_patterns(draw):
    """A G(n, p) pattern of up to 6 vertices with one vertex blown up into
    2 to 4 copies that share its neighbourhood: an independent twin class
    that the search counts by a binomial."""
    f = gnp(draw(st.integers(1, 6)), draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])),
            draw(st.integers(0, 2 ** 32)))
    v = draw(st.integers(0, f.n - 1))
    extra = draw(st.integers(1, 3))
    return Graph(f.n + extra, f.edges() + [(f.n + i, w) for i in range(extra)
                                           for w in bits(f.adj[v])])


@st.composite
def complete_bipartite_patterns(draw):
    """K_{s,t} with s <= 3 and t <= 4, relabeled, with 0 to 2 isolated
    vertices: a pattern whose edges all touch one independent twin class,
    which the search takes whole as its tail."""
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = s + t + draw(st.integers(0, 2))
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[a], label[s + b]) for a in range(s) for b in range(t)])


@st.composite
def hosts(draw):
    return gnp(draw(st.integers(0, 14)), draw(st.sampled_from([0.2, 0.35, 0.5, 0.7])),
               draw(st.integers(0, 2 ** 32)))


def check_against_reference(f, g):
    # the reference visits every injective map; keep its expected count small
    host_p = 2 * g.m / (g.n * (g.n - 1)) if g.n > 1 else 0.0
    assume(math.perm(g.n, f.n) * host_p ** f.m <= 20000)
    pat = Pattern(f)
    assert count_copies(pat, g) == ref.count_copies(f, g)
    assert is_free(pat, g) == ref.is_free(f, g)
    assert (sorted(sorted(c) for c in iter_copies(pat, g, 10 ** 9))
            == sorted(sorted(edges) for _, edges in ref.copies(f, g)))


@given(patterns(), hosts())
@settings(max_examples=300, deadline=None)
def test_search_matches_unpruned_reference(f, g):
    check_against_reference(f, g)


@given(twin_patterns(), hosts())
@settings(max_examples=300, deadline=None)
def test_collapsed_twin_class_matches_unpruned_reference(f, g):
    check_against_reference(f, g)


@given(complete_bipartite_patterns(), hosts())
@settings(max_examples=300, deadline=None)
def test_whole_class_tail_matches_unpruned_reference(f, g):
    check_against_reference(f, g)


@given(st.one_of(patterns(), twin_patterns(), complete_bipartite_patterns()))
@settings(max_examples=200, deadline=None)
def test_search_visits_one_map_of_a_pattern_in_itself(f):
    assert count_copies(Pattern(f), f) == 1


def test_visits_equal_copies():
    # K2_2_2_2 has 4! automorphism cosets of its twin group, so a search
    # that breaks only twin symmetry visits each copy 24 times (2520 visits).
    f = Pattern(parse_pattern_literal("K2_2_2_2"))
    assert count_copies(f, complete(8)) == math.factorial(8) // (2 ** 4 * 24)


# ---------------------------------------------------------------------------
# Rooted searches: the copies through one host edge
# ---------------------------------------------------------------------------

@st.composite
def small_hosts(draw):
    return gnp(draw(st.integers(2, 9)), draw(st.sampled_from([0.3, 0.5, 0.7])),
               draw(st.integers(0, 2 ** 32)))


def check_through_against_reference(f, g):
    """For every host edge uv, in both orientations: the rooted searches
    count count(f, g) - count(f, g - uv) copies, and the first-copy search
    finds one iff that is positive."""
    plans = Pattern(f).rooted_plans
    total = ref.count_copies(f, g)
    for u, v in g.edges():
        through = total - ref.count_copies(f, g.remove_edges([(u, v)]))
        for root in ((u, v), (v, u)):
            assert _copies_through(plans, g, *root) == through
            assert _copies_through(plans, g, *root, True) == (through > 0)


@given(st.one_of(patterns(), twin_patterns(), complete_bipartite_patterns()),
       small_hosts())
@settings(max_examples=300, deadline=None)
def test_rooted_search_matches_unpruned_reference(f, g):
    host_p = 2 * g.m / (g.n * (g.n - 1))
    assume(f.m > 0 and math.perm(g.n, f.n) * host_p ** f.m <= 5000)
    check_through_against_reference(f, g)


TWO_K2 = Graph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("f", [
    TWO_K2,                                   # disconnected
    Graph(6, [(0, 1), (2, 3), (4, 5)]),       # 3K2, disconnected
    parse_pattern_literal("S3"),              # a star: centre plus a tail leaf
    parse_pattern_literal("K1_2"),
    parse_pattern_literal("K2"),              # the root is all: an empty tail
    parse_pattern_literal("K4"),              # every root vertex has twins
    parse_pattern_literal("K2_3"),
    parse_pattern_literal("K2_2_2"),
    parse_pattern_literal("C5"),
    Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),  # K3 + K2
], ids=["2K2", "3K2", "S3", "K1_2", "K2", "K4", "K2_3", "K2_2_2", "C5", "K3+K2"])
@pytest.mark.parametrize("seed", range(6))
def test_rooted_search_on_named_patterns(f, seed):
    rng = random.Random(seed)
    g = gnp(rng.randint(4, 8), rng.choice([0.4, 0.6, 0.8]), seed)
    check_through_against_reference(f, g)


@pytest.mark.parametrize("text,orbits", [
    ("K2", 1), ("K4", 1), ("C5", 1), ("K1_2", 2), ("K2_3", 2), ("K1_1_2", 3)])
def test_one_rooted_plan_per_arc_orbit(text, orbits):
    # K1_1_2's arcs: between its two K1 parts, from a K1 part to the
    # 2-part, and back
    assert len(Pattern(parse_pattern_literal(text)).rooted_plans) == orbits


# The literal patterns of the benchmark workloads, and 2K2.
WORKLOAD_PATTERNS = ["K2", "K3", "K4", "K1_2", "S3", "S4", "C4", "C5", "K2_2", "K3_3",
                     "K4_7", "K2_3", "K3_4", "K3_5", "K4_4", "K2_2_2", "K3_3_3", "K1_1_2"]


def test_plans_are_pinned():
    # The plan fixes the search order and every count.  The hash covers
    # prev, low, size and feeds of each unrooted plan and of each rooted
    # plan list; the plan's other fields are derived from these.
    digest = hashlib.sha256()
    for f in [parse_pattern_literal(t) for t in WORKLOAD_PATTERNS] + [TWO_K2]:
        pat = Pattern(f)
        fields = [[p.prev, p.low, p.size, p.feeds] for p in [pat.plan] + pat.rooted_plans]
        digest.update(json.dumps([fields[0], fields[1:]]).encode())
    assert digest.hexdigest() == (
        "b7943ebe9a880ddf1fb61b022027fa348de7afc54c75d5f21ac3c6f99222c64d")


# ---------------------------------------------------------------------------
# The search's modes against each other, on hosts too large for the reference
# ---------------------------------------------------------------------------

@st.composite
def mid_instances(draw):
    """A pattern with an edge and a G(n, p) host of 10 to 40 vertices, p
    capped so that about 5000 injective maps are expected at most."""
    f = draw(st.one_of(patterns(), twin_patterns(), complete_bipartite_patterns()))
    assume(f.m > 0)
    n = draw(st.sampled_from(range(10, 41, 5)))
    cap = min(0.9, (5000 / math.perm(n, f.n)) ** (1 / f.m))
    p = cap * draw(st.sampled_from([0.4, 0.7, 1.0]))
    return f, gnp(n, p, draw(st.integers(0, 2 ** 32)))


def check_first_stops_at_first_copy(plan, g, root=()):
    """With first, the search visits the full prefixes of the whole search
    up to the first with a copy, and returns that prefix's count."""
    def run(first):
        seen = []
        got = _search(plan, g, root, first, lambda images, cand: seen.append(
            (tuple(images[:plan.stop]), math.comb(cand.bit_count(), plan.size))))
        return got, seen

    total, seen = run(False)
    assert total == sum(c for _, c in seen)
    hit = next((j for j, (_, c) in enumerate(seen) if c), None)
    if hit is None:
        assert run(True) == (0, seen)
    else:
        assert run(True) == (seen[hit][1], seen[:hit + 1])


@given(mid_instances())
@settings(max_examples=200, deadline=None)
def test_search_modes_agree_on_mid_size_hosts(case):
    f, g = case
    pat = Pattern(f)
    total = count_copies(pat, g)
    assert is_free(pat, g) == (total == 0)
    assert len(iter_copies(pat, g, math.inf)) == total
    check_first_stops_at_first_copy(pat.plan, g)
    through_all = 0
    for u, v in g.edges():
        through = _copies_through(pat.rooted_plans, g, u, v)
        assert _copies_through(pat.rooted_plans, g, u, v, True) == (through > 0)
        for plan in pat.rooted_plans:
            check_first_stops_at_first_copy(plan, g, (u, v))
        through_all += through
    # every copy holds e(f) host edges and is found once through each
    assert through_all == f.m * total


# ---------------------------------------------------------------------------
# K_{s,t} searches on norm graphs, whose tails of t <= 3 are filtered in
# saturating registers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,s", [(3, 3), (5, 2), (5, 3)])
def test_bipartite_copies_on_norm_graphs_match_the_reference(q, s):
    g = norm_graph(q, s)
    for text in ("K1_2", "C4", "K2_3", "K3_3"):
        f = parse_pattern_literal(text)
        pat = Pattern(f)
        assert count_copies(pat, g) == ref.count_copies(f, g), text
        assert is_free(pat, g) == ref.is_free(f, g), text


def test_norm_graphs_are_free_of_their_bipartite_pattern():
    # H(q, s) is K_{s,(s-1)!+1}-free (Kollar, Ronyai & Szabo 1996; Alon,
    # Ronyai & Szabo 1999): H(q, 2) holds no C4, H(5, 3) no K_{3,3}
    c4 = Pattern(parse_pattern_literal("C4"))
    for q in (3, 5, 7, 11, 13):
        g = norm_graph(q, 2)
        assert is_free(c4, g)
        assert count_copies(c4, g) == 0
    k33 = Pattern(parse_pattern_literal("K3_3"))
    assert is_free(k33, norm_graph(5, 3))
    assert count_copies(k33, norm_graph(5, 3)) == 0
