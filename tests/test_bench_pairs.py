"""The decision rules of scripts/bench_pairs.py on hand-made runs: when a
claimed gain is met and when a change stays within the benchmark's bounds."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_pairs import claim_met, summarize, within_bounds  # noqa: E402

# Parent quartiles 1.0225 and 1.0675 (range 0.045), median 1.045.
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.25}


def entry(parent, change, spec, failed=0, all_correct=True):
    return {"pairs": len(parent), "failed": failed, "all_correct": all_correct,
            "metrics": {spec["name"]: summarize(parent, change, spec["better"])}}


def shifted(parent, by, losses):
    """Each parent value moved by `by`, except the first `losses` ones,
    which move the other way."""
    return [round(p - by if i < losses else p + by, 4) for i, p in enumerate(parent)]


def test_nine_wins_of_ten_past_the_quartiles_meet_the_claim():
    change = shifted(PARENT, -0.2, 1)
    m = entry(PARENT, change, LOWER)["metrics"]["wall_s"]
    assert m["change_wins"] == 9
    assert m["change_median"] < m["parent_quartiles"][0]
    assert claim_met(entry(PARENT, change, LOWER), LOWER)


def test_eight_wins_of_ten_do_not_meet_the_claim():
    change = shifted(PARENT, -0.2, 2)
    assert summarize(PARENT, change, "lower")["change_wins"] == 8
    assert not claim_met(entry(PARENT, change, LOWER), LOWER)


def test_a_gain_inside_the_parent_spread_does_not_meet_the_claim():
    # median 1.0 at the lower quartile, upper quartile 1.1: a change median
    # of 0.95 lies past the quartiles, but gains 0.05, under the 0.1 range
    parent = [1.0] * 6 + [1.1] * 4
    m = summarize(parent, [0.95] * 6 + [1.05] * 4, "lower")
    assert (m["parent_median"], m["parent_quartiles"]) == (1.0, [1.0, 1.1])
    assert m["change_wins"] == 10 and m["change_median"] == 0.95
    assert not claim_met(entry(parent, [0.95] * 6 + [1.05] * 4, LOWER), LOWER)
    assert claim_met(entry(parent, [0.85] * 6 + [0.95] * 4, LOWER), LOWER)


def test_better_higher_flips_the_sign():
    up, down = shifted(PARENT, 0.2, 1), shifted(PARENT, -0.2, 1)
    assert summarize(PARENT, up, "higher")["change_wins"] == 9
    assert summarize(PARENT, up, "lower")["change_wins"] == 1
    assert claim_met(entry(PARENT, up, HIGHER), HIGHER)
    assert not claim_met(entry(PARENT, down, HIGHER), HIGHER)
    assert not claim_met(entry(PARENT, up, LOWER), LOWER)


def test_within_bounds_fails_past_the_bound_or_on_a_failed_run():
    parent = [1.0] * 4
    assert within_bounds(entry(parent, [1.2] * 4, LOWER), [LOWER])
    assert not within_bounds(entry(parent, [1.3] * 4, LOWER), [LOWER])
    assert within_bounds(entry(parent, [0.8] * 4, HIGHER), [HIGHER])
    assert not within_bounds(entry(parent, [0.7] * 4, HIGHER), [HIGHER])
    assert not within_bounds(entry(parent, parent, LOWER, failed=1), [LOWER])
    assert not within_bounds(entry(parent, parent, LOWER, all_correct=False), [LOWER])
