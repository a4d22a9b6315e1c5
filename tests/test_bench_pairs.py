"""scripts/bench_pairs.py: pair wins per metric and the claim verdict."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"unit": "ms", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize("spec", [HIGHER, LOWER], ids=["higher", "lower"])
def test_ties_count_for_neither_side(spec):
    values = [5.0, 6.0, 7.0]
    m = bench_pairs.compare(spec, values, list(values))
    assert m["change_wins_pairs"] == 0
    assert m["worse_by_share"] == 0.0


def test_lower_is_better_metric_wins_when_lower():
    m = bench_pairs.compare(LOWER, [10.0, 10.0, 10.0, 10.0], [9.0, 11.0, 9.5, 10.0])
    assert m["change_wins_pairs"] == 2
    assert m["change_vs_parent_median"] == 0.975
    assert m["worse_by_share"] < 0          # a lower median is better


def test_higher_is_better_metric_wins_when_higher():
    m = bench_pairs.compare(HIGHER, [10.0, 10.0, 10.0], [11.0, 9.0, 12.0])
    assert m["change_wins_pairs"] == 2
    assert m["worse_by_share"] < 0


def verdict(parent, change, spec=HIGHER, failed=(0, 0), attempted=(100, 100),
            correct=(True, True)):
    """The claim verdict on one metric; ``failed``, ``attempted`` and
    ``correct`` are (parent, change) totals over the runs."""
    sides = ("parent", "change")
    record = {"w": {"pairs": len(parent),
                    "failed": dict(zip(sides, failed)),
                    "attempted": dict(zip(sides, attempted)),
                    "correct": dict(zip(sides, correct)),
                    "metrics": {"m": bench_pairs.compare(spec, parent, change)}}}
    return bench_pairs.claim_verdict(record, "w", "m")


TEN = [100.0 + i for i in range(10)]          # parent IQR 4.5


@pytest.mark.parametrize("parent,change,spec,met", [
    (TEN, [v + 10 for v in TEN], HIGHER, True),
    (TEN, [v - 10 for v in TEN], LOWER, True),
    (TEN[:9], [v + 10 for v in TEN[:9]], HIGHER, False),                 # 9 pairs
    (TEN, [v + 10 for v in TEN[:9]] + [TEN[9] - 1], HIGHER, True),       # 9 of 10
    (TEN, [v + 10 for v in TEN[:8]] + [v - 1 for v in TEN[8:]], HIGHER, False),
    (TEN, [v + 4 for v in TEN], HIGHER, False),                          # gap 4 < IQR
    (TEN, [v + 10 for v in TEN], LOWER, False),                          # worse
], ids=["higher", "lower", "nine-pairs", "nine-of-ten", "eight-of-ten",
        "gap-inside-iqr", "worse"])
def test_claim_is_met_only_by_ten_pairs_nine_wins_and_a_gap_above_the_iqr(
        parent, change, spec, met):
    v = verdict(parent, change, spec)
    assert v["met"] is met
    assert v["pairs"] == len(parent)


GAIN = [v + 10 for v in TEN]                  # met on the metric alone


@pytest.mark.parametrize("failed,attempted,correct,met", [
    ((0, 0), (100, 100), (True, True), True),
    ((0, 0), (100, 100), (True, False), False),   # a change run is not correct
    ((0, 1), (100, 100), (True, True), False),    # a larger failed share
    ((2, 1), (100, 100), (True, True), True),     # a smaller failed share
    ((1, 2), (100, 200), (True, True), True),     # the same share
], ids=["sound", "incorrect-run", "more-failures", "fewer-failures", "same-share"])
def test_claim_is_not_met_when_the_change_fails_more(failed, attempted, correct, met):
    v = verdict(TEN, GAIN, failed=failed, attempted=attempted, correct=correct)
    assert v["met"] is met
