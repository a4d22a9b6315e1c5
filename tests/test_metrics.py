"""Error-rate arithmetic and threshold selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padformer.metrics import (MetricReport, compute_metrics, select_threshold,
                               write_report_csv)

from oracles import metrics_recount, select_threshold_sweep


def scored(attacks, bona):
    return [(s, 0) for s in attacks] + [(s, 1) for s in bona]


def random_scored(rng, n):
    scores = [(float(rng.random()), int(rng.integers(0, 2))) for _ in range(n)]
    scores[0] = (scores[0][0], 0)
    scores[-1] = (scores[-1][0], 1)
    return scores


def test_published_row_arithmetic():
    # APCER 1.98%, BPCER 0.40% must average to ACER 1.19%
    attacks = [1.0] * 198 + [0.0] * 9802
    bona = [0.0] * 4 + [1.0] * 996
    rep = compute_metrics(scored(attacks, bona), threshold=0.5)
    assert round(rep.apcer, 2) == 1.98
    assert round(rep.bpcer, 2) == 0.40
    assert round(rep.acer, 2) == 1.19


def test_perfect_separation_zeroes_every_rate():
    rep = compute_metrics(scored([0.1, 0.2], [0.8, 0.9]), threshold=0.5)
    assert (rep.apcer, rep.bpcer, rep.acer, rep.hter) == (0.0, 0.0, 0.0, 0.0)
    assert rep.attacks_rejected == 2 and rep.bona_accepted == 2


def test_hand_counted_confusion():
    attacks = [0.9] + [0.1] * 9          # one accepted
    bona = [0.2, 0.3] + [0.8] * 8        # two rejected
    rep = compute_metrics(scored(attacks, bona), threshold=0.5)
    assert rep.apcer == 10.0 and rep.bpcer == 20.0 and rep.acer == 15.0


def test_threshold_boundary_counts_as_accept():
    rep = compute_metrics(scored([0.5], [0.5, 0.4]), threshold=0.5)
    assert rep.attacks_accepted == 1
    assert rep.bona_rejected == 1


def test_single_class_rejected():
    with pytest.raises(ValueError):
        compute_metrics([(0.5, 0), (0.2, 0)], 0.5)
    with pytest.raises(ValueError):
        compute_metrics([(0.5, 1)], 0.5)
    with pytest.raises(ValueError):
        select_threshold([(0.5, 1), (0.2, 1)])


def test_recount_oracle_on_1000_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        scores = random_scored(rng, int(rng.integers(2, 60)))
        th = float(rng.random())
        rep = compute_metrics(scores, th)
        apcer, bpcer, acer = metrics_recount(scores, th)
        assert (rep.apcer, rep.bpcer, rep.acer) == (apcer, bpcer, acer)
        assert rep.acer == (rep.apcer + rep.bpcer) / 2


def test_separated_dev_scores_give_midpoint_threshold():
    th = select_threshold(scored([0.1, 0.2], [0.8, 0.9]))
    assert th == 0.5


def test_crossing_threshold_equalizes_rates():
    scores = scored([0.2, 0.4, 0.6], [0.4, 0.6, 0.8])
    th = select_threshold(scores)
    attacks = [s for s, l in scores if l == 0]
    bona = [s for s, l in scores if l == 1]
    far = sum(s >= th for s in attacks) / 3
    frr = sum(s < th for s in bona) / 3
    assert far == frr


def test_tie_breaks_toward_lower_threshold():
    # both extreme candidates have |FAR - FRR| = 1; the lower one wins
    assert select_threshold([(0.5, 0), (0.5, 1)]) == -0.5


def test_threshold_shifts_with_constant_and_hter_is_invariant():
    rng = np.random.default_rng(1)
    dev = random_scored(rng, 40)
    test = random_scored(rng, 40)
    th = select_threshold(dev)
    base = compute_metrics(test, th).hter
    for c in (-2.0, 0.75, 10.0):
        dev_c = [(s + c, l) for s, l in dev]
        test_c = [(s + c, l) for s, l in test]
        th_c = select_threshold(dev_c)
        assert abs(th_c - (th + c)) < 1e-12
        assert compute_metrics(test_c, th_c).hter == base


def test_hter_invariant_under_monotone_transform():
    # evaluated on the selection set itself: the chosen gap contains no score,
    # so ordinal-preserving transforms cannot flip any decision
    rng = np.random.default_rng(2)
    for trial in range(20):
        dev = random_scored(rng, 50)
        base = compute_metrics(dev, select_threshold(dev)).hter
        for f in (lambda s: s ** 3, lambda s: 2 * s + 3, lambda s: np.tanh(4 * s)):
            dev_f = [(float(f(s)), l) for s, l in dev]
            assert compute_metrics(dev_f, select_threshold(dev_f)).hter == base


def test_report_csv_layout(tmp_path):
    rep = compute_metrics(scored([0.1], [0.9]), 0.5)
    path = tmp_path / "report.csv"
    write_report_csv(path, [("run-a", rep)])
    lines = path.read_text().splitlines()
    assert lines[0] == "run_id,threshold,apcer,bpcer,acer,hter"
    assert lines[1].startswith("run-a,0.500000,0.0000,0.0000,")


# scores from a coarse grid collide often, so ties within and across classes
# are common; adjacent floats check that midpoints rounding onto a score agree
_TIED_SCORE = st.one_of(st.integers(0, 8).map(lambda i: i / 8),
                        st.sampled_from([0.5, float(np.nextafter(0.5, 1.0))]),
                        st.floats(-2.0, 2.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(attacks=st.lists(_TIED_SCORE, min_size=1, max_size=30),
       bona=st.lists(_TIED_SCORE, min_size=1, max_size=30))
def test_select_threshold_equals_the_quadratic_sweep(attacks, bona):
    dev = scored(attacks, bona)
    assert select_threshold(dev) == select_threshold_sweep(dev)
