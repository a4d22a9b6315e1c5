"""Presentation-attack-detection error rates and threshold selection.

Decision polarity is fixed here once: a clip is accepted as bona fide iff its
score is >= the threshold. APCER is the fraction of attacks accepted, BPCER
the fraction of bona fide presentations rejected; both are reported in
percent. ACER averages the two. HTER uses the same arithmetic but is meant to
be computed at a threshold fixed on development data (select_threshold).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class MetricReport:
    threshold: float
    attacks_accepted: int
    attacks_rejected: int
    bona_accepted: int
    bona_rejected: int
    apcer: float
    bpcer: float
    acer: float
    hter: float


def _split_scores(scores):
    attacks = [float(s) for s, label in scores if label == 0]
    bona = [float(s) for s, label in scores if label == 1]
    if not attacks or not bona:
        raise ValueError("scores must contain both classes (attack and bona fide)")
    bad = int(np.count_nonzero(~np.isfinite(attacks + bona)))
    if bad:
        raise ValueError(f"{bad} of {len(attacks) + len(bona)} scores are not finite")
    return attacks, bona


def compute_metrics(scores, threshold: float) -> MetricReport:
    """Error rates (percent) of `score >= threshold ⇒ bona fide` decisions.

    ``scores`` is an iterable of (score, label) with label 1 = bona fide.
    """
    attacks, bona = _split_scores(scores)
    attacks_accepted = sum(1 for s in attacks if s >= threshold)
    bona_rejected = sum(1 for s in bona if s < threshold)
    apcer = 100.0 * attacks_accepted / len(attacks)
    bpcer = 100.0 * bona_rejected / len(bona)
    acer = (apcer + bpcer) / 2.0
    return MetricReport(
        threshold=float(threshold),
        attacks_accepted=attacks_accepted,
        attacks_rejected=len(attacks) - attacks_accepted,
        bona_accepted=len(bona) - bona_rejected,
        bona_rejected=bona_rejected,
        apcer=apcer, bpcer=bpcer, acer=acer, hter=acer)


def select_threshold(dev_scores) -> float:
    """Equal-error-rate operating point on a development set.

    Sweeps the midpoints between adjacent distinct sorted scores (plus one
    candidate below the minimum and one above the maximum) and returns the
    candidate minimizing |FAR - FRR|; ties break toward the lower threshold.
    Each class is sorted once and counted at every candidate by binary
    search, so the sweep is O(n log n).
    """
    attacks, bona = (np.sort(np.asarray(s, dtype=np.float64)) for s in _split_scores(dev_scores))
    pts = np.unique(np.concatenate([attacks, bona]))
    candidates = np.concatenate([[pts[0] - 1.0], (pts[:-1] + pts[1:]) / 2.0,
                                 [pts[-1] + 1.0]])
    far = (attacks.size - np.searchsorted(attacks, candidates, side="left")) / attacks.size
    frr = np.searchsorted(bona, candidates, side="left") / bona.size
    return float(candidates[np.argmin(np.abs(far - frr))])


def write_report_csv(path, rows):
    """Rows of (run_id, MetricReport) to the standard report CSV."""
    root = Path(path)
    if root.parent and not root.parent.exists():
        root.parent.mkdir(parents=True, exist_ok=True)
    with open(root, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run_id", "threshold", "apcer", "bpcer", "acer", "hter"])
        for run_id, rep in rows:
            writer.writerow([run_id, f"{rep.threshold:.6f}", f"{rep.apcer:.4f}",
                             f"{rep.bpcer:.4f}", f"{rep.acer:.4f}", f"{rep.hter:.4f}"])
