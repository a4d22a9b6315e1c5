"""Training and evaluation loops shared by the CLI and the ablation drivers.

All randomness (batch order, frame sampling, augmentation) flows from the run
seed through named streams, so two runs with the same config produce
byte-identical logs and checkpoints. A training batch is arrays from the
store to the loss; evaluation scores one ``VideoClip`` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .metrics import MetricReport, compute_metrics, select_threshold
from .model import (ModelConfig, augment_frames, frame_indices, init_params,
                    predict_score, sample_frames, train_step)
from .rng import stream
from .synth import split_records
from .tensor import AdamState, ShapeError


@dataclass
class TrainResult:
    params: dict
    model_config: ModelConfig
    log_rows: list          # (step, loss, lr)


def lr_at(step: int, base_lr: float, total_steps: int, warmup_frac: float) -> float:
    """Linear warmup to base_lr over warmup_frac of the run, then constant."""
    warm = int(np.ceil(warmup_frac * total_steps))
    if warm <= 0 or step >= warm:
        return base_lr
    return base_lr * (step + 1) / warm


def check_clip(record, cfg):
    """Raise ``ShapeError`` naming the store clip when its frames cannot give
    ``cfg`` (a ``RunConfig`` or ``ModelConfig``) a clip: fewer than
    ``cfg.frames`` frames, or frames not [3, height, width]."""
    want = (3, cfg.height, cfg.width)
    if len(record.frames) < cfg.frames or record.frames.shape[1:] != want:
        raise ShapeError(f"clip {record.clip_id} has shape {record.frames.shape}, config "
                         f"needs at least {cfg.frames} frames of {want}")


def make_batch(records, cfg: RunConfig, batch_rng, sample_rng, augment_rng):
    """(frames [B, T, 3, H, W] in the clips' dtype, int labels [B]): each pick
    reads its T sampled frames (a view when the picks are evenly strided),
    then writes them (augmented) into its slot."""
    picks = batch_rng.integers(0, len(records), size=cfg.batch_size)
    frames = np.empty((cfg.batch_size, cfg.frames, 3, cfg.height, cfg.width),
                      dtype=np.result_type(*(records[i].frames for i in picks)))
    for slot, i in zip(frames, picks):
        r = records[i]
        check_clip(r, cfg)
        sampled = r.frames[frame_indices(len(r.frames), cfg.frames, cfg.sample_mode, sample_rng)]
        if cfg.augment:
            augment_frames(sampled, augment_rng, out=slot)
        else:
            slot[...] = sampled
    return frames, np.array([records[i].label for i in picks])


def train_model(cfg: RunConfig, train_records) -> TrainResult:
    if not train_records:
        raise ValueError("no training clips")
    mcfg = cfg.model_config()
    params = init_params(mcfg)
    state = AdamState(params)
    batch_rng = stream(cfg.seed, "batches")
    sample_rng = stream(cfg.seed, "sampling")
    augment_rng = stream(cfg.seed, "augment")
    rows = []
    for step in range(cfg.steps):
        batch = make_batch(train_records, cfg, batch_rng, sample_rng, augment_rng)
        lr = lr_at(step, cfg.lr, cfg.steps, cfg.warmup_frac)
        rows.append((step, train_step(batch, params, state, mcfg, lr), lr))
    return TrainResult(params=params, model_config=mcfg, log_rows=rows)


def score_split(params, mcfg: ModelConfig, records):
    """(score, label) per clip; evaluation always samples frames uniformly."""
    out = []
    for r in records:
        check_clip(r, mcfg)
        clip = sample_frames(r.frames, mcfg.frames, "uniform",
                             label=r.label, clip_id=r.clip_id)
        out.append((predict_score(clip, params, mcfg), r.label))
    return out


def evaluate(params, mcfg: ModelConfig, records, cfg: RunConfig,
             split: str = "test") -> MetricReport:
    """Fix the threshold on the dev split, then report metrics on ``split``
    (the dev scores themselves when ``split`` is dev). ``cfg`` is not read; it
    stays for the callers that pass it positionally."""
    dev = score_split(params, mcfg, split_records(records, "dev"))
    target = dev if split == "dev" else score_split(params, mcfg, split_records(records, split))
    return compute_metrics(target, select_threshold(dev))


def format_log(rows) -> str:
    lines = ["step,loss,lr"]
    for step, loss, lr in rows:
        lines.append(f"{step},{loss:.6f},{lr:.6g}")
    return "\n".join(lines) + "\n"
