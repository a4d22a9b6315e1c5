"""Built-in invariant checks runnable from the CLI without the test suite."""

from __future__ import annotations

import tempfile

import numpy as np

from . import tensor as tt
from .attention import multiscale_attention, partition_patches, unpartition_patches
from .config import RunConfig, dump_config, parse_config
from .metrics import compute_metrics
from .model import (ModelConfig, forward, init_params, load_checkpoint,
                    save_checkpoint, train_step)
from .tensor import AdamState


def _check_attention_rows_stochastic():
    rng = np.random.default_rng(0)
    qkv = tt.tensor(rng.normal(size=(2, 4, 4, 18)), dtype=np.float64)   # q, k, v of 6 channels
    recs = []
    multiscale_attention(qkv, (1, 2), records=recs)
    for r in recs:
        if not np.allclose(r.alpha.sum(axis=1), 1.0, atol=1e-8) or np.any(r.alpha < 0):
            return "attention rows not stochastic"
    return None


def _check_patch_count():
    for t in (1, 2, 4, 8):
        for l in (1, 2, 4):
            n = partition_patches(np.zeros((t, 8, 8, 2)), l).shape[-2]
            if n != t * l * l:
                return f"patch count {n} != {t * l * l} at T={t}, l={l}"
    return None


def _check_partition_round_trip():
    rng = np.random.default_rng(1)
    x = np.ascontiguousarray(rng.normal(size=(3, 2, 8, 8)).transpose(0, 2, 3, 1),
                             dtype=np.float32)
    if not np.array_equal(unpartition_patches(partition_patches(x, 2), x.shape, 2), x):
        return "partition/unpartition round trip is not bitwise"
    return None


def _check_logit_frame_permutation():
    cfg = ModelConfig(frames=4, height=16, width=16, embed_stride=8,
                      embed_channels=6, scales=(1, 2), depth=1, seed=1)
    params = init_params(cfg)
    frames = np.random.default_rng(2).random((4, 3, 16, 16)).astype(np.float32)
    a = forward(frames, params, cfg).data
    b = forward(frames[::-1], params, cfg).data
    if not np.allclose(a, b, atol=1e-6):
        return f"frame permutation moved logits by {np.abs(a - b).max():g}"
    return None


def _check_metric_recount():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = [(float(rng.random()), int(rng.integers(0, 2))) for _ in range(n)]
        if not any(l == 0 for _, l in scores):
            scores[0] = (scores[0][0], 0)
        if not any(l == 1 for _, l in scores):
            scores[-1] = (scores[-1][0], 1)
        th = float(rng.random())
        rep = compute_metrics(scores, th)
        attacks = [s for s, l in scores if l == 0]
        bona = [s for s, l in scores if l == 1]
        apcer = 100.0 * sum(s >= th for s in attacks) / len(attacks)
        bpcer = 100.0 * sum(s < th for s in bona) / len(bona)
        if rep.apcer != apcer or rep.bpcer != bpcer or rep.acer != (apcer + bpcer) / 2:
            return "metric recount mismatch"
    return None


def _check_training_determinism():
    cfg = ModelConfig(frames=2, height=16, width=16, embed_stride=8,
                      embed_channels=6, scales=(1,), depth=1, seed=4)
    rng = np.random.default_rng(5)
    batch = (rng.random((4, 2, 3, 16, 16)).astype(np.float32), np.arange(4) % 2)

    def run():
        params = init_params(cfg)
        state = AdamState(params)
        return [train_step(batch, params, state, cfg, 1e-3) for _ in range(5)]

    if run() != run():
        return "training losses differ across identical runs"
    return None


def _check_checkpoint_round_trip():
    cfg = ModelConfig(frames=2, height=16, width=16, embed_stride=8,
                      embed_channels=6, scales=(1, 2), depth=1, seed=6)
    params = init_params(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(tmp, params)
        loaded = load_checkpoint(tmp, cfg)
    for name, p in params.items():
        if not np.array_equal(loaded[name].data, p.data):
            return f"checkpoint round trip altered {name}"
    return None


def _check_config_round_trip():
    cfg = RunConfig(scales=(1, 2, 4), steps=7, augment=False, lr=3e-4)
    if parse_config(dump_config(cfg)) != cfg:
        return "config dump does not re-parse to an equivalent config"
    return None


CHECKS = [
    ("attention-row-stochasticity", _check_attention_rows_stochastic),
    ("patch-count-grid", _check_patch_count),
    ("partition-round-trip", _check_partition_round_trip),
    ("frame-permutation-invariance", _check_logit_frame_permutation),
    ("metric-recount", _check_metric_recount),
    ("training-determinism", _check_training_determinism),
    ("checkpoint-round-trip", _check_checkpoint_round_trip),
    ("config-round-trip", _check_config_round_trip),
]


def run_selftest() -> int:
    """Run every invariant check; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        problem = fn()
        if problem is None:
            print(f"ok - {name}")
        else:
            print(f"FAIL - {name}: {problem}")
            failures += 1
    return failures
