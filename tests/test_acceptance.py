"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the measured
values next to the required tolerance or budget. The lines bypass pytest's
capture so they are visible in any run; the end-to-end criteria 5-7 train
real models for several minutes combined and carry the ``slow`` marker, so
``pytest -m "not slow"`` skips them.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from padformer import tensor as T
from padformer.ablation import ablation_clip_length, ablation_scales
from padformer.attention import (multiscale_attention, partition_patches,
                                 unpartition_patches)
from padformer.config import RunConfig, load_config
from padformer.costs import count_cost
from padformer.embed import conv_ffn, conv_token_embed
from padformer.harness import evaluate, format_log, train_model
from padformer.metrics import compute_metrics
from padformer.model import ModelConfig, cross_entropy, forward, init_params
from padformer.synth import generate_dataset, split_records

from gradcheck import assert_grad_close, numeric_grad, scalarize
from oracles import (concat, matmul, metrics_recount, multiscale_attention_naive,
                     scale, softmax, split)

# the experiment configs that `padformer ablate --config` also runs
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CHECK_CONFIG = ModelConfig(frames=2, height=16, width=16, embed_stride=8,
                           embed_channels=6, scales=(1, 2), depth=1, seed=3)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient suite (primitives + end-to-end)

def _channels_last(a):
    # [..., C, H, W] draws as the [..., H, W, C] maps the model runs on
    return np.ascontiguousarray(np.moveaxis(a, -3, -1))


def _fd_check(build, arrays, rtol):
    tensors = [T.param(a) for a in arrays]
    with T.Tape():
        grads = T.backward(build(*tensors))

    def fwd():
        return float(build(*[T.Tensor(a) for a in arrays]).data)

    for t, arr in zip(tensors, arrays):
        assert_grad_close(grads[t], numeric_grad(fwd, arr), rtol)


def test_criterion_1_gradient_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(0)

    def r(*shape):
        return rng.normal(size=shape)

    p3, p6, p8, p12, p15, p16, p96, p192 = (
        r(n) for n in (3, 6, 8, 12, 15, 16, 96, 192))
    # q, k, v and the projection of the attention case, drawn apart from `rng`
    # so that every other case keeps its inputs
    attn = np.random.default_rng(1).normal(size=(4, 2, 2, 4, 4, 2))
    qkv = np.concatenate(list(attn[:3]), axis=-1)          # one [q | k | v] map
    # the FFN's four weights, drawn apart from `rng` too, so that every other
    # case keeps its inputs
    ffn = np.random.default_rng(2)
    ffn_weights = [ffn.normal(size=s) for s in ((6, 3, 1, 1), (6,), (3, 6, 1, 1), (3,))]
    # the linear case's weight, drawn apart from `rng` too
    linear_weight = np.random.default_rng(3).normal(size=(3, 3))
    cases = [
        ("add", lambda a, b: scalarize(T.add(a, b), p6), [r(2, 3), r(2, 3)]),
        ("linear", lambda x, w, b: scalarize(T.linear(x, w, b), p12),
         [r(2, 2, 3).reshape(4, 3), linear_weight, r(3)]),
        ("scale", lambda a: scalarize(scale(a, -1.7), p6), [r(2, 3)]),
        ("conv_ffn", lambda y, *w: scalarize(conv_ffn(y, *w), p6), [r(2, 3)] + ffn_weights),
        ("matmul", lambda a, b: scalarize(matmul(a, b), p6),
         [r(3, 4), r(4, 2)]),
        ("matmul batched", lambda a, b: scalarize(matmul(a, b), p12),
         [r(2, 3, 4), r(2, 4, 2)]),
        ("conv2d 3x3 s1 p1", lambda x, w, b: scalarize(
            T.conv2d(x, w, b, pad=1), p96),
         [_channels_last(r(2, 2, 4, 4)), r(3, 2, 3, 3), r(3)]),
        # the frames are constants: the weight and bias are checked
        ("conv_token_embed patchify", lambda w, b, frames=r(2, 3, 4, 4): scalarize(
            conv_token_embed(frames, w, b), p16),
         [r(2, 3, 2, 2), r(2)]),
        ("conv2d [B, T] batch", lambda x, w, b: scalarize(
            T.conv2d(x, w, b, pad=1), p192),
         [_channels_last(r(2, 2, 2, 4, 4)), r(3, 2, 3, 3), r(3)]),
        ("softmax", lambda a: scalarize(softmax(a, axis=1), p15),
         [r(3, 5)]),
        ("layer_norm", lambda x, g, b: scalarize(
            T.layer_norm(x, g, b), p12), [r(3, 4), r(4), r(4)]),
        ("reshape", lambda a: scalarize(T.reshape(a, (3, 2)), p6), [r(2, 3)]),
        ("transpose", lambda a: scalarize(T.transpose(a, (2, 0, 1)), p8),
         [r(2, 2, 2)]),
        ("concat", lambda a, b: scalarize(concat([a, b], axis=1), p16),
         [r(2, 3), r(2, 5)]),
        ("split", lambda a: scalarize(split(a, 2, 1)[1], p6), [r(2, 6)]),
        ("mean", lambda a: scalarize(T.mean(a, axes=(0, 2)), p3),
         [r(2, 3, 4)]),
        ("cross_entropy", lambda z: cross_entropy(z, [1]), [r(2).reshape(1, 2)]),
        ("cross_entropy batch", lambda z: cross_entropy(z, [1, 0, 1]), [r(3, 2)]),
        # the attention primitive on a batch of two clips, heads at scales 1 and 2
        ("multiscale_attention", lambda m: scalarize(
            multiscale_attention(m, (1, 2)), attn[3]), [qkv]),
    ]
    for name, build, arrays in cases:
        try:
            _fd_check(build, arrays, rtol=1e-4)
        except AssertionError as exc:
            report(capsys, 1, False, f"primitive {name}: {exc}")

    # end to end on a batch of two clips, one per class
    params = init_params(CHECK_CONFIG, dtype=np.float64)
    batch = rng.random((2, 2, 3, 16, 16))
    with T.Tape():
        grads = T.backward(cross_entropy(forward(batch, params, CHECK_CONFIG), [1, 0]))
    analytic = {name: grads[p].copy() for name, p in params.items()}

    def model_loss():
        return float(cross_entropy(forward(batch, params, CHECK_CONFIG), [1, 0]).data)

    for name, p in params.items():
        try:
            assert_grad_close(analytic[name], numeric_grad(model_loss, p.data),
                              rtol=1e-3, what=name)
        except AssertionError as exc:
            report(capsys, 1, False, f"end-to-end weight {name}: {exc}")

    dt = time.monotonic() - start
    report(capsys, 1, dt < 120.0,
           f"{len(cases)} primitives (rtol 1e-4) and the end-to-end model on a "
           f"batch of 2 (rtol 1e-3) match central differences in {dt:.1f}s "
           f"(budget 120s)")


# ---------------------------------------------------------------------------
# criterion 2: multiscale attention equals the brute-force oracle

def test_criterion_2_attention_oracle(capsys):
    start = time.monotonic()
    worst, count = 0.0, 0
    for t in (1, 2, 4):
        for scales in ([1], [2], [4], [1, 2], [1, 4], [2, 4], [1, 2, 4]):
            rng = np.random.default_rng(100 * t + sum(scales))
            c = 6 * len(scales) if len(scales) == 3 else 6
            q, k, v = (rng.normal(size=(t, c, 4, 4)) for _ in range(3))
            got = multiscale_attention(
                T.tensor(np.concatenate([m.transpose(0, 2, 3, 1) for m in (q, k, v)], axis=-1),
                         dtype=np.float64),
                tuple(scales))
            want = multiscale_attention_naive(q, k, v, scales)
            worst = max(worst, float(np.abs(got.data.transpose(0, 3, 1, 2) - want).max()))
            count += 1
    dt = time.monotonic() - start
    report(capsys, 2, count >= 20 and worst <= 1e-6 and dt < 60.0,
           f"{count} random instances (T in 1/2/4, every scale subset) match "
           f"the double-loop oracle within {worst:.2e} (tol 1e-6) "
           f"in {dt:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# criterion 3: token count is frames * scale^2

def test_criterion_3_patch_accounting(capsys):
    rng = np.random.default_rng(3)
    ok = True
    for t in (1, 2, 4, 8):
        for l in (1, 2, 4):
            f = _channels_last(rng.normal(size=(t, 2, 8, 8))).astype(np.float32)
            ok = ok and partition_patches(f, l).shape[-2] == t * l * l
    eight = [partition_patches(
        _channels_last(rng.normal(size=(8, 2, 8, 8))).astype(np.float32), l).shape[-2]
        for l in (1, 2, 4)]
    ok = ok and eight == [8, 32, 128]
    report(capsys, 3, ok,
           f"token count equals frames * scale^2 over the full grid; "
           f"8 frames give {eight[0]}/{eight[1]}/{eight[2]} tokens "
           f"at scales 1/2/4 (want 8/32/128)")


# ---------------------------------------------------------------------------
# criterion 4: metric arithmetic and brute-force recounts

def test_criterion_4_metric_arithmetic(capsys):
    scores = [(1.0, 0)] * 198 + [(0.0, 0)] * 9802 \
        + [(1.0, 1)] * 996 + [(0.0, 1)] * 4
    rep = compute_metrics(scores, threshold=0.5)
    ok = (round(rep.apcer, 2), round(rep.bpcer, 2),
          round(rep.acer, 2)) == (1.98, 0.40, 1.19)

    rng = np.random.default_rng(4)
    exact = 0
    for _ in range(1000):
        n_a, n_b = rng.integers(1, 40, size=2)
        batch = [(float(rng.random()), 0) for _ in range(n_a)] \
            + [(float(rng.random()), 1) for _ in range(n_b)]
        th = float(rng.random())
        got = compute_metrics(batch, th)
        if (got.apcer, got.bpcer, got.acer) == metrics_recount(batch, th):
            exact += 1
    report(capsys, 4, ok and exact == 1000,
           f"APCER {rep.apcer:.2f} / BPCER {rep.bpcer:.2f} -> "
           f"ACER {rep.acer:.2f} (want 1.98/0.40 -> 1.19); "
           f"{exact}/1000 random score sets recount exactly")


# ---------------------------------------------------------------------------
# criterion 5: default config trains to low error inside the time budget

@pytest.mark.slow
def test_criterion_5_synthetic_end_to_end(capsys):
    cfg = RunConfig()
    start = time.monotonic()
    records = generate_dataset(cfg.synth_spec())
    result = train_model(cfg, split_records(records, "train"))
    rep = evaluate(result.params, result.model_config, records, cfg,
                   split="test")
    dt = time.monotonic() - start
    report(capsys, 5, rep.acer <= 5.0 and dt < 600.0,
           f"default config reaches test ACER {rep.acer:.2f}% (need <= 5%) "
           f"after {cfg.steps} steps; generate+train+eval took {dt:.0f}s "
           f"(budget 600s)")


# ---------------------------------------------------------------------------
# criterion 6: longer clips beat single frames on the temporal-cue data

@pytest.mark.slow
def test_criterion_6_clip_length_trend(capsys):
    rows = ablation_clip_length(load_config(CONFIGS / "clip-length.cfg"),
                                grid=(1, 2, 4, 8), n_seeds=3)
    means = {label: mean for label, mean, _ in rows}
    gap = means["T1"] - means["T8"]
    detail = ", ".join(f"{label} {mean:.2f}" for label, mean, _ in rows)
    report(capsys, 6, gap >= 5.0,
           f"temporal-cue mean ACER over 3 seeds: {detail}; "
           f"single-frame penalty {gap:.2f}pp (need >= 5pp)")


# ---------------------------------------------------------------------------
# criterion 7: two scales match or beat the best single scale

@pytest.mark.slow
def test_criterion_7_scale_ablation_trend(capsys):
    rows = ablation_scales(load_config(CONFIGS / "scales.cfg"), n_seeds=3)
    means = {label: mean for label, mean, _ in rows}
    best_single = min(means["1"], means["2"], means["4"])
    margin = means["1+2"] - best_single
    detail = ", ".join(f"{label} {mean:.2f}" for label, mean, _ in rows)
    report(capsys, 7, margin <= 0.5,
           f"mixed-cue mean ACER over 3 shared seeds: {detail}; "
           f"scales 1+2 sit {margin:+.2f}pp against the best single scale "
           f"(allow +0.5pp)")


# ---------------------------------------------------------------------------
# criterion 8: invariance suite

def test_criterion_8_invariance_suite(capsys):
    # (a) recorded attention rows are stochastic, checked in f64
    params64 = init_params(CHECK_CONFIG, dtype=np.float64)
    rng = np.random.default_rng(8)
    recs = []
    forward(rng.random((2, 3, 16, 16)), params64, CHECK_CONFIG, records=recs)
    row_err = max(float(np.abs(r.alpha.sum(axis=1) - 1.0).max()) for r in recs)

    # (b) frame permutation leaves the logits unchanged (f32 model)
    params32 = init_params(CHECK_CONFIG)
    frames = rng.random((2, 3, 16, 16)).astype(np.float32)
    base = forward(frames, params32, CHECK_CONFIG).data
    flip = forward(frames[::-1].copy(), params32, CHECK_CONFIG).data
    perm_err = float(np.abs(base - flip).max())

    # (c) partition / reassemble round-trip is bitwise
    f = _channels_last(rng.normal(size=(2, 6, 8, 8))).astype(np.float32)
    bitwise = all(
        unpartition_patches(partition_patches(f, l), f.shape, l).tobytes()
        == f.tobytes() for l in (1, 2, 4))

    # (d) same seed, same data: byte-identical training logs
    run_cfg = RunConfig(frames=2, height=16, width=16, embed_stride=8,
                        embed_channels=6, scales=(1, 2), depth=1,
                        train_clips=6, dev_clips=4, test_clips=4,
                        source_frames=4, steps=8, batch_size=4, seed=5)
    train = split_records(generate_dataset(run_cfg.synth_spec()), "train")
    log_a = format_log(train_model(run_cfg, train).log_rows).encode()
    log_b = format_log(train_model(run_cfg, train).log_rows).encode()

    ok = (row_err <= 1e-8 and perm_err <= 1e-6 and bitwise
          and log_a == log_b)
    report(capsys, 8, ok,
           f"attention rows sum to 1 within {row_err:.1e} (tol 1e-8); "
           f"frame-permutation logit drift {perm_err:.1e} (tol 1e-6); "
           f"partition round-trip bitwise: {bitwise}; "
           f"repeated training logs byte-identical: {log_a == log_b}")


# ---------------------------------------------------------------------------
# criterion 9: cost counter scaling and parameter inventory

def test_criterion_9_cost_counter(capsys):
    def cfg_for(frames, scales=(1,)):
        return ModelConfig(frames=frames, height=16, width=16, embed_stride=8,
                           embed_channels=6, scales=scales, depth=1)

    def attention_flops(cfg):
        return sum(e.flops for e in count_cost(cfg).entries if e.name.endswith(".attention"))

    ratios = [attention_flops(cfg_for(2 * t)) / attention_flops(cfg_for(t)) for t in (1, 2, 4)]
    quadratic = all(r == 4.0 for r in ratios)

    inventory_ok = True
    for cfg in (cfg_for(2, scales=(1, 2)), RunConfig().model_config()):
        counted = count_cost(cfg).total_params
        live = sum(p.data.size for p in init_params(cfg).values())
        inventory_ok = inventory_ok and counted == live
    report(capsys, 9, quadratic and inventory_ok,
           f"attention FLOPs ratio when doubling clip length: "
           f"{ratios} (want all 4.0); "
           f"reported parameter totals equal the live inventory: {inventory_ok}")
