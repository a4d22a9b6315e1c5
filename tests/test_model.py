"""End-to-end classifier: forward contract, loss, training step, checkpoints."""

import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padformer import tensor as T
from padformer.config import ConfigError, RunConfig
from padformer.model import (INIT_STD, ModelConfig, VideoClip, augment_frames,
                             cross_entropy, forward, frame_indices, init_params,
                             load_checkpoint, parameter_shapes, predict_score,
                             sample_frames, save_checkpoint, train_step)
from padformer.tensor import AdamState, ShapeError

from gradcheck import assert_grad_close, numeric_grad

TINY = ModelConfig(frames=2, height=16, width=16, embed_stride=8,
                   embed_channels=6, scales=(1, 2), depth=1, seed=3)


def rand_clip(cfg, seed=0, label=1, dtype=np.float32):
    rng = np.random.default_rng(seed)
    frames = rng.random((cfg.frames, 3, cfg.height, cfg.width)).astype(dtype)
    return VideoClip(frames=frames, label=label)


def as_batch(*clips):
    """The (frames [B, T, 3, H, W], int labels [B]) pair ``train_step`` takes."""
    return np.stack([c.frames for c in clips]), np.array([c.label for c in clips])


# ----------------------------------------------------------------- forward

def test_logits_shape():
    params = init_params(TINY)
    assert forward(rand_clip(TINY).frames, params, TINY).shape == (1, 2)
    batch = np.stack([rand_clip(TINY, seed=s).frames for s in range(3)])
    assert forward(batch, params, TINY).shape == (3, 2)


def test_zero_head_gives_zero_logits():
    params = init_params(TINY)
    params["head.weight"].data[:] = 0
    params["head.bias"].data[:] = 0
    out = forward(rand_clip(TINY, seed=1).frames, params, TINY)
    assert np.array_equal(out.data, np.zeros((1, 2), dtype=np.float32))


def test_clip_shape_must_match_config():
    params = init_params(TINY)
    with pytest.raises(ShapeError):
        forward(np.zeros((2, 3, 32, 32), dtype=np.float32), params, TINY)


def test_frame_permutation_leaves_logits_unchanged():
    cfg = ModelConfig(frames=4, height=16, width=16, embed_stride=8,
                      embed_channels=6, scales=(1, 2), depth=2, seed=5)
    params = init_params(cfg, dtype=np.float64)
    frames = rand_clip(cfg, seed=2, dtype=np.float64).frames
    base = forward(frames, params, cfg).data
    perm = np.random.default_rng(3).permutation(cfg.frames)
    assert np.allclose(forward(frames[perm], params, cfg).data, base, atol=1e-6)


def test_key_bias_cannot_move_the_logits_but_value_bias_does():
    # softmax is shift-invariant per row, so q . b_k added to every score of a
    # row changes nothing; reading another third of the [q | k | v] map as k
    # would let this bias through
    cfg = replace(ModelConfig(), frames=4)
    clips = np.stack([rand_clip(cfg, seed=s, dtype=np.float64).frames for s in (7, 8)])

    c = cfg.embed_channels

    def logits(third=1, delta=0.0):
        params = init_params(cfg, dtype=np.float64)
        for i in range(cfg.depth):
            params[f"layers.{i}.qkv.bias"].data[third * c:(third + 1) * c] += delta
        return forward(clips, params, cfg).data

    base = logits()
    shift = np.random.default_rng(9).normal(size=c)
    assert np.abs(logits(1, shift) - base).max() < 1e-15
    assert np.abs(logits(2, 0.1) - base).max() > 1e-3


# ------------------------------------------------------------------- batch

def _batch_case(seed, b, t, scales):
    c = 6 * len(scales) if len(scales) == 3 else 6
    cfg = ModelConfig(frames=t, height=16, width=16, embed_stride=4,
                      embed_channels=c, scales=scales, depth=2, seed=seed)
    params = init_params(cfg, dtype=np.float64)
    rng = np.random.default_rng(seed)
    clips = [rand_clip(cfg, seed=seed + i, label=int(rng.integers(0, 2)), dtype=np.float64)
             for i in range(b)]
    return cfg, params, clips


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), b=st.integers(1, 4), t=st.sampled_from([1, 2, 4]),
       scales=st.sampled_from([(1,), (2,), (4,), (1, 2), (2, 4), (1, 2, 4)]))
def test_batched_pass_equals_single_clip_passes(seed, b, t, scales):
    cfg, params, clips = _batch_case(seed, b, t, scales)
    frames = np.stack([c.frames for c in clips])
    labels = [c.label for c in clips]
    with T.Tape():
        logits = forward(frames, params, cfg)
        batched = T.backward(cross_entropy(logits, labels))

    single, summed = [], dict.fromkeys(params.values(), 0.0)
    for clip in clips:
        with T.Tape():
            z = forward(clip.frames, params, cfg)
            got = T.backward(cross_entropy(z, [clip.label]))
        single.append(z.data)
        for p, g in got.items():
            summed[p] = summed[p] + g
    assert logits.shape == (b, 2)
    assert np.abs(logits.data - np.concatenate(single)).max() <= 1e-9
    for name, p in params.items():
        assert np.abs(batched[p] - summed[p] / b).max() <= 1e-9, name


def test_frame_permutation_per_clip_inside_a_batch():
    cfg = ModelConfig(frames=4, height=16, width=16, embed_stride=8,
                      embed_channels=6, scales=(1, 2), depth=2, seed=5)
    params = init_params(cfg, dtype=np.float64)
    frames = np.stack([rand_clip(cfg, seed=s, dtype=np.float64).frames for s in (30, 31, 32)])
    rng = np.random.default_rng(33)
    shuffled = np.stack([clip[rng.permutation(cfg.frames)] for clip in frames])
    base = forward(frames, params, cfg).data
    assert np.abs(forward(shuffled, params, cfg).data - base).max() <= 1e-12
    # each clip attends only within itself: reordering clips reorders rows
    order = [2, 0, 1]
    assert np.abs(forward(frames[order], params, cfg).data - base[order]).max() <= 1e-12


def test_batched_records_one_attention_matrix_per_clip():
    params = init_params(TINY, dtype=np.float64)
    clips = [rand_clip(TINY, seed=s, dtype=np.float64) for s in (40, 41)]
    recs = []
    forward(np.stack([c.frames for c in clips]), params, TINY, records=recs)
    assert [(r.layer, r.head, r.clip) for r in recs] == [(0, 0, 0), (0, 0, 1),
                                                         (0, 1, 0), (0, 1, 1)]
    one = []
    forward(clips[1].frames, params, TINY, records=one)
    assert [r.clip for r in one] == [0, 0]
    assert np.abs(recs[3].alpha - one[1].alpha).max() <= 1e-12


def test_batch_shape_must_match_config():
    params = init_params(TINY)
    with pytest.raises(ShapeError):
        forward(np.zeros((3, 4, 3, 16, 16), dtype=np.float32), params, TINY)
    with pytest.raises(ShapeError):
        cross_entropy(T.tensor(np.zeros((3, 2))), [0, 1])


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(height=20, embed_stride=8)
    with pytest.raises(ValueError):
        ModelConfig(frames=0)
    with pytest.raises(ShapeError):
        ModelConfig(height=16, width=16, embed_stride=8, scales=(1, 4))


def test_model_config_scale_checks():
    assert ModelConfig(embed_channels=12, scales=[1, 2, 4]).scales == (1, 2, 4)
    with pytest.raises(ValueError):
        ModelConfig(scales=())
    with pytest.raises(ValueError):
        ModelConfig(scales=(0,))
    with pytest.raises(ShapeError):
        ModelConfig(embed_channels=7, scales=(1, 2))     # channels not divisible
    with pytest.raises(ShapeError):
        ModelConfig(height=48, width=48, scales=(4,))     # 6x6 map, extent not divisible


def test_run_config_reports_a_bad_scale_as_config_error():
    with pytest.raises(ConfigError, match="channels not divisible across 2 heads"):
        RunConfig(embed_channels=7, scales=(1, 2))


# ---------------------------------------------------------------- inventory

def test_parameter_inventory_is_stable():
    a = init_params(TINY)
    b = init_params(TINY)
    assert list(a) == list(b)
    for name in a:
        assert a[name].shape == b[name].shape
        assert np.array_equal(a[name].data, b[name].data)


def test_init_weights_are_truncated_normal():
    cfg = ModelConfig(embed_channels=96, depth=4, seed=5)
    params = init_params(cfg)
    weights = np.concatenate([p.data.ravel() for n, p in params.items()
                              if n.endswith(".weight")])
    assert weights.size > 1_000_000
    assert np.abs(weights).max() <= 2 * INIT_STD
    # std of a unit normal cut at +-2: sqrt(1 - 4 phi(2) / (2 Phi(2) - 1)) = 0.87962
    assert abs(weights.astype(np.float64).std() / (0.87962 * INIT_STD) - 1) < 0.01
    for name, p in params.items():
        if name.endswith(".bias") or name.endswith("norm.beta"):
            assert not p.data.any(), name
        elif name.endswith("norm.gamma"):
            assert (p.data == 1).all(), name
    wide = init_params(cfg, dtype=np.float64)
    for name, p in params.items():
        assert np.array_equal(wide[name].data.astype(np.float32), p.data), name


def test_inventory_matches_declared_shapes():
    params = init_params(TINY)
    shapes = parameter_shapes(TINY)
    assert {n: p.shape for n, p in params.items()} == shapes
    assert sum(p.data.size for p in params.values()) == sum(
        int(np.prod(s)) for s in shapes.values())


def test_no_positional_parameters():
    # nothing token-indexed: shapes are independent of the clip length
    base = parameter_shapes(TINY)
    longer = parameter_shapes(ModelConfig(frames=8, height=16, width=16,
                                          embed_stride=8, embed_channels=6,
                                          scales=(1, 2), depth=1, seed=3))
    assert base == longer
    assert not any("pos" in name for name in base)


# -------------------------------------------------------------------- loss

def test_uniform_logits_loss_is_log_two():
    for label in (0, 1):
        loss = cross_entropy(T.tensor([[0.0, 0.0]]), [label])
        assert abs(float(loss.data) - np.log(2.0)) < 1e-6


def test_confident_correct_loss_vanishes():
    loss = cross_entropy(T.tensor([[20.0, -20.0]], dtype=np.float64), [0])
    assert float(loss.data) < 1e-8


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(1, 5))
    logits = T.param(z.copy())
    with T.Tape():
        grads = T.backward(cross_entropy(logits, [2]))
    num = numeric_grad(lambda: float(cross_entropy(T.Tensor(z), [2]).data), z)
    assert_grad_close(grads[logits], num, rtol=1e-6)


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(ValueError):
        cross_entropy(T.tensor([[0.0, 0.0]]), [2])


def test_cross_entropy_takes_only_batched_logits_and_labels():
    with pytest.raises(ShapeError):
        cross_entropy(T.tensor([0.0, 0.0]), [0])
    with pytest.raises(ShapeError):
        cross_entropy(T.tensor([[0.0, 0.0]]), 0)


# ------------------------------------------------------- end-to-end gradient

def test_full_model_gradient_check():
    params = init_params(TINY, dtype=np.float64)
    clip = rand_clip(TINY, seed=6, label=1, dtype=np.float64)

    with T.Tape():
        grads = T.backward(cross_entropy(forward(clip.frames, params, TINY), [clip.label]))
    analytic = {name: grads[p].copy() for name, p in params.items()}

    def fwd():
        return float(cross_entropy(forward(clip.frames, params, TINY), [clip.label]).data)

    for name, p in params.items():
        num = numeric_grad(fwd, p.data)
        assert_grad_close(analytic[name], num, rtol=1e-3, what=name)


# ---------------------------------------------------------------- training

def test_zero_lr_leaves_params_bitwise_unchanged():
    params = init_params(TINY)
    before = {n: p.data.copy() for n, p in params.items()}
    state = AdamState(params)
    train_step(as_batch(rand_clip(TINY, seed=7, label=1)), params, state, TINY, lr=0.0)
    for n, p in params.items():
        assert np.array_equal(p.data, before[n])


def test_non_finite_gradient_stops_the_step(nan_ffn_backward):
    params = init_params(TINY)
    before = {n: p.data.copy() for n, p in params.items()}
    state = AdamState(params)
    with pytest.raises(FloatingPointError, match="non-finite gradient at step 0"):
        train_step(as_batch(rand_clip(TINY, seed=7)), params, state, TINY, lr=1e-3)
    assert state.step == 0
    for n, p in params.items():
        assert np.array_equal(p.data, before[n])


def test_non_finite_loss_stops_the_step():
    params = init_params(TINY)
    params["head.bias"].data[:] = [np.inf, 0.0]
    before = {n: p.data.copy() for n, p in params.items()}
    state = AdamState(params)
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite loss at step 0"):
        train_step(as_batch(rand_clip(TINY, seed=7)), params, state, TINY, lr=1e-3)
    for n, p in params.items():
        assert np.array_equal(p.data, before[n])


def test_empty_batch_rejected():
    params = init_params(TINY)
    with pytest.raises(ValueError, match="empty batch"):
        train_step((np.zeros((0, 2, 3, 16, 16), np.float32), np.zeros(0, int)),
                   params, AdamState(params), TINY, lr=1e-3)


def test_loss_decreases_over_first_twenty_steps():
    params = init_params(TINY)
    state = AdamState(params)
    batch = as_batch(rand_clip(TINY, seed=8, label=1), rand_clip(TINY, seed=9, label=0))
    losses = [train_step(batch, params, state, TINY, lr=1e-3) for _ in range(20)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_overfit_single_clip():
    params = init_params(TINY)
    state = AdamState(params)
    batch = as_batch(rand_clip(TINY, seed=10, label=1))
    loss = None
    for _ in range(200):
        loss = train_step(batch, params, state, TINY, lr=1e-3)
    assert loss < 0.01


def test_fixed_seed_runs_are_bitwise_identical():
    def run():
        params = init_params(TINY)
        state = AdamState(params)
        batch = as_batch(rand_clip(TINY, seed=11, label=1), rand_clip(TINY, seed=12, label=0))
        return [train_step(batch, params, state, TINY, lr=1e-3) for _ in range(10)]
    assert run() == run()


# ----------------------------------------------------------------- scoring

def test_zero_head_scores_half():
    params = init_params(TINY)
    params["head.weight"].data[:] = 0
    params["head.bias"].data[:] = 0
    assert predict_score(rand_clip(TINY, seed=13), params, TINY) == 0.5


def test_biased_head_saturates_score():
    params = init_params(TINY)
    params["head.weight"].data[:] = 0
    params["head.bias"].data[:] = np.array([-20.0, 20.0], dtype=np.float32)
    assert predict_score(rand_clip(TINY, seed=14), params, TINY) > 1 - 1e-8


def test_class_probabilities_sum_to_one():
    params = init_params(TINY)
    clip = rand_clip(TINY, seed=15)
    z = forward(clip.frames, params, TINY).data[0].astype(np.float64)
    e = np.exp(z - z.max())
    p_attack, p_bona = e / e.sum()
    assert abs(predict_score(clip, params, TINY) - p_bona) < 1e-12
    assert abs(p_attack + p_bona - 1.0) < 1e-7


# ---------------------------------------------------------------- sampling

def test_uniform_sampling_identity():
    frames = np.arange(8, dtype=np.float32).reshape(8, 1, 1, 1) * np.ones((8, 3, 4, 4), np.float32)
    clip = sample_frames(frames, 8, "uniform")
    assert np.array_equal(clip.frames, frames)


def test_uniform_sampling_even_spacing():
    frames = np.arange(8, dtype=np.float32).reshape(8, 1, 1, 1) * np.ones((8, 3, 4, 4), np.float32)
    clip = sample_frames(frames, 2, "uniform")
    assert clip.frames[0, 0, 0, 0] == 0 and clip.frames[1, 0, 0, 0] == 4


def test_random_interval_sampling_is_seeded():
    frames = np.arange(16, dtype=np.float32).reshape(16, 1, 1, 1) * np.ones((16, 3, 2, 2), np.float32)
    a = sample_frames(frames, 4, "random-interval", np.random.default_rng(42))
    b = sample_frames(frames, 4, "random-interval", np.random.default_rng(42))
    assert np.array_equal(a.frames, b.frames)
    picked = a.frames[:, 0, 0, 0]
    gaps = np.diff(picked)
    assert np.all(gaps == gaps[0]) and gaps[0] >= 1


def numbered_frames(s):
    """S frames [S, 3, 2, 2] whose every pixel holds its frame's index."""
    return np.arange(s, dtype=np.float32).reshape(s, 1, 1, 1) * np.ones((s, 3, 2, 2), np.float32)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(1, 6), extra=st.integers(0, 12))
def test_random_interval_picks_are_a_strided_view(seed, t, extra):
    frames = numbered_frames(t + extra)
    picks = frame_indices(t + extra, t, "random-interval", np.random.default_rng(seed))
    assert isinstance(picks, slice)
    clip = sample_frames(frames, t, "random-interval", np.random.default_rng(seed))
    assert np.shares_memory(clip.frames, frames)
    idx = clip.frames[:, 0, 0, 0].astype(int)
    assert len(idx) == t and idx.min() >= 0 and idx.max() < t + extra
    assert len(set(np.diff(idx).tolist())) <= 1 and (np.diff(idx) > 0).all()


@pytest.mark.parametrize("s,t", [(8, 8), (8, 4), (8, 2), (12, 4), (16, 1), (12, 3)])
def test_uniform_picks_are_a_view_when_t_divides_s(s, t):
    frames = numbered_frames(s)
    assert isinstance(frame_indices(s, t, "uniform", None), slice)
    clip = sample_frames(frames, t, "uniform")
    assert np.shares_memory(clip.frames, frames)
    assert clip.frames[:, 0, 0, 0].tolist() == [i * s // t for i in range(t)]


@pytest.mark.parametrize("s,t", [(12, 5), (8, 3), (7, 4)])
def test_uniform_picks_when_t_does_not_divide_s_read_floor_i_s_over_t(s, t):
    frames = numbered_frames(s)
    clip = sample_frames(frames, t, "uniform")
    assert not np.shares_memory(clip.frames, frames)
    assert clip.frames[:, 0, 0, 0].tolist() == [i * s // t for i in range(t)]
    if (s, t) == (12, 5):
        assert clip.frames[:, 0, 0, 0].tolist() == [0, 2, 4, 7, 9]


def test_sampling_rejects_short_source():
    with pytest.raises(ValueError):
        sample_frames(np.zeros((3, 3, 4, 4), np.float32), 4, "uniform")
    with pytest.raises(ValueError):
        sample_frames(np.zeros((8, 3, 4, 4), np.float32), 4, "nearest")


# ------------------------------------------------------------- augmentation

def test_augmentation_is_seeded_and_bounded():
    rng = np.random.default_rng(16)
    frames = rng.random((4, 3, 8, 8)).astype(np.float32)
    a, b = np.empty_like(frames), np.empty_like(frames)
    augment_frames(frames, np.random.default_rng(17), out=a)
    augment_frames(frames, np.random.default_rng(17), out=b)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_augmentation_flip_branch():
    frames = np.zeros((1, 3, 2, 4), dtype=np.float32)
    frames[..., 0] = 1.0
    for seed in range(20):
        out = np.empty_like(frames)
        augment_frames(frames, np.random.default_rng(seed), out=out)
        col = out[0, 0, 0]
        assert col[0] > col[-1] or col[-1] > col[0]


# -------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    params = init_params(TINY)
    save_checkpoint(tmp_path / "ckpt", params, config_text="seed=3\n")
    loaded = load_checkpoint(tmp_path / "ckpt", TINY)
    assert set(loaded) == set(params)
    for n in params:
        assert np.array_equal(loaded[n].data, params[n].data)
        assert loaded[n].dtype == params[n].dtype
    assert (tmp_path / "ckpt" / "config.cfg").read_text() == "seed=3\n"


def test_checkpoint_of_mixed_dtypes_names_the_first_odd_tensor(tmp_path):
    params = init_params(TINY)
    params["head.bias"] = T.param(params["head.bias"].data.astype(np.float64))
    save_checkpoint(tmp_path / "ckpt", params)
    with pytest.raises(ValueError, match="^checkpoint tensor head.bias is float64, "
                                         "but embed.weight is float32$"):
        load_checkpoint(tmp_path / "ckpt", TINY)
    save_checkpoint(tmp_path / "ckpt", init_params(TINY, dtype=np.float64))
    loaded = load_checkpoint(tmp_path / "ckpt", TINY)
    assert all(p.dtype == np.float64 for p in loaded.values())


def test_checkpoint_shape_validation(tmp_path):
    params = init_params(TINY)
    save_checkpoint(tmp_path / "ckpt", params)
    other = ModelConfig(frames=2, height=16, width=16, embed_stride=8,
                        embed_channels=6, scales=(1, 2), depth=2, seed=3)
    with pytest.raises(ShapeError):
        load_checkpoint(tmp_path / "ckpt", other)


def six_tensor_format(params: dict) -> dict:
    """The inventory before each layer's projection became one ``qkv`` kernel
    and bias: ``layers.i.{q,k,v}.{weight,bias}``, thirds of the output axis."""
    old = {}
    for name, p in params.items():
        if ".qkv." not in name:
            old[name] = p
            continue
        for third, part in zip("qkv", np.split(p.data, 3)):
            old[name.replace(".qkv.", f".{third}.")] = T.param(part)
    return old


def test_six_tensor_checkpoint_is_refused_whole(tmp_path):
    save_checkpoint(tmp_path / "ckpt", six_tensor_format(init_params(TINY)))
    missing = ["layers.0.qkv.bias", "layers.0.qkv.weight"]
    extra = [f"layers.0.{m}.{kind}" for m in "kqv" for kind in ("bias", "weight")]
    with pytest.raises(ShapeError, match=re.escape(
            f"checkpoint inventory mismatch: missing {missing}, unexpected {extra}")):
        load_checkpoint(tmp_path / "ckpt", TINY)


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nothing", TINY)


def test_checkpoint_manifest_line_without_tab_names_the_line(tmp_path):
    save_checkpoint(tmp_path / "ckpt", init_params(TINY))
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace("\t", " ")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"manifest\.tsv line 2: expected name<TAB>path"):
        load_checkpoint(tmp_path / "ckpt", TINY)


def test_checkpoint_duplicate_tensor_name_names_the_line(tmp_path):
    save_checkpoint(tmp_path / "ckpt", init_params(TINY))
    manifest = tmp_path / "ckpt" / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    gamma = next(line for line in lines if line.startswith("layers.0.norm.gamma\t"))
    lines.append("layers.0.norm.beta\t" + gamma.split("\t")[1])
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"manifest\.tsv line {len(lines)}: "
                                         r"duplicate tensor name 'layers\.0\.norm\.beta'"):
        load_checkpoint(tmp_path / "ckpt", TINY)


def test_checkpoint_path_outside_its_root_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", init_params(TINY))
    (tmp_path / "ckpt" / "tensors" / "head_bias.vpt").rename(tmp_path / "head_bias.vpt")
    for rel in ("../head_bias.vpt", str(tmp_path / "head_bias.vpt")):
        (tmp_path / "ckpt" / "manifest.tsv").write_text(
            f"head.bias\t{rel}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"manifest\.tsv line 1: .*resolves outside"):
            load_checkpoint(tmp_path / "ckpt", TINY)


def test_interrupted_checkpoint_overwrite_keeps_the_old_one(tmp_path, fail_writes_after):
    old = init_params(TINY)
    save_checkpoint(tmp_path / "ckpt", old, config_text="seed=3\n")
    fail_writes_after(3)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "ckpt", init_params(replace(TINY, seed=4)))
    assert os.listdir(tmp_path) == ["ckpt"]
    loaded = load_checkpoint(tmp_path / "ckpt", TINY)
    for name, p in old.items():
        assert np.array_equal(loaded[name].data, p.data)
    assert (tmp_path / "ckpt" / "config.cfg").read_text(encoding="utf-8") == "seed=3\n"


def test_checkpoint_overwrite_replaces_the_whole_tree(tmp_path):
    save_checkpoint(tmp_path / "ckpt", init_params(TINY), config_text="seed=3\n")
    (tmp_path / "ckpt" / "report.csv").write_text("stale\n", encoding="utf-8")
    new = init_params(replace(TINY, seed=4))
    save_checkpoint(tmp_path / "ckpt", new)
    assert os.listdir(tmp_path) == ["ckpt"]
    assert sorted(os.listdir(tmp_path / "ckpt")) == ["manifest.tsv", "tensors"]
    loaded = load_checkpoint(tmp_path / "ckpt", TINY)
    for name, p in new.items():
        assert np.array_equal(loaded[name].data, p.data)


def test_checkpoint_never_replaces_an_unrelated_directory(tmp_path):
    (tmp_path / "notes.txt").write_text("keep\n", encoding="utf-8")
    with pytest.raises(FileExistsError, match="holds no manifest.tsv"):
        save_checkpoint(tmp_path, init_params(TINY))
    assert os.listdir(tmp_path) == ["notes.txt"]
