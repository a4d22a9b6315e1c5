"""Convolutional tokenizer, Q/K/V projection, and feed-forward stage."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padformer import tensor as T
from padformer.attention import conv_project, multiscale_attention
from padformer.embed import conv_ffn, conv_token_embed, normal_cdf

from oracles import (concat, conv2d_backward_naive, conv2d_naive, ffn_naive, gelu_exact,
                     ffn_plain, normal_cdf_clipped, normal_cdf_exact, patch_cut, split)
from gradcheck import scalarize
from test_attention import thirds
from test_gradients import check, gelu


def identity_kernel(c, k, dtype=np.float32):
    w = np.zeros((c, c, k, k), dtype=dtype)
    for i in range(c):
        w[i, i, k // 2, k // 2] = 1.0
    return w


def zeros(*shape):
    return T.tensor(np.zeros(shape))


def channels_first(a):
    """[..., H, W, C] -> [N, C, H, W], the loop oracles' layout."""
    return np.moveaxis(a.reshape((-1,) + a.shape[-3:]), -1, 1)


def channels_last(a, shape):
    """[N, C, H, W] -> ``shape`` ([..., H, W, C])."""
    return np.moveaxis(a, 1, -1).reshape(shape)


# ---------------------------------------------------------------- tokenizer

def test_token_map_shape_full_resolution():
    rng = np.random.default_rng(0)
    frames = rng.random((8, 3, 224, 224), dtype=np.float32)
    w = T.tensor(rng.standard_normal((96, 3, 8, 8)))
    out = conv_token_embed(frames, w, zeros(96), stride=8)
    assert out.shape == (8, 28, 28, 96)


def test_token_map_shape_minimal():
    rng = np.random.default_rng(1)
    frames = rng.random((1, 3, 16, 16), dtype=np.float32)
    w = T.tensor(rng.standard_normal((6, 3, 8, 8)))
    out = conv_token_embed(frames, w, zeros(6), stride=8)
    assert out.shape == (1, 2, 2, 6)


def test_zero_clip_zero_bias_gives_zero_map():
    frames = np.zeros((2, 3, 16, 16), dtype=np.float32)
    w = T.tensor(np.random.default_rng(2).standard_normal((4, 3, 8, 8)))
    out = conv_token_embed(frames, w, zeros(4), stride=8)
    assert np.array_equal(out.data, np.zeros((2, 2, 2, 4), dtype=np.float32))


def test_translation_consistency_at_stride_granularity():
    # shifting the input by exactly `stride` pixels shifts the map by one cell
    rng = np.random.default_rng(3)
    stride = 8
    x = rng.random((1, 3, 32, 32)).astype(np.float32)
    shifted = np.zeros_like(x)
    shifted[:, :, :, stride:] = x[:, :, :, :-stride]
    w = T.tensor(rng.standard_normal((5, 3, stride, stride)))
    b = T.tensor(rng.standard_normal(5))
    base = conv_token_embed(x, w, b, stride=stride).data
    moved = conv_token_embed(shifted, w, b, stride=stride).data
    assert np.allclose(moved[:, :, 1:], base[:, :, :-1], atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), stride=st.sampled_from([2, 4, 8]),
       lead=st.sampled_from([(1,), (3,), (2, 2)]), cout=st.integers(1, 4),
       rows=st.integers(1, 2), cols=st.integers(1, 2))
def test_patchify_embed_matches_the_strided_conv_oracle(seed, stride, lead, cout, rows, cols):
    # the patchify matmul is the stride-s, pad-0 convolution: forward, and the
    # weight and bias gradients (the frames are constants and get none)
    rng = np.random.default_rng(seed)
    frames = rng.random(lead + (3, rows * stride, cols * stride))
    w = T.param(rng.normal(size=(cout, 3, stride, stride)))
    b = T.param(rng.normal(size=cout))
    with T.Tape():
        out = conv_token_embed(frames, w, b, stride)
        g = rng.normal(size=out.shape)
        T.backward(scalarize(out, g))
    x = frames.reshape((-1,) + frames.shape[-3:])
    want = conv2d_naive(x, w.data, b.data, stride, 0)
    assert out.shape == lead + (rows, cols, cout)
    np.testing.assert_allclose(out.data, channels_last(want, out.shape), rtol=0, atol=1e-12)
    _, want_gw, want_gb = conv2d_backward_naive(x, w.data, channels_first(g), stride, 0)
    np.testing.assert_allclose(w.grad, want_gw, rtol=0, atol=1e-10)
    np.testing.assert_allclose(b.grad, want_gb, rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dtype=st.sampled_from([np.float32, np.float64]),
       stride=st.sampled_from([1, 2, 4, 8]), b=st.integers(1, 3), t=st.integers(1, 3),
       step=st.integers(1, 3), rows=st.integers(1, 3), cols=st.integers(1, 3),
       cout=st.integers(1, 12))
def test_run_wise_patch_cut_is_the_plain_cut(seed, dtype, stride, b, t, step, rows, cols, cout):
    # frames as the samplers give them: every step-th frame of a longer source,
    # a view; B*T*rows*cols token rows, mostly not a multiple of 64
    rng = np.random.default_rng(seed)
    source = rng.random((b, t * step, 3, rows * stride, cols * stride)).astype(dtype)
    frames = source[:, ::step]
    w, bias = rng.normal(size=(cout, 3, stride, stride)), rng.normal(size=cout)
    out = conv_token_embed(frames, T.tensor(w, dtype), T.tensor(bias, dtype), stride)
    wmat = np.ascontiguousarray(w.astype(dtype).reshape(cout, -1).T)
    want = patch_cut(frames, stride) @ wmat + bias.astype(dtype)
    assert out.data.dtype == dtype
    assert out.data.tobytes() == want.tobytes()


# --------------------------------------------------------------- projection

def test_identity_projection_reproduces_token_map():
    rng = np.random.default_rng(4)
    x = T.tensor(rng.standard_normal((2, 4, 4, 6)))
    wid = T.tensor(np.concatenate([identity_kernel(6, 3)] * 3))
    for m in thirds(conv_project(x, wid, zeros(18))):
        assert np.array_equal(m, x.data)


def test_zero_projection_kernels():
    x = T.tensor(np.random.default_rng(5).standard_normal((2, 4, 4, 6)))
    for m in thirds(conv_project(x, zeros(18, 6, 3, 3), zeros(18))):
        assert np.array_equal(m, np.zeros_like(x.data))


def test_projection_preserves_shape():
    # one map of three thirds, each of the input shape
    rng = np.random.default_rng(6)
    x = T.tensor(rng.standard_normal((2, 4, 4, 6)))
    w = T.tensor(rng.standard_normal((18, 6, 3, 3)))
    qkv = conv_project(x, w, T.tensor(rng.standard_normal(18)))
    assert qkv.shape == (2, 4, 4, 18)


def projection_operands(rng, lead, c, h, w):
    """Random float64 channels-last input map and the [3C, C, 3, 3] kernel and
    [3C] bias, each stacking three draws in [q | k | v] order."""
    x = rng.normal(size=lead + (h, w, c))
    maps = [(rng.normal(size=(c, c, 3, 3)), rng.normal(size=c)) for _ in range(3)]
    return x, [np.concatenate(parts) for parts in zip(*maps)]


def separate_projection(x, w, b):
    """Reference: one 3x3 conv2d per third of the kernel and bias, concatenated
    in [q | k | v] order."""
    return concat([T.conv2d(x, wm, bm, pad=1) for wm, bm in zip(split(w, 3, 0), split(b, 3, 0))],
                  axis=-1)


_PROJ_SHAPES = dict(seed=st.integers(0, 10_000), b=st.sampled_from([None, 1, 2, 3]),
                    t=st.integers(1, 3), c=st.integers(1, 4),
                    h=st.integers(1, 5), w=st.integers(1, 5))


@settings(max_examples=25, deadline=None)
@given(**_PROJ_SHAPES)
def test_projection_matches_three_naive_convs(seed, b, t, c, h, w):
    lead = (t,) if b is None else (b, t)
    x, (wqkv, bqkv) = projection_operands(np.random.default_rng(seed), lead, c, h, w)
    qkv = conv_project(T.tensor(x, dtype=np.float64), T.tensor(wqkv, dtype=np.float64),
                       T.tensor(bqkv, dtype=np.float64))
    assert qkv.shape == x.shape[:-1] + (3 * c,)
    for m, wm, bm in zip(thirds(qkv), np.split(wqkv, 3), np.split(bqkv, 3)):
        want = conv2d_naive(channels_first(x), wm, bm, stride=1, pad=1)
        np.testing.assert_allclose(m, channels_last(want, x.shape), rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(**_PROJ_SHAPES)
def test_projection_gradients_match_separate_convs(seed, b, t, c, h, w):
    lead = (t,) if b is None else (b, t)
    rng = np.random.default_rng(seed)
    x, weights = projection_operands(rng, lead, c, h, w)
    proj = rng.normal(size=3 * x.size)
    grads = []
    for project in (conv_project, separate_projection):
        tensors = [T.param(a) for a in [x] + weights]
        with T.Tape():
            T.backward(scalarize(project(*tensors), proj))
        grads.append([p.grad for p in tensors])
    for name, fused, ref in zip(["x", "w", "b"], *grads):
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-10, err_msg=name)


def test_projection_gradient_check():
    rng = np.random.default_rng(10)
    x, weights = projection_operands(rng, (2,), 3, 4, 4)
    proj = rng.normal(size=3 * x.size)
    check(lambda *p: scalarize(conv_project(*p), proj), [x] + weights)


def test_projection_runs_one_convolution(monkeypatch):
    calls = []
    conv2d = T.conv2d

    def counting(x, w, b, pad=0):
        calls.append((w.shape, pad))
        return conv2d(x, w, b, pad=pad)

    monkeypatch.setattr(T, "conv2d", counting)
    x, weights = projection_operands(np.random.default_rng(11), (2, 2), 4, 3, 3)
    qkv = conv_project(T.tensor(x), *[T.tensor(a) for a in weights])
    assert calls == [((12, 4, 3, 3), 1)]
    assert qkv.shape == x.shape[:-1] + (12,)


def test_projection_and_attention_record_two_tape_nodes():
    # the conv and the attention: the stored kernel and bias go into the conv
    # as they are, and its [q | k | v] map into the attention primitive uncut
    x, weights = projection_operands(np.random.default_rng(12), (2, 2), 6, 4, 4)
    params = [T.param(a) for a in weights]
    with T.Tape() as tape:
        out = multiscale_attention(conv_project(T.tensor(x, np.float64), *params), (1, 2))
        assert len(tape.nodes) == 2
        assert tape.nodes[-1].out is out


# -------------------------------------------------------------- feed-forward

def test_ffn_zero_weights_zero_output():
    y = T.tensor(np.random.default_rng(7).standard_normal((2, 3, 3, 4)))
    out = conv_ffn(y, zeros(8, 4, 1, 1), zeros(8), zeros(4, 8, 1, 1), zeros(4))
    assert np.array_equal(out.data, np.zeros_like(y.data))


# |normal_cdf - Phi| on every float32 the sweep below tests (float64 is closer)
PHI_BOUND = 2.0 ** -23
# |d/dh (h * normal_cdf(h)) - (Phi + h * phi)| in float64, the slope the
# backward multiplies by, over the same sweep
SLOPE_BOUND = 2.0 ** -20


def test_normal_cdf_is_within_one_float32_step_of_phi():
    x = np.concatenate([np.linspace(-12.0, 12.0, 2 ** 20 + 1),
                        [0.0, 1e30, -1e30, np.inf, -np.inf]]).astype(np.float32)
    got = normal_cdf(x)
    assert got.dtype == np.float32
    err = np.abs(got.astype(np.float64) - normal_cdf_exact(x))
    assert err.max() <= PHI_BOUND, x[err.argmax()]
    assert np.isnan(normal_cdf(np.full(3, np.nan, dtype=np.float32))).all()


def test_normal_cdf_saturates_without_overflow_warnings():
    # past |x| ~ 4,340 in float32 the Horner terms overflow, and under
    # filterwarnings = error a numpy overflow warning would raise
    x = np.array([5e3, -5e3, 1e30, -1e30], dtype=np.float32)
    got = normal_cdf(x)
    assert got.dtype == np.float32
    assert np.array_equal(got, [1.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unclipped_normal_cdf_is_bitwise_the_clipped_formula(dtype):
    big = np.finfo(dtype).max
    tail = np.geomspace(20.0, min(float(big), 1e308), 20_001).astype(dtype)[1:]
    x = np.concatenate([np.linspace(-30.0, 30.0, 600_001), tail, -tail,
                        [big, -big, np.inf, -np.inf, 0.0, -0.0, np.nan, 20.0, -20.0]]
                       ).astype(dtype)
    assert np.abs(x[600_001:-9]).min() > 20.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = normal_cdf(x)
    want = normal_cdf_clipped(x)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(v=st.floats(-12.0, 12.0, width=32))
def test_normal_cdf_bound_holds_at_drawn_float32s(v):
    got = normal_cdf(np.array([v], dtype=np.float32))
    assert abs(float(got[0]) - normal_cdf_exact([v])[0]) <= PHI_BOUND


def test_ffn_slope_is_within_its_bound_of_the_exact_gelu_slope():
    # with 1x1 identity kernels and zero biases the input gradient is the slope
    x = T.param(np.linspace(-12.0, 12.0, 2 ** 20 + 1).reshape(-1, 1))
    with T.Tape():
        T.backward(scalarize(gelu(x), np.ones(x.size)))
    _, want = gelu_exact(x.data)
    assert np.abs(x.grad - want).max() <= SLOPE_BOUND


def test_ffn_identity_convs_reduce_to_gelu():
    y = np.random.default_rng(8).standard_normal((2, 3, 3, 4))
    wid = T.tensor(identity_kernel(4, 1, np.float64), dtype=np.float64)
    b = T.tensor(np.zeros(4), dtype=np.float64)
    out = conv_ffn(T.tensor(y, dtype=np.float64), wid, b, wid, b)
    want, _ = gelu_exact(y)
    assert np.all(np.abs(out.data - want) <= PHI_BOUND * np.abs(y))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dtype=st.sampled_from([np.float32, np.float64]),
       lead=st.sampled_from([(1,), (5,), (2, 3, 3), (16, 8, 4, 4)]), c=st.integers(1, 12),
       ratio=st.integers(1, 4))
def test_ffn_forward_is_the_plain_bias_broadcast(seed, dtype, lead, c, ratio):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=lead + (c,)).astype(dtype)
    w1, b1 = rng.normal(size=(ratio * c, c, 1, 1)), rng.normal(size=ratio * c)
    w2, b2 = rng.normal(size=(c, ratio * c, 1, 1)), rng.normal(size=c)
    ops = [a.astype(dtype) for a in (y, w1, b1, w2, b2)]
    out = conv_ffn(*(T.tensor(a, dtype) for a in ops))
    assert out.data.tobytes() == ffn_plain(*ops).tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), b=st.sampled_from([None, 1, 2]), t=st.integers(1, 3),
       c=st.integers(1, 4), ratio=st.integers(1, 4), h=st.integers(1, 3), w=st.integers(1, 3),
       spread=st.sampled_from([0.1, 1.0, 3.0]))
def test_fused_ffn_matches_the_unfused_oracle(seed, b, t, c, ratio, h, w, spread):
    # Tolerance from the two bounds above: the GELU's value is off by at most
    # |h| * PHI_BOUND and its slope by SLOPE_BOUND, and each error reaches an
    # output or a gradient through GEMMs, so it is bounded by the same GEMM
    # on absolute values; 1e-10 covers float64 rounding.
    lead = (t,) if b is None else (b, t)
    rng = np.random.default_rng(seed)
    hid = ratio * c
    y = rng.normal(size=lead + (h, w, c))
    w1, b1 = rng.normal(scale=spread, size=(hid, c, 1, 1)), rng.normal(size=hid)
    w2, b2 = rng.normal(size=(c, hid, 1, 1)), rng.normal(size=c)
    g = rng.normal(size=y.shape)
    params = [T.param(a) for a in (y, w1, b1, w2, b2)]
    with T.Tape():
        out = conv_ffn(*params)
        T.backward(scalarize(out, g))
    want, want_grads = ffn_naive(channels_first(y), w1, b1, w2, b2, channels_first(g))

    y2, g2 = np.abs(y.reshape(-1, c)), g.reshape(-1, c)
    w1m, w2m = w1.reshape(hid, c), w2.reshape(c, hid)
    da = PHI_BOUND * np.abs(y.reshape(-1, c) @ w1m.T + b1)
    dgh = SLOPE_BOUND * np.abs(g2 @ w2m)
    tol = {"out": da @ np.abs(w2m).T, "y": dgh @ np.abs(w1m), "w1": dgh.T @ y2,
           "b1": dgh.sum(axis=0), "w2": np.abs(g2).T @ da, "b2": np.zeros(c)}
    got = {"out": out.data, "y": params[0].grad}
    got.update(zip(["w1", "b1", "w2", "b2"], (p.grad for p in params[1:])))
    ref = {"out": channels_last(want, y.shape), "y": channels_last(want_grads[0], y.shape)}
    ref.update(zip(["w1", "b1", "w2", "b2"], want_grads[1:]))
    for name, bound in tol.items():
        err = np.abs(got[name] - ref[name]).reshape(bound.shape)
        assert np.all(err <= bound + 1e-10), (name, (err - bound).max())


def test_ffn_records_one_tape_node():
    rng = np.random.default_rng(13)
    operands = [T.param(rng.normal(size=s)) for s in ((2, 3, 3, 4), (8, 4, 1, 1), (8,),
                                                      (4, 8, 1, 1), (4,))]
    with T.Tape() as tape:
        out = conv_ffn(*operands)
        assert len(tape.nodes) == 1 and tape.nodes[0].out is out
        assert tape.nodes[0].parents == tuple(operands)


def test_ffn_gradient_check():
    rng = np.random.default_rng(9)
    y = rng.normal(size=(2, 4, 4, 3))
    w1 = rng.normal(size=(6, 3, 1, 1))
    b1 = rng.normal(size=6)
    w2 = rng.normal(size=(3, 6, 1, 1))
    b2 = rng.normal(size=3)
    proj = rng.normal(size=2 * 3 * 4 * 4)
    check(lambda *p: scalarize(conv_ffn(*p), proj), [y, w1, b1, w2, b2])
