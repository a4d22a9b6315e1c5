"""Convolutional tokenizer, Q/K/V projection, and feed-forward stage."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from padformer import tensor as T
from padformer.embed import VideoClip, conv_ffn, conv_project, conv_token_embed

from oracles import conv2d_naive
from test_gradients import check, scalarize


def identity_kernel(c, k, dtype=np.float32):
    w = np.zeros((c, c, k, k), dtype=dtype)
    for i in range(c):
        w[i, i, k // 2, k // 2] = 1.0
    return w


def zeros(*shape):
    return T.tensor(np.zeros(shape))


# ---------------------------------------------------------------- tokenizer

def test_token_map_shape_full_resolution():
    rng = np.random.default_rng(0)
    clip = VideoClip(frames=rng.random((8, 3, 224, 224), dtype=np.float32), label=1)
    w = T.tensor(rng.standard_normal((96, 3, 8, 8)))
    out = conv_token_embed(T.tensor(clip.frames), w, zeros(96), stride=8)
    assert out.shape == (8, 96, 28, 28)


def test_token_map_shape_minimal():
    rng = np.random.default_rng(1)
    clip = VideoClip(frames=rng.random((1, 3, 16, 16), dtype=np.float32), label=0)
    w = T.tensor(rng.standard_normal((6, 3, 8, 8)))
    out = conv_token_embed(T.tensor(clip.frames), w, zeros(6), stride=8)
    assert out.shape == (1, 6, 2, 2)


def test_zero_clip_zero_bias_gives_zero_map():
    clip = VideoClip(frames=np.zeros((2, 3, 16, 16), dtype=np.float32), label=1)
    w = T.tensor(np.random.default_rng(2).standard_normal((4, 3, 8, 8)))
    out = conv_token_embed(T.tensor(clip.frames), w, zeros(4), stride=8)
    assert np.array_equal(out.data, np.zeros((2, 4, 2, 2), dtype=np.float32))


def test_translation_consistency_at_stride_granularity():
    # shifting the input by exactly `stride` pixels shifts the map by one cell
    rng = np.random.default_rng(3)
    stride = 8
    x = rng.random((1, 3, 32, 32)).astype(np.float32)
    shifted = np.zeros_like(x)
    shifted[:, :, :, stride:] = x[:, :, :, :-stride]
    w = T.tensor(rng.standard_normal((5, 3, stride, stride)))
    b = T.tensor(rng.standard_normal(5))
    base = conv_token_embed(T.tensor(x), w, b, stride=stride).data
    moved = conv_token_embed(T.tensor(shifted), w, b, stride=stride).data
    assert np.allclose(moved[:, :, :, 1:], base[:, :, :, :-1], atol=1e-6)


# --------------------------------------------------------------- projection

def test_identity_projection_reproduces_token_map():
    rng = np.random.default_rng(4)
    x = T.tensor(rng.standard_normal((2, 6, 4, 4)))
    wid = T.tensor(identity_kernel(6, 3))
    b = zeros(6)
    q, k, v = conv_project(x, wid, b, wid, b, wid, b)
    for m in (q, k, v):
        assert np.array_equal(m.data, x.data)


def test_zero_projection_kernels():
    x = T.tensor(np.random.default_rng(5).standard_normal((2, 6, 4, 4)))
    wz = zeros(6, 6, 3, 3)
    b = zeros(6)
    q, k, v = conv_project(x, wz, b, wz, b, wz, b)
    for m in (q, k, v):
        assert np.array_equal(m.data, np.zeros_like(x.data))


def test_projection_preserves_shape():
    rng = np.random.default_rng(6)
    x = T.tensor(rng.standard_normal((2, 6, 4, 4)))
    mk = lambda: T.tensor(rng.standard_normal((6, 6, 3, 3)))
    bk = lambda: T.tensor(rng.standard_normal(6))
    q, k, v = conv_project(x, mk(), bk(), mk(), bk(), mk(), bk())
    assert q.shape == k.shape == v.shape == x.shape


def projection_operands(rng, lead, c, h, w):
    """Random float64 input map and (wq, bq, wk, bk, wv, bv)."""
    x = rng.normal(size=lead + (c, h, w))
    weights = []
    for _ in range(3):
        weights += [rng.normal(size=(c, c, 3, 3)), rng.normal(size=c)]
    return x, weights


def separate_projection(x, wq, bq, wk, bk, wv, bv):
    """Reference: one 3x3 conv2d per map, as before the fusion."""
    return tuple(T.conv2d(x, w, b, stride=1, pad=1)
                 for w, b in ((wq, bq), (wk, bk), (wv, bv)))


def joint_loss(maps, proj):
    return scalarize(T.concat(list(maps), axis=0), proj)


_PROJ_SHAPES = dict(seed=st.integers(0, 10_000), b=st.sampled_from([None, 1, 2, 3]),
                    t=st.integers(1, 3), c=st.integers(1, 4),
                    h=st.integers(1, 5), w=st.integers(1, 5))


@settings(max_examples=25, deadline=None)
@given(**_PROJ_SHAPES)
def test_projection_matches_three_naive_convs(seed, b, t, c, h, w):
    lead = (t,) if b is None else (b, t)
    x, weights = projection_operands(np.random.default_rng(seed), lead, c, h, w)
    maps = conv_project(T.tensor(x, dtype=np.float64),
                        *[T.tensor(a, dtype=np.float64) for a in weights])
    frames = x.reshape(-1, c, h, w)
    for m, (wm, bm) in zip(maps, zip(weights[0::2], weights[1::2])):
        want = conv2d_naive(frames, wm, bm, stride=1, pad=1).reshape(x.shape)
        assert m.shape == x.shape
        np.testing.assert_allclose(m.data, want, rtol=0, atol=1e-12)


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
            T.backward(joint_loss(project(*tensors), proj))
        grads.append([p.grad for p in tensors])
    for name, fused, ref in zip(["x", "wq", "bq", "wk", "bk", "wv", "bv"], *grads):
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-10, err_msg=name)


def test_projection_gradient_check():
    rng = np.random.default_rng(10)
    x, weights = projection_operands(rng, (2,), 3, 4, 4)
    proj = rng.normal(size=3 * x.size)
    check(lambda *p: joint_loss(conv_project(*p), proj), [x] + weights)


def test_projection_runs_one_convolution(monkeypatch):
    calls = []
    conv2d = T.conv2d

    def counting(x, w, b, stride=1, pad=0):
        calls.append((w.shape, stride, pad))
        return conv2d(x, w, b, stride=stride, pad=pad)

    monkeypatch.setattr(T, "conv2d", counting)
    x, weights = projection_operands(np.random.default_rng(11), (2, 2), 4, 3, 3)
    q, k, v = conv_project(T.tensor(x), *[T.tensor(a) for a in weights])
    assert calls == [((12, 4, 3, 3), 1, 1)]
    assert q.shape == k.shape == v.shape == x.shape


# -------------------------------------------------------------- feed-forward

def test_ffn_zero_weights_zero_output():
    y = T.tensor(np.random.default_rng(7).standard_normal((2, 4, 3, 3)))
    out = conv_ffn(y, zeros(8, 4, 1, 1), zeros(8), zeros(4, 8, 1, 1), zeros(4))
    assert np.array_equal(out.data, np.zeros_like(y.data))


def test_ffn_identity_convs_reduce_to_gelu():
    y = T.tensor(np.random.default_rng(8).standard_normal((2, 4, 3, 3)))
    wid = T.tensor(identity_kernel(4, 1))
    b = zeros(4)
    out = conv_ffn(y, wid, b, wid, b)
    assert np.allclose(out.data, T.gelu(y).data, atol=1e-7)


def test_ffn_gradient_check():
    rng = np.random.default_rng(9)
    y = rng.normal(size=(2, 3, 4, 4))
    w1 = rng.normal(size=(6, 3, 1, 1))
    b1 = rng.normal(size=6)
    w2 = rng.normal(size=(3, 6, 1, 1))
    b2 = rng.normal(size=3)
    proj = rng.normal(size=2 * 3 * 4 * 4)
    check(lambda *p: scalarize(conv_ffn(*p), proj), [y, w1, b1, w2, b2])
