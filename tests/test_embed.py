"""Convolutional tokenizer, Q/K/V projection, and feed-forward stage."""

import numpy as np

from padformer import tensor as T
from padformer.embed import VideoClip, conv_ffn, conv_project, conv_token_embed

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
