"""Finite-difference checks for every differentiable primitive (f64, h=1e-5)."""

import numpy as np
import pytest

from padformer import tensor as T
from padformer.embed import conv_ffn
from gradcheck import numeric_grad, assert_grad_close, scalarize
from oracles import concat, matmul, scale, softmax, split

RTOL = 1e-4


def check(build, arrays, rtol=RTOL):
    """Compare tape gradients of ``build(*tensors)`` against central differences."""
    tensors = [T.param(a) for a in arrays]
    with T.Tape():
        loss = build(*tensors)
        grads = T.backward(loss)
    analytic = [grads[t] for t in tensors]

    def fwd():
        return float(build(*[T.Tensor(a) for a in arrays]).data)

    for i, arr in enumerate(arrays):
        num = numeric_grad(fwd, arr)
        assert_grad_close(analytic[i], num, rtol, what=f"input {i}")


def gelu(x):
    """h * normal_cdf(h) of every element: the fused feed-forward block with
    1x1 identity kernels and zero biases, run on the last axis as channels."""
    c = x.shape[-1]
    eye = T.tensor(np.eye(c).reshape(c, c, 1, 1), dtype=x.dtype)
    zero = T.tensor(np.zeros(c), dtype=x.dtype)
    return conv_ffn(x, eye, zero, eye, zero)


def rand(rng, *shape):
    return rng.normal(size=shape)


@pytest.mark.parametrize("seed", range(5))
def test_matmul_grad(seed):
    rng = np.random.default_rng(seed)
    m, k, p = rng.integers(1, 5, size=3)
    a = rand(rng, m, k)
    b = rand(rng, k, p)
    proj = rand(rng, m * p)
    check(lambda x, y: scalarize(matmul(x, y), proj), [a, b])


def test_matmul_grad_sum_oracle_3x4_by_4x2():
    rng = np.random.default_rng(42)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    ones = np.ones(3 * 2)
    check(lambda x, y: scalarize(matmul(x, y), ones), [a, b])


@pytest.mark.parametrize("seed,kh,pad", [(0, 1, 0), (1, 1, 1), (2, 2, 0), (3, 2, 1), (4, 3, 1)])
def test_conv2d_grad(seed, kh, pad):
    rng = np.random.default_rng(seed)
    x = rand(rng, 2, 5, 6, 2)
    w = rand(rng, 3, 2, kh, 3)
    b = rand(rng, 3)
    ho, wo = 5 + 2 * pad - kh + 1, 6 + 2 * pad - 3 + 1
    proj = rand(rng, 2 * ho * wo * 3)
    check(lambda xx, ww, bb: scalarize(T.conv2d(xx, ww, bb, pad), proj), [x, w, b])


def test_conv2d_grad_spec_shape():
    # random 2x8x8x3 (channels-last) against a 4x3x3x3 kernel, full check over x, w, b
    rng = np.random.default_rng(11)
    x = rand(rng, 2, 8, 8, 3)
    w = rand(rng, 4, 3, 3, 3)
    b = rand(rng, 4)
    proj = rand(rng, 2 * 6 * 6 * 4)
    check(lambda xx, ww, bb: scalarize(T.conv2d(xx, ww, bb, 0), proj), [x, w, b])


@pytest.mark.parametrize("seed", range(5))
def test_softmax_grad(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 9))
    x = rand(rng, n)
    proj = rand(rng, n)
    check(lambda xx: scalarize(softmax(xx, 0), proj), [x])


def test_softmax_grad_length7_sums_to_one():
    rng = np.random.default_rng(77)
    x = rand(rng, 7)
    out = softmax(T.tensor(x, dtype=np.float64), 0).data
    assert abs(out.sum() - 1.0) < 1e-12
    proj = rand(rng, 7)
    check(lambda xx: scalarize(softmax(xx, 0), proj), [x])


@pytest.mark.parametrize("seed", range(5))
def test_softmax_grad_matrix_rows(seed):
    rng = np.random.default_rng(200 + seed)
    x = rand(rng, 3, 4)
    proj = rand(rng, 12)
    check(lambda xx: scalarize(softmax(xx, 1), proj), [x])


@pytest.mark.parametrize("seed", range(5))
def test_layer_norm_grad(seed):
    rng = np.random.default_rng(300 + seed)
    x = rand(rng, 2, 3, 4)
    gamma = rand(rng, 4)
    beta = rand(rng, 4)
    proj = rand(rng, x.size)
    check(lambda xx, gg, bb: scalarize(T.layer_norm(xx, gg, bb), proj), [x, gamma, beta])


def test_gelu_grad_at_fixed_points():
    for v in (-2.0, 0.5, 3.0):
        x = np.array([v])
        check(lambda xx: scalarize(gelu(xx), np.ones(1)), [x])


@pytest.mark.parametrize("seed", range(5))
def test_gelu_grad_random(seed):
    rng = np.random.default_rng(400 + seed)
    x = rand(rng, 3, 5)
    proj = rand(rng, 15)
    check(lambda xx: scalarize(gelu(xx), proj), [x])


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_and_shape_op_grads(seed):
    rng = np.random.default_rng(600 + seed)
    a = rand(rng, 2, 3, 4)
    b = rand(rng, 2, 3, 4)
    proj = rand(rng, 24)

    def build(x, y):
        s = T.add(gelu(x), scale(y, 0.7))
        s = T.transpose(s, (1, 0, 2))
        s = T.reshape(s, (3, 8))
        parts = split(s, 2, axis=1)
        s = concat(parts[::-1], axis=1)
        return scalarize(s, proj)

    check(build, [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_mean_grad(seed):
    rng = np.random.default_rng(700 + seed)
    x = rand(rng, 3, 4, 2)
    proj = rand(rng, 4)
    check(lambda xx: scalarize(T.mean(xx, axes=(0, 2)), proj), [x])


def test_grad_through_fanout():
    # one tensor as both operands of a matmul and the input of a second
    # branch: both operand gradients and the branch accumulate into it
    rng = np.random.default_rng(8)
    x = rand(rng, 2, 2)
    proj = rand(rng, 8)
    check(lambda xx: scalarize(
        concat([matmul(xx, xx), scale(xx, 2.0)], axis=0), proj), [x])
