"""Forward semantics of the tensor engine: frozen examples, errors, round-trips."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padformer import tensor as T
from oracles import conv2d_naive


def t64(x):
    return T.tensor(x, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        a = t64(np.eye(2))
        b = t64([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_selector_row(self):
        out = T.matmul(t64([[1.0, 0.0]]), t64([[5.0], [7.0]]))
        assert np.array_equal(out.data, [[5.0]])

    def test_inner_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError) as exc:
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_batch_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            T.matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((3, 4, 5))))


class TestConv2d:
    def test_scalar_kernel_doubles(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        w = np.full((1, 1, 1, 1), 2.0)
        out = T.conv2d(t64(x), t64(w), t64(np.zeros(1)), stride=1, pad=0)
        assert np.array_equal(out.data, 2.0 * x)

    def test_sum_pooling(self):
        x = np.ones((1, 1, 4, 4))
        w = np.ones((1, 1, 2, 2))
        out = T.conv2d(t64(x), t64(w), t64(np.zeros(1)), stride=2, pad=0)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive_oracle(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = T.conv2d(t64(x), t64(w), t64(b), stride=stride, pad=pad)
        ref = conv2d_naive(x, w, b, stride, pad)
        assert np.abs(out.data - ref).max() < 1e-6

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(t64(np.zeros((1, 1, 3, 3))), t64(np.zeros((1, 1, 5, 5))),
                     t64(np.zeros(1)), stride=1, pad=0)

    def test_channel_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(t64(np.zeros((1, 2, 4, 4))), t64(np.zeros((1, 3, 2, 2))),
                     t64(np.zeros(1)), stride=1, pad=0)

    def test_input_gradient_only_for_a_param_or_taped_input(self):
        rng = np.random.default_rng(3)
        w, b = T.param(rng.normal(size=(2, 3, 2, 2))), T.param(np.zeros(2))
        x = rng.normal(size=(2, 3, 4, 4))
        const, leaf = t64(x), T.param(x)
        with T.Tape():
            taped = T.scale(t64(x), 1.0)
            grads = {}
            for name, inp in (("const", const), ("leaf", leaf), ("taped", taped)):
                out = T.conv2d(inp, w, b, stride=2, pad=0)
                grads[name] = out.node.backward(np.ones(out.shape))
        assert grads["const"][0] is None
        assert np.array_equal(grads["leaf"][0], grads["taped"][0])
        assert grads["leaf"][0].shape == x.shape
        for name in ("const", "taped"):
            assert np.array_equal(grads[name][1], grads["leaf"][1])


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(t64([0.0, 0.0]), axis=0)
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_max_subtraction_prevents_overflow(self):
        out = T.softmax(t64([1000.0, 0.0]), axis=0)
        assert np.array_equal(out.data, [1.0, 0.0])

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one_and_nonnegative(self, values):
        out = T.softmax(t64(values), axis=0).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-10


class TestLayerNorm:
    def test_constant_vector_zeroed_by_eps(self):
        x = t64(np.full((5,), 3.7))
        out = T.layer_norm(x, 0, t64(np.ones(5)), t64(np.zeros(5)), eps=1e-5)
        assert np.allclose(out.data, 0.0)

    def test_two_point_standardization(self):
        out = T.layer_norm(t64([1.0, 3.0]), 0, t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_per_position_mean_vanishes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6, 3, 3))
        out = T.layer_norm(t64(x), 1, t64(np.ones(6)), t64(np.zeros(6)))
        assert np.abs(out.data.mean(axis=1)).max() < 1e-6

    def test_affine_length_checked(self):
        with pytest.raises(T.ShapeError):
            T.layer_norm(t64(np.zeros((2, 4))), 1, t64(np.ones(3)), t64(np.zeros(3)))


class TestShapeOps:
    def test_concat_rows(self):
        out = T.concat([t64([[1.0, 2.0]]), t64([[3.0, 4.0]])], axis=0)
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_split_concat_roundtrip_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 3)).astype(np.float32)
        parts = T.split(T.Tensor(x), 3, axis=1)
        assert all(p.shape == (2, 2, 3) for p in parts)
        back = T.concat(parts, axis=1)
        assert np.array_equal(back.data, x)

    def test_reshape_transpose_roundtrip_bitwise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 5))
        y = T.transpose(T.reshape(t64(x), (4, 3, 5)), (2, 0, 1))
        z = T.reshape(T.transpose(y, (1, 2, 0)), (3, 4, 5))
        assert np.array_equal(z.data, x)

    def test_split_indivisible(self):
        with pytest.raises(T.ShapeError):
            T.split(t64(np.zeros((5, 2))), 2, axis=0)

    def test_concat_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.concat([t64(np.zeros((1, 2))), t64(np.zeros((1, 3)))], axis=0)

    def test_add_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.add(t64(np.zeros(3)), t64(np.zeros(4)))

    def test_mean_axes(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        out = T.mean(t64(x), axes=(0, 2))
        assert np.allclose(out.data, x.mean(axis=(0, 2)))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_reshape_preserves_buffer(self, a, b, c):
        x = np.arange(a * b * c, dtype=np.float64).reshape(a, b, c)
        out = T.reshape(t64(x), (c, b, a))
        assert np.array_equal(out.data.reshape(-1), x.reshape(-1))


class TestBackwardBasics:
    def test_grad_of_sum_is_ones(self):
        with T.Tape():
            x = T.param(np.random.default_rng(0).normal(size=(3, 4)), dtype=np.float64)
            loss = T.mean(T.scale(x, 12.0), axes=(0, 1))
            T.backward(loss)
        assert np.allclose(x.grad, 1.0)

    def test_quadratic(self):
        with T.Tape():
            x = T.param([1.0, 2.0], dtype=np.float64)
            loss = T.mean(T.scale(T.mul(x, x), 2.0), axes=(0,))
            T.backward(loss)
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with T.Tape():
            x = T.param([1.0, 2.0], dtype=np.float64)
            y = T.mul(x, x)
            with pytest.raises(ValueError):
                T.backward(y)

    def test_detached_loss_rejected(self):
        x = T.param([1.0], dtype=np.float64)
        with pytest.raises(ValueError):
            T.backward(x)

    def test_repeated_backward_accumulates(self):
        with T.Tape():
            x = T.param([3.0], dtype=np.float64)
            loss = T.mean(T.mul(x, x), axes=(0,))
            T.backward(loss)
            T.backward(loss)
        assert np.allclose(x.grad, [12.0])
        x.zero_grad()
        assert x.grad is None

    def test_tape_exit_frees_saved_arrays_without_the_cycle_collector(self):
        gc.disable()
        try:
            x = T.param([0.5, -1.0, 2.0], dtype=np.float64)
            with T.Tape():
                h = T.scale(x, 3.0)
                T.backward(T.mean(T.gelu(h), axes=(0,)))   # gelu saves h.data
                saved = weakref.ref(h.data)
                del h
            assert saved() is None
        finally:
            gc.enable()


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = T.param([1.0], dtype=np.float64)
        p.grad = np.array([0.37])
        state = T.AdamState({"p": p})
        T.adam_step({"p": p}, state, lr=0.01)
        assert abs(p.data[0] - (1.0 - 0.01)) < 1e-6

    def test_zero_grad_leaves_param_unchanged(self):
        p = T.param([1.0, -2.0], dtype=np.float64)
        p.grad = np.zeros(2)
        state = T.AdamState({"p": p})
        before = p.data.copy()
        T.adam_step({"p": p}, state, lr=0.5)
        assert np.array_equal(p.data, before)

    def test_missing_grad_skipped(self):
        p = T.param([1.0], dtype=np.float64)
        state = T.AdamState({"p": p})
        T.adam_step({"p": p}, state, lr=0.5)
        assert np.array_equal(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = T.param([5.0], dtype=np.float64)
        state = T.AdamState({"x": p})
        for _ in range(100):
            p.grad = 2.0 * p.data
            T.adam_step({"x": p}, state, lr=0.1)
            p.zero_grad()
        assert abs(p.data[0]) < 0.5
