"""Forward semantics of the tensor engine: frozen examples, errors, round-trips."""

import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padformer import tensor as T
from oracles import (concat, conv2d_backward_naive, conv2d_naive, conv2d_plain,
                     layer_norm_plain, scale, softmax, split)
from test_gradients import gelu


def t64(x):
    return T.tensor(x, dtype=np.float64)


def test_every_engine_export_is_used_by_the_program():
    # the engine keeps only what the model and harness call: each public
    # name appears in another module as ``tt.<name>`` or ``from .tensor import``
    used = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "tt"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module == "tensor":
                used.update(alias.name for alias in node.names)
    assert sorted(set(T.__all__) - used) == []


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency, init_params' truncated normal included
    importers = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.name)
    assert importers == set()


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

    def test_input_gradient_only_for_a_param_or_taped_input(self):
        # a constant operand (the embed's frame patches) gets None; the other
        # operand's gradient is the one it gets when both are computed
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 3, 4))
        g = rng.normal(size=(2, 5, 4))
        with T.Tape():
            grads = {}
            for name, make in (("const", t64), ("leaf", T.param),
                               ("taped", lambda v: scale(t64(v), 1.0))):
                out = T.matmul(make(a), T.param(b))
                grads[name, "a"] = out.node.backward(g)
                out = T.matmul(T.param(a), make(b))
                grads[name, "b"] = out.node.backward(g)
        assert grads["const", "a"][0] is None and grads["const", "b"][1] is None
        want_ga = np.matmul(g, b.transpose(0, 2, 1))
        want_gb = np.matmul(a.transpose(0, 2, 1), g)
        for name in ("const", "leaf", "taped"):
            assert np.array_equal(grads[name, "a"][1], want_gb)
            assert np.array_equal(grads[name, "b"][0], want_ga)
        for name in ("leaf", "taped"):
            assert np.array_equal(grads[name, "a"][0], want_ga)
            assert np.array_equal(grads[name, "b"][1], want_gb)


def channels_last(a):
    return np.ascontiguousarray(np.moveaxis(a, -3, -1))


def channels_first(a):
    return np.moveaxis(a, -1, -3)


class TestConv2d:
    # conv2d takes [..., H, W, C] maps; the loop oracles take [N, C, H, W]

    def test_scalar_kernel_doubles(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
        w = np.full((1, 1, 1, 1), 2.0)
        out = T.conv2d(t64(x), t64(w), t64(np.zeros(1)), pad=0)
        assert np.array_equal(out.data, 2.0 * x)

    def test_sum_pooling(self):
        x = np.ones((1, 4, 4, 1))
        w = np.ones((1, 1, 2, 2))
        out = T.conv2d(t64(x), t64(w), t64(np.zeros(1)), pad=0)
        assert out.shape == (1, 3, 3, 1)
        assert np.array_equal(out.data, np.full((1, 3, 3, 1), 4.0))

    @pytest.mark.parametrize("k,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive_oracle(self, k, pad):
        rng = np.random.default_rng(k * 10 + pad)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        out = T.conv2d(t64(channels_last(x)), t64(w), t64(b), pad=pad)
        ref = conv2d_naive(x, w, b, 1, pad)
        assert np.abs(channels_first(out.data) - ref).max() < 1e-6

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(t64(np.zeros((1, 3, 3, 1))), t64(np.zeros((1, 1, 5, 5))),
                     t64(np.zeros(1)), pad=0)

    def test_channel_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(t64(np.zeros((1, 4, 4, 2))), t64(np.zeros((1, 3, 2, 2))),
                     t64(np.zeros(1)), pad=0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), lead=st.sampled_from([(1,), (3,), (2, 2)]),
           cin=st.integers(1, 5), cout=st.integers(1, 3),
           kh=st.integers(1, 4), kw=st.integers(1, 4),
           pad=st.integers(0, 2), dh=st.integers(0, 4), dw=st.integers(0, 4),
           dtype=st.sampled_from([np.float32, np.float64]))
    @example(seed=0, lead=(2, 2), cin=3, cout=2, kh=3, kw=2, pad=0,
             dh=1, dw=2, dtype=np.float32)                  # unpadded, kw < kh
    @example(seed=1, lead=(3,), cin=2, cout=3, kh=2, kw=4, pad=2,
             dh=0, dw=0, dtype=np.float64)                  # pad 2
    @example(seed=2, lead=(2, 2), cin=4, cout=3, kh=1, kw=1, pad=0,
             dh=2, dw=3, dtype=np.float32)                  # the FFN's 1x1 GEMM
    def test_forward_and_gradients_match_loop_oracles(self, seed, lead, cin, cout, kh, kw,
                                                      pad, dh, dw, dtype):
        rng = np.random.default_rng(seed)
        h, wid = max(1, kh - 2 * pad) + dh, max(1, kw - 2 * pad) + dw
        x = rng.normal(size=lead + (h, wid, cin)).astype(dtype)
        w = rng.normal(size=(cout, cin, kh, kw)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        xt, wt, bt = T.param(x), T.param(w), T.param(b)
        with T.Tape():
            out = T.conv2d(xt, wt, bt, pad=pad)
            g = rng.normal(size=out.shape).astype(dtype)
            gx, gw, gb = out.node.backward(g)
        x64 = channels_first(x.reshape((-1,) + x.shape[-3:])).astype(np.float64)
        w64 = w.astype(np.float64)
        ref = conv2d_naive(x64, w64, b.astype(np.float64), 1, pad)
        g64 = channels_first(g.reshape((-1,) + g.shape[-3:])).astype(np.float64)
        ref_gx, ref_gw, ref_gb = conv2d_backward_naive(x64, w64, g64, 1, pad)
        tol = 1e-4 if dtype == np.float32 else 1e-10
        for got, want in ((channels_first(out.data), ref), (channels_first(gx), ref_gx),
                          (gw, ref_gw), (gb, ref_gb)):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want.reshape(got.shape), rtol=tol, atol=tol)
        assert out.shape == lead + channels_last(ref).shape[1:] and gx.shape == x.shape


class TestSoftmax:
    # the unfused attention oracle's softmax primitive
    def test_symmetry(self):
        out = softmax(t64([0.0, 0.0]), axis=0)
        assert np.array_equal(out.data, [0.5, 0.5])

    def test_max_subtraction_prevents_overflow(self):
        out = softmax(t64([1000.0, 0.0]), axis=0)
        assert np.array_equal(out.data, [1.0, 0.0])

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one_and_nonnegative(self, values):
        out = softmax(t64(values), axis=0).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-10


class TestLayerNorm:
    def test_constant_vector_zeroed_by_eps(self):
        x = t64(np.full((5,), 3.7))
        out = T.layer_norm(x, t64(np.ones(5)), t64(np.zeros(5)), eps=1e-5)
        assert np.allclose(out.data, 0.0)

    def test_two_point_standardization(self):
        out = T.layer_norm(t64([1.0, 3.0]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_per_position_mean_vanishes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 3, 6))
        out = T.layer_norm(t64(x), t64(np.ones(6)), t64(np.zeros(6)))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-6

    def test_affine_length_checked(self):
        with pytest.raises(T.ShapeError):
            T.layer_norm(t64(np.zeros((2, 4))), t64(np.ones(3)), t64(np.zeros(3)))


class TestShapeOps:
    def test_concat_rows(self):
        out = concat([t64([[1.0, 2.0]]), t64([[3.0, 4.0]])], axis=0)
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_split_concat_roundtrip_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 3)).astype(np.float32)
        parts = split(T.Tensor(x), 3, axis=1)
        assert all(p.shape == (2, 2, 3) for p in parts)
        back = concat(parts, axis=1)
        assert np.array_equal(back.data, x)

    def test_reshape_transpose_roundtrip_bitwise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 5))
        y = T.transpose(T.reshape(t64(x), (4, 3, 5)), (2, 0, 1))
        z = T.reshape(T.transpose(y, (1, 2, 0)), (3, 4, 5))
        assert np.array_equal(z.data, x)

    def test_split_indivisible(self):
        with pytest.raises(T.ShapeError):
            split(t64(np.zeros((5, 2))), 2, axis=0)

    def test_concat_mismatch(self):
        with pytest.raises(T.ShapeError):
            concat([t64(np.zeros((1, 2))), t64(np.zeros((1, 3)))], axis=0)

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


def squared_norm(x):
    """x . x as a scalar; x reaches the matmul through both operands."""
    n = x.size
    return T.reshape(T.matmul(T.reshape(x, (1, n)), T.reshape(x, (n, 1))), ())


class TestBackwardBasics:
    def test_grad_of_sum_is_ones(self):
        with T.Tape():
            x = T.param(np.random.default_rng(0).normal(size=(3, 4)))
            loss = T.mean(scale(x, 12.0), axes=(0, 1))
            T.backward(loss)
        assert np.allclose(x.grad, 1.0)

    def test_quadratic(self):
        with T.Tape():
            x = T.param([1.0, 2.0])
            T.backward(squared_norm(x))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with T.Tape():
            x = T.param([1.0, 2.0])
            y = scale(x, 2.0)
            with pytest.raises(ValueError):
                T.backward(y)

    def test_detached_loss_rejected(self):
        x = T.param([1.0])
        with pytest.raises(ValueError):
            T.backward(x)

    def test_repeated_backward_accumulates(self):
        with T.Tape():
            x = T.param([3.0])
            loss = squared_norm(x)
            T.backward(loss)
            T.backward(loss)
        assert np.allclose(x.grad, [12.0])

    def test_tape_exit_frees_saved_arrays_without_the_cycle_collector(self):
        gc.disable()
        try:
            x = T.param([0.5, -1.0, 2.0])
            with T.Tape():
                h = scale(x, 3.0)
                T.backward(T.mean(gelu(h), axes=(0,)))   # the FFN saves a view of h.data
                saved = weakref.ref(h.data)
                del h
            assert saved() is None
        finally:
            gc.enable()


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = T.param([1.0])
        p.grad = np.array([0.37])
        state = T.AdamState({"p": p})
        T.adam_step({"p": p}, state, lr=0.01)
        assert abs(p.data[0] - (1.0 - 0.01)) < 1e-6

    def test_zero_grad_leaves_param_unchanged(self):
        p = T.param([1.0, -2.0])
        p.grad = np.zeros(2)
        state = T.AdamState({"p": p})
        before = p.data.copy()
        T.adam_step({"p": p}, state, lr=0.5)
        assert np.array_equal(p.data, before)

    def test_missing_grad_skipped(self):
        p = T.param([1.0])
        state = T.AdamState({"p": p})
        T.adam_step({"p": p}, state, lr=0.5)
        assert np.array_equal(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = T.param([5.0])
        state = T.AdamState({"x": p})
        for _ in range(100):
            p.grad = 2.0 * p.data
            T.adam_step({"x": p}, state, lr=0.1)
        assert abs(p.data[0]) < 0.5


# ---------------------------------------------------------------------------
# run-wise layout copies and row-tiled channel broadcasts: bitwise the plain ones

FLOATS = st.sampled_from([np.float32, np.float64])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), dtype=FLOATS, n=st.integers(1, 300),
       c=st.integers(1, 48))
def test_channel_rows_broadcast_is_the_plain_broadcast(seed, dtype, n, c):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c)).astype(dtype)
    v, u = rng.normal(size=(2, c)).astype(dtype)
    rows, tv, tu = T.channel_rows(x, v, u)
    assert rows.shape[1] % c == 0 and rows.size == x.size
    assert ((rows * tv + tu).reshape(x.shape).tobytes() == (x * v + u).tobytes())
    want = (x + v).tobytes()
    rows += tv                                  # in place, through the view
    assert x.tobytes() == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dtype=FLOATS,
       lead=st.lists(st.integers(1, 9), min_size=1, max_size=3), c=st.integers(1, 13),
       trail=st.sampled_from([(), (2,)]))
def test_bias_add_is_the_plain_broadcast(seed, dtype, lead, c, trail):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=tuple(lead) + (c,) + trail).astype(dtype)
    b = rng.normal(size=(c,) + trail).astype(dtype)
    out = T.add(T.tensor(a, dtype), T.tensor(b, dtype))
    assert out.data.tobytes() == (a + b).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dtype=FLOATS,
       lead=st.sampled_from([(1,), (3,), (2, 3), (5, 7)]), hw=st.integers(1, 7),
       cin=st.integers(1, 12), cout=st.integers(1, 36), k=st.sampled_from([1, 3]),
       pad=st.integers(0, 1))
def test_conv2d_forward_is_the_plain_im2col_and_bias(seed, dtype, lead, hw, cin, cout, k, pad):
    # row counts n * Ho * Wo range over values that 64 does not divide
    if hw + 2 * pad < k:
        pad = 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=lead + (hw, hw + 1, cin)).astype(dtype)
    w = rng.normal(size=(cout, cin, k, k)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    out = T.conv2d(T.tensor(x, dtype), T.tensor(w, dtype), T.tensor(b, dtype), pad=pad)
    assert out.data.tobytes() == conv2d_plain(x, w, b, pad).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dtype=FLOATS,
       lead=st.sampled_from([(1,), (7,), (2, 3, 5), (16, 8, 4, 4)]), c=st.integers(1, 48))
def test_layer_norm_is_the_plain_broadcast_forward_and_backward(seed, dtype, lead, c):
    rng = np.random.default_rng(seed)
    x, g = (rng.normal(size=lead + (c,)).astype(dtype) for _ in range(2))
    gamma, beta = (rng.normal(size=c).astype(dtype) for _ in range(2))
    want_out, want_grads = layer_norm_plain(x, gamma, beta, g)
    out = T.layer_norm(T.tensor(x, dtype), T.param(gamma), T.param(beta))
    assert out.data.tobytes() == want_out.tobytes()
    x_t, gamma_t, beta_t = T.param(x), T.param(gamma), T.param(beta)
    with T.Tape():
        out = T.layer_norm(x_t, gamma_t, beta_t)
        grads = out.node.backward(g)
    for got, want in zip(grads, want_grads):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_reshape_runs_views_where_reshape_views_and_copies_other_layouts():
    base = np.arange(2 * 4 * 6 * 9, dtype=np.float32).reshape(2, 4, 6, 9)
    view = base[:, :, :, 3:6]                    # one channel slice: runs of 3
    merged = T.reshape_runs(view, (8, 6, 3))     # leading axes merge as a view
    assert np.shares_memory(merged, base) and np.array_equal(merged, view.reshape(8, 6, 3))
    copied = T.reshape_runs(view, (8, 18))
    assert not np.shares_memory(copied, base) and copied.flags.c_contiguous
    assert np.array_equal(copied, view.reshape(8, 18))
    moved = view.transpose(1, 0, 2, 3)
    assert np.array_equal(T.reshape_runs(moved, (8, 18)), moved.reshape(8, 18))
    flipped = base[..., ::-1]                    # no contiguous run: a plain reshape
    assert np.array_equal(T.reshape_runs(flipped, (48, 9)), flipped.reshape(48, 9))
