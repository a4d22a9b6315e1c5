"""Multi-scale attention: partition bookkeeping, oracle equivalence, the
primitive's gradients against the unfused composition, rollout."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padformer import tensor as T
from padformer.attention import (AttentionRecord, attention_rollout,
                                 multiscale_attention, partition_patches,
                                 unpartition_patches)
from padformer.tensor import ShapeError

from gradcheck import scalarize
from oracles import (attention_rollout_loop, cell_of, frame_of, head_attention,
                     multiscale_attention_naive, multiscale_attention_unfused,
                     partition_plain, partition_taped, short_long_masks, split,
                     unpartition_plain, unpartition_taped)


def rand_map(rng, t, c, h, w):
    """A channels-last [T, H, W, C] map of a [T, C, H, W] normal draw."""
    return T.tensor(rng.normal(size=(t, c, h, w)).transpose(0, 2, 3, 1), dtype=np.float64)


def fuse(q, k, v):
    """The [..., 3C] map of three channels-last arrays, in [q | k | v] order."""
    return T.tensor(np.concatenate([q, k, v], axis=-1), dtype=np.float64)


def thirds(qkv):
    """The q, k and v arrays of a fused map."""
    return np.split(qkv.data, 3, axis=-1)


def rand_qkv(seed, t, c, h, w):
    """A fused [T, H, W, 3C] map of three C-channel normal draws."""
    rng = np.random.default_rng(seed)
    return fuse(*(rand_map(rng, t, c, h, w).data for _ in range(3)))


def naive(qkv, scales):
    """The channels-first loop oracle, applied to a fused channels-last map."""
    out = multiscale_attention_naive(*(m.transpose(0, 3, 1, 2) for m in thirds(qkv)),
                                     scales)
    return out.transpose(0, 2, 3, 1)


def record_for(n, scale, alpha=None):
    """An AttentionRecord over ``n`` tokens of a 4x4 map; uniform weights by
    default."""
    alpha = np.full((n, n), 1.0 / n) if alpha is None else alpha
    return AttentionRecord(layer=0, head=0, scale=scale, alpha=alpha, map_h=4, map_w=4)


def gamma(u, k):
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of a k-term
    sum or product in unit roundoff u."""
    return k * u / (1 - k * u)


def attention_error_bound(dtype, n, d, m, vmax):
    """Largest |o - o_exact| of one head's softmax attention over n tokens of d
    channels computed in ``dtype``, for inputs with s * sum_i |q_i| |k_i| <= m
    over every (query, key) pair (s = 1/sqrt(d)) and |v| <= vmax. u is the
    dtype's epsilon (2**-23 for float32), twice its unit roundoff.

    - Each score is off by at most gamma_{d+2} * m: s rounded, the product by
      s, and the d-term dot product. The shift by a row maximum adds u times
      |score - max| <= 2m, so each exponent is off by E <= gamma_{d+4} * m.
    - exp rounds within 3 ulp (numpy's float32 exp measured 2.42 ulp at most
      on 2**24 draws from [-104, 0]), so each unnormalised weight is off by a
      factor within [1/(1+rho), 1+rho], rho = exp(E)(1 + 3u) - 1.
    - The row sum and the weighted sum of v are sums of n non-negative weights
      (gamma_n each) and normalising rounds twice (gamma_2). Every weight of
      the output is then alpha_k times a factor within [1/F, F], so the output
      is off by at most (F - 1) * vmax.
    - exp underflows below the smallest normal number; against a row sum of
      at least 1 (the maximum's exp(0)), that adds n * tiny * vmax.
    """
    u, tiny = np.finfo(dtype).eps, np.finfo(dtype).tiny
    rho = math.exp(gamma(u, d + 4) * m) * (1 + 3 * u) - 1
    f = (1 + rho) * (1 + gamma(u, n)) * (1 + gamma(u, 2)) / ((1 - rho) * (1 - gamma(u, n)))
    return (f - 1) * vmax + n * tiny * vmax


def assert_within_oracle_bound(got, qkv, scales):
    """Check the [..., C] output ``got`` of ``qkv`` head by head against the
    float64 unfused oracle on the same inputs, within the bound of the
    computation in got's precision plus the oracle's own; return the largest
    error as a fraction of its bound."""
    x = qkv.astype(np.float64)
    want = multiscale_attention_unfused(T.tensor(x, dtype=np.float64), tuple(scales)).data
    width = x.shape[-1] // (3 * len(scales))
    worst = 0.0
    for i, l in enumerate(scales):
        q, k, v = (partition_patches(x[..., (j * len(scales) + i) * width:
                                          (j * len(scales) + i + 1) * width], l)
                   for j in range(3))
        n, d = q.shape[-2:]
        m = (np.abs(q) @ np.swapaxes(np.abs(k), -1, -2)).max() / math.sqrt(d)
        vmax = np.abs(v).max()
        bound = (attention_error_bound(got.dtype, n, d, m, vmax)
                 + attention_error_bound(np.float64, n, d, m, vmax))
        cols = slice(i * width, (i + 1) * width)
        err = np.abs(got[..., cols].astype(np.float64) - want[..., cols]).max()
        assert np.isfinite(got[..., cols]).all()
        assert err <= bound, (i, l, err, bound)
        worst = max(worst, err / bound)
    return worst


# ---------------------------------------------------------------- partition

@pytest.mark.parametrize("t", [1, 2, 4, 8])
@pytest.mark.parametrize("l", [1, 2, 4])
def test_patch_count_is_frames_times_scale_squared(t, l):
    f = np.zeros((t, 8, 8, 2))
    assert partition_patches(f, l).shape == (t * l * l, 2 * (8 // l) * (8 // l))


def test_patch_counts_for_eight_frames():
    f = np.zeros((8, 8, 8, 3))
    assert partition_patches(f, 1).shape[-2] == 8
    assert partition_patches(f, 2).shape[-2] == 32
    assert partition_patches(f, 4).shape[-2] == 128


def test_partition_order_and_bookkeeping():
    # frame-major then grid row then grid column
    n = partition_patches(np.zeros((2, 4, 4, 1)), 2).shape[-2]
    rec = record_for(n, scale=2)
    assert frame_of(rec).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert cell_of(rec)[:4].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert cell_of(rec)[4:].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_partition_token_contents():
    x = np.arange(2 * 4 * 4 * 2, dtype=np.float32).reshape(2, 4, 4, 2)
    tokens = partition_patches(x, 2)
    # token 1 is frame 0, grid cell (0, 1): rows 0..1, cols 2..3, in
    # (row, column, channel) order
    assert np.array_equal(tokens[1], x[0, 0:2, 2:4, :].reshape(-1))
    # token 6 is frame 1, grid cell (1, 0)
    assert np.array_equal(tokens[6], x[1, 2:4, 0:2, :].reshape(-1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(1, 4), scale=st.integers(1, 4),
       channels=st.integers(1, 3), cell=st.integers(1, 3),
       batch=st.sampled_from([None, 1, 2, 3]))
def test_partition_order_matches_record_bookkeeping(seed, t, scale, channels, cell, batch):
    # token i of a clip is the map cell (frame_of(r)[i], cell_of(r)[i]) of that clip's
    # record: the mapping export-attention paints heat maps by
    rng = np.random.default_rng(seed)
    side = scale * cell
    lead = () if batch is None else (batch,)
    x = T.tensor(rng.normal(size=lead + (t, side, side, channels)), dtype=np.float64)
    tokens = partition_patches(x.data, scale)
    recs = []
    multiscale_attention(fuse(x.data, x.data, x.data), (scale,), records=recs)
    assert [r.clip for r in recs] == list(range(batch or 1))
    for r in recs:
        clip_map = x.data if batch is None else x.data[r.clip]
        clip_tokens = tokens if batch is None else tokens[r.clip]
        assert r.alpha.shape == (t * scale * scale,) * 2
        for i, (frame, (row, col)) in enumerate(zip(frame_of(r), cell_of(r))):
            patch = clip_map[frame, row * cell:(row + 1) * cell,
                             col * cell:(col + 1) * cell]
            assert np.array_equal(clip_tokens[i], patch.reshape(-1))


@pytest.mark.parametrize("t,l", [(1, 1), (2, 2), (4, 4), (3, 2)])
def test_partition_unpartition_round_trip_bitwise(t, l):
    rng = np.random.default_rng(t * 10 + l)
    x = rng.normal(size=(t, 8, 8, 3)).astype(np.float32)
    assert np.array_equal(unpartition_patches(partition_patches(x, l), x.shape, l), x)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), dtype=st.sampled_from([np.float32, np.float64]),
       scales=st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3),
       width=st.integers(1, 6), cell=st.integers(1, 3), t=st.integers(1, 3),
       batch=st.sampled_from([(), (1,), (3,)]))
def test_run_wise_partition_is_the_plain_copy_on_channel_slices(
        seed, dtype, scales, width, cell, t, batch):
    # each head's q, k and v are channel slices of one [..., 3, heads, width]
    # view of the projection, as multiscale_attention takes them
    heads = len(scales)
    side = 4 * cell
    rng = np.random.default_rng(seed)
    qkv = rng.normal(size=batch + (t, side, side, 3 * heads * width)).astype(dtype)
    parts = qkv.reshape(qkv.shape[:-1] + (3, heads, width))
    for i, l in enumerate(scales):
        for j in range(3):
            f = parts[..., j, i, :]
            got = partition_patches(f, l)
            want = partition_plain(f, l)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            back = unpartition_patches(got * 2.0, f.shape, l)
            assert back.tobytes() == unpartition_plain(want * 2.0, f.shape, l).tobytes()
            assert np.array_equal(back, 2.0 * f)


def test_partition_rejects_indivisible_extent():
    with pytest.raises(ShapeError):
        partition_patches(np.zeros((1, 6, 6, 2)), 4)


def test_unpartition_rejects_tokens_of_another_map():
    tokens = partition_patches(rand_map(np.random.default_rng(8), 2, 2, 4, 4).data, 1)
    with pytest.raises(ShapeError):
        unpartition_patches(tokens, (2, 8, 8, 2), 2)


# ----------------------------------------------------------- head attention

def test_single_token_attention_is_identity():
    qkv = rand_qkv(0, 1, 2, 3, 3)
    recs = []
    out = multiscale_attention(qkv, (1,), records=recs)
    assert np.array_equal(recs[0].alpha, np.array([[1.0]]))
    assert np.array_equal(out.data, thirds(qkv)[2])


def test_uniform_keys_average_the_values():
    rng = np.random.default_rng(1)
    frame = rng.normal(size=(1, 2, 4, 4))
    k = np.broadcast_to(frame, (4, 2, 4, 4)).transpose(0, 2, 3, 1)
    q, _, v = thirds(rand_qkv(2, 4, 2, 4, 4))
    recs = []
    out = multiscale_attention(fuse(q, k, v), (1,), records=recs)
    assert np.allclose(recs[0].alpha, 0.25)
    want = v.mean(axis=0)
    assert np.allclose(out.data, np.broadcast_to(want, out.shape), atol=1e-12)


def test_head_attention_matches_double_loop_oracle():
    # one head over all channels: T=2, l=2, C=2, 4x4 maps
    qkv = rand_qkv(3, 2, 2, 4, 4)
    got = multiscale_attention(qkv, (2,))
    want = naive(qkv, [2])
    assert np.allclose(got.data, want, atol=1e-6)


def test_head_attention_rejects_mismatched_token_sets():
    # the unfused oracle's head attention; the primitive checks its maps up front
    q, k, v = split(rand_qkv(4, 2, 2, 4, 4), 3, -1)
    with pytest.raises(ShapeError):
        head_attention(partition_taped(q, 2), partition_taped(k, 1), partition_taped(v, 2))


# -------------------------------------------------------------- reassembly

def test_reassemble_single_full_frame_head_is_identity():
    # one full-frame head: the module's output is that head's attended
    # tokens (the unfused oracle's) put back in place, with no concat
    qkv = rand_qkv(5, 2, 3, 4, 4)
    q, k, v = split(qkv, 3, -1)
    att, _ = head_attention(partition_taped(q, 1), partition_taped(k, 1),
                            partition_taped(v, 1))
    np.testing.assert_allclose(multiscale_attention(qkv, (1,)).data,
                               unpartition_taped(att, v.shape, 1).data, rtol=0, atol=1e-12)


def test_reassemble_concatenates_channels():
    # head i fills channel slice i of the output
    qkv = rand_qkv(6, 2, 12, 4, 4)
    out = multiscale_attention(qkv, (1, 2))
    assert out.shape == (2, 4, 4, 12)
    for i, l in enumerate((1, 2)):
        part = [m[..., 6 * i:6 * (i + 1)] for m in thirds(qkv)]
        assert np.array_equal(out.data[..., 6 * i:6 * (i + 1)],
                              multiscale_attention(fuse(*part), (l,)).data)


def test_identity_attention_round_trip_bitwise():
    # partition -> alpha = I -> reassemble reproduces the value map exactly
    rng = np.random.default_rng(7)
    v = rand_map(rng, 2, 3, 4, 4).data
    tokens = partition_patches(v, 2)
    attended = np.eye(tokens.shape[-2]) @ tokens
    assert np.array_equal(unpartition_patches(attended, v.shape, 2), v)


# ------------------------------------------------------------- full module

def test_degenerate_single_token_module_returns_value_map():
    qkv = rand_qkv(9, 1, 4, 4, 4)
    out = multiscale_attention(qkv, (1,))
    assert np.array_equal(out.data, thirds(qkv)[2])


def test_table_scale_pair_token_counts_and_shape():
    # scales [1, 2] on 8 frames of 28x28 maps: head token counts 8 and 32
    recs = []
    out = multiscale_attention(rand_qkv(10, 8, 12, 28, 28), (1, 2), records=recs)
    assert out.shape == (8, 28, 28, 12)
    assert [r.alpha.shape for r in recs] == [(8, 8), (32, 32)]
    assert [r.scale for r in recs] == [1, 2]
    assert [(r.map_h, r.map_w) for r in recs] == [(28, 28), (28, 28)]


def test_three_scale_output_matches_oracle():
    qkv = rand_qkv(11, 2, 12, 4, 4)
    got = multiscale_attention(qkv, (1, 2, 4))
    want = naive(qkv, [1, 2, 4])
    assert got.shape == (2, 4, 4, 12)
    assert np.allclose(got.data, want, atol=1e-6)


SCALE_SETS = [[1], [2], [4], [1, 2], [1, 4], [2, 4], [1, 2, 4]]


@pytest.mark.parametrize("t,scales",
                         list(itertools.product([1, 2, 4], SCALE_SETS)))
def test_oracle_equivalence_grid(t, scales):
    # 21 random instances against the straight-line reference
    seed = 100 * t + sum(scales)
    c = 6 * len(scales) if len(scales) == 3 else 6
    qkv = rand_qkv(seed, t, c, 4, 4)
    got = multiscale_attention(qkv, tuple(scales))
    want = naive(qkv, scales)
    assert np.allclose(got.data, want, atol=1e-6)


def test_serial_equals_per_head_schedule_bitwise():
    # heads are independent: the primitive on three heads of two clips equals
    # itself run one head at a time on single-head maps, bit for bit; the
    # scale-4 head has N = 256 tokens and runs one clip per block
    rng = np.random.default_rng(12)
    scales = (1, 2, 4)
    qkv = rng.normal(size=(2, 16, 4, 4, 36)).astype(np.float32)
    fused = multiscale_attention(T.tensor(qkv), scales).data
    q, k, v = np.split(qkv, 3, axis=-1)
    for i, l in enumerate(scales):
        cols = slice(4 * i, 4 * (i + 1))
        one = np.concatenate([q[..., cols], k[..., cols], v[..., cols]], axis=-1)
        assert np.array_equal(fused[..., cols], multiscale_attention(T.tensor(one), (l,)).data)


def test_module_rejects_mismatched_maps():
    # a map that is not q, k and v of one width per head: a channel count
    # other than 3 * heads * w, no channels, or no heads. q, k and v of 7
    # channels over 2 heads (21) once returned channel 6 of the output
    # unwritten (np.empty memory)
    for channels, scales in [(21, (1, 2)), (8, (1,)), (0, (1,)), (6, ())]:
        with pytest.raises(ShapeError, match=f"{channels} channels are not q, k, v over"):
            multiscale_attention(T.tensor(np.ones((2, 4, 4, channels))), scales)


# ------------------------------- the primitive against the unfused oracle

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.sampled_from([1, 2, 4]),
       scales=st.sampled_from(SCALE_SETS), batch=st.sampled_from([1, 2]))
def test_primitive_gradients_match_the_unfused_composition(seed, t, scales, batch):
    rng = np.random.default_rng(seed)
    c = 6 * len(scales) if len(scales) == 3 else 6
    array = rng.normal(size=(batch, t, 4, 4, 3 * c))
    proj = rng.normal(size=batch * t * 4 * 4 * c)
    results = []
    for fn in (multiscale_attention, multiscale_attention_unfused):
        qkv = T.param(array)
        with T.Tape():
            out = fn(qkv, tuple(scales))
            grads = T.backward(scalarize(out, proj))
        results.append([out.data, grads[qkv]])
    for name, got, want in zip(("output", "dqkv"), *results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.sampled_from([1, 2, 4]),
       scales=st.sampled_from(SCALE_SETS), batch=st.sampled_from([None, 1, 2]))
def test_float32_forward_is_within_the_derived_bound_of_the_float64_oracle(seed, t, scales,
                                                                          batch):
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    shape = lead + (t, 4, 4, 3 * (6 * len(scales) if len(scales) == 3 else 6))
    qkv = T.tensor(rng.normal(size=shape), dtype=np.float32)
    got = multiscale_attention(qkv, tuple(scales)).data
    assert got.dtype == np.float32
    assert_within_oracle_bound(got, qkv.data, scales)


@pytest.mark.parametrize("shape,scales", [((16, 8, 4, 4, 36), (1, 2)),
                                          ((16, 16, 4, 4, 36), (1, 2, 4)),
                                          ((1, 8, 16, 16, 36), (1,))],
                         ids=["default", "longclip", "hires"])
def test_float32_forward_is_within_the_derived_bound_at_model_shapes(shape, scales):
    # the benchmark workloads' attention inputs; longclip's scale-4 head
    # (N = 256) runs in blocks of one clip
    rng = np.random.default_rng(18)
    qkv = T.tensor(rng.normal(size=shape), dtype=np.float32)
    assert_within_oracle_bound(multiscale_attention(qkv, scales).data, qkv.data, scales)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("t", [1, 4])
def test_scores_near_1e4_neither_overflow_nor_empty_a_row(dtype, t):
    # q and k of each head scaled so that its largest |score| is 1e4: exp of
    # an unshifted score overflows and a shift by another query's maximum
    # underflows whole rows to zero; the per-query maximum prevents both
    rng = np.random.default_rng(19 + t)
    scales = (1, 2, 4)
    x = rng.normal(size=(2, t, 4, 4, 36))
    for i, l in enumerate(scales):
        q, k = (x[..., 4 * (i + j * 3):4 * (i + j * 3 + 1)] for j in range(2))
        qt, kt = partition_patches(q, l), partition_patches(k, l)
        top = np.abs(qt @ np.swapaxes(kt, -1, -2)).max() / math.sqrt(qt.shape[-1])
        q *= math.sqrt(1e4 / top)
        k *= math.sqrt(1e4 / top)
    qkv = T.tensor(x, dtype=dtype)
    recs = []
    got = multiscale_attention(qkv, scales, records=recs).data
    assert got.dtype == dtype
    assert_within_oracle_bound(got, qkv.data, scales)
    # a weight is e * r rounded, with r = 1 / rowsum rounded and the row sum
    # off by gamma_n; summing the weights again adds gamma_n
    eps = np.finfo(dtype).eps
    for r in recs:
        n = r.alpha.shape[0]
        assert r.alpha.dtype == dtype and np.all(r.alpha >= 0)
        np.testing.assert_allclose(r.alpha.astype(np.float64).sum(axis=1), 1.0,
                                   rtol=0, atol=gamma(eps, 2 * n + 2))


def test_record_weights_equal_the_oracle_weights_per_clip():
    # distinct q, k and v over two clips: a key/query transposition of the
    # weights, or one clip's weights filed under the other, shows
    rng = np.random.default_rng(20)
    scales = (1, 2)
    qkv = rng.normal(size=(2, 2, 4, 4, 18))
    recs = []
    multiscale_attention(T.tensor(qkv, dtype=np.float64), scales, records=recs)
    assert [(r.head, r.clip) for r in recs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    q, k, v = np.split(qkv, 3, axis=-1)
    for r in recs:
        cols = slice(3 * r.head, 3 * (r.head + 1))
        _, alpha = head_attention(*(partition_taped(T.tensor(m[r.clip, ..., cols], np.float64),
                                                    r.scale) for m in (q, k, v)))
        np.testing.assert_allclose(r.alpha, alpha.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scales", SCALE_SETS, ids=str)
def test_one_call_records_one_tape_node(scales):
    c = 6 * len(scales) if len(scales) == 3 else 6
    qkv = T.param(rand_qkv(17, 2, c, 4, 4).data)
    with T.Tape() as tape:
        out = multiscale_attention(qkv, tuple(scales), records=[])
        assert len(tape.nodes) == 1
        assert tape.nodes[0] is out and out.parents == (qkv,)


# ----------------------------------------------------- invariants

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.sampled_from([1, 2, 4]),
       scales=st.sampled_from(SCALE_SETS))
def test_attention_rows_are_stochastic(seed, t, scales):
    c = 6 * len(scales) if len(scales) == 3 else 6
    recs = []
    multiscale_attention(rand_qkv(seed, t, c, 4, 4), tuple(scales), records=recs)
    assert len(recs) == len(scales)
    for r in recs:
        assert np.all(r.alpha >= 0)
        assert np.allclose(r.alpha.sum(axis=1), 1.0, atol=1e-8)


def test_short_and_long_range_masks_partition_the_scores():
    n = partition_patches(np.zeros((2, 4, 4, 2)), 2).shape[-2]
    same, cross = short_long_masks(frame_of(record_for(n, scale=2)))
    assert same.shape == (8, 8)
    assert np.all(same ^ cross)
    assert same.sum() == 2 * 4 * 4 and cross.sum() == 64 - 32
    # the same-frame pairs are the diagonal blocks of alpha read as [T, l*l, T, l*l]
    recs = []
    multiscale_attention(rand_qkv(3, 3, 6, 4, 4), (2,), records=recs)
    alpha = recs[0].alpha
    blocks = alpha.reshape(3, 4, 3, 4)
    diagonal = np.stack([blocks[f, :, f, :] for f in range(3)])
    same, _ = short_long_masks(frame_of(recs[0]))
    assert np.array_equal(alpha[same], diagonal.reshape(-1))


def test_frame_swap_equivariance_two_frames():
    # equal up to matmul reassociation (an ulp or two), hence the tight atol
    qkv = rand_qkv(14, 2, 6, 4, 4)
    out = multiscale_attention(qkv, (1,)).data
    out_flipped = multiscale_attention(T.tensor(qkv.data[::-1], np.float64), (1,)).data
    assert np.allclose(out_flipped, out[::-1], atol=1e-14)


def test_frame_permutation_equivariance():
    rng = np.random.default_rng(15)
    qkv = rand_qkv(16, 4, 6, 4, 4)
    perm = rng.permutation(4)
    out = multiscale_attention(qkv, (1, 2)).data
    out_perm = multiscale_attention(T.tensor(qkv.data[perm], np.float64), (1, 2)).data
    assert np.allclose(out_perm, out[perm], atol=1e-12)


# ----------------------------------------------------------------- rollout

def rollout_record(alpha=None):
    # two frames of a 4x4 map at scale 2: 8 tokens of 2x2 cells
    return record_for(8, scale=2, alpha=alpha)


def test_uniform_attention_gives_flat_heat_map():
    rec = rollout_record()
    heat = attention_rollout(rec, frame=0)
    assert heat.shape == (4, 4)
    assert np.allclose(heat, 1.0 / 8)


def test_identity_attention_gives_flat_heat_map():
    rec = rollout_record(alpha=np.eye(8))
    assert np.allclose(attention_rollout(rec, frame=1), 1.0 / 8)


def test_all_mass_to_one_cell_gives_delta():
    alpha = np.zeros((8, 8))
    alpha[:, 0] = 1.0          # token 0 is frame 0, cell (0, 0)
    heat = attention_rollout(rollout_record(alpha=alpha), frame=0)
    want = np.zeros((4, 4))
    want[:2, :2] = 1.0
    assert np.array_equal(heat, want)
    assert np.array_equal(attention_rollout(rollout_record(alpha=alpha), frame=1),
                          np.zeros((4, 4)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [1, 2, 4])
@pytest.mark.parametrize("frames", [1, 3])
def test_rollout_matches_the_per_token_loop_bitwise(frames, scale, dtype):
    n = frames * scale * scale
    rng = np.random.default_rng(frames * 10 + scale)
    alpha = rng.random((n, n)).astype(dtype)
    alpha /= alpha.sum(axis=1, keepdims=True)
    rec = AttentionRecord(layer=0, head=0, scale=scale, alpha=alpha, map_h=4, map_w=8)
    for frame in range(frames):
        heat = attention_rollout(rec, frame)
        want = attention_rollout_loop(rec, frame)
        assert heat.dtype == want.dtype and np.array_equal(heat, want)


def test_rollout_rejects_frame_out_of_range():
    with pytest.raises(ValueError):
        attention_rollout(rollout_record(), frame=2)

