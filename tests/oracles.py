"""Straight-line reference implementations, kept independent of src/.

The loop-based oracles share no code path with the engine they check; the
loop-built synthetic clip shares only the generator's random streams and
constants, which are its inputs, and the list-based training batch only the
batch, sampling and augmentation streams. The unfused feed-forward block is the loop
1x1 convolution around the exact GELU from float64 ``math.erf``, which
``padformer.embed.conv_ffn`` replaced with one primitive. The unfused
multi-scale attention at the end is the composition of taped
primitives that ``padformer.attention.multiscale_attention`` replaced with one
primitive; it keeps its own ``scale``, ``softmax``, ``split`` and ``concat``
primitives, and the finite-difference suite checks them. The plain-layout
references at the end are the value-by-value copies and plain broadcasts the
engine's run-wise copies and row-tiled broadcasts replaced; the clipped normal
CDF shares only ``embed``'s polynomial coefficients, its input.
"""

import math

import numpy as np

from padformer import tensor as T
from padformer.rng import stream
from padformer.synth import _BASE_GRAY, _BLOB_AMP, _JITTER_STD, _TEXTURE_BASE_AMP


def conv2d_naive(x, w, b, stride, pad):
    """Nested-loop cross-correlation oracle."""
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, ci, oi * stride + i, oj * stride + j] * w[co, ci, i, j]
                    out[ni, co, oi, oj] = acc + b[co]
    return out


def conv2d_backward_naive(x, w, g, stride, pad):
    """Nested-loop gradients of ``conv2d_naive`` for the output gradient g.

    Each output position spreads g over the input window it read; returns
    (gx, gw, gb) with the shapes of x, w and the bias.
    """
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    _, _, ho, wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    gb = np.zeros(cout, dtype=g.dtype)
    for ni in range(n):
        for co in range(cout):
            for oi in range(ho):
                for oj in range(wo):
                    go = g[ni, co, oi, oj]
                    gb[co] += go
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                r, c = oi * stride + i, oj * stride + j
                                gw[co, ci, i, j] += go * xp[ni, ci, r, c]
                                gxp[ni, ci, r, c] += go * w[co, ci, i, j]
    return gxp[:, :, pad:pad + h, pad:pad + wid], gw, gb


def normal_cdf_exact(x):
    """Standard normal CDF of every element, in float64 from ``math.erf``."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.ravel().tolist()]
                    ).reshape(x.shape)


def gelu_exact(x):
    """x * Phi(x) and its derivative Phi(x) + x * phi(x), elementwise in float64."""
    x = np.asarray(x, dtype=np.float64)
    cdf = normal_cdf_exact(x)
    pdf = np.array([math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
                    for v in x.ravel().tolist()]).reshape(x.shape)
    return x * cdf, cdf + x * pdf


def ffn_naive(x, w1, b1, w2, b2, g):
    """The unfused feed-forward block: loop 1x1 conv, exact GELU, loop 1x1 conv.

    x and the output gradient g are [N, C, H, W]; returns the output and
    (gx, gw1, gb1, gw2, gb2).
    """
    h = conv2d_naive(x, w1, b1, 1, 0)
    a, slope = gelu_exact(h)
    out = conv2d_naive(a, w2, b2, 1, 0)
    ga, gw2, gb2 = conv2d_backward_naive(a, w2, g, 1, 0)
    gx, gw1, gb1 = conv2d_backward_naive(x, w1, ga * slope, 1, 0)
    return out, (gx, gw1, gb1, gw2, gb2)


def metrics_recount(scores, threshold):
    """Brute-force confusion recount; returns (apcer, bpcer, acer) in percent."""
    attacks_total = attacks_accepted = bona_total = bona_rejected = 0
    for score, label in scores:
        if label == 0:
            attacks_total += 1
            if score >= threshold:
                attacks_accepted += 1
        else:
            bona_total += 1
            if score < threshold:
                bona_rejected += 1
    apcer = 100.0 * attacks_accepted / attacks_total
    bpcer = 100.0 * bona_rejected / bona_total
    return apcer, bpcer, (apcer + bpcer) / 2.0


def select_threshold_sweep(dev_scores):
    """Quadratic EER sweep: every candidate threshold recounts both classes.

    Candidates are one below the minimum, the midpoints between adjacent
    distinct scores and one above the maximum; the first candidate with the
    smallest |FAR - FRR| wins, so ties go to the lower threshold.
    """
    attacks = [float(s) for s, label in dev_scores if label == 0]
    bona = [float(s) for s, label in dev_scores if label == 1]
    pts = sorted(set(attacks + bona))
    candidates = [pts[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
    candidates.append(pts[-1] + 1.0)
    best, best_gap = None, None
    for th in candidates:
        far = sum(1 for s in attacks if s >= th) / len(attacks)
        frr = sum(1 for s in bona if s < th) / len(bona)
        gap = abs(far - frr)
        if best_gap is None or gap < best_gap:
            best, best_gap = th, gap
    return float(best)


def make_batch_listwise(records, cfg, batch_rng, sample_rng, augment_rng):
    """The list-based training batch that ``padformer.harness.make_batch``
    replaced: augment each picked source clip whole (all S frames), sample T
    frames from it, collect the clips in a list, then ``np.stack`` them.
    Returns (frames [B, T, 3, H, W], int labels [B])."""
    picks = batch_rng.integers(0, len(records), size=cfg.batch_size)
    clips, labels = [], []
    for i in picks:
        frames = records[i].frames
        if cfg.augment:
            dtype = frames.dtype
            if augment_rng.random() < 0.5:
                frames = frames[:, :, :, ::-1]
            gain = 1.0 + 0.2 * (augment_rng.random() - 0.5)
            shift = (0.1 * (augment_rng.random(3) - 0.5)).astype(dtype)[None, :, None, None]
            frames = np.clip(frames * gain + shift, 0.0, 1.0).astype(dtype)
        s, t = frames.shape[0], cfg.frames
        if cfg.sample_mode == "uniform":
            idx = (np.arange(t) * s) // t
        else:
            stride = (int(sample_rng.integers(1, s // t + 1)) if t > 1
                      else int(sample_rng.integers(1, s + 1)))
            phase = int(sample_rng.integers(0, s - (t - 1) * stride))
            idx = phase + stride * np.arange(t)
        clips.append(np.ascontiguousarray(frames[idx]))
        labels.append(records[i].label)
    return np.stack(clips), np.array(labels)


def make_clip_loops(spec, split, idx, label):
    """The synthetic clip of ``padformer.synth._make_clip``, built frame by
    frame and channel by channel on a full ``np.mgrid`` pixel grid."""
    rng = stream(spec.seed, "base", split, idx)
    s, h, w = spec.source_frames, spec.height, spec.width
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)

    cy = h / 2 + rng.uniform(-2, 2)
    cx = w / 2 + rng.uniform(-2, 2)
    sigma = h / 5 + rng.uniform(-0.5, 0.5)
    jitter = rng.normal(scale=_JITTER_STD, size=(s, 2))

    fy = rng.uniform(0.5, 1.5, size=2)
    fx = rng.uniform(0.5, 1.5, size=2)
    ph = rng.uniform(0, 2 * np.pi, size=2)
    texture = np.zeros((h, w))
    for i in range(2):
        texture += np.sin(2 * np.pi * (fy[i] * yy / h + fx[i] * xx / w) + ph[i])
    texture *= _TEXTURE_BASE_AMP / 2

    clip = np.empty((s, 3, h, w), dtype=np.float64)
    for t in range(s):
        d2 = (yy - cy - jitter[t, 0]) ** 2 + (xx - cx - jitter[t, 1]) ** 2
        blob = np.exp(-d2 / (2 * sigma * sigma))
        for c in range(3):
            clip[t, c] = _BASE_GRAY + _BLOB_AMP[c] * blob + texture

    cue = stream(spec.seed, "cue", split, idx, label)
    if label == 1:
        freq = cue.uniform(spec.pulse_freq_min, spec.pulse_freq_max)
        phase = cue.uniform(0, 2 * np.pi)
        wave = spec.pulse_amp * np.sin(2 * np.pi * freq * np.arange(s) / s + phase)
        clip += wave[:, None, None, None]
    else:
        offset = spec.pulse_amp * np.sin(cue.uniform(0, 2 * np.pi))
        clip += offset
        if spec.texture_amp > 0:
            gy = cue.uniform(0, 2 * np.pi)
            gx = cue.uniform(0, 2 * np.pi)
            grid = np.sin(0.8 * np.pi * yy + gy) * np.sin(0.8 * np.pi * xx + gx)
            clip += spec.texture_amp * grid

    if spec.noise_sigma > 0:
        noise = stream(spec.seed, "noise", split, idx, label)
        clip += noise.normal(scale=spec.noise_sigma, size=clip.shape)
    return np.clip(clip, 0.0, 1.0).astype(np.float32)


def multiscale_attention_naive(q, k, v, scales):
    """Brute-force multi-scale attention over stacked frame patches.

    q/k/v: [T, C, H, W] numpy arrays. For each head: carve its channel slice
    into an l x l grid per frame, flatten every cell to one token, score all
    token pairs explicitly, softmax each query row, accumulate value tokens
    term by term, and write each attended cell back to its frame/grid
    position. Heads are concatenated on the channel axis.
    """
    t, c, h, w = q.shape
    heads = len(scales)
    ch = c // heads
    out = np.zeros_like(q)
    for hi, l in enumerate(scales):
        qs = q[:, hi * ch:(hi + 1) * ch]
        ks = k[:, hi * ch:(hi + 1) * ch]
        vs = v[:, hi * ch:(hi + 1) * ch]
        ph, pw = h // l, w // l
        tokens_q, tokens_k, tokens_v, places = [], [], [], []
        for fr in range(t):
            for r in range(l):
                for col in range(l):
                    sl = (fr, slice(None), slice(r * ph, (r + 1) * ph), slice(col * pw, (col + 1) * pw))
                    tokens_q.append(qs[sl].reshape(-1))
                    tokens_k.append(ks[sl].reshape(-1))
                    tokens_v.append(vs[sl].reshape(-1))
                    places.append(sl)
        n = len(tokens_q)
        d = tokens_q[0].size
        scores = np.zeros((n, n), dtype=q.dtype)
        for m in range(n):
            for j in range(n):
                scores[m, j] = float(np.dot(tokens_q[m], tokens_k[j])) / np.sqrt(d)
        for m in range(n):
            row = scores[m] - scores[m].max()
            e = np.exp(row)
            alpha = e / e.sum()
            attended = np.zeros(d, dtype=q.dtype)
            for j in range(n):
                attended += alpha[j] * tokens_v[j]
            fr, _, rows, cols = places[m]
            out[fr, hi * ch:(hi + 1) * ch, rows, cols] = attended.reshape(ch, ph, pw)
    return out


def scale(x, s):
    """Differentiable x * s for a Python float s."""
    s = float(s)
    return T.record(x.data * s, (x,), lambda g: (g * s,))


def softmax(x, axis):
    """Differentiable softmax along ``axis``, shifted by the row maximum."""
    xd = x.data
    if not -xd.ndim <= axis < xd.ndim:
        raise ValueError(f"softmax: axis {axis} invalid for rank {xd.ndim}")
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return T.record(y, (x,), back)


def split(x, parts, axis):
    """Differentiable split into ``parts`` equal slices along ``axis``; inverse
    of concat. Each slice's gradient is written into a zero array of the
    input's shape."""
    axis = axis % x.data.ndim
    n = x.data.shape[axis]
    if n % parts != 0:
        raise T.ShapeError(f"split: extent {n} not divisible into {parts} parts")
    step = n // parts
    outs = []
    for k in range(parts):
        sl = (slice(None),) * axis + (slice(k * step, (k + 1) * step),)

        def back(g, sl=sl):
            gx = np.zeros_like(x.data)
            gx[sl] = g
            return (gx,)

        outs.append(T.record(np.ascontiguousarray(x.data[sl]), (x,), back))
    return outs


def concat(parts, axis):
    """Differentiable concatenation along ``axis``; inverse of split. The
    gradient is cut back into one contiguous slice per part."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat: need at least one tensor")
    axis = axis % parts[0].data.ndim
    base = list(parts[0].data.shape)
    for p in parts[1:]:
        other = list(p.data.shape)
        if len(other) != len(base) or any(
                o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis):
            raise T.ShapeError(
                f"concat: non-axis extents differ, {parts[0].data.shape} vs {p.data.shape}")
    bounds = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def back(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, bounds, axis=axis))

    return T.record(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), back)


def partition_taped(f, scale_):
    """``attention.partition_patches`` as taped reshape/transpose on a Tensor."""
    *lead, t, h, w, c = f.shape
    ph, pw = h // scale_, w // scale_
    g = T.reshape(f, (int(np.prod(lead)) * t, scale_, ph, scale_, pw, c))
    g = T.transpose(g, (0, 1, 3, 2, 4, 5))
    return T.reshape(g, tuple(lead) + (t * scale_ * scale_, ph * pw * c))


def unpartition_taped(tokens, shape, scale_):
    """``attention.unpartition_patches`` as taped reshape/transpose."""
    *lead, t, h, w, c = shape
    g = T.reshape(tokens, (int(np.prod(lead)) * t, scale_, scale_, h // scale_, w // scale_, c))
    g = T.transpose(g, (0, 1, 3, 2, 4, 5))
    return T.reshape(g, shape)


def head_attention(q, k, v):
    """Scaled dot-product attention over one head's ([B,] N, D) token Tensors;
    returns the attended tokens and the weights."""
    n = len(k.shape)
    kt = T.transpose(k, tuple(range(n - 2)) + (n - 1, n - 2))
    scores = scale(T.matmul(q, kt), 1.0 / math.sqrt(q.shape[-1]))
    alpha = softmax(scores, axis=-1)
    return T.matmul(alpha, v), alpha


def multiscale_attention_unfused(qkv, scales):
    """Multi-scale attention as taped primitives on a fused [..., 3C] map:
    split it into q, k and v, split heads on channels, partition, attend,
    unpartition, concat."""
    q, k, v = split(qkv, 3, -1)
    if len(scales) > 1:
        qs, ks, vs = (split(m, len(scales), -1) for m in (q, k, v))
    else:
        qs, ks, vs = [q], [k], [v]
    maps = []
    for i, l in enumerate(scales):
        attended, _ = head_attention(partition_taped(qs[i], l), partition_taped(ks[i], l),
                                     partition_taped(vs[i], l))
        maps.append(unpartition_taped(attended, qs[i].shape, l))
    return maps[0] if len(maps) == 1 else concat(maps, axis=-1)


# ---------------------------------------------------------------------------
# plain-layout references: the value-by-value layout copies and the plain
# [N, C] channel broadcasts that the run-wise copies (``tensor.reshape_runs``)
# and the row-tiled broadcasts (``tensor.channel_rows``) replaced; the fast
# paths must equal them bit for bit

def patch_cut(frames, s):
    """The embed's patch cut, [..., 3, H, W] -> [N * H/s * W/s, 3*s*s], as one
    numpy reshape copy of the permuted frames."""
    cin, h, w = frames.shape[-3:]
    g = frames.reshape(-1, cin, h // s, s, w // s, s).transpose(0, 2, 4, 1, 3, 5)
    return g.reshape(-1, cin * s * s)


def partition_plain(f, scale_):
    """``attention.partition_patches`` as one numpy reshape copy."""
    *lead, t, h, w, c = f.shape
    ph, pw = h // scale_, w // scale_
    g = f.reshape(-1, scale_, ph, scale_, pw, c).transpose(0, 1, 3, 2, 4, 5)
    return g.reshape(tuple(lead) + (t * scale_ * scale_, ph * pw * c))


def unpartition_plain(tokens, shape, scale_):
    """``attention.unpartition_patches`` as one numpy reshape copy."""
    *lead, t, h, w, c = shape
    g = tokens.reshape(-1, scale_, scale_, h // scale_, w // scale_, c)
    return g.transpose(0, 1, 3, 2, 4, 5).reshape(shape)


def conv2d_plain(x, w, b, pad):
    """``tensor.conv2d``'s forward on channels-last x [..., H, W, Cin]: the
    windowed im2col as a value-by-value reshape copy, the same GEMM, then the
    bias as a plain [N, Cout] broadcast."""
    *lead, h, wid, cin = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x.reshape(-1, h, wid, cin), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw, cin), axis=(1, 2, 3))
    ho, wo = win.shape[1:3]
    cols = win[:, :, :, 0].reshape(-1, kh * kw * cin)
    out = cols @ w.transpose(0, 2, 3, 1).reshape(cout, -1).T + b
    return out.reshape(tuple(lead) + (ho, wo, cout))


def layer_norm_plain(x, gamma, beta, g, eps=1e-5):
    """``tensor.layer_norm``'s output and (gx, ggamma, gbeta) for the output
    gradient g, with gamma and beta broadcast over plain [..., C] rows."""
    c = x.shape[-1]
    avg = np.full((c, 1), 1.0 / c, dtype=x.dtype)
    d = x - x @ avg
    inv = 1.0 / np.sqrt((d * d) @ avg + eps)
    xhat = d * inv
    out = gamma * xhat + beta
    gxhat = g * gamma
    gx = inv * (gxhat - gxhat @ avg - xhat * ((gxhat * xhat) @ avg))
    return out, (gx, (g * xhat).reshape(-1, c).sum(axis=0), g.reshape(-1, c).sum(axis=0))


def ffn_plain(y, w1, b1, w2, b2):
    """``embed.conv_ffn``'s forward with both biases as plain [N, C]
    broadcasts and the clipped normal CDF below."""
    c = y.shape[-1]
    y2 = y.reshape(-1, c)
    h = y2 @ w1.reshape(w1.shape[0], c).T + b1
    out = (h * normal_cdf_clipped(h)) @ w2.reshape(w2.shape[0], -1).T + b2
    return out.reshape(y.shape[:-1] + out.shape[-1:])


def normal_cdf_clipped(x):
    """``embed.normal_cdf`` as it was with its input clipped to [-20, 20]:
    0.5 * (1 + tanh(x * P(x**2))) with P's Horner steps in the same order."""
    from padformer.embed import _CDF_COEFFS
    x = np.clip(x, -20.0, 20.0)
    u = x * x
    p = _CDF_COEFFS[-1] * u
    for c in _CDF_COEFFS[-2:0:-1]:
        p += c
        p *= u
    p += _CDF_COEFFS[0]
    p *= x
    return 0.5 * (1.0 + np.tanh(p))
