"""Multi-scale multi-head self-attention over patches stacked across frames.

One 3x3 convolution, its kernel stored as one [3C, C, 3, 3] tensor, projects a
layer's input into a single [..., 3C] map of q, k and v at channel offsets 0,
C and 2C; this module writes that order and reads it. Each head partitions its
channel slice of q, k and v into an l x l grid per frame (l is the head's
scale divisor), flattens every grid cell into one token, and stacks the tokens
of all T frames into a single sequence of N = T * l**2 patches. Attention
therefore mixes same-frame pairs (short-range, spatial) and cross-frame pairs
(long-range, temporal) inside one score matrix. Attended patches are placed
back at their frame/grid positions, each head in its channel slice of the
output. Maps are channels-last, [T, H, W, C] for one clip or [B, T, H, W, C]
for a batch; clips in a batch attend only within themselves. The token layout
runs on plain arrays, and one layer's attention is a single recorded primitive
with a hand-written backward.
Scores are key-major, [key, query], in cache-sized blocks of clips, and are
never normalised: the output GEMM against ``[v | 1]`` also gives the row sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .tensor import ShapeError, Tensor


@dataclass
class AttentionRecord:
    """Row-stochastic attention weights of one head for one clip, kept for
    map export; ``clip`` is the clip's index in its batch."""

    layer: int
    head: int
    scale: int
    alpha: np.ndarray          # [N, N], N = T * scale**2
    map_h: int
    map_w: int
    clip: int = 0


def partition_patches(f: np.ndarray, scale: int) -> np.ndarray:
    """Split each frame of a [T, H, W, C] (or [B, T, H, W, C]) array into an
    l x l grid of tokens flattened in (ph, pw, C) order: [T * l * l,
    H/l * W/l * C] (or [B, ...]), frame-major, then grid row, then grid
    column, so an ``AttentionRecord``'s ``alpha`` reads as [T, l, l, T, l, l].
    ``f`` may be a channel slice; its C channels at each position move as one
    run."""
    *lead, t, h, w, c = f.shape
    if h % scale or w % scale:
        raise ShapeError(f"scale {scale} does not divide map extent {h}x{w}")
    ph, pw = h // scale, w // scale
    g = f.reshape(-1, scale, ph, scale, pw, c).transpose(0, 1, 3, 2, 4, 5)
    return tt.reshape_runs(g, tuple(lead) + (t * scale * scale, ph * pw * c))


def unpartition_patches(tokens: np.ndarray, shape: tuple, scale: int) -> np.ndarray:
    """Place every token back at its frame/grid position in an array of
    ``shape``; inverse of partition."""
    *lead, t, h, w, c = shape
    ph, pw = h // scale, w // scale
    if tokens.shape != tuple(lead) + (t * scale * scale, ph * pw * c):
        raise ShapeError(f"tokens {tokens.shape} do not tile a {shape} map at scale {scale}")
    g = tokens.reshape(-1, scale, scale, ph, pw * c).transpose(0, 1, 3, 2, 4)
    return tt.reshape_runs(g, (-1, w * c)).reshape(shape)


def conv_project(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The [q | k | v] map: one stride-1, size-keeping convolution with 3C outputs.

    ``w`` [3C, C, 3, 3] and ``b`` [3C] hold the q, k and v kernels at output
    offsets 0, C and 2C. It stays a named function for two reasons: this
    module owns that channel order, which ``multiscale_attention`` reads, and
    perfbench's tracer patches ``model.conv_project`` to time it as the
    ``layers.i.qkv`` component.
    """
    return tt.conv2d(x, w, b, pad=w.shape[-1] // 2)


# Score entries per block: a head's clips run max(1, 2**16 // N**2) at a time,
# so that a block's [N, N] scores stay in cache across their passes
_BLOCK_SCORES = 1 << 16


def multiscale_attention(qkv: Tensor, scales, records: list | None = None,
                         layer: int = 0) -> Tensor:
    """Full multi-scale attention as one primitive with a hand-written backward.

    ``qkv`` is one [T, H, W, 3C] (or [B, T, H, W, 3C]) map with q, k and v at
    channel offsets 0, C and 2C, and ``scales`` one grid divisor per head;
    head i owns channel slice i of q, k, v and of the [..., C] output, which
    the caller adds residually. When ``records`` is given, one
    ``AttentionRecord`` per head and clip is appended to it.

    Per head and block of clips, ``e[key, query] = exp(k @ (q/sqrt(D))^T -
    max over keys)``; one GEMM ``e^T @ [v | 1]`` gives the unnormalised output
    and, in its last column, the row sums, so only the [N, D] output is
    scaled, by ``r = 1 / rowsum``. ``e`` and ``r`` are saved for the backward,
    which forms the softmax gradient ``(go @ v^T - delta) * r``, with ``delta
    = rowsum(go * o)`` (Dao et al. 2022), as the one GEMM ``[v | 1] @ [r * go
    | -r * delta]^T`` times ``e``.
    """
    lead, c3 = qkv.shape[:-1], qkv.shape[-1]
    heads = len(scales)
    if not heads or c3 == 0 or c3 % (3 * heads):
        raise ShapeError(f"multiscale_attention: {c3} channels are not q, k, v over {heads} heads")
    width = c3 // (3 * heads)
    # head i's q, k and v are [..., 0, i, :], [..., 1, i, :] and [..., 2, i, :]
    parts = qkv.data.reshape(lead + (3, heads, width))
    head_shape = lead + (width,)
    out = np.empty(lead + (heads, width), dtype=qkv.dtype)
    saved = []
    for i, l in enumerate(scales):
        qt, kt, vt = (partition_patches(parts[..., j, i, :], l) for j in range(3))
        n, d = qt.shape[-2:]
        s = 1.0 / math.sqrt(d)              # a Python float keeps float32
        sq, kt = (qt * s).reshape(-1, n, d), kt.reshape(-1, n, d)
        v1 = np.concatenate([vt.reshape(-1, n, d), np.ones_like(sq[..., :1])], axis=-1)
        e = np.empty(sq.shape[:-1] + (n,), dtype=qkv.dtype)         # [clip, key, query]
        num = np.empty_like(v1)
        step = max(1, _BLOCK_SCORES // (n * n))
        blocks = [slice(j, j + step) for j in range(0, len(e), step)]
        for blk in blocks:
            eb = np.matmul(kt[blk], np.swapaxes(sq[blk], -1, -2), out=e[blk])
            eb -= eb.max(axis=-2, keepdims=True)
            np.exp(eb, out=eb)
            np.matmul(np.swapaxes(eb, -1, -2), v1[blk], out=num[blk])
        r = 1.0 / num[..., d:]
        ot = num[..., :d] * r
        out[..., i, :] = unpartition_patches(ot.reshape(qt.shape), head_shape, l)
        saved.append((l, qt.shape, s, blocks, sq, kt, v1, e, r, ot))
        if records is not None:
            alpha = np.swapaxes(e, -1, -2) * r
            records.extend(
                AttentionRecord(layer=layer, head=i, scale=l, alpha=weights,
                                map_h=lead[-2], map_w=lead[-1], clip=clip)
                for clip, weights in enumerate(alpha))

    def back(g):
        g = g.reshape(out.shape)
        grad = np.empty_like(parts)
        for i, (l, tokens, s, blocks, sq, kt, v1, e, r, ot) in enumerate(saved):
            d = ot.shape[-1]
            go = partition_patches(g[..., i, :], l).reshape(ot.shape)
            w = np.empty_like(v1)                               # [r * go | -r * delta]
            np.multiply(go, r, out=w[..., :d])
            w[..., d] = -np.einsum("...i,...i", w[..., :d], ot)
            dq, dk, dv = (np.empty_like(ot) for _ in range(3))
            for blk in blocks:
                ds = v1[blk] @ np.swapaxes(w[blk], -1, -2)      # [clip, key, query]
                ds *= e[blk]
                np.matmul(np.swapaxes(ds, -1, -2), kt[blk], out=dq[blk])
                np.matmul(ds, sq[blk], out=dk[blk])
                np.matmul(e[blk], w[blk, :, :d], out=dv[blk])
            dq *= s
            for j, t in enumerate((dq, dk, dv)):
                grad[..., j, i, :] = unpartition_patches(t.reshape(tokens), head_shape, l)
        return (grad.reshape(qkv.shape),)

    return tt.record(out.reshape(lead + (heads * width,)), (qkv,), back)


def attention_rollout(rec: AttentionRecord, frame: int) -> np.ndarray:
    """Heat map of attention mass received per spatial cell of one frame.

    Each token's column of the weight matrix is averaged over all query rows
    and painted onto its grid cell; the result is a [map_h, map_w] float map
    at token-map resolution.
    """
    l = rec.scale
    n_frames = rec.alpha.shape[0] // (l * l)
    if not 0 <= frame < n_frames:
        raise ValueError(f"frame {frame} out of range for {n_frames}-frame record")
    cells = rec.alpha.mean(axis=0).reshape(n_frames, l, l)[frame]
    return cells.repeat(rec.map_h // l, axis=0).repeat(rec.map_w // l, axis=1)
