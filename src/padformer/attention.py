"""Multi-scale multi-head self-attention over patches stacked across frames.

One 3x3 convolution projects a layer's input into a single [..., 3C] map of
q, k and v at channel offsets 0, C and 2C; this module writes that order and
reads it. Each head partitions its channel slice of q, k and v into an l x l
grid per frame (l is the head's scale divisor), flattens every grid cell into
one token, and stacks the tokens of all T frames into a single sequence of
N = T * l**2 patches. Attention therefore mixes same-frame pairs (short-range,
spatial) and cross-frame pairs (long-range, temporal) inside one score matrix.
Attended patches are placed back at their frame/grid positions, each head in
its channel slice of the output. Maps are channels-last, [T, H, W, C] for one
clip or [B, T, H, W, C] for a batch; clips in a batch attend only within
themselves, as one batched matmul per head. The token layout runs on plain
arrays, and one layer's attention is a single recorded primitive with a
hand-written backward.
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

    @property
    def frame_of(self) -> np.ndarray:
        """Source frame of each token; tokens run frame-major, then grid row,
        then grid column."""
        return np.arange(self.alpha.shape[0]) // self.scale ** 2

    @property
    def cell_of(self) -> np.ndarray:
        """(grid row, grid column) of each token."""
        rem = np.arange(self.alpha.shape[0]) % self.scale ** 2
        return np.stack([rem // self.scale, rem % self.scale], axis=1)


def partition_patches(f: np.ndarray, scale: int) -> np.ndarray:
    """Split each frame of a [T, H, W, C] (or [B, T, H, W, C]) array into an
    l x l grid of tokens flattened in (ph, pw, C) order: [T * l * l,
    H/l * W/l * C] (or [B, ...]), in the order of ``AttentionRecord.frame_of``
    and ``cell_of``."""
    *lead, t, h, w, c = f.shape
    if h % scale or w % scale:
        raise ShapeError(f"scale {scale} does not divide map extent {h}x{w}")
    ph, pw = h // scale, w // scale
    g = f.reshape(-1, scale, ph, scale, pw, c).transpose(0, 1, 3, 2, 4, 5)
    return g.reshape(tuple(lead) + (t * scale * scale, ph * pw * c))


def unpartition_patches(tokens: np.ndarray, shape: tuple, scale: int) -> np.ndarray:
    """Place every token back at its frame/grid position in an array of
    ``shape``; inverse of partition."""
    *lead, t, h, w, c = shape
    ph, pw = h // scale, w // scale
    if tokens.shape != tuple(lead) + (t * scale * scale, ph * pw * c):
        raise ShapeError(f"tokens {tokens.shape} do not tile a {shape} map at scale {scale}")
    g = tokens.reshape(-1, scale, scale, ph, pw, c).transpose(0, 1, 3, 2, 4, 5)
    return g.reshape(shape)


def conv_project(x: Tensor, wq, bq, wk, bk, wv, bv) -> Tensor:
    """The [q | k | v] map of three 3x3 stride-1 convolutions, run as one.

    The kernels and biases are concatenated at forward time into one
    convolution with 3C outputs (one im2col copy and one GEMM); its
    [..., 3C] map goes to ``multiscale_attention`` whole. The parameters
    stay three tensors, so the checkpoint keeps them apart; their gradients
    flow back through ``concat``.
    """
    w = tt.concat([wq, wk, wv], axis=0)
    b = tt.concat([bq, bk, bv], axis=0)
    return tt.conv2d(x, w, b, pad=1)


def multiscale_attention(qkv: Tensor, scales, records: list | None = None,
                         layer: int = 0) -> Tensor:
    """Full multi-scale attention as one primitive with a hand-written backward.

    ``qkv`` is one [T, H, W, 3C] (or [B, T, H, W, 3C]) map with q, k and v at
    channel offsets 0, C and 2C, and ``scales`` one grid divisor per head;
    head i owns channel slice i of q, k, v and of the [..., C] output, which
    the caller adds residually. When ``records`` is given, one
    ``AttentionRecord`` per head and clip is appended to it.
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
        s = 1.0 / math.sqrt(qt.shape[-1])   # 1/sqrt(D) as a Python float keeps float32
        # a contiguous k^T: BLAS sums over a transposed view in another order
        alpha = qt @ np.ascontiguousarray(np.swapaxes(kt, -1, -2))
        alpha *= s
        alpha -= alpha.max(axis=-1, keepdims=True)
        np.exp(alpha, out=alpha)
        alpha /= alpha.sum(axis=-1, keepdims=True)
        ot = alpha @ vt
        out[..., i, :] = unpartition_patches(ot, head_shape, l)
        saved.append((l, s, qt, kt, vt, alpha, ot))
        if records is not None:
            records.extend(
                AttentionRecord(layer=layer, head=i, scale=l, alpha=weights.copy(),
                                map_h=lead[-2], map_w=lead[-1], clip=clip)
                for clip, weights in enumerate(alpha.reshape((-1,) + alpha.shape[-2:])))

    def back(g):
        # softmax backward without an [N, N] product for its row sums:
        # rowsum(dalpha * alpha) = rowsum(go * o) (Dao et al. 2022)
        g = g.reshape(out.shape)
        grad = np.empty_like(parts)
        for i, (l, s, qt, kt, vt, alpha, ot) in enumerate(saved):
            go = partition_patches(g[..., i, :], l)
            da = go @ np.swapaxes(vt, -1, -2)
            da -= (go * ot).sum(axis=-1, keepdims=True)
            da *= alpha
            tokens = (s * (da @ kt), s * (np.swapaxes(da, -1, -2) @ qt),
                      np.swapaxes(alpha, -1, -2) @ go)
            for j, t in enumerate(tokens):
                grad[..., j, i, :] = unpartition_patches(t, head_shape, l)
        return (grad.reshape(qkv.shape),)

    return tt.record(out.reshape(lead + (heads * width,)), (qkv,), back)


def short_long_masks(frame_of: np.ndarray):
    """Boolean [N, N] masks of same-frame (short) and cross-frame (long) pairs.

    The two masks partition the score matrix exactly.
    """
    same = frame_of[:, None] == frame_of[None, :]
    return same, ~same


def attention_rollout(rec: AttentionRecord, frame: int) -> np.ndarray:
    """Heat map of attention mass received per spatial cell of one frame.

    Each token's column of the weight matrix is averaged over all query rows
    and painted onto its grid cell; the result is a [map_h, map_w] float map
    at token-map resolution.
    """
    n_frames = int(rec.frame_of.max()) + 1
    if not 0 <= frame < n_frames:
        raise ValueError(f"frame {frame} out of range for {n_frames}-frame record")
    received = rec.alpha.mean(axis=0)
    heat = np.zeros((rec.map_h, rec.map_w), dtype=rec.alpha.dtype)
    ch, cw = rec.map_h // rec.scale, rec.map_w // rec.scale
    for token in np.nonzero(rec.frame_of == frame)[0]:
        r, col = rec.cell_of[token]
        heat[r * ch:(r + 1) * ch, col * cw:(col + 1) * cw] = received[token]
    return heat


def upsample_nearest(heat: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour upsample used when exporting maps at frame resolution."""
    h, w = heat.shape
    rows = (np.arange(out_h) * h) // out_h
    cols = (np.arange(out_w) * w) // out_w
    return heat[np.ix_(rows, cols)]
