"""Multi-scale multi-head self-attention over patches stacked across frames.

Each head partitions its channel slice of the Q/K/V maps into an l x l grid
per frame (l is the head's scale divisor), flattens every grid cell into one
token, and stacks the tokens of all T frames into a single sequence of
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


def multiscale_attention(qkv, scales, records: list | None = None,
                         layer: int = 0) -> Tensor:
    """Full multi-scale attention as one primitive with a hand-written backward.

    ``qkv`` holds three [T, H, W, C] (or [B, T, H, W, C]) maps and ``scales``
    one grid divisor per head; head i owns channel slice i of the maps and of
    the output, which the caller adds residually. When ``records`` is given,
    one ``AttentionRecord`` per head and clip is appended to it.
    """
    q, k, v = qkv
    if q.shape != k.shape or k.shape != v.shape:
        raise ShapeError(f"q/k/v maps disagree: {q.shape}, {k.shape}, {v.shape}")
    shape = q.shape
    width = shape[-1] // len(scales)
    head_shape = shape[:-1] + (width,)
    out = np.empty(shape, dtype=q.dtype)
    saved = []
    for i, l in enumerate(scales):
        sl = np.s_[..., i * width:(i + 1) * width]
        qt, kt, vt = (partition_patches(m.data[sl], l) for m in qkv)
        s = 1.0 / math.sqrt(qt.shape[-1])   # 1/sqrt(D) as a Python float keeps float32
        # a contiguous k^T: BLAS sums over a transposed view in another order
        alpha = qt @ np.ascontiguousarray(np.swapaxes(kt, -1, -2))
        alpha *= s
        alpha -= alpha.max(axis=-1, keepdims=True)
        np.exp(alpha, out=alpha)
        alpha /= alpha.sum(axis=-1, keepdims=True)
        ot = alpha @ vt
        out[sl] = unpartition_patches(ot, head_shape, l)
        saved.append((sl, l, s, qt, kt, vt, alpha, ot))
        if records is not None:
            records.extend(
                AttentionRecord(layer=layer, head=i, scale=l, alpha=weights.copy(),
                                map_h=shape[-3], map_w=shape[-2], clip=clip)
                for clip, weights in enumerate(alpha.reshape((-1,) + alpha.shape[-2:])))

    def back(g):
        # softmax backward without an [N, N] product for its row sums:
        # rowsum(dalpha * alpha) = rowsum(go * o) (Dao et al. 2022)
        grads = [np.empty_like(out) for _ in range(3)]
        for sl, l, s, qt, kt, vt, alpha, ot in saved:
            go = partition_patches(g[sl], l)
            da = go @ np.swapaxes(vt, -1, -2)
            da -= (go * ot).sum(axis=-1, keepdims=True)
            da *= alpha
            tokens = (s * (da @ kt), s * (np.swapaxes(da, -1, -2) @ qt),
                      np.swapaxes(alpha, -1, -2) @ go)
            for grad, t in zip(grads, tokens):
                grad[sl] = unpartition_patches(t, head_shape, l)
        return tuple(grads)

    return tt.record(out, (q, k, v), back)


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
