"""Multi-scale multi-head self-attention over patches stacked across frames.

Each head partitions its channel slice of the Q/K/V maps into an l x l grid
per frame (l is the head's scale divisor), flattens every grid cell into one
token, and stacks the tokens of all T frames into a single sequence of
N = T * l**2 patches. Attention therefore mixes same-frame pairs (short-range,
spatial) and cross-frame pairs (long-range, temporal) inside one score matrix.
Attended patches are placed back at their frame/grid positions and the heads
are concatenated along channels. Maps are [T, C, H, W] for one clip or
[B, T, C, H, W] for a batch; clips in a batch attend only within themselves,
as one batched matmul per head.
"""

from __future__ import annotations

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


def _batch_axes(lead: tuple, axes: tuple) -> tuple:
    # a per-clip permutation, applied after the leading batch axes
    return tuple(range(len(lead))) + tuple(len(lead) + a for a in axes)


def partition_patches(f: Tensor, scale: int) -> Tensor:
    """Split each frame of [T, C, H, W] (or [B, T, C, H, W]) into an l x l grid
    of flattened tokens: [T * l * l, C * H/l * W/l] (or [B, ...]), in the
    order of ``AttentionRecord.frame_of`` and ``cell_of``."""
    lead, (t, c, h, w) = f.shape[:-4], f.shape[-4:]
    ph, pw = h // scale, w // scale
    g = tt.reshape(f, lead + (t, c, scale, ph, scale, pw))
    g = tt.transpose(g, _batch_axes(lead, (0, 2, 4, 1, 3, 5)))   # [.., T, l, l, C, ph, pw]
    return tt.reshape(g, lead + (t * scale * scale, c * ph * pw))


def unpartition_patches(tokens: Tensor, shape: tuple, scale: int) -> Tensor:
    """Place every token back at its frame/grid position in a map of ``shape``;
    inverse of partition."""
    lead, (t, c, h, w) = shape[:-4], shape[-4:]
    g = tt.reshape(tokens, lead + (t, scale, scale, c, h // scale, w // scale))
    g = tt.transpose(g, _batch_axes(lead, (0, 3, 1, 4, 2, 5)))   # [.., T, C, l, ph, l, pw]
    return tt.reshape(g, shape)


def head_attention(q: Tensor, k: Tensor, v: Tensor) -> tuple:
    """Scaled dot-product attention over one head's stacked patch tokens.

    Scores are q . k / sqrt(D) with D the flattened patch dimension of this
    head, softmaxed per query row. Batched tokens ([B, N, D]) attend clip by
    clip in one batched matmul. Returns the attended tokens and the weights.
    """
    kt = tt.transpose(k, _batch_axes(k.shape[:-2], (1, 0)))
    scores = tt.scale(tt.matmul(q, kt), 1.0 / np.sqrt(q.shape[-1]))
    alpha = tt.softmax(scores, axis=-1)
    return tt.matmul(alpha, v), alpha


def multiscale_attention(qkv, scales, records: list | None = None,
                         layer: int = 0) -> Tensor:
    """Full multi-scale attention: split channels across heads, attend, reassemble.

    ``qkv`` holds three [T, C, H, W] (or [B, T, C, H, W]) maps and ``scales``
    one grid divisor per head; the result has the maps' shape and is added
    residually by the caller. When ``records`` is given, one
    ``AttentionRecord`` per head and clip is appended to it.
    """
    q, k, v = qkv
    if q.shape != k.shape or k.shape != v.shape:
        raise ShapeError(f"q/k/v maps disagree: {q.shape}, {k.shape}, {v.shape}")
    if len(scales) > 1:
        qs, ks, vs = (tt.split(m, len(scales), -3) for m in (q, k, v))
    else:
        qs, ks, vs = [q], [k], [v]
    heads = []
    for i, l in enumerate(scales):
        attended, alpha = head_attention(partition_patches(qs[i], l),
                                         partition_patches(ks[i], l),
                                         partition_patches(vs[i], l))
        heads.append(attended)
        if records is not None:
            n = alpha.shape[-1]
            records.extend(
                AttentionRecord(layer=layer, head=i, scale=l, alpha=weights.copy(),
                                map_h=q.shape[-2], map_w=q.shape[-1], clip=clip)
                for clip, weights in enumerate(alpha.data.reshape(-1, n, n)))
    maps = [unpartition_patches(h, qs[0].shape, l) for h, l in zip(heads, scales)]
    return maps[0] if len(maps) == 1 else tt.concat(maps, axis=-3)


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
