"""Multi-scale multi-head self-attention over patches stacked across frames.

Each head partitions its channel slice of the Q/K/V maps into an l x l grid
per frame (l is the head's scale divisor), flattens every grid cell into one
token, and stacks the tokens of all T frames into a single sequence of
N = T * l**2 patches. Attention therefore mixes same-frame pairs (short-range,
spatial) and cross-frame pairs (long-range, temporal) inside one score matrix.
Attended patches are placed back at their frame/grid positions and the heads
are concatenated along channels. Maps are channels-last, [T, H, W, C] for one
clip or [B, T, H, W, C] for a batch; clips in a batch attend only within
themselves, as one batched matmul per head.
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


def partition_patches(f: Tensor, scale: int) -> Tensor:
    """Split each frame of [T, H, W, C] (or [B, T, H, W, C]) into an l x l grid
    of tokens flattened in (ph, pw, C) order: [T * l * l, H/l * W/l * C]
    (or [B, ...]), in the order of ``AttentionRecord.frame_of`` and
    ``cell_of``."""
    *lead, t, h, w, c = f.shape
    ph, pw = h // scale, w // scale
    g = tt.reshape(f, (int(np.prod(lead)) * t, scale, ph, scale, pw, c))
    g = tt.transpose(g, (0, 1, 3, 2, 4, 5))                     # [B*T, l, l, ph, pw, C]
    return tt.reshape(g, tuple(lead) + (t * scale * scale, ph * pw * c))


def unpartition_patches(tokens: Tensor, shape: tuple, scale: int) -> Tensor:
    """Place every token back at its frame/grid position in a map of ``shape``;
    inverse of partition."""
    *lead, t, h, w, c = shape
    g = tt.reshape(tokens, (int(np.prod(lead)) * t, scale, scale, h // scale, w // scale, c))
    g = tt.transpose(g, (0, 1, 3, 2, 4, 5))                     # [B*T, l, ph, l, pw, C]
    return tt.reshape(g, shape)


def head_attention(q: Tensor, k: Tensor, v: Tensor) -> tuple:
    """Scaled dot-product attention over one head's stacked patch tokens.

    Scores are q . k / sqrt(D) with D the flattened patch dimension of this
    head, softmaxed per query row. Batched tokens ([B, N, D]) attend clip by
    clip in one batched matmul. Returns the attended tokens and the weights.
    """
    n = len(k.shape)
    kt = tt.transpose(k, tuple(range(n - 2)) + (n - 1, n - 2))
    scores = tt.scale(tt.matmul(q, kt), 1.0 / np.sqrt(q.shape[-1]))
    alpha = tt.softmax(scores, axis=-1)
    return tt.matmul(alpha, v), alpha


def multiscale_attention(qkv, scales, records: list | None = None,
                         layer: int = 0) -> Tensor:
    """Full multi-scale attention: split channels across heads, attend, reassemble.

    ``qkv`` holds three [T, H, W, C] (or [B, T, H, W, C]) maps and ``scales``
    one grid divisor per head; the result has the maps' shape and is added
    residually by the caller. When ``records`` is given, one
    ``AttentionRecord`` per head and clip is appended to it.
    """
    q, k, v = qkv
    if q.shape != k.shape or k.shape != v.shape:
        raise ShapeError(f"q/k/v maps disagree: {q.shape}, {k.shape}, {v.shape}")
    if len(scales) > 1:
        qs, ks, vs = (tt.split(m, len(scales), -1) for m in (q, k, v))
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
                                map_h=q.shape[-3], map_w=q.shape[-2], clip=clip)
                for clip, weights in enumerate(alpha.data.reshape(-1, n, n)))
    maps = [unpartition_patches(h, qs[0].shape, l) for h, l in zip(heads, scales)]
    return maps[0] if len(maps) == 1 else tt.concat(maps, axis=-1)


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
