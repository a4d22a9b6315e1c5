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


@dataclass(frozen=True)
class ScaleConfig:
    """Per-head grid divisors; the head count is the number of scales."""

    scales: tuple

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(int(s) for s in self.scales))
        if not self.scales:
            raise ValueError("at least one scale is required")
        for s in self.scales:
            if s < 1:
                raise ValueError(f"scale divisors must be >= 1, got {s}")

    @property
    def head_count(self) -> int:
        return len(self.scales)

    def validate(self, channels: int, map_h: int, map_w: int):
        if channels % self.head_count:
            raise ShapeError(
                f"{channels} channels not divisible across {self.head_count} heads")
        for s in self.scales:
            if map_h % s or map_w % s:
                raise ShapeError(f"scale {s} does not divide map extent {map_h}x{map_w}")


@dataclass
class HeadPatchSet:
    """The N = T * l**2 flattened patch tokens of one head.

    ``tokens`` is [N, D] (one clip) or [B, N, D] (a batch) with
    D = channels * cell_h * cell_w. Token order is frame-major, then grid row,
    then grid column; ``frame_of`` and ``cell_of`` map token index back to its
    source frame and grid cell.
    """

    tokens: Tensor
    frames: int
    scale: int
    channels: int
    cell_h: int
    cell_w: int

    @property
    def frame_of(self) -> np.ndarray:
        return np.arange(self.count) // self.scale ** 2

    @property
    def cell_of(self) -> np.ndarray:
        rem = np.arange(self.count) % self.scale ** 2
        return np.stack([rem // self.scale, rem % self.scale], axis=1)

    @property
    def count(self) -> int:
        return self.tokens.shape[-2]

    @property
    def dim(self) -> int:
        return self.tokens.shape[-1]


@dataclass
class AttentionRecord:
    """Row-stochastic attention weights of one head for one clip, kept for
    map export; ``clip`` is the clip's index in its batch."""

    layer: int
    head: int
    scale: int
    alpha: np.ndarray          # [N, N]
    frame_of: np.ndarray
    cell_of: np.ndarray
    map_h: int
    map_w: int
    clip: int = 0


def _batch_axes(lead: tuple, axes: tuple) -> tuple:
    # a per-clip permutation, applied after the leading batch axes
    return tuple(range(len(lead))) + tuple(len(lead) + a for a in axes)


def partition_patches(f: Tensor, scale: int) -> HeadPatchSet:
    """Split each frame of [T, C, H, W] (or [B, T, C, H, W]) into an l x l grid
    of flattened tokens: [T * l * l, C * H/l * W/l] (or [B, ...])."""
    lead, (t, c, h, w) = f.shape[:-4], f.shape[-4:]
    ph, pw = h // scale, w // scale
    g = tt.reshape(f, lead + (t, c, scale, ph, scale, pw))
    g = tt.transpose(g, _batch_axes(lead, (0, 2, 4, 1, 3, 5)))   # [.., T, l, l, C, ph, pw]
    tokens = tt.reshape(g, lead + (t * scale * scale, c * ph * pw))
    return HeadPatchSet(tokens, frames=t, scale=scale, channels=c, cell_h=ph, cell_w=pw)


def unpartition_patches(ps: HeadPatchSet) -> Tensor:
    """Place every token back at its frame/grid position; inverse of partition."""
    t, l, c, ph, pw = ps.frames, ps.scale, ps.channels, ps.cell_h, ps.cell_w
    lead = ps.tokens.shape[:-2]
    g = tt.reshape(ps.tokens, lead + (t, l, l, c, ph, pw))
    g = tt.transpose(g, _batch_axes(lead, (0, 3, 1, 4, 2, 5)))   # [.., T, C, l, ph, l, pw]
    return tt.reshape(g, lead + (t, c, l * ph, l * pw))


def head_attention(qp: HeadPatchSet, kp: HeadPatchSet, vp: HeadPatchSet,
                   record: list | None = None, layer: int = 0, head: int = 0) -> HeadPatchSet:
    """Scaled dot-product attention over one head's stacked patch tokens.

    Scores are q . k / sqrt(D) with D the flattened patch dimension of this
    head, softmaxed per query row; the attended tokens keep the query
    geometry. Batched token sets ([B, N, D]) attend clip by clip in one
    batched matmul. When ``record`` is given, one weight matrix per clip is
    appended to it.
    """
    kt = tt.transpose(kp.tokens, _batch_axes(kp.tokens.shape[:-2], (1, 0)))
    scores = tt.scale(tt.matmul(qp.tokens, kt), 1.0 / np.sqrt(qp.dim))
    alpha = tt.softmax(scores, axis=-1)
    if record is not None:
        n = qp.count
        for clip, weights in enumerate(alpha.data.reshape(-1, n, n)):
            record.append(AttentionRecord(
                layer=layer, head=head, scale=qp.scale, alpha=weights.copy(),
                frame_of=qp.frame_of, cell_of=qp.cell_of,
                map_h=qp.scale * qp.cell_h, map_w=qp.scale * qp.cell_w, clip=clip))
    attended = tt.matmul(alpha, vp.tokens)
    return HeadPatchSet(attended, frames=vp.frames, scale=vp.scale, channels=vp.channels,
                        cell_h=vp.cell_h, cell_w=vp.cell_w)


def reassemble_and_concat(heads: list) -> Tensor:
    """Restore each head to full map resolution and concatenate on channels."""
    maps = [unpartition_patches(h) for h in heads]
    return maps[0] if len(maps) == 1 else tt.concat(maps, axis=-3)


def multiscale_attention(qkv, cfg: ScaleConfig, records: list | None = None,
                         layer: int = 0) -> Tensor:
    """Full multi-scale attention: split channels across heads, attend, reassemble.

    ``qkv`` holds three [T, C, H, W] (or [B, T, C, H, W]) maps; the result has
    the same shape and is added residually by the caller.
    """
    q, k, v = qkv
    if q.shape != k.shape or k.shape != v.shape:
        raise ShapeError(f"q/k/v maps disagree: {q.shape}, {k.shape}, {v.shape}")
    n_heads = cfg.head_count
    if n_heads > 1:
        qs, ks, vs = (tt.split(m, n_heads, -3) for m in (q, k, v))
    else:
        qs, ks, vs = [q], [k], [v]
    out_heads = []
    for i, l in enumerate(cfg.scales):
        qp = partition_patches(qs[i], l)
        kp = partition_patches(ks[i], l)
        vp = partition_patches(vs[i], l)
        out_heads.append(head_attention(qp, kp, vp, record=records, layer=layer, head=i))
    return reassemble_and_concat(out_heads)


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
