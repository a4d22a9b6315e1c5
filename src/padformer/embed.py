"""Convolutional tokenization of video frames and Q/K/V projection.

A clip is tokenized per frame by a single non-overlapping convolution (kernel
extent equal to its stride), producing a token map without any positional
encoding. Q, K and V are then produced by shape-preserving 3x3 convolutions,
and the transformer's feed-forward block is a pair of 1x1 convolutions. No
operation here owns positional parameters. Maps may carry leading batch axes
([B, T, C, H, W] for B clips); the convolutions fold them into one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as tt
from .tensor import ShapeError, Tensor


@dataclass
class VideoClip:
    """T frames of 3xHxW pixels in [0, 1] plus the binary label (1 = bona fide)."""

    frames: np.ndarray
    label: int
    clip_id: str = ""

    def __post_init__(self):
        if self.frames.ndim != 4 or self.frames.shape[1] != 3:
            raise ShapeError(f"clip frames must be [T, 3, H, W], got {self.frames.shape}")
        if self.frames.shape[0] < 1:
            raise ShapeError("clip needs at least one frame")


class QKVMaps(NamedTuple):
    q: Tensor
    k: Tensor
    v: Tensor


def as_frames(clip, dtype) -> Tensor:
    """The pixels of a VideoClip ([T, 3, H, W]), array or Tensor as a Tensor."""
    frames = clip.frames if isinstance(clip, VideoClip) else clip
    if isinstance(frames, Tensor):
        return frames
    return Tensor(np.asarray(frames, dtype=dtype))


def conv_token_embed(clip, w: Tensor, b: Tensor, stride: int) -> Tensor:
    """Tokenize each frame with one convolution;
    [..., T, 3, H, W] -> [..., T, C, H/stride, W/stride].

    The kernel extent must equal the stride (non-overlapping tokenization) and
    the spatial extents must divide by it.
    """
    x = as_frames(clip, w.dtype)
    h, wid = x.shape[-2:]
    kh, kw = w.shape[2], w.shape[3]
    if kh != stride or kw != stride:
        raise ShapeError(f"token embed kernel {kh}x{kw} must equal stride {stride}")
    if h % stride or wid % stride:
        raise ShapeError(f"frame extent {h}x{wid} not divisible by stride {stride}")
    return tt.conv2d(x, w, b, stride=stride, pad=0)


def conv_project(x: Tensor, wq, bq, wk, bk, wv, bv) -> QKVMaps:
    """Three independent 3x3 stride-1 convolutions producing Q, K, V maps.

    All three outputs keep the input shape exactly.
    """
    for w in (wq, wk, wv):
        if w.shape[2:] != (3, 3):
            raise ShapeError(f"projection kernels must be 3x3, got {w.shape[2:]}")
    return QKVMaps(
        q=tt.conv2d(x, wq, bq, stride=1, pad=1),
        k=tt.conv2d(x, wk, bk, stride=1, pad=1),
        v=tt.conv2d(x, wv, bv, stride=1, pad=1),
    )


def conv_ffn(y: Tensor, w1, b1, w2, b2) -> Tensor:
    """Position-wise feed-forward as 1x1 conv -> GELU -> 1x1 conv."""
    if w1.shape[2:] != (1, 1) or w2.shape[2:] != (1, 1):
        raise ShapeError("feed-forward kernels must be 1x1")
    hidden = tt.conv2d(y, w1, b1, stride=1, pad=0)
    return tt.conv2d(tt.gelu(hidden), w2, b2, stride=1, pad=0)
