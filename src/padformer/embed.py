"""Convolutional tokenization of video frames and Q/K/V projection.

A clip is tokenized per frame by a single non-overlapping convolution (kernel
extent equal to its stride), producing a token map without any positional
encoding. Q, K and V come from one shape-preserving 3x3 convolution with 3C
outputs, split into three maps, and the transformer's feed-forward block is a
pair of 1x1 convolutions. No operation here owns positional parameters. Maps
may carry leading batch axes ([B, T, C, H, W] for B clips); the convolutions
fold them into one batch. Kernel shapes are fixed by
``model.parameter_shapes`` and checked where weights enter
(``load_checkpoint``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def conv_token_embed(frames: Tensor, w: Tensor, b: Tensor, stride: int) -> Tensor:
    """Tokenize each frame with one non-overlapping convolution (kernel extent
    equal to the stride); [..., T, 3, H, W] -> [..., T, C, H/stride, W/stride]."""
    return tt.conv2d(frames, w, b, stride=stride, pad=0)


def conv_project(x: Tensor, wq, bq, wk, bk, wv, bv) -> tuple:
    """The (q, k, v) maps of three 3x3 stride-1 convolutions, run as one.

    The kernels and biases are concatenated at forward time into one
    convolution with 3C outputs (one im2col copy and one GEMM), whose map is
    split into q, k and v, each of the input shape. The parameters stay
    three tensors, so the checkpoint keeps them apart; their gradients flow
    back through ``concat``.
    """
    w = tt.concat([wq, wk, wv], axis=0)
    b = tt.concat([bq, bk, bv], axis=0)
    return tuple(tt.split(tt.conv2d(x, w, b, stride=1, pad=1), 3, axis=-3))


def conv_ffn(y: Tensor, w1, b1, w2, b2) -> Tensor:
    """Position-wise feed-forward as 1x1 conv -> GELU -> 1x1 conv."""
    hidden = tt.conv2d(y, w1, b1, stride=1, pad=0)
    return tt.conv2d(tt.gelu(hidden), w2, b2, stride=1, pad=0)
