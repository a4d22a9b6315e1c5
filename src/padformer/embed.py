"""Convolutional tokenization of video frames and the feed-forward stage.

A clip is tokenized per frame by a single non-overlapping convolution (kernel
extent equal to its stride), run as a patchify matmul, producing a token map
without any positional encoding, and the transformer's feed-forward block is
a pair of 1x1 convolutions (the Q/K/V projection lives with the attention
that reads its channel order, in ``attention.py``). No operation here owns
positional parameters. Token maps are channels-last ([B, T, H, W, C] for B
clips); the convolutions fold the leading axes into one batch. Kernel shapes
are fixed by ``model.parameter_shapes`` and checked where weights enter
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


def conv_token_embed(frames: np.ndarray, w: Tensor, b: Tensor, stride: int) -> Tensor:
    """Tokenize each frame with one non-overlapping convolution (kernel extent
    equal to the stride); [..., T, 3, H, W] pixels -> [..., T, H/s, W/s, C].
    The constant frames are cut in numpy into (3, s, s) patches, the kernel's
    order, and multiplied by the flattened kernel."""
    lead, (cin, h, wid) = frames.shape[:-3], frames.shape[-3:]
    s = stride
    patches = frames.reshape(-1, cin, h // s, s, wid // s, s).transpose(0, 2, 4, 1, 3, 5)
    cols = Tensor(patches.reshape(-1, cin * s * s))          # [N * H/s * W/s, 3*s*s]
    wmat = tt.transpose(tt.reshape(w, (w.shape[0], cin * s * s)), (1, 0))
    tokens = tt.add(tt.matmul(cols, wmat), b)
    return tt.reshape(tokens, lead + (h // s, wid // s, w.shape[0]))


def conv_ffn(y: Tensor, w1, b1, w2, b2) -> Tensor:
    """Position-wise feed-forward as 1x1 conv -> GELU -> 1x1 conv."""
    return tt.conv2d(tt.gelu(tt.conv2d(y, w1, b1)), w2, b2)
