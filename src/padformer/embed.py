"""Convolutional tokenization of video frames and the feed-forward stage.

A clip is tokenized per frame by a single non-overlapping convolution (kernel
extent equal to its stride), run as a patchify matmul, producing a token map
without any positional encoding, and the transformer's feed-forward block is
1x1 conv -> GELU -> 1x1 conv, recorded as one primitive (the Q/K/V projection,
one convolution over one stored ``qkv`` kernel, lives with the attention that
reads its channel order, in ``attention.py``). No operation here owns
positional parameters. Token maps are channels-last ([B, T, H, W, C] for B
clips); both stages fold the leading axes into the rows of one GEMM. Kernel
shapes are fixed by ``model.parameter_shapes`` and checked where weights enter
(``load_checkpoint``), not here.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .tensor import Tensor


def conv_token_embed(frames: np.ndarray, w: Tensor, b: Tensor, stride: int) -> Tensor:
    """Tokenize each frame with one non-overlapping convolution (kernel extent
    equal to the stride); [..., T, 3, H, W] pixels -> [..., T, H/s, W/s, C].
    The constant frames are cut in numpy into (3, s, s) patches, the kernel's
    order, one kernel row of s pixels per copied run, and multiplied by the
    flattened kernel."""
    lead, (cin, h, wid) = frames.shape[:-3], frames.shape[-3:]
    s = stride
    patches = frames.reshape(-1, cin, h // s, s, wid // s, s).transpose(0, 2, 4, 1, 3, 5)
    cols = Tensor(tt.reshape_runs(patches, (-1, cin * s * s)))   # [N * H/s * W/s, 3*s*s]
    wmat = tt.transpose(tt.reshape(w, (w.shape[0], cin * s * s)), (1, 0))
    tokens = tt.add(tt.matmul(cols, wmat), b)
    return tt.reshape(tokens, lead + (h // s, wid // s, w.shape[0]))


# P(u), constant term first: a degree-6 weighted least-squares fit of
# atanh(erf(x/sqrt(2)))/x in u = x**2 on [0, 5.5]; Python floats keep float32
_CDF_COEFFS = (0.7978849414968395, 0.03633308437292524, -3.2594699285164415e-05,
               -5.530633823586979e-05, 3.964777533307556e-06, -1.322666625426751e-07,
               1.7562890829114406e-09)
# 2(P + 2uP'), so that d(h * cdf)/dh = cdf * (1 + h * (1 - cdf) * slope(u))
_SLOPE_COEFFS = tuple(2.0 * (2 * k + 1) * c for k, c in enumerate(_CDF_COEFFS))


def _poly(coeffs, u: np.ndarray) -> np.ndarray:
    """sum(coeffs[k] * u**k) by Horner's rule, in one new array."""
    p = coeffs[-1] * u
    for c in coeffs[-2:0:-1]:
        p += c
        p *= u
    p += coeffs[0]
    return p


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) ~ 0.5 * (1 + tanh(x * P(x**2))) in numpy, within 2**-23 of
    float64 ``math.erf``'s Phi on every float32 tested ([-12, 12], +-1e30,
    +-inf; NaN stays NaN). Past |x| = 20, x * P(x**2) lies beyond +-1e8
    or overflows to +-inf, and tanh of either is +-1 in float32 and float64,
    so the Horner terms may overflow, with numpy's overflow warning off."""
    with np.errstate(over="ignore"):
        t = _poly(_CDF_COEFFS, x * x)
        t *= x
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def conv_ffn(y: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise feed-forward, 1x1 conv -> GELU -> 1x1 conv, as one
    primitive: y [..., C] is the rows of two GEMMs (w1 [hid, C, 1, 1],
    w2 [C, hid, 1, 1]) around h * normal_cdf(h), and the backward
    differentiates that same formula."""
    shape, c = y.shape, y.shape[-1]
    y2 = y.data.reshape(-1, c)
    w1m, w2m = w1.data.reshape(w1.shape[0], c), w2.data.reshape(w2.shape[0], -1)
    h = y2 @ w1m.T
    rows, bias = tt.channel_rows(h, b1.data)
    rows += bias
    cdf = normal_cdf(h)
    a = h * cdf
    out = a @ w2m.T
    rows, bias = tt.channel_rows(out, b2.data)
    rows += bias

    def back(g):
        g2 = g.reshape(out.shape)
        # past |h| = 20 tanh is +-1 (float32 and float64) and the slope
        # factor is multiplied by 0; capping u there keeps it finite
        slope = _poly(_SLOPE_COEFFS, np.minimum(h * h, 400.0))
        slope *= h
        slope *= 1.0 - cdf
        slope += 1.0
        slope *= cdf
        gh = g2 @ w2m
        gh *= slope
        return ((gh @ w1m).reshape(shape), (gh.T @ y2).reshape(w1.shape), gh.sum(axis=0),
                (g2.T @ a).reshape(w2.shape), g2.sum(axis=0))

    return tt.record(out.reshape(shape[:-1] + out.shape[-1:]), (y, w1, b1, w2, b2), back)
