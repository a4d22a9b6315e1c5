"""Dense-tensor engine with reverse-mode differentiation.

Every tensor wraps a contiguous row-major numpy buffer (float32 for training,
float64 for gradient checking). Differentiable primitives record themselves on
the active tape; ``backward`` replays the tape in reverse and accumulates
gradients into leaf tensors. Higher modules are pure compositions of the
primitives defined here.
"""

from __future__ import annotations

import ctypes
import sys
import threading

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor", "Tape", "ShapeError", "tensor", "param", "record", "backward",
    "add", "mul", "scale", "gelu", "matmul", "conv2d",
    "softmax", "layer_norm", "reshape", "transpose", "concat", "split",
    "mean", "AdamState", "adam_step",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc malloc settings (mallopt parameter id, value). A training step frees
# its whole graph at once when its tape exits, and by default glibc then trims
# the heap, so the next step faults the memory back in: about 2,200 minor page
# faults per default-config training step, 12,000 per step at T=16 with
# scales 1,2,4, and 6,000 for the next ``load_store`` (2-vCPU Linux host).
# A 256 MB trim threshold keeps freed memory in the process (0-3 faults per
# step). Setting it switches off glibc's dynamic mmap threshold, so the mmap
# threshold is pinned at 32 MB too; left at 128 KB, every larger array would
# be a fresh mapping.
_MALLOPT_SETTINGS = ((-1, 256 << 20),     # M_TRIM_THRESHOLD
                     (-3, 32 << 20))      # M_MMAP_THRESHOLD


def _keep_freed_memory():
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):     # a libc without mallopt: leave malloc alone
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param_id, value in _MALLOPT_SETTINGS:
        mallopt(param_id, value)


_keep_freed_memory()


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def _contig(arr: np.ndarray) -> np.ndarray:
    # np.ascontiguousarray would promote 0-d scalars to 1-d
    return arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)


class Tensor:
    """N-dimensional array, optionally attached to the active tape.

    ``requires_grad`` marks a leaf (parameter): ``backward`` accumulates into
    its ``grad`` buffer across calls until the harness zeroes it.
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"unsupported dtype {data.dtype}; use float32 or float64")
        self.data = _contig(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, leaf={self.requires_grad})"


def tensor(data, dtype=np.float32) -> Tensor:
    """Wrap array-like data as a constant (non-leaf) tensor."""
    return Tensor(np.asarray(data, dtype=dtype))


def param(data, dtype=None) -> Tensor:
    """Wrap array-like data as a trainable leaf tensor."""
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype)
    return Tensor(arr, requires_grad=True)


class _Node:
    __slots__ = ("out", "parents", "backward")

    def __init__(self, out, parents, backward):
        self.out = out
        self.parents = parents
        self.backward = backward


class Tape:
    """Ordered record of primitive applications.

    Creation order is topological order: an op can only consume tensors that
    already exist. One tape per training step; tapes are not shared across
    threads (the active-tape stack is thread-local).
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _state().stack.append(self)
        return self

    def __exit__(self, *exc):
        _state().stack.pop()
        # Tensor.node -> _Node.out -> Tensor is a reference cycle; cutting it
        # lets reference counting free the graph here instead of waiting for
        # the cyclic collector, which runs rarely on a batched step.
        for node in self.nodes:
            node.out.node = None
        self.nodes = []
        return False


class _TapeState(threading.local):
    def __init__(self):
        self.stack = []


_STATE = _TapeState()


def _state() -> _TapeState:
    return _STATE


def _active_tape():
    stack = _state().stack
    return stack[-1] if stack else None


def record(out_data: np.ndarray, parents, backward_fn) -> Tensor:
    """Create the output tensor of a primitive and record it on the active tape.

    ``backward_fn(grad_out)`` must return one gradient array (or None) per
    parent. Modules outside this file use ``record`` to define new
    differentiable primitives without touching the engine.
    """
    out = Tensor(_contig(out_data))
    tape = _active_tape()
    if tape is not None:
        node = _Node(out, tuple(parents), backward_fn)
        out.node = node
        tape.nodes.append(node)
    return out


def backward(loss: Tensor) -> dict:
    """Accumulate d(loss)/d(leaf) for every reachable leaf tensor.

    Returns a map from leaf Tensor to its gradient array for this call;
    repeated calls without ``zero_grad`` accumulate into ``Tensor.grad``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    tape = _active_tape()
    if loss.node is None or tape is None or loss.node not in tape.nodes:
        raise ValueError("loss is not attached to the active tape")

    grads = {id(loss): np.ones_like(loss.data)}
    leaves = {}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.backward(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
            if parent.requires_grad and parent.node is None:
                leaves[key] = parent

    result = {}
    for key, leaf in leaves.items():
        g = grads[key]
        if leaf.grad is None:
            leaf.grad = g.copy()
        else:
            leaf.grad += g
        result[leaf] = g
    return result


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# elementwise ops

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also match only the trailing axes of ``a``
    (a bias broadcast over the leading ones)."""
    lead = a.data.ndim - b.data.ndim
    if lead < 0 or a.data.shape[lead:] != b.data.shape:
        raise ShapeError(f"add: shape {b.data.shape} does not match or broadcast "
                         f"to {a.data.shape}")
    if lead == 0:
        return record(a.data + b.data, (a, b), lambda g: (g, g))
    return record(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=tuple(range(lead)))))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return record(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return record(x.data * s, (x,), lambda g: (g * s,))


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: x * Phi(x)."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = xd * cdf
    pdf = _INV_SQRT2PI * np.exp(-0.5 * xd * xd)
    return record(out, (x,), lambda g: (g * (cdf + xd * pdf),))


# ---------------------------------------------------------------------------
# contraction

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; the leading (batch) extents must be equal."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ for shapes {ad.shape} and {bd.shape}")
    if ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: batch extents differ for shapes {ad.shape} and {bd.shape}")
    out = np.matmul(ad, bd)

    def back(g):
        return (np.matmul(g, np.swapaxes(bd, -1, -2)),
                np.matmul(np.swapaxes(ad, -1, -2), g))

    return record(out, (a, b), back)


# ---------------------------------------------------------------------------
# convolution

def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d cross-correlation with zero padding and bias.

    x: [..., Cin, H, W] (all leading axes form one batch), w: [Cout, Cin, kh, kw],
    b: [Cout]. Output: [..., Cout, Ho, Wo] with
    Ho = floor((H + 2*pad - kh) / stride) + 1, likewise Wo.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d: expected [..., Cin, H, W] input and 4-d kernel, "
                         f"got {xd.shape} and {wd.shape}")
    xshape = xd.shape
    lead, (cin, h, wid) = xshape[:-3], xshape[-3:]
    xd = xd.reshape(-1, cin, h, wid)
    n = xd.shape[0]
    cout, cin_w, kh, kw = wd.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input channels {cin} != kernel channels {cin_w}")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.data.shape} != ({cout},)")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    hp, wp = h + 2 * pad, wid + 2 * pad
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d: kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]                     # [N, Cin, Ho, Wo, kh, kw]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n * ho * wo, cin * kh * kw)
    wmat = wd.reshape(cout, -1)
    out = cols @ wmat.T + b.data
    out = out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2).reshape(lead + (cout, ho, wo))
    # a constant input (the frames) gets no gradient, so its col2im is skipped
    need_gx = x.requires_grad or x.node is not None

    def back(g):
        g = g.reshape(n, cout, ho, wo)
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, cout)
        gw = (gmat.T @ cols).reshape(wd.shape)
        gb = gmat.sum(axis=0)
        if not need_gx:
            return None, gw, gb
        gcols = (gmat @ wmat).reshape(n, ho, wo, cin, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        gxp = np.zeros((n, cin, hp, wp), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, :, :, :, i, j]
        gx = gxp[:, :, pad:pad + h, pad:pad + wid] if pad else gxp
        return gx.reshape(xshape), gw, gb

    return record(out, (x, w, b), back)


# ---------------------------------------------------------------------------
# normalization and softmax

def softmax(x: Tensor, axis: int) -> Tensor:
    xd = x.data
    if not -xd.ndim <= axis < xd.ndim:
        raise ValueError(f"softmax: axis {axis} invalid for rank {xd.ndim}")
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return record(y, (x,), back)


def layer_norm(x: Tensor, axis: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize along one axis, then apply a per-extent affine."""
    xd = x.data
    axis = axis % xd.ndim
    c = xd.shape[axis]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.data.shape}/{beta.data.shape} != ({c},)")
    bshape = [1] * xd.ndim
    bshape[axis] = c
    gam = gamma.data.reshape(bshape)
    mu = xd.mean(axis=axis, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    out = gam * xhat + beta.data.reshape(bshape)

    reduce_axes = tuple(i for i in range(xd.ndim) if i != axis)

    def back(g):
        ggamma = (g * xhat).sum(axis=reduce_axes)
        gbeta = g.sum(axis=reduce_axes)
        gxhat = g * gam
        gx = inv * (gxhat - gxhat.mean(axis=axis, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=axis, keepdims=True))
        return gx, ggamma, gbeta

    return record(out, (x, gamma, beta), back)


# ---------------------------------------------------------------------------
# shape ops

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}")
    old = x.data.shape
    return record(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose: axes {axes} not a permutation of rank {x.data.ndim}")
    inv = tuple(np.argsort(axes))
    return record(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ValueError("concat: need at least one tensor")
    axis = axis % parts[0].data.ndim
    base = list(parts[0].data.shape)
    for p in parts[1:]:
        other = list(p.data.shape)
        if len(other) != len(base) or any(
                o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis):
            raise ShapeError(
                f"concat: non-axis extents differ, {parts[0].data.shape} vs {p.data.shape}")
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, bounds, axis=axis))

    return record(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), back)


def split(x: Tensor, parts: int, axis: int):
    """Split into ``parts`` equal slices along ``axis``; inverse of concat."""
    axis = axis % x.data.ndim
    n = x.data.shape[axis]
    if n % parts != 0:
        raise ShapeError(f"split: extent {n} not divisible into {parts} parts")
    step = n // parts
    outs = []
    sl = [slice(None)] * x.data.ndim
    for k in range(parts):
        sl[axis] = slice(k * step, (k + 1) * step)
        piece = np.ascontiguousarray(x.data[tuple(sl)])

        def back(g, _k=k):
            gx = np.zeros_like(x.data)
            isl = [slice(None)] * x.data.ndim
            isl[axis] = slice(_k * step, (_k + 1) * step)
            gx[tuple(isl)] = g
            return (gx,)

        outs.append(record(piece, (x,), back))
    return outs


def mean(x: Tensor, axes) -> Tensor:
    axes = tuple(sorted(a % x.data.ndim for a in axes))
    count = 1
    for a in axes:
        count *= x.data.shape[a]
    old = x.data.shape

    def back(g):
        gexp = np.expand_dims(g, axes)
        return (np.broadcast_to(gexp / count, old).copy(),)

    return record(x.data.mean(axis=axes), (x,), back)


# ---------------------------------------------------------------------------
# optimizer

class AdamState:
    """First/second-moment buffers, their decay rates and the shared step counter."""

    def __init__(self, params: dict, betas=(0.9, 0.999)):
        self.step = 0
        self.betas = betas
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: dict, state: AdamState, lr: float, eps: float = 1e-8):
    """One Adam update with bias correction; params with ``grad=None`` are skipped."""
    b1, b2 = state.betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
