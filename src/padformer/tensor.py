"""Dense-tensor engine with reverse-mode differentiation.

Every tensor wraps a contiguous row-major numpy buffer (float32 for training,
float64 for gradient checking). Differentiable primitives record themselves on
the active tape; ``backward`` replays the tape in reverse and accumulates
gradients into leaf tensors. Higher modules compose these primitives or
record their own (the attention layer, the loss).

Dtype rule: every primitive returns, and back-propagates, its operands'
dtype, so a float32 model trains and scores in float32 throughout. ``record``
enforces it: an output whose dtype differs from a parent's raises
``TypeError``. Scalar constants are Python floats, which never promote.
"""

from __future__ import annotations

import ctypes
import math
import sys
import threading

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "tensor", "param", "record", "backward",
    "add", "matmul", "conv2d",
    "layer_norm", "reshape", "transpose",
    "mean", "AdamState", "adam_step",
    "channel_rows", "reshape_runs",
]

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


# numpy pays per inner-loop iteration, and a channel axis is 2-48 values long
_TILE_ROWS = 64


def channel_rows(x: np.ndarray, *vectors: np.ndarray):
    """``x`` [..., C] as rows [N/k, k*C], followed by each [C] vector tiled k
    times, with k = gcd(N, 64): a channel broadcast over them does the same
    float operations as over [N, C], in inner loops k times longer. The rows
    are a view of a contiguous ``x``, so in-place ops reach it."""
    c = x.shape[-1]
    n = x.size // c
    k = math.gcd(n, _TILE_ROWS)
    # ndarray.repeat, not np.tile, whose Python overhead (~6 us) is most of a small add
    return (x.reshape(n // k, k * c),) + tuple(v.reshape(1, -1).repeat(k, axis=0).reshape(-1)
                                               for v in vectors)


def reshape_runs(a: np.ndarray, shape: tuple) -> np.ndarray:
    """``a.reshape(shape)`` for an ``a`` whose last axis stays whole inside
    the last axis of ``shape``. That axis's runs are reshaped as fixed-size
    ``np.void`` elements, so where the reshape must copy (a permuted, sliced
    or windowed view), numpy's copy loop iterates once per run, not once per
    value; where it can view, it views."""
    if a.flags.c_contiguous or a.strides[-1] != a.itemsize:
        return a.reshape(shape)
    run = a.shape[-1]
    runs = a.view(np.dtype((np.void, run * a.itemsize)))[..., 0]
    runs = runs.reshape(tuple(shape[:-1]) + (shape[-1] // run,))
    # numpy changes the itemsize of a view only along a contiguous last axis
    if runs.shape[-1] != 1 and runs.size and runs.strides[-1] != runs.itemsize:
        runs = np.ascontiguousarray(runs)
    return runs.view(a.dtype)


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
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, leaf={self.requires_grad})"


def tensor(data, dtype=np.float32) -> Tensor:
    """Wrap array-like data as a constant (non-leaf) tensor."""
    return Tensor(np.asarray(data, dtype=dtype))


def param(data) -> Tensor:
    """Wrap array-like data as a trainable leaf tensor."""
    return Tensor(np.asarray(data), requires_grad=True)


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
        _STATE.stack.append(self)
        return self

    def __exit__(self, *exc):
        _STATE.stack.pop()
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


def _active_tape():
    stack = _STATE.stack
    return stack[-1] if stack else None


def record(out_data: np.ndarray, parents, backward_fn) -> Tensor:
    """Create the output tensor of a primitive and record it on the active tape.

    ``backward_fn(grad_out)`` must return one gradient array (or None) per
    parent. Modules outside this file use ``record`` to define new
    differentiable primitives without touching the engine. The output must
    have its parents' dtype; a primitive that promotes raises ``TypeError``.
    """
    for p in parents:
        if p.data.dtype != out_data.dtype:
            op = sys._getframe(1).f_code.co_name           # the calling primitive
            raise TypeError(f"{op}: {p.data.dtype} operand gave a {out_data.dtype} output")
    out = Tensor(_contig(out_data))
    tape = _active_tape()
    if tape is not None:
        node = _Node(out, tuple(parents), backward_fn)
        out.node = node
        tape.nodes.append(node)
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into the ``grad`` of every reachable leaf."""
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

    for key, leaf in leaves.items():
        g = grads[key]
        if leaf.grad is None:
            leaf.grad = g.copy()
        else:
            leaf.grad += g


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
    rows, bias = channel_rows(a.data.reshape(-1, b.data.size), b.data)
    return record((rows + bias).reshape(a.data.shape), (a, b),
                  lambda g: (g, g.sum(axis=tuple(range(lead)))))


# ---------------------------------------------------------------------------
# contraction

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; the leading (batch) extents must be equal. A
    constant operand (neither a parameter nor taped) gets no gradient."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ for shapes {ad.shape} and {bd.shape}")
    if ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: batch extents differ for shapes {ad.shape} and {bd.shape}")
    out = np.matmul(ad, bd)
    need_ga, need_gb = (t.requires_grad or t.node is not None for t in (a, b))

    def back(g):
        return (np.matmul(g, np.swapaxes(bd, -1, -2)) if need_ga else None,
                np.matmul(np.swapaxes(ad, -1, -2), g) if need_gb else None)

    return record(out, (a, b), back)


# ---------------------------------------------------------------------------
# convolution

def conv2d(x: Tensor, w: Tensor, b: Tensor, pad: int = 0) -> Tensor:
    """Stride-1 2-d cross-correlation of channels-last maps, with zero
    padding and bias.

    x: [..., H, W, Cin] (all leading axes form one batch), w: [Cout, Cin, kh, kw],
    b: [Cout]. Output: [..., Ho, Wo, Cout] with Ho = H + 2*pad - kh + 1,
    likewise Wo.

    The im2col columns are ordered (kh, kw, Cin) and gathered from the input
    (a zero-padded copy when pad > 0), so each kernel row of a window is one
    contiguous run of kw*Cin values, copied whole, and the backward scatters
    each tap as one add over whole channel runs.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d: expected [..., H, W, Cin] input and 4-d kernel, "
                         f"got {xd.shape} and {wd.shape}")
    xshape = xd.shape
    lead, (h, wid, cin) = xshape[:-3], xshape[-3:]
    cout, cin_w, kh, kw = wd.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input channels {cin} != kernel channels {cin_w}")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.data.shape} != ({cout},)")
    hp, wp = h + 2 * pad, wid + 2 * pad
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d: kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})")
    ho, wo = hp - kh + 1, wp - kw + 1

    xp = xd.reshape(-1, h, wid, cin)
    n = xp.shape[0]
    if pad:
        xp = np.zeros((n, hp, wp, cin), dtype=xd.dtype)
        xp[:, pad:pad + h, pad:pad + wid] = xd.reshape(n, h, wid, cin)
    # kernel row i of the window at (y, x) is the run xp[:, y + i, x:x + kw], as a view
    sn, sh, sw, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (n, ho, wo, kh, kw * cin), (sn, sh, sw, sh, sc),
                                          writeable=False)
    cols = reshape_runs(win, (n * ho * wo, kh * kw * cin))
    wmat = wd.transpose(0, 2, 3, 1).reshape(cout, -1)
    out = cols @ wmat.T
    rows, bias = channel_rows(out, b.data)
    rows += bias
    out = out.reshape(lead + (ho, wo, cout))

    def back(g):
        gmat = g.reshape(-1, cout)
        gw = (gmat.T @ cols).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
        gb = gmat.sum(axis=0)
        gcols = (gmat @ wmat).reshape(n, ho, wo, kh, kw, cin)
        gxp = np.zeros((n, hp, wp, cin), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, i:i + ho, j:j + wo] += gcols[:, :, :, i, j]
        return gxp[:, pad:pad + h, pad:pad + wid].reshape(xshape), gw, gb

    return record(out, (x, w, b), back)


# ---------------------------------------------------------------------------
# normalization

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize along the last (channel) axis, then apply a per-channel affine."""
    xd = x.data
    c = xd.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.data.shape}/{beta.data.shape} != ({c},)")
    # channel means as a GEMV with a 1/C column: .mean over a 12-long last axis is ~1.8x slower
    avg = np.full((c, 1), 1.0 / c, dtype=xd.dtype)
    d = xd - xd @ avg
    inv = 1.0 / np.sqrt((d * d) @ avg + eps)
    xhat = d * inv
    rows, gain, shift = channel_rows(xhat, gamma.data, beta.data)
    out = rows * gain
    out += shift

    def back(g):
        ggamma = (g * xhat).reshape(-1, c).sum(axis=0)
        gbeta = g.reshape(-1, c).sum(axis=0)
        grows, gain = channel_rows(g, gamma.data)
        gxhat = (grows * gain).reshape(g.shape)
        gx = inv * (gxhat - gxhat @ avg - xhat * ((gxhat * xhat) @ avg))
        return gx, ggamma, gbeta

    return record(out.reshape(xd.shape), (x, gamma, beta), back)


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


def mean(x: Tensor, axes) -> Tensor:
    """Mean over ``axes`` as a GEMV with a 1/count vector (``.mean`` over the
    pool's middle axes runs C-wide inner loops); non-adjacent axes move last."""
    xd, old = x.data, x.data.shape
    axes = tuple(sorted(a % xd.ndim for a in axes))
    lo, hi = axes[0], axes[-1] + 1
    if hi - lo != len(axes):
        lo, hi = xd.ndim - len(axes), xd.ndim
        xd = _contig(np.moveaxis(xd, axes, range(lo, hi)))
    count = math.prod(xd.shape[lo:hi])
    avg = np.full(count, 1.0 / count, dtype=xd.dtype)
    out = avg @ xd.reshape(math.prod(xd.shape[:lo]), count, -1)

    def back(g):
        gexp = np.expand_dims(g, axes)
        return (np.broadcast_to(gexp / count, old).copy(),)

    return record(out.reshape(xd.shape[:lo] + xd.shape[hi:]), (x,), back)


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
