"""Dense-tensor engine with reverse-mode differentiation.

Every tensor wraps a contiguous row-major numpy buffer (float32 for training,
float64 for gradient checking). Each primitive records its output tensor, with
its parents and backward closure, on the active tape; ``backward`` replays the
tape in reverse and returns the leaf gradients. The engine keeps only the
primitives the model calls: the residual ``add``, the affine ``linear`` (the
embed's patch GEMM and the head), ``conv2d``, ``layer_norm``, ``reshape``,
``transpose`` and the pool's ``mean``. Higher modules record their own (the
attention layer, the feed-forward block, the loss).

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
    "add", "linear", "conv2d",
    "layer_norm", "reshape", "transpose",
    "mean", "AdamState", "adam_step",
    "channel_rows", "reshape_runs",
]

_NORM_EPS = 1e-5                # layer_norm's variance floor
_ADAM_EPS = 1e-8                # adam_step's denominator floor

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

    ``requires_grad`` marks a leaf (parameter), whose gradient ``backward``
    returns. A primitive's output on a tape is a graph node: ``parents`` are
    its operands and ``back`` maps its output gradient to theirs; both are
    None off the tape and after the tape exits.
    """

    __slots__ = ("data", "requires_grad", "parents", "back")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"unsupported dtype {data.dtype}; use float32 or float64")
        self.data = _contig(data)
        self.requires_grad = requires_grad
        self.parents = None
        self.back = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, leaf={self.requires_grad})"


def tensor(data, dtype=np.float32) -> Tensor:
    """Wrap array-like data as a constant (non-leaf) tensor."""
    return Tensor(np.asarray(data, dtype=dtype))


def param(data) -> Tensor:
    """Wrap array-like data as a trainable leaf tensor."""
    return Tensor(np.asarray(data), requires_grad=True)


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
        # a caller may hold the loss past the tape (train_step does, through
        # adam_step); its parents would keep the whole graph and the saved
        # activations alive, so each node drops its links here
        for out in self.nodes:
            out.parents = out.back = None
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
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        out.parents = tuple(parents)
        out.back = backward_fn
        tape.nodes.append(out)
    return out


def backward(loss: Tensor) -> dict:
    """d(loss)/d(leaf) for every leaf the loss reaches, as {leaf tensor:
    gradient array}. The tape is left as it was, so a second call returns
    the same gradients."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    tape = _active_tape()
    if loss.back is None or tape is None or loss not in tape.nodes:
        raise ValueError("loss is not attached to the active tape")

    grads = {loss: np.ones_like(loss.data)}
    for out in reversed(tape.nodes):
        g = grads.pop(out, None)
        if g is None:
            continue
        for parent, pg in zip(out.parents, out.back(g)):
            if pg is not None:
                grads[parent] = grads[parent] + pg if parent in grads else pg
    return {t: g for t, g in grads.items() if t.requires_grad and t.back is None}


# ---------------------------------------------------------------------------
# elementwise ops

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (the residual connections)."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    return record(a.data + b.data, (a, b), lambda g: (g, g))


# ---------------------------------------------------------------------------
# affine map

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [N, K], w [K, M] and b [M]; the bias is added in
    place over ``channel_rows``. A constant ``x`` (neither a parameter nor
    taped, like the embed's frame patches) gets no gradient."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] \
            or b.data.shape != wd.shape[1:]:
        raise ShapeError(f"linear: shapes {xd.shape} @ {wd.shape} + {b.data.shape} "
                         f"are not [N, K] @ [K, M] + [M]")
    out = xd @ wd
    rows, bias = channel_rows(out, b.data)
    rows += bias
    need_gx = x.requires_grad or x.back is not None

    def back(g):
        return (g @ wd.T if need_gx else None), xd.T @ g, g.sum(axis=0)

    return record(out, (x, w, b), back)


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

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Standardize along the last (channel) axis, then apply a per-channel affine."""
    xd = x.data
    c = xd.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.data.shape}/{beta.data.shape} != ({c},)")
    # channel means as a GEMV with a 1/C column: .mean over a 12-long last axis is ~1.8x slower
    avg = np.full((c, 1), 1.0 / c, dtype=xd.dtype)
    d = xd - xd @ avg
    inv = 1.0 / np.sqrt((d * d) @ avg + _NORM_EPS)
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
    """First/second-moment buffers and the shared step counter."""

    def __init__(self, params: dict):
        self.step = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One Adam update with bias correction, each param moved by its gradient
    in ``grads`` (keyed by tensor, as ``backward`` returns them); a param
    without one is skipped."""
    b1, b2 = 0.9, 0.999             # moment decay rates
    state.step += 1
    t = state.step
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads.get(p)
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
