"""Central finite-difference gradient oracle, independent of the tape, and
the projection that reduces a primitive's output to a scalar loss."""

import numpy as np

from padformer import tensor as T

from oracles import matmul


def scalarize(out, proj):
    """Reduce a tensor to a scalar through a fixed projection: [1, n] @ [n, 1]."""
    n = out.data.size
    col = T.tensor(np.reshape(proj, (n, 1)), dtype=np.float64)
    return T.reshape(matmul(T.reshape(out, (1, n)), col), ())


def numeric_grad(fwd, arr, h=1e-5):
    """d fwd() / d arr by central differences; mutates arr in place and restores it.

    ``fwd`` takes no arguments and returns a python float recomputed from the
    current contents of ``arr``. f64 only: finite differences are unreliable
    in f32.
    """
    assert arr.dtype == np.float64, "gradient checks require float64"
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fwd()
        flat[i] = orig - h
        fm = fwd()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_close(analytic, numeric, rtol, atol=1e-8, what=""):
    """Elementwise relative error below ``rtol``; tiny entries compared absolutely."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape, (analytic.shape, numeric.shape)
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff <= atol) | (diff <= rtol * denom)
    if not ok.all():
        idx = np.unravel_index(np.argmax(np.where(ok, 0.0, diff / np.maximum(denom, 1e-300))), diff.shape)
        raise AssertionError(
            f"{what} gradient mismatch at {idx}: analytic={analytic[idx]!r} "
            f"numeric={numeric[idx]!r} rel={diff[idx] / max(denom[idx], 1e-300):.3e}")
