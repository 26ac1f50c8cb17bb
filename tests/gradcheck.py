"""Finite-difference gradient checking.

The numeric side only ever evaluates forward passes, so it stays
independent of the backward machinery it is used to verify.
"""

from __future__ import annotations

import numpy as np

from gaxkit.autodiff import Tensor


def numeric_gradient(f, arrays, index: int, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar ``f(*arrays)`` w.r.t. one input."""
    work = [np.array(a, dtype=np.float64) for a in arrays]
    target = work[index]
    grad = np.zeros_like(target)
    flat_t = target.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_t.size):
        orig = flat_t[i]
        flat_t[i] = orig + step
        hi = f(*work)
        flat_t[i] = orig - step
        lo = f(*work)
        flat_t[i] = orig
        flat_g[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case |analytic - numeric| over max(|analytic|, |numeric|, 1)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1.0)
    return float(np.abs(a - n).max(initial=0.0) / denom)


def check_gradients(build, arrays, *, step: float = 1e-6) -> list[float]:
    """Compare backprop against finite differences for ``build``.

    ``build`` maps input tensors to a Tensor of any shape.  The backward
    pass is seeded with a fixed random cotangent ``r`` shaped like the
    output and checked against central differences of ``sum(r * out)``.
    Returns the max relative error per input.
    """
    tensors = [Tensor(a) for a in arrays]
    out = build(*tensors)
    r = np.random.default_rng(0).uniform(-1.0, 1.0, size=out.shape)
    out.backward(r, wrt=tensors)

    def f(*arrs) -> float:
        return float((r * build(*[Tensor(a) for a in arrs]).data).sum())

    return [
        max_relative_error(t.grad, numeric_gradient(f, arrays, i, step))
        for i, t in enumerate(tensors)
    ]
