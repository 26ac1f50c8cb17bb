"""Closed forms for the 2D rotation toy model.

A sample ``x = a1*x1 + a2*x2`` is expressed in the basis obtained by
applying a mixing matrix ``W`` to the canonical axes.  Writing the heatmap
``h = w * x`` in that basis as ``A x1 + B x2`` gives a score difference

    delta = A - B

that is linear in ``w``, so gradient ascent on it has an exact closed
form: after k steps of size eta the heatmap is ``(w + k*eta*grad) * x``.
These functions evaluate delta, its gradient, the k-step heatmap, and
rotation sweeps of both, all in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .formats import write_rows


@dataclass(frozen=True)
class ToyInstance:
    theta: float
    a1: float
    a2: float
    k_eta: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.k_eta < 0:
            raise ValueError(f"k_eta must be >= 0, got {self.k_eta}")


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def sample_vector(inst: ToyInstance) -> np.ndarray:
    """The sample in pixel coordinates: W(theta) @ (a1, a2)."""
    return rotation(inst.theta) @ np.array([inst.a1, inst.a2])


def delta(inst: ToyInstance) -> float:
    """A - B for heatmap weights w = (1, 1): the score difference to
    maximize.  delta is linear in w, so it is w dotted with its gradient:
    here the gradient's sum."""
    return float(delta_gradient(inst).sum())


def delta_gradient(inst: ToyInstance) -> np.ndarray:
    """Gradient of delta w.r.t. the heatmap weights (constant in w)."""
    wm = rotation(inst.theta)
    wi = np.linalg.inv(wm)
    x1 = inst.a1 * wm[0, 0] + inst.a2 * wm[0, 1]
    x2 = inst.a1 * wm[1, 0] + inst.a2 * wm[1, 1]
    return np.array([(wi[0, 0] - wi[1, 0]) * x1,
                     -(wi[1, 1] - wi[0, 1]) * x2])


def closed_form_heatmap(inst: ToyInstance) -> np.ndarray:
    """Heatmap after ``k_eta`` total ascent on delta from w = (1, 1):
    (w + k*eta*grad) * x."""
    x = sample_vector(inst)
    return (1.0 + inst.k_eta * delta_gradient(inst)) * x


def rotation_sweep(a1: float, a2: float, k_eta: float) -> np.ndarray:
    """Rows of (theta, x1, x2, h1, h2) across a rotation grid.

    The grid spans [-pi, pi] with 97 points, covering both the
    non-negative quadrant sweep and the full-range variant.
    """
    thetas = np.linspace(-np.pi, np.pi, 97)
    rows = np.empty((thetas.size, 5))
    for i, theta in enumerate(thetas):
        inst = ToyInstance(float(theta), a1, a2, k_eta)
        x = sample_vector(inst)
        h = closed_form_heatmap(inst)
        rows[i] = (theta, x[0], x[1], h[0], h[1])
    return rows


SWEEP_HEADER = "theta,x1,x2,h1,h2"


def write_sweep_csv(rows: np.ndarray, path) -> None:
    write_rows(path, SWEEP_HEADER, rows)
