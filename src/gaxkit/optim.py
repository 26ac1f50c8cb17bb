"""Adam optimizer with bias correction and no weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError

EPS = 1e-8          # added to sqrt(v_hat) so the step stays finite
BETA2 = 0.999       # decay rate of the second-moment estimate


class Adam:
    """Adaptive moment estimation over a dict of named parameter arrays.

    ``step`` is functional: it returns freshly allocated parameter arrays
    and keeps per-parameter first/second moments plus the step counter as
    internal state.  There is deliberately no weight-decay term.
    """

    def __init__(self, learning_rate: float, beta1: float = 0.9):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One bias-corrected update; returns the new parameter dict."""
        self.step_count += 1
        t = self.step_count
        out: dict[str, np.ndarray] = {}
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if g.shape != p.shape:
                raise ShapeError(
                    f"adam: gradient shape {g.shape} != parameter shape "
                    f"{p.shape} for {name!r}")
            # the moments start at 0
            m = self.beta1 * self._m.get(name, 0.0) + (1.0 - self.beta1) * g
            v = BETA2 * self._v.get(name, 0.0) + (1.0 - BETA2) * g * g
            self._m[name] = m
            self._v[name] = v
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            out[name] = p - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
        return out
