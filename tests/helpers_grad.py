"""Shared gradient-check cases: one entry per differentiable op.

Each case yields ``(name, make)`` where ``make(rng)`` returns
``(arrays, build)`` with ``build`` mapping leaf tensors to the op's output.
Inputs are kept away from kinks and pooling ties so central differences
stay valid.
"""

import numpy as np

from gaxkit import autodiff as ad


def _smooth(rng, shape, low=-2.0, high=2.0):
    return rng.uniform(low, high, size=shape)


def _kink_safe(rng, shape, margin=5e-3):
    """Values bounded away from zero (the relu kink)."""
    a = rng.uniform(margin, 2.0, size=shape)
    return a * rng.choice([-1.0, 1.0], size=shape)


def _distinct(rng, shape):
    """Values with pairwise gaps, so pooling maxima never switch under fd."""
    n = int(np.prod(shape))
    base = np.linspace(-2.0, 2.0, n)
    jitter = rng.uniform(-0.2, 0.2, size=n) * (4.0 / max(n - 1, 1)) * 0.2
    return rng.permutation(base + jitter).reshape(shape)


def op_cases():
    cases = []

    def case(name):
        def deco(fn):
            cases.append((name, fn))
            return fn
        return deco

    @case("relu")
    def _(rng):
        a = _kink_safe(rng, (4, 4))
        return [a], ad.relu

    @case("matmul_2d_2d")
    def _(rng):
        a, b = _smooth(rng, (3, 4)), _smooth(rng, (2, 4))
        return [a, b], ad.matmul

    @case("flatten")
    def _(rng):
        a = _smooth(rng, (2, 3, 2))
        return [a], ad.flatten

    @case("bias_add_2d")
    def _(rng):
        a, b = _smooth(rng, (3, 4)), _smooth(rng, (4,))
        return [a, b], ad.bias_add

    @case("bias_add_4d")
    def _(rng):
        # a conv layer adds its per-channel bias to the 4-D activation in
        # conv2d: through a 1x1 identity kernel the op is that bias add alone
        a, b = _smooth(rng, (2, 3, 2, 2)), _smooth(rng, (3,))
        eye = ad.Tensor(np.eye(3).reshape(3, 3, 1, 1))
        return [a, b], lambda x, bias: ad.conv2d(x, eye, bias)

    @case("conv2d")
    def _(rng):
        x = _smooth(rng, (2, 2, 5, 5))
        k = _smooth(rng, (3, 2, 3, 3))
        b = _smooth(rng, (3,))
        return [x, k, b], ad.conv2d

    @case("max_pool2d")
    def _(rng):
        x = _distinct(rng, (1, 2, 5, 5))
        return [x], ad.max_pool2d

    return cases
