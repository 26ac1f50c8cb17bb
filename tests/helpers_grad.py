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
        a, b = _smooth(rng, (3, 4)), _smooth(rng, (4, 2))
        return [a, b], ad.matmul

    @case("transpose2d")
    def _(rng):
        a = _smooth(rng, (3, 5))
        return [a], ad.transpose2d

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
        a, b = _smooth(rng, (2, 3, 2, 2)), _smooth(rng, (3,))
        return [a, b], ad.bias_add

    @case("conv2d")
    def _(rng):
        pad = int(rng.integers(0, 2))
        x = _smooth(rng, (2, 2, 5, 5))
        k = _smooth(rng, (3, 2, 3, 3))
        return [x, k], lambda a, b: ad.conv2d(a, b, pad=pad)

    @case("max_pool2d")
    def _(rng):
        x = _distinct(rng, (1, 2, 5, 5))
        return [x], lambda a: ad.max_pool2d(a, 2)

    @case("cross_entropy")
    def _(rng):
        a = _smooth(rng, (4, 3))
        y = rng.integers(0, 3, size=4)
        return [a], lambda x: ad.cross_entropy(x, y)

    return cases
