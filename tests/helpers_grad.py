"""Shared gradient-check cases: one entry per differentiable op.

Each case yields ``(name, make)`` where ``make(rng)`` returns
``(arrays, build)`` with ``build`` mapping leaf tensors to a scalar Tensor.
Inputs are kept away from kinks and zero denominators so central
differences stay valid.
"""

import numpy as np

from gaxkit import autodiff as ad


def _smooth(rng, shape, low=-2.0, high=2.0):
    return rng.uniform(low, high, size=shape)


def _kink_safe(rng, shape, margin=5e-3):
    """Values bounded away from zero (relu/leaky kinks)."""
    a = rng.uniform(margin, 2.0, size=shape)
    return a * rng.choice([-1.0, 1.0], size=shape)


def _distinct(rng, shape):
    """Values with pairwise gaps, so pooling maxima never switch under fd."""
    n = int(np.prod(shape))
    base = np.linspace(-2.0, 2.0, n)
    jitter = rng.uniform(-0.2, 0.2, size=n) * (4.0 / max(n - 1, 1)) * 0.2
    return rng.permutation(base + jitter).reshape(shape)


def _scalarize(t):
    return ad.weighted_sum(t, np.ones(t.shape)) if t.size != 1 else t


def op_cases():
    cases = []

    def case(name):
        def deco(fn):
            cases.append((name, fn))
            return fn
        return deco

    @case("add")
    def _(rng):
        a, b = _smooth(rng, (3, 4)), _smooth(rng, (3, 4))
        return [a, b], lambda x, y: _scalarize(ad.mul(ad.add(x, y), ad.add(x, y)))

    @case("sub")
    def _(rng):
        a, b = _smooth(rng, (3, 4)), _smooth(rng, (3, 4))
        return [a, b], lambda x, y: _scalarize(ad.mul(ad.sub(x, y), ad.add(x, y)))

    @case("mul")
    def _(rng):
        a, b = _smooth(rng, (2, 5)), _smooth(rng, (2, 5))
        return [a, b], lambda x, y: _scalarize(ad.mul(x, y))

    @case("shift")
    def _(rng):
        a = _smooth(rng, (5,))
        c = float(rng.uniform(-1, 1))
        return [a], lambda x: _scalarize(ad.square(ad.shift(x, c)))

    @case("scale")
    def _(rng):
        a = _smooth(rng, (5,))
        c = float(rng.uniform(0.2, 2))
        return [a], lambda x: _scalarize(ad.square(ad.scale(x, c)))

    @case("square")
    def _(rng):
        a = _smooth(rng, (4, 3))
        return [a], lambda x: _scalarize(ad.square(x))

    @case("reciprocal")
    def _(rng):
        a = _kink_safe(rng, (6,), margin=0.4)
        return [a], lambda x: _scalarize(ad.reciprocal(x))

    @case("relu")
    def _(rng):
        a = _kink_safe(rng, (4, 4))
        return [a], lambda x: _scalarize(ad.mul(ad.relu(x), x))

    @case("leaky_relu")
    def _(rng):
        a = _kink_safe(rng, (4, 4))
        slope = float(rng.uniform(0.01, 0.3))
        return [a], lambda x: _scalarize(ad.leaky_relu(x, slope))

    @case("sigmoid")
    def _(rng):
        a = _smooth(rng, (3, 3))
        return [a], lambda x: _scalarize(ad.sigmoid(x))

    @case("tanh")
    def _(rng):
        a = _smooth(rng, (3, 3))
        return [a], lambda x: _scalarize(ad.tanh(x))

    @case("matmul_2d_2d")
    def _(rng):
        a, b = _smooth(rng, (3, 4)), _smooth(rng, (4, 2))
        return [a, b], lambda x, y: _scalarize(ad.matmul(x, y))

    @case("transpose2d")
    def _(rng):
        a = _smooth(rng, (3, 5))
        return [a], lambda x: _scalarize(ad.square(ad.transpose2d(x)))

    @case("flatten")
    def _(rng):
        a = _smooth(rng, (2, 3, 2))
        return [a], lambda x: _scalarize(ad.square(ad.flatten(x)))

    @case("bias_add_2d")
    def _(rng):
        a, b = _smooth(rng, (3, 4)), _smooth(rng, (4,))
        return [a, b], lambda x, y: _scalarize(ad.square(ad.bias_add(x, y)))

    @case("bias_add_4d")
    def _(rng):
        a, b = _smooth(rng, (2, 3, 2, 2)), _smooth(rng, (3,))
        return [a, b], lambda x, y: _scalarize(ad.square(ad.bias_add(x, y)))

    @case("conv2d")
    def _(rng):
        pad = int(rng.integers(0, 2))
        x = _smooth(rng, (2, 2, 5, 5))
        k = _smooth(rng, (3, 2, 3, 3))
        return [x, k], lambda a, b: _scalarize(
            ad.square(ad.conv2d(a, b, pad=pad)))

    @case("max_pool2d")
    def _(rng):
        x = _distinct(rng, (1, 2, 5, 5))
        return [x], lambda a: _scalarize(ad.square(ad.max_pool2d(a, 2)))

    @case("mean_all")
    def _(rng):
        a = _smooth(rng, (3, 4))
        return [a], lambda x: ad.mean_all(ad.square(x))

    @case("select")
    def _(rng):
        a = _smooth(rng, (3, 4))
        i = int(rng.integers(0, 3))
        j = int(rng.integers(0, 4))
        return [a], lambda x: ad.select(ad.square(x), i, j)

    @case("weighted_sum")
    def _(rng):
        a = _smooth(rng, (2, 5))
        w = _smooth(rng, (2, 5))
        return [a], lambda x: ad.weighted_sum(ad.square(x), w)

    @case("cross_entropy")
    def _(rng):
        a = _smooth(rng, (4, 3))
        y = rng.integers(0, 3, size=4)
        return [a], lambda x: ad.cross_entropy(x, y)

    return cases
