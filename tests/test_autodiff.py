"""Engine tests: forward semantics, the three backward rules, and the
finite-difference gradient property for every op."""

import numpy as np
import pytest

from gaxkit import autodiff as ad
from gaxkit.autodiff import (RULE_DECONV, RULE_GUIDED, RULE_STANDARD,
                             ShapeError, Tensor)
from gradcheck import check_gradients

from helpers_grad import op_cases


class TestForward:
    def test_matmul_identity(self):
        out = ad.matmul(Tensor(np.eye(2)), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 4.0])

    def test_relu_definition(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_conv2d_all_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = ad.conv2d(x, k)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_tanh_zero(self):
        assert ad.tanh(Tensor([0.0])).data[0] == 0.0

    def test_leaky_relu_negative(self):
        assert ad.leaky_relu(Tensor([-2.0]), 0.01).data[0] == pytest.approx(-0.02)

    def test_sigmoid_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_conv2d_matches_scipy(self):
        from scipy.signal import correlate2d
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=(2, 3, 6, 6))
            k = rng.normal(size=(4, 3, 3, 3))
            out = ad.conv2d(Tensor(x), Tensor(k)).data
            for n in range(2):
                for o in range(4):
                    ref = sum(correlate2d(x[n, c], k[o, c], mode="valid")
                              for c in range(3))
                    np.testing.assert_allclose(out[n, o], ref, atol=1e-12)

    def test_max_pool_matches_loop(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 6, 6))
        out = ad.max_pool2d(Tensor(x), 2).data
        for n in range(2):
            for c in range(2):
                for i in range(3):
                    for j in range(3):
                        block = x[n, c, 2 * i: 2 * i + 2, 2 * j: 2 * j + 2]
                        assert out[n, c, i, j] == block.max()

    def test_shape_error_names_op(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError, match="conv2d"):
            ad.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 2, 2))))

    def test_outputs_finite(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)))
        k = Tensor(rng.normal(size=(2, 2, 3, 3)))
        out = ad.flatten(ad.max_pool2d(ad.relu(ad.conv2d(x, k, pad=1)), 2))
        assert np.isfinite(out.data).all()


class TestBackwardRules:
    def test_standard_relu_negative_input(self):
        x = Tensor([-1.0])
        y = ad.relu(x)
        y.backward(np.array([1.0]), rule=RULE_STANDARD)
        assert x.grad[0] == 0.0

    def test_deconv_passes_positive_upstream(self):
        # the deconv rule ignores the forward sign entirely
        x = Tensor([-1.0])
        y = ad.relu(x)
        y.backward(np.array([1.0]), rule=RULE_DECONV)
        assert x.grad[0] == 1.0

    def test_guided_masks_negative_upstream(self):
        x = Tensor([2.0])
        y = ad.relu(x)
        y.backward(np.array([-1.0]), rule=RULE_GUIDED)
        assert x.grad[0] == 0.0

    def test_deconv_blocks_negative_upstream(self):
        x = Tensor([2.0])
        y = ad.relu(x)
        y.backward(np.array([-1.0]), rule=RULE_DECONV)
        assert x.grad[0] == 0.0

    def test_rules_degrade_to_standard_when_all_positive(self):
        # positive pre-activations + positive upstream: all rules agree
        rng = np.random.default_rng(7)
        x_val = rng.uniform(0.5, 2.0, size=(1, 6))
        w_val = rng.uniform(0.1, 1.0, size=(6, 4))
        grads = {}
        for rule in (RULE_STANDARD, RULE_DECONV, RULE_GUIDED):
            x = Tensor(x_val)
            out = ad.relu(ad.matmul(x, Tensor(w_val)))
            out.backward(np.ones((1, 4)), rule=rule)
            grads[rule] = x.grad.copy()
        np.testing.assert_array_equal(grads[RULE_STANDARD], grads[RULE_DECONV])
        np.testing.assert_array_equal(grads[RULE_STANDARD], grads[RULE_GUIDED])

    def test_seed_shape_mismatch(self):
        y = ad.relu(Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError):
            y.backward(np.ones(3))

    def test_scalar_root_default_seed(self):
        x = Tensor([1.0, 2.0, 3.0])
        ad.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_nonscalar_root_needs_seed(self):
        with pytest.raises(ShapeError):
            ad.relu(Tensor([1.0, 2.0])).backward()

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            ad.sum_all(Tensor([1.0])).backward(rule="nonsense")

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([3.0])
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> grad 2x + 1
        y.backward(np.array([1.0]))
        assert x.grad[0] == pytest.approx(7.0)

    def test_gradient_shapes_match_values(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        k = Tensor(rng.normal(size=(4, 3, 3, 3)))
        out = ad.mean_all(ad.max_pool2d(ad.relu(ad.conv2d(x, k, pad=1)), 2))
        out.backward()
        seen = []
        stack = [out]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.append(id(node))
            assert node.grad.shape == node.data.shape
            stack.extend(node.parents)


class TestMLPChainRule:
    def test_two_layer_mlp_matches_hand_derivation(self):
        rng = np.random.default_rng(13)
        w1 = rng.normal(size=(3, 4))
        b1 = rng.normal(size=3)
        w2 = rng.normal(size=(2, 3))
        b2 = rng.normal(size=2)
        xv = rng.normal(size=4)
        seed = rng.normal(size=2)

        x = Tensor(xv)
        z1 = ad.add(ad.matmul(Tensor(w1), x), Tensor(b1))
        a1 = ad.relu(z1)
        z2 = ad.add(ad.matmul(Tensor(w2), a1), Tensor(b2))
        out = ad.sigmoid(z2)
        out.backward(seed)

        # hand-derived chain rule product
        z1v = w1 @ xv + b1
        z2v = w2 @ np.maximum(z1v, 0.0) + b2
        s = 1.0 / (1.0 + np.exp(-z2v))
        g = w1.T @ ((w2.T @ (seed * s * (1.0 - s))) * (z1v > 0))
        np.testing.assert_allclose(x.grad, g, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("name,make", op_cases(), ids=[n for n, _ in op_cases()])
def test_gradients_match_finite_differences(name, make):
    """Every op: analytic vs central differences, 100 seeded trials."""
    rng = np.random.default_rng(20250001)
    worst = 0.0
    for _ in range(100):
        arrays, build = make(rng)
        errs = check_gradients(build, arrays)
        worst = max(worst, max(errs))
    assert worst < 1e-6, f"{name}: max relative error {worst:.3e}"
