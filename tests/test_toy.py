"""Closed-form toy model: delta, the k-step heatmap, rotation sweeps."""

import numpy as np
import pytest

from gaxkit.toy import (SWEEP_HEADER, ToyInstance, closed_form_heatmap, delta,
                        delta_gradient, rotation, rotation_sweep, sample_vector,
                        write_sweep_csv)


def ascent_heatmap_numeric(inst, k, eta):
    """Oracle: run k explicit gradient-ascent steps of size eta on delta
    from w = (1, 1)."""
    w = np.ones(2)
    for _ in range(k):
        w = w + eta * delta_gradient(inst)
    return w * sample_vector(inst)


class TestDelta:
    def test_identity_rotation_reduces_to_coefficient_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a1, a2 = rng.uniform(-2, 2, size=2)
            inst = ToyInstance(0.0, a1, a2)
            assert delta(inst) == pytest.approx(a1 - a2, abs=1e-14)

    def test_matches_direct_basis_change(self):
        # independent route: (A, B) = W^-1 (w * x), delta = A - B
        rng = np.random.default_rng(1)
        for _ in range(50):
            theta = rng.uniform(-np.pi, np.pi)
            a1, a2 = rng.uniform(-2, 2, size=2)
            w = rng.uniform(-1.5, 1.5, size=2)
            inst = ToyInstance(theta, a1, a2)
            x = sample_vector(inst)
            ab = np.linalg.inv(rotation(theta)) @ (w * x)
            assert np.dot(w, delta_gradient(inst)) == pytest.approx(
                ab[0] - ab[1], abs=1e-12)

    def test_quarter_turn_case(self):
        inst = ToyInstance(np.pi / 4, 0.95, 0.05)
        x = sample_vector(inst)
        ab = np.linalg.inv(rotation(np.pi / 4)) @ (np.ones(2) * x)
        assert delta(inst) == pytest.approx(ab[0] - ab[1], abs=1e-12)

    def test_equal_coefficients_vanish_at_identity(self):
        assert delta(ToyInstance(0.0, 0.7, 0.7)) == pytest.approx(0.0, abs=1e-15)


class TestClosedFormHeatmap:
    def test_zero_steps_returns_weighted_input(self):
        inst = ToyInstance(0.4, 0.9, 0.1, k_eta=0.0)
        np.testing.assert_allclose(closed_form_heatmap(inst),
                                   sample_vector(inst), atol=1e-15)

    def test_identity_rotation_hand_values(self):
        # at theta = 0 the gradient is (a1, -a2), so the heatmap becomes
        # ((1 + k*eta*a1) * a1, (1 - k*eta*a2) * a2)
        inst = ToyInstance(0.0, 0.95, 0.05, k_eta=1.2)
        h = closed_form_heatmap(inst)
        np.testing.assert_allclose(
            h, [(1 + 1.2 * 0.95) * 0.95, (1 - 1.2 * 0.05) * 0.05], atol=1e-14)

    def test_matches_explicit_ascent_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            theta = rng.uniform(-np.pi, np.pi)
            a1, a2 = rng.uniform(-2, 2, size=2)
            k = int(rng.integers(0, 40))
            eta = rng.uniform(0.0, 0.4)
            inst = ToyInstance(theta, a1, a2, k_eta=k * eta)
            got = closed_form_heatmap(inst)
            want = ascent_heatmap_numeric(inst, k, eta)
            assert np.abs(got - want).max() < 1e-10

    def test_ascent_improves_delta_by_squared_gradient_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi)
            a1, a2 = rng.uniform(-2, 2, size=2)
            k_eta = rng.uniform(0.0, 2.0)
            inst = ToyInstance(theta, a1, a2, k_eta=k_eta)
            g = delta_gradient(inst)
            w1 = np.ones(2) + k_eta * g
            gain = np.dot(w1, g) - delta(inst)
            assert gain >= -1e-12
            assert gain == pytest.approx(k_eta * float(g @ g), abs=1e-10)

    def test_negative_components_get_negative_attributions(self):
        # near a half turn the first pixel goes negative and its heatmap
        # value overshoots it downward
        inst = ToyInstance(np.pi, 1.5, 0.1, k_eta=1.2)
        x = sample_vector(inst)
        h = closed_form_heatmap(inst)
        assert x[0] < 0
        assert h[0] < x[0] < 0


def _row_at(rows, theta):
    """The sweep row whose grid angle is ``theta``."""
    row = rows[np.argmin(np.abs(rows[:, 0] - theta))]
    assert row[0] == pytest.approx(theta, abs=1e-12)
    return row


class TestRotationSweep:
    def test_distinct_components_at_identity(self):
        rows = rotation_sweep(0.95, 0.05, 1.2)
        _, x1, x2, h1, h2 = _row_at(rows, 0.0)
        assert h1 > x1           # the strong component is amplified
        assert h2 < x2           # the weak one is suppressed

    def test_homogeneous_rotation_with_equal_coefficients(self):
        # at a quarter-of-half turn with a1 = a2 the gradient vanishes and
        # the heatmap equals the input
        rows = rotation_sweep(0.5, 0.5, 1.2)
        _, x1, x2, h1, h2 = _row_at(rows, np.pi / 4)
        assert abs(h1 - x1) < 1e-12
        assert abs(h2 - x2) < 1e-12

    def test_default_grid_covers_full_turn(self):
        rows = rotation_sweep(0.7, 0.3, 1.2)
        assert rows.shape == (97, 5)
        assert rows[0, 0] == pytest.approx(-np.pi)
        assert rows[-1, 0] == pytest.approx(np.pi)

    def test_csv_export(self, tmp_path):
        rows = rotation_sweep(0.95, 0.05, 1.2)
        p = tmp_path / "sweep.csv"
        write_sweep_csv(rows, p)
        lines = p.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 98


class TestInstanceValidation:
    def test_negative_k_eta_rejected(self):
        with pytest.raises(ValueError):
            ToyInstance(0.0, 1.0, 0.0, k_eta=-0.1)

    @pytest.mark.parametrize("field", ["theta", "a1", "a2", "k_eta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_named(self, field, value):
        fields = {"theta": 0.0, "a1": 1.0, "a2": 0.0, "k_eta": 1.0}
        fields[field] = value
        with pytest.raises(ValueError) as info:
            ToyInstance(**fields)
        assert str(info.value) == f"{field} must be finite, got {value}"
