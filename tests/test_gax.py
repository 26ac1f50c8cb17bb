"""GAX loss shape, optimization behavior, and gradient fidelity."""

import numpy as np
import pytest

from gaxkit import (DatasetSpec, GaxConfig, MiniConvNet, gax_run, gax_sweep,
                    make_blobs, predict)
from gaxkit.autodiff import ShapeError
from gaxkit.ax import ScoreConstants
from gaxkit.gax import EPSILON, _objective
from gradcheck import max_relative_error, numeric_gradient
from oracle_models import LinearModel


@pytest.fixture(scope="module")
def tiny_model():
    return MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=41)


@pytest.fixture(scope="module")
def tiny_ds():
    return make_blobs(DatasetSpec(class_count=2, train=16, val=8, test=12,
                                  image_shape=(3, 8, 8), seed=42))


def _run(model, x, truth, cfg, out_dir, sample_id="s"):
    """``gax_run`` with the f(x) ``predict`` gives, as ``gax_sweep`` calls
    it."""
    return gax_run(model, x, truth, cfg, fx=predict(model, x)[1],
                   sample_id=sample_id, out_dir=out_dir)


def _loss(model, x, w, b, truth, cfg):
    """(loss, co, h) of the GAX objective at fixed w and b (None: no bias)."""
    params = {"w": w} if b is None else {"w": w, "b": b}
    loss, co, h, _ = _objective(model, x, params, model.scores(x[None]),
                                ScoreConstants(model.num_classes, truth), cfg)
    return loss, co, h


class TestLoss:
    def test_similarity_term_positive_for_unit_inputs(self, tiny_model):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.05, 1.0, size=(3, 8, 8))
        cfg = GaxConfig()
        loss, co, h = _loss(tiny_model, x, np.ones_like(x), None, 0, cfg)
        np.testing.assert_allclose(h, np.tanh(x))
        similarity = loss + co           # loss = -co + similarity
        assert similarity > 0.0
        assert np.isfinite(loss)

    def test_heatmap_equal_to_input_is_heavily_penalized(self, tiny_model):
        # if h were exactly x the deviation term collapses to eps^2,
        # making the inverse-mean penalty enormous
        rng = np.random.default_rng(1)
        x = rng.uniform(0.2, 0.8, size=(3, 8, 8))
        cfg = GaxConfig()
        expected = cfg.similarity_factor / np.mean(
            EPSILON ** 2 / (x + EPSILON))
        assert expected > 1e6

    def test_single_pixel_closed_expression(self):
        # x = 0.5, w = 0: h = 0, and the similarity term is
        # l_s / ((0 - 0.5 + eps)^2 / (0.5 + eps))
        model = LinearModel(np.array([[1.0], [-1.0]]), input_shape=(1,))
        x = np.array([0.5])
        cfg = GaxConfig(similarity_factor=100.0)
        loss, co, h = _loss(model, x, np.array([0.0]), None, 0, cfg)
        assert h[0] == 0.0
        assert co == pytest.approx(0.0)  # h = 0 changes nothing
        expected_sim = 100.0 / ((0.0 - 0.5 + 1e-4) ** 2 / (0.5 + 1e-4))
        assert loss == pytest.approx(-0.0 + expected_sim, rel=1e-12)

    def test_rejects_inputs_outside_unit_interval(self, tiny_model,
                                                  tmp_path):
        cfg = GaxConfig()
        x = np.full((3, 8, 8), 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _run(tiny_model, x, 0, cfg, tmp_path)

    def test_bias_enters_preactivation(self, tiny_model):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        cfg = GaxConfig(use_bias=True)
        w = np.ones_like(x)
        b = np.full_like(x, 0.01)
        _, _, h = _loss(tiny_model, x, w, b, 0, cfg)
        np.testing.assert_allclose(h, np.tanh(x + 0.01))

    def test_loss_gradient_matches_finite_differences(self, tiny_model):
        # the full composite loss, including the inverse-mean penalty
        rng = np.random.default_rng(3)
        cfg = GaxConfig(similarity_factor=10.0)
        constants = ScoreConstants(2, 0)
        x = rng.uniform(0.1, 0.9, size=(3, 8, 8))
        fx = tiny_model.scores(x[None])
        w0 = rng.uniform(0.5, 1.5, size=(3, 8, 8))
        b0 = rng.uniform(-0.1, 0.1, size=(3, 8, 8))

        grads = _objective(tiny_model, x, {"w": w0, "b": b0}, fx, constants,
                           cfg)[3]()

        def f(w_arr, b_arr):
            return _objective(tiny_model, x, {"w": w_arr, "b": b_arr}, fx,
                              constants, cfg)[0]

        num_w = numeric_gradient(f, [w0, b0], 0)
        num_b = numeric_gradient(f, [w0, b0], 1)
        assert max_relative_error(grads["w"], num_w) < 1e-5
        assert max_relative_error(grads["b"], num_b) < 1e-5

    def test_zero_penalty_mean_gives_an_infinite_loss(self, tiny_model):
        # x = 0 and tanh(b) == -eps exactly: every (h - x + eps) is 0, so the
        # penalty's mean is 0 and the loss is infinite, which gax_run stops
        # as a non-finite loss
        b = -0.00010000000033333334
        assert np.tanh(b) == -EPSILON
        x = np.zeros((3, 8, 8))
        params = {"w": np.ones_like(x), "b": np.full_like(x, b)}
        with np.errstate(divide="ignore"):
            loss, co, _, _ = _objective(
                tiny_model, x, params, tiny_model.scores(x[None]),
                ScoreConstants(2, 0), GaxConfig(use_bias=True))
        assert loss == np.inf and np.isfinite(co)


class TestRun:
    def _correct_sample(self, model, ds):
        for i in range(len(ds.test)):
            x = ds.test.x[i]
            truth = int(ds.test.y[i])
            if predict(model, x)[0] == truth:
                return x, truth
        pytest.skip("no correctly classified sample available")

    def test_trivial_target_converges_immediately(self, tiny_model, tiny_ds,
                                                  tmp_path):
        x, truth = self._correct_sample(tiny_model, tiny_ds)
        cfg = GaxConfig(target_co=-1e9, max_iterations=50)
        trace, _ = _run(tiny_model, x, truth, cfg, tmp_path)
        assert trace.converged
        assert trace.iterations[0][0] == 0

    def test_zero_iterations_reports_initial_state(self, tiny_model, tiny_ds,
                                                   tmp_path):
        x, truth = self._correct_sample(tiny_model, tiny_ds)
        cfg = GaxConfig(target_co=1e9, max_iterations=0)
        trace, _ = _run(tiny_model, x, truth, cfg, tmp_path)
        assert not trace.converged
        assert len(trace.iterations) == 1
        assert trace.final_co == trace.iterations[0][2]

    def test_one_forward_per_step_plus_fx(self, tiny_model, tiny_ds,
                                          monkeypatch, tmp_path):
        x, truth = self._correct_sample(tiny_model, tiny_ds)
        _, fx = predict(tiny_model, x)
        calls = []
        inner = tiny_model.forward_graph

        def counting(t):
            calls.append(t)
            return inner(t)

        monkeypatch.setattr(tiny_model, "forward_graph", counting)
        plain = []
        inner_scores = tiny_model.scores
        monkeypatch.setattr(tiny_model, "scores",
                            lambda t: plain.append(t) or inner_scores(t))
        cfg = GaxConfig(target_co=1e9, max_iterations=4)
        trace, _ = gax_run(tiny_model, x, truth, cfg, fx=fx, sample_id="s",
                           out_dir=tmp_path)
        # f(x) comes from the caller's prediction, so no graph-free scores
        # call; one forward graph per step
        assert plain == []
        assert len(calls) == len(trace.iterations)

    @pytest.mark.parametrize("fx,message", [
        (np.zeros(3), r"fx shape \(3,\) != \(2,\)"),
        (np.zeros((1, 2)), r"fx shape \(1, 2\) != \(2,\)"),
    ], ids=["three-classes", "row"])
    def test_wrong_shape_fx_rejected(self, tiny_model, tiny_ds, tmp_path, fx,
                                     message):
        x, truth = self._correct_sample(tiny_model, tiny_ds)
        out = tmp_path / "g"
        with pytest.raises(ShapeError, match=message):
            gax_run(tiny_model, x, truth, GaxConfig(max_iterations=1), fx=fx,
                    sample_id="s", out_dir=out)
        assert not out.exists()

    def test_heatmap_stays_in_tanh_range(self, tiny_model, tiny_ds,
                                         tmp_path):
        x, truth = self._correct_sample(tiny_model, tiny_ds)
        cfg = GaxConfig(target_co=3.0, max_iterations=100)
        trace, heat = _run(tiny_model, x, truth, cfg, tmp_path)
        assert np.abs(heat.values).max() <= 1.0

    def test_converged_iff_final_co_reaches_target(self, tiny_model, tiny_ds,
                                                   tmp_path):
        x, truth = self._correct_sample(tiny_model, tiny_ds)
        for target in (-10.0, 2.0, 1e9):
            cfg = GaxConfig(target_co=target, max_iterations=60)
            trace, _ = _run(tiny_model, x, truth, cfg, tmp_path / str(target))
            assert trace.converged == (trace.final_co >= target)

    def test_misclassified_sample_rejected_without_override(self, tiny_model,
                                                            tiny_ds,
                                                            tmp_path):
        for i in range(len(tiny_ds.test)):
            x = tiny_ds.test.x[i]
            truth = int(tiny_ds.test.y[i])
            if predict(tiny_model, x)[0] != truth:
                cfg = GaxConfig(target_co=1.0, max_iterations=5)
                with pytest.raises(ValueError, match="misclassif"):
                    _run(tiny_model, x, truth, cfg, tmp_path)
                return
        pytest.skip("untrained model classified everything correctly")

    def test_snapshots_written_at_cadence(self, tiny_model, tiny_ds, tmp_path):
        x, truth = self._correct_sample(tiny_model, tiny_ds)
        cfg = GaxConfig(target_co=1e9, max_iterations=9, snapshot_every=4)
        trace, _ = _run(tiny_model, x, truth, cfg, tmp_path, "s0")
        steps = [s for s, _ in trace.snapshots]
        assert steps == [0, 4, 8]
        for _, ref in trace.snapshots:
            assert (tmp_path / "s0").exists()
            assert ref.endswith(".gaxh")

    def test_ascent_direction_on_linear_model(self, tmp_path):
        # with the similarity term off and a purely linear model, one small
        # gradient step from w = 1 must increase the score; the input is an
        # image, as gax_run writes its snapshots as heatmap images
        rng = np.random.default_rng(7)
        model = LinearModel(rng.normal(size=(2, 6)), input_shape=(1, 2, 3))
        x = rng.uniform(0.1, 1.0, size=6).reshape(1, 2, 3)
        truth = predict(model, x)[0]
        cfg = GaxConfig(target_co=1e9, max_iterations=1, learning_rate=1e-4,
                        similarity_factor=0.0)
        trace, _ = _run(model, x, truth, cfg, tmp_path)
        assert len(trace.iterations) == 2
        assert trace.iterations[1][2] > trace.iterations[0][2]


class TestSweepAndExport:
    def test_empty_split_gives_empty_list(self, tiny_model, tmp_path):
        empty = make_blobs(DatasetSpec(train=0, val=0, test=0,
                                       image_shape=(3, 8, 8), seed=0))
        traces, errors = gax_sweep(tiny_model, empty.test, GaxConfig(),
                                   out_dir=tmp_path)
        assert traces == [] and errors == []

    def test_misclassified_samples_excluded(self, tiny_ds, tmp_path):
        # an anti-trained stub misclassifies everything except by luck;
        # count traces = count of correct predictions
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=43)
        correct = sum(predict(model, tiny_ds.test.x[i])[0]
                      == int(tiny_ds.test.y[i])
                      for i in range(len(tiny_ds.test)))
        cfg = GaxConfig(target_co=-1e9, max_iterations=0)
        traces, _ = gax_sweep(model, tiny_ds.test, cfg, out_dir=tmp_path)
        assert len(traces) == correct

    def test_one_prediction_per_sample(self, tiny_model, tiny_ds, tmp_path,
                                       monkeypatch):
        # the prediction that picks a correct sample also gives its f(x)
        calls = []
        inner = tiny_model.scores
        monkeypatch.setattr(tiny_model, "scores",
                            lambda t: calls.append(len(t)) or inner(t))
        traces, errors = gax_sweep(tiny_model, tiny_ds.test,
                                   GaxConfig(target_co=1e9, max_iterations=2),
                                   out_dir=tmp_path)
        assert traces and not errors
        assert calls == [1] * len(tiny_ds.test)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, tiny_model, tiny_ds, tmp_path,
                                      limit):
        out = tmp_path / "g"
        with pytest.raises(ValueError, match="limit must be at least 1"):
            gax_sweep(tiny_model, tiny_ds.test, GaxConfig(), out_dir=out,
                      limit=limit)
        assert not out.exists()

    def test_nonfinite_loss_reported_as_error(self, tiny_ds, tmp_path):
        # an infinite class-0 bias: class-0 samples count as correct, and
        # the score difference inf - inf is NaN from the first step
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=41)
        model.params["fc.b"] = np.array([np.inf, 0.0])
        traces, errors = gax_sweep(model, tiny_ds.test,
                                   GaxConfig(max_iterations=5),
                                   out_dir=tmp_path)
        assert traces
        assert all(t.error == "non-finite loss at step 0"
                   and not t.iterations for t in traces)
        assert errors == [(t.sample_id, t.error) for t in traces]

    def test_shape_error_in_gax_run_propagates(self, tiny_model, tiny_ds,
                                               tmp_path, monkeypatch):
        # a ShapeError is a ValueError, and the sweep catches neither
        import gaxkit.gax

        def broken(*args, **kwargs):
            raise ShapeError("broken run shape")

        monkeypatch.setattr(gaxkit.gax, "gax_run", broken)
        out = tmp_path / "g"
        with pytest.raises(ShapeError, match="broken run shape"):
            gax_sweep(tiny_model, tiny_ds.test, GaxConfig(max_iterations=1),
                      out_dir=out)
        assert not out.exists()

    def test_split_outside_unit_interval_raises_before_writing(
            self, tiny_model, tiny_ds, tmp_path):
        split = type(tiny_ds.test)(tiny_ds.test.x.copy(), tiny_ds.test.y,
                                   tiny_ds.test.ids)
        split.x[-1, 0, 0, 0] = 1.5
        out = tmp_path / "g"
        with pytest.raises(ValueError, match=r"\[0, 1\]-normalized"):
            gax_sweep(tiny_model, split, GaxConfig(max_iterations=1),
                      out_dir=out)
        assert not out.exists()

    def test_programming_error_propagates(self, tiny_model, tiny_ds,
                                          tmp_path, monkeypatch):
        import gaxkit.gax

        def broken(*args, **kwargs):
            raise TypeError("broken loss")

        monkeypatch.setattr(gaxkit.gax, "_objective", broken)
        with pytest.raises(TypeError, match="broken loss"):
            gax_sweep(tiny_model, tiny_ds.test, GaxConfig(max_iterations=1),
                      out_dir=tmp_path)

    def test_trace_csv_and_manifest(self, tiny_model, tiny_ds, tmp_path):
        from gaxkit import write_manifest, write_trace_csv
        x, truth = None, None
        for i in range(len(tiny_ds.test)):
            if predict(tiny_model, tiny_ds.test.x[i])[0] == int(tiny_ds.test.y[i]):
                x, truth = tiny_ds.test.x[i], int(tiny_ds.test.y[i])
                break
        cfg = GaxConfig(target_co=1e9, max_iterations=3)
        trace, _ = _run(tiny_model, x, truth, cfg, tmp_path / "runs", "s9")
        p = tmp_path / "trace.csv"
        write_trace_csv(trace, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "step,loss,co_score"
        assert len(lines) == len(trace.iterations) + 1
        m = tmp_path / "manifest.csv"
        write_manifest([trace], m)
        text = m.read_text()
        assert text.splitlines()[0] == \
            "sample_id,converged,final_co,steps,trace_path,snapshots"
        assert "s9,false," in text
        assert ",s9.trace.csv," in text
