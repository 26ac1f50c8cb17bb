"""CO score identities, sweep mechanics, and gap statistics."""

import numpy as np
import pytest

from gaxkit import (METHODS, DatasetSpec, Heatmap, MiniConvNet, ScoreConstants,
                    ScoreRecord, ax_sweep, co_score, gap_stats, make_blobs,
                    read_scores_csv, write_histogram_csv, write_scores_csv)
from gaxkit.ax import _auroc
from gaxkit.autodiff import ShapeError
from oracle_models import LeakyReluToy, LinearModel


class _ShiftedModel:
    """Wraps a model, adding a constant to every raw output."""

    def __init__(self, inner, c):
        self.inner = inner
        self.c = float(c)
        self.input_shape = inner.input_shape
        self.num_classes = inner.num_classes

    def scores(self, x):
        return self.inner.scores(x) + self.c


def _co(model, x, heatmaps, groundtruth, variants):
    """``co_score`` with f(x) from the scoring model's own ``scores``."""
    return co_score(model, x, heatmaps, groundtruth, variants,
                    fx=model.scores(np.asarray(x)[None])[0])


def _count_rows(monkeypatch, model) -> list[int]:
    """Record the batch size of every forward pass the model runs."""
    rows: list[int] = []
    inner = model.forward_graph

    def counting(x):
        rows.append(len(x))
        return inner(x)

    monkeypatch.setattr(model, "forward_graph", counting)
    return rows


class TestScoreConstants:
    def test_integer_core_sums_to_zero_exactly(self):
        for c in (2, 3, 5, 7, 11, 100):
            sc = ScoreConstants(c, c // 2)
            assert sc.int_weights().sum() == 0.0

    def test_one_positive_entry_equal_to_one(self):
        sc = ScoreConstants(5, 3)
        k = sc.int_weights() / (sc.num_classes - 1.0)
        assert k[3] == 1.0
        assert (k[np.arange(5) != 3] < 0).all()
        np.testing.assert_allclose(k[np.arange(5) != 3], -0.25)

    def test_uniform_diff_scores_zero_exactly(self):
        # any constant output shift cancels exactly, for every class count
        rng = np.random.default_rng(0)
        for c in (2, 3, 7, 13):
            sc = ScoreConstants(c, int(rng.integers(0, c)))
            const = float(rng.normal())
            assert sc.apply(np.full(c, const)) == 0.0

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            ScoreConstants(1, 0)

    def test_groundtruth_beyond_the_classes(self):
        with pytest.raises(ValueError) as info:
            ScoreConstants(2, 2)
        assert str(info.value) == "groundtruth 2 out of range for 2 classes"


class TestCoScore:
    def test_zero_heatmap_scores_zero(self):
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=0)
        x = np.random.default_rng(1).uniform(0, 1, size=(3, 8, 8))
        h = Heatmap(np.zeros_like(x), "saliency", 0)
        assert _co(model, x, [h], 0, ["sum"])[0, 0] == 0.0

    def test_uniform_output_shift_leaves_score_unchanged(self):
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=2)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        h = Heatmap(rng.normal(0, 0.2, size=(3, 8, 8)), "saliency", 1)
        base = _co(model, x, [h], 1, ["sum"])[0, 0]
        for c in (0.5, -3.0, 1e3):
            shifted = _co(_ShiftedModel(model, c), x, [h], 1, ["sum"])[0, 0]
            assert shifted == pytest.approx(base, abs=1e-12)

    def test_toy_identity_heatmap_scores_coefficient_gap(self):
        # leaky-relu + identity mixing + h = x: the score equals a1 - a2
        rng = np.random.default_rng(4)
        model = LeakyReluToy()
        for _ in range(50):
            a2 = rng.uniform(0.01, 1.0)
            a1 = a2 + rng.uniform(0.01, 1.0)
            x = np.array([a1, a2])
            got = _co(model, x, [Heatmap(x, "identity", 0)], 0, ["sum"])[0, 0]
            assert got == pytest.approx(a1 - a2, abs=1e-12)

    def test_groundtruth_swap_negates_for_two_classes(self):
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=5)
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        h = Heatmap(rng.normal(0, 0.3, size=(3, 8, 8)), "saliency", 0)
        s0 = _co(model, x, [h], 0, ["sum"])[0, 0]
        s1 = _co(model, x, [h], 1, ["sum"])[0, 0]
        assert s1 == pytest.approx(-s0, abs=1e-12)

    def test_linear_in_final_layer_scale(self):
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=7)
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        h = Heatmap(rng.normal(0, 0.3, size=(3, 8, 8)), "saliency", 0)
        base = _co(model, x, [h], 0, ["sum"])[0, 0]
        lam = 2.0  # exactly representable so the scaling stays exact
        model.params["fc.w"] = model.params["fc.w"] * lam
        model.params["fc.b"] = model.params["fc.b"] * lam
        assert _co(model, x, [h], 0, ["sum"])[0, 0] == pytest.approx(
            lam * base, rel=1e-12)

    def test_mul_variant(self):
        model = LinearModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        x = np.array([0.5, 0.25])
        h = Heatmap(np.array([1.0, -1.0]), "m", 0)
        # f(x*h) - f(x) = (0, -0.5); kappa = (1, -1) -> 0.5
        assert _co(model, x, [h], 0, ["mul"])[0, 0] == pytest.approx(0.5)

    def test_shape_and_variant_validation(self):
        model = LinearModel(np.eye(2))
        with pytest.raises(ValueError, match="variant"):
            _co(model, np.zeros(2), [Heatmap(np.zeros(2), "m", 0)], 0, ["xor"])
        with pytest.raises(ShapeError):
            _co(model, np.zeros(2), [Heatmap(np.zeros(3), "m", 0)], 0, ["sum"])
        with pytest.raises(ShapeError) as info:
            co_score(model, np.zeros(3), [Heatmap(np.zeros(3), "m", 0)], 0,
                     ["sum"], fx=np.zeros(2))
        assert str(info.value) == "input shape (3,) != model input (2,)"

    def test_precomputed_fx_is_bitwise_equal(self):
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=2)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        h = Heatmap(rng.normal(0, 0.2, size=(3, 8, 8)), "saliency", 1)
        fx = model.scores(x[None])[0]
        for variant, g in (("sum", x + h.values), ("mul", x * h.values)):
            diff = model.scores(g[None])[0] - fx
            assert (co_score(model, x, [h], 1, [variant], fx=fx)[0, 0]
                    == ScoreConstants(2, 1).apply(diff))
        for bad in (fx[None], np.zeros(3)):
            with pytest.raises(ShapeError, match="fx shape"):
                co_score(model, x, [h], 1, ["sum"], fx=bad)

    def test_batched_equals_each_heatmap_alone(self):
        # one scores call over every (heatmap, variant) input gives each
        # entry the bytes of that heatmap scored alone
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=3, seed=4)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(3, 8, 8))
        heats = [Heatmap(rng.normal(0, 0.3, size=x.shape), "m", 0)
                 for _ in range(7)]
        variants = ["mul", "sum"]
        fx = model.scores(x[None])[0]
        got = co_score(model, x, heats, 2, variants, fx=fx)
        assert got.shape == (7, 2)
        alone = [[co_score(model, x, [h], 2, [v], fx=fx)[0, 0]
                  for v in variants] for h in heats]
        assert got.tobytes() == np.array(alone).tobytes()

    def test_no_heatmaps_scores_nothing(self):
        model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=4)
        x = np.zeros((3, 8, 8))
        assert co_score(model, x, [], 0, ["sum"],
                        fx=np.zeros(2)).shape == (0, 1)


@pytest.fixture(scope="module")
def tiny():
    ds = make_blobs(DatasetSpec(class_count=2, train=8, val=4, test=6,
                                image_shape=(3, 8, 8), seed=9))
    model = MiniConvNet(input_shape=(3, 8, 8), num_classes=2, seed=10)
    return model, ds


class TestSweep:

    def test_record_cardinality(self, tiny):
        model, ds = tiny
        one = ds.test
        one_sample = type(one)(one.pixels[:1], one.y[:1], one.ids[:1])
        records, errors = ax_sweep(model, one_sample, ["saliency"],
                                   ["sum", "mul"])
        assert len(records) == 2 and not errors

    def test_all_correct_flags(self, tiny):
        model, ds = tiny
        split = ds.test
        forced = type(split)(split.pixels, np.array(
            [int(np.argmax(model.scores(split.images(slice(i, i + 1)))[0]))
             for i in range(len(split))]), split.ids)
        records, _ = ax_sweep(model, forced, ["saliency"], ["sum"])
        assert all(r.correct for r in records)

    def test_sorted_and_complete(self, tiny):
        model, ds = tiny
        records, errors = ax_sweep(model, ds.test,
                                   ["saliency", "deeplift"], ["sum", "mul"])
        assert len(records) == len(ds.test) * 2 * 2
        keys = [(r.sample_id, r.method, r.variant) for r in records]
        assert keys == sorted(keys)
        assert not errors

    def test_failing_method_stops_the_sweep(self, tiny):
        # a layer the model lacks fails every sample alike: the first
        # sample's error is the sweep's
        model, ds = tiny
        with pytest.raises(ValueError, match="unknown layer 'nope'"):
            ax_sweep(model, ds.test, ["saliency", "layer-gradcam:nope"],
                     ["sum"])

    def test_one_forward_row_for_fx_per_sample(self, tiny, monkeypatch):
        # per sample: one forward graph shared by f(x) and the 6
        # attributions; per sweep: the DeepLIFT zero baseline's; the 12
        # f(g(x, h)) of a sample go through one graph-free scores call
        model, ds = tiny
        rows = _count_rows(monkeypatch, model)
        calls = []
        inner = model.scores
        monkeypatch.setattr(model, "scores",
                            lambda x: calls.append(len(x)) or inner(x))
        records, errors = ax_sweep(model, ds.test, METHODS, ["sum", "mul"])
        assert len(METHODS) == 6 and not errors
        assert len(records) == 12 * len(ds.test)
        assert rows == [1] * (len(ds.test) + 1)
        assert calls == [12] * len(ds.test)

    def test_no_baseline_graph_without_deeplift(self, tiny, monkeypatch):
        model, ds = tiny
        rows = _count_rows(monkeypatch, model)
        methods = [m for m in METHODS if m != "deeplift"]
        _, errors = ax_sweep(model, ds.test, methods, ["sum"])
        assert not errors
        assert rows == [1] * len(ds.test)

    def test_three_sweeps_and_one_rescale_per_sample(self, tiny, monkeypatch):
        # one recorded sweep per rule: saliency, input x gradient and
        # Grad-CAM share the standard one, and deconvolution and guided
        # backprop read one each
        import gaxkit.autodiff as ad
        model, ds = tiny
        counts = {"backward": 0, "rescale": 0}
        backward, rescale = ad.Tensor.backward, ad.rescale_multipliers

        def counting_backward(*args, **kwargs):
            counts["backward"] += 1
            return backward(*args, **kwargs)

        def counting_rescale(*args, **kwargs):
            counts["rescale"] += 1
            return rescale(*args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "backward", counting_backward)
        monkeypatch.setattr(ad, "rescale_multipliers", counting_rescale)
        _, errors = ax_sweep(model, ds.test, METHODS, ["sum", "mul"])
        assert not errors
        assert counts == {"backward": 3 * len(ds.test),
                          "rescale": len(ds.test)}

    def test_methods_sharing_a_graph_score_as_swept_alone(self, tiny):
        # in reverse, with deeplift again after the others: any state one
        # method leaves on the sample's graph would move another's score
        model, ds = tiny
        methods = [*reversed(METHODS), "deeplift"]
        records, errors = ax_sweep(model, ds.test, methods, ["sum", "mul"])
        alone = sorted((r for m in methods
                        for r in ax_sweep(model, ds.test, [m])[0]),
                       key=lambda r: (r.sample_id, r.method, r.variant))
        assert len(records) == 2 * len(methods) * len(ds.test)
        assert records == alone
        assert not errors

    def test_shape_mismatch_stops_the_sweep(self, tiny):
        # every sample of a split has one shape: the mismatch is the split's
        _, ds = tiny
        model = MiniConvNet(input_shape=(3, 16, 16), num_classes=2, seed=10)
        with pytest.raises(ShapeError, match="predict: sample shape"):
            ax_sweep(model, ds.test, ["saliency", "deeplift"], ["sum"])

    def test_programming_error_propagates(self, tiny, monkeypatch):
        import gaxkit.ax

        def broken(*args, **kwargs):
            raise TypeError("broken attribution")

        monkeypatch.setattr(gaxkit.ax, "attribute", broken)
        model, ds = tiny
        with pytest.raises(TypeError, match="broken attribution"):
            ax_sweep(model, ds.test, ["saliency"], ["sum"])

    def test_shape_error_in_attribute_propagates(self, tiny, monkeypatch):
        # a ShapeError is a ValueError, and the sweep catches neither
        import gaxkit.ax

        def broken(*args, **kwargs):
            raise ShapeError("broken attribution shape")

        monkeypatch.setattr(gaxkit.ax, "attribute", broken)
        model, ds = tiny
        with pytest.raises(ShapeError, match="broken attribution shape"):
            ax_sweep(model, ds.test, ["saliency"], ["sum"])

    def test_key_error_from_a_bug_propagates(self, tiny, monkeypatch):
        import gaxkit.ax

        def broken(*args, **kwargs):
            raise KeyError("conv9")

        monkeypatch.setattr(gaxkit.ax, "attribute", broken)
        model, ds = tiny
        with pytest.raises(KeyError, match="conv9"):
            ax_sweep(model, ds.test, ["saliency"], ["sum"])


class TestGapStats:
    def _records(self, correct_scores, wrong_scores):
        recs = []
        for i, s in enumerate(correct_scores):
            recs.append(ScoreRecord(f"c{i}", "m", "sum", float(s), 1, 1))
        for i, s in enumerate(wrong_scores):
            recs.append(ScoreRecord(f"w{i}", "m", "sum", float(s), 0, 1))
        return recs

    def test_disjoint_groups(self):
        g = gap_stats(self._records([2, 3], [-1, 0]))
        assert g.separation == 2.0
        assert g.auroc == 1.0
        assert g.correct.count == 2 and g.wrong.count == 2
        assert g.correct.median == 2.5

    def test_identical_distributions(self):
        g = gap_stats(self._records([1, 2, 3], [1, 2, 3]))
        assert g.auroc == 0.5
        assert g.separation == -2.0

    def test_interleaved_groups(self):
        # pairs: (1 vs 2) -> 0, (3 vs 2) -> 1; AUROC 0.5, ranges overlap
        g = gap_stats(self._records([1, 3], [2]))
        assert g.separation == -1.0
        assert g.auroc == 0.5

    def test_single_group_gives_partial_stats(self):
        g = gap_stats(self._records([1, 2], []))
        assert g.wrong is None
        assert g.separation is None and g.auroc is None
        assert g.correct.count == 2

    def test_quartiles_linear_interpolation(self):
        g = gap_stats(self._records([0, 1, 2, 3], [0]))
        assert g.correct.q1 == 0.75
        assert g.correct.q3 == 2.25

    def test_empty_filter_rejected(self):
        with pytest.raises(ValueError):
            gap_stats(self._records([1], [0]), method="other")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_score_rejected(self, bad):
        recs = self._records([1, 2], [0])
        recs.append(ScoreRecord("w9", "m", "mul", bad, 0, 1))
        with pytest.raises(ValueError) as info:
            gap_stats(recs)
        assert str(info.value) == ("gap_stats: sample w9 method m variant mul "
                                   f"has a non-finite co_score {bad}")
        assert gap_stats(recs, variant="sum").auroc == 1.0

    def test_auroc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_pos = int(rng.integers(1, 60))
            n_neg = int(rng.integers(1, 100 - n_pos + 1))
            pos = rng.integers(-3, 4, size=n_pos).astype(float)
            neg = rng.integers(-3, 4, size=n_neg).astype(float)
            # brute-force oracle: mean over all pairs with half credit on ties
            wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
                       for p in pos for n in neg)
            oracle = wins / (n_pos * n_neg)
            assert _auroc(pos, neg) == pytest.approx(oracle, abs=1e-12)


class TestCsv:
    def test_scores_round_trip(self, tmp_path):
        recs = [ScoreRecord("a", "saliency", "sum", 1.25, 0, 0),
                ScoreRecord("b", "deeplift", "mul", -0.5, 1, 0)]
        p = tmp_path / "scores.csv"
        write_scores_csv(recs, p)
        text = p.read_text()
        assert text.startswith(
            "sample_id,method,variant,co_score,pred,truth,correct\n")
        assert "\r" not in text
        back = read_scores_csv(p)
        assert back == recs

    def test_scores_csv_is_9_digit_lossy_and_stable(self, tmp_path):
        # scores are serialized with 9 significant digits; re-serializing
        # the parsed records reproduces the file byte for byte
        recs = [ScoreRecord("a", "m", "sum", 1.234567891234, 0, 0)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores_csv(recs, p1)
        write_scores_csv(read_scores_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nine_significant_digits(self, tmp_path):
        recs = [ScoreRecord("a", "m", "sum", 1.0 / 3.0, 0, 0)]
        p = tmp_path / "scores.csv"
        write_scores_csv(recs, p)
        assert "0.333333333" in p.read_text()

    @pytest.mark.parametrize("row,message", [
        ("a,saliency,sum", "expected 7 fields, got 3"),
        ("a,saliency,sum,1.5,0,0,true,x", "expected 7 fields, got 8"),
        ("a,saliency,sum,high,0,0,true", "co_score 'high' is not a number"),
        ("a,saliency,sum,1.5,0.5,0,false", "pred '0.5' is not an integer"),
        ("s1,saliency,sum,0.5,1,1,banana", "correct 'banana' is not true or "
         "false"),
        ("s2,saliency,sum,0.3,0,1,true", "correct 'true' contradicts pred 0 "
         "and truth 1"),
    ], ids=["short", "long", "score", "pred", "correct", "contradiction"])
    def test_bad_row_names_file_line_and_field(self, tmp_path, row, message):
        p = tmp_path / "scores.csv"
        write_scores_csv([ScoreRecord("z", "saliency", "sum", 1.0, 0, 0)], p)
        p.write_text(p.read_text() + row + "\n")
        with pytest.raises(ValueError) as info:
            read_scores_csv(p)
        assert str(info.value) == f"{p} line 3: {message}"

    def test_histogram_shape_and_counts(self, tmp_path):
        recs = ([ScoreRecord(f"c{i}", "m", "sum", float(i), 1, 1)
                 for i in range(10)]
                + [ScoreRecord(f"w{i}", "m", "sum", -float(i), 0, 1)
                   for i in range(5)])
        p = tmp_path / "hist.csv"
        write_histogram_csv(recs, p, bins=10)
        lines = p.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count_correct,count_wrong"
        assert len(lines) == 11
        total_c = sum(int(line.split(",")[2]) for line in lines[1:])
        total_w = sum(int(line.split(",")[3]) for line in lines[1:])
        assert total_c == 10 and total_w == 5

    @pytest.mark.parametrize("bins", [0, -3])
    def test_histogram_bins_below_one_rejected(self, tmp_path, bins):
        recs = [ScoreRecord("c", "m", "sum", 1.0, 1, 1)]
        p = tmp_path / "hist.csv"
        with pytest.raises(ValueError, match=f"bins must be >= 1, got {bins}"):
            write_histogram_csv(recs, p, bins=bins)
        assert not p.exists()
