"""Metric oracles: enumerated F1/Hamming/AP cases and the closed-form
alignment/uniformity values on unit vectors."""

import numpy as np
import pytest

from mlclab.errors import DomainError
from mlclab.evaluation import (
    MetricsReport,
    alignment,
    compute_report,
    hamming,
    macro_f1,
    mean_average_precision,
    micro_f1,
    uniformity,
)


class TestMicroF1:
    def test_perfect(self):
        t = np.array([[1, 0], [0, 1]])
        assert micro_f1(t, t) == 1.0

    def test_all_zero_prediction(self):
        t = np.array([[1, 0], [0, 1]])
        assert micro_f1(np.zeros_like(t), t) == 0.0

    def test_counted_case(self):
        # TP=2, FP=1, FN=1 -> 2*2/(4+1+1) = 2/3
        truth = np.array([[1, 1, 0], [1, 0, 0]])
        pred = np.array([[1, 0, 1], [1, 0, 0]])
        assert micro_f1(pred, truth) == pytest.approx(2 / 3)

    def test_empty_everything(self):
        z = np.zeros((2, 3), dtype=int)
        assert micro_f1(z, z) == 0.0


class TestMacroF1:
    def test_perfect(self):
        t = np.array([[1, 0], [0, 1]])
        assert macro_f1(t, t) == 1.0

    def test_one_perfect_one_wrong(self):
        truth = np.array([[1, 1], [0, 1], [1, 1]])
        pred = np.array([[1, 0], [0, 0], [1, 0]])
        assert macro_f1(pred, truth) == pytest.approx(0.5)

    def test_single_label_equals_micro(self):
        rng = np.random.default_rng(0)
        t = (rng.random((10, 1)) < 0.5).astype(int)
        p = (rng.random((10, 1)) < 0.5).astype(int)
        assert macro_f1(p, t) == pytest.approx(micro_f1(p, t))

    def test_strict_zero_division_convention(self):
        # a label absent from truth and prediction scores 0, not 1
        truth = np.array([[1, 0], [1, 0]])
        pred = np.array([[1, 0], [1, 0]])
        assert macro_f1(pred, truth) == pytest.approx(0.5)


class TestHamming:
    def test_equal(self):
        t = np.array([[1, 0], [0, 1]])
        assert hamming(t, t) == 0.0

    def test_complement(self):
        t = np.array([[1, 0], [0, 1]])
        assert hamming(1 - t, t) == 1.0

    def test_one_mismatch_in_ten(self):
        truth = np.zeros((2, 5), dtype=int)
        pred = truth.copy()
        pred[0, 3] = 1
        assert hamming(pred, truth) == pytest.approx(0.1)
        report = compute_report(pred, truth)
        assert report.hamming_x1000 == pytest.approx(100.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = (rng.random((6, 4)) < 0.5).astype(int)
        b = (rng.random((6, 4)) < 0.5).astype(int)
        assert hamming(a, b) == hamming(b, a)


class TestMeanAveragePrecision:
    def test_perfect_scores(self):
        t = np.array([[1, 0], [0, 1], [1, 1]])
        assert mean_average_precision(t.astype(float), t) == 1.0

    def test_precision_at_hit_enumeration(self):
        # single label; positives ranked 1st and 3rd of 3: AP = (1 + 2/3)/2
        truth = np.array([[1], [0], [1]])
        scores = np.array([[0.9], [0.5], [0.1]])
        assert mean_average_precision(scores, truth) == pytest.approx(5 / 6)

    def test_single_positive_at_bottom(self):
        n = 5
        truth = np.zeros((n, 1), dtype=int)
        truth[-1, 0] = 1
        scores = np.arange(n, 0, -1, dtype=float).reshape(-1, 1)
        assert mean_average_precision(scores, truth) == pytest.approx(1 / n)

    def test_no_positives_absent(self):
        assert mean_average_precision(np.zeros((3, 2)), np.zeros((3, 2), dtype=int)) is None

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(8, 3))
        truth = (rng.random((8, 3)) < 0.4).astype(int)
        truth[0, 0] = 1
        v1 = mean_average_precision(scores, truth)
        v2 = mean_average_precision(3 * scores ** 3 + scores, truth)
        assert v1 == pytest.approx(v2, abs=1e-15)

    def test_тies_break_by_instance_index(self):
        truth = np.array([[0], [1]])
        scores = np.array([[0.5], [0.5]])
        # tie: instance 0 ranks first, the positive second -> AP = 1/2
        assert mean_average_precision(scores, truth) == pytest.approx(0.5)

    @pytest.mark.parametrize("truth", [[[2], [1]], [[0.5], [1.0]], [[-1], [0]], [[np.nan], [1]]])
    def test_non_binary_truth_rejected(self, truth):
        # a 2 used to count as a negative: [[2], [1]] read 0.5
        with pytest.raises(DomainError, match="^truth entries must be 0 or 1$"):
            mean_average_precision([[0.9], [0.1]], truth)

    def test_bool_and_float_truth_accepted(self):
        scores = np.array([[0.9], [0.5], [0.1]])
        for truth in (np.array([[True], [False], [True]]), np.array([[1.0], [0.0], [1.0]])):
            assert mean_average_precision(scores, truth) == pytest.approx(5 / 6)


class TestAlignment:
    def test_identical_features_zero(self):
        f = np.tile([[1.0, 0.0]], (3, 1))
        y = np.ones((3, 2), dtype=int)
        assert alignment(f, y) == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_pair(self):
        f = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.ones((2, 2), dtype=int)
        assert alignment(f, y) == pytest.approx(4.0, abs=1e-12)

    def test_orthogonal_pair(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.ones((2, 2), dtype=int)
        assert alignment(f, y) == pytest.approx(2.0, abs=1e-12)

    def test_only_exact_label_matches_count(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([[1, 0], [1, 1], [1, 0]])  # rows 0 and 2 match exactly
        assert alignment(f, y) == pytest.approx(0.0, abs=1e-15)

    def test_no_pairs_absent(self):
        f = np.eye(2)
        y = np.array([[1, 0], [0, 1]])
        assert alignment(f, y) is None

    def test_zero_d_labels_are_a_domain_error(self):
        with pytest.raises(DomainError, match="^labels must be 2-D, got ndim=0$"):
            alignment(np.eye(2), np.array(1))

    def test_norm_invariance(self):
        # features are normalized internally
        rng = np.random.default_rng(3)
        f = rng.normal(size=(5, 3))
        y = np.ones((5, 1), dtype=int)
        assert alignment(f, y) == pytest.approx(alignment(5.0 * f, y), abs=1e-12)


class TestUniformity:
    def test_identical_features(self):
        f = np.tile([[0.6, 0.8]], (4, 1))
        assert uniformity(f) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal(self):
        f = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert uniformity(f) == pytest.approx(-8.0, abs=1e-12)

    def test_orthogonal(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert uniformity(f) == pytest.approx(-4.0, abs=1e-12)

    def test_bounds_on_random_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            f = rng.normal(size=(n, d))
            u = uniformity(f)
            assert -8.0 - 1e-9 <= u <= 1e-9

    def test_single_instance_absent(self):
        assert uniformity(np.array([[1.0, 0.0]])) is None

    @pytest.mark.parametrize("n", [2, 255, 256, 257, 513])
    @pytest.mark.parametrize("row", [[0.6, 0.8], [1.0, 0.0], [0.0, 3.0, 4.0]])
    def test_identical_rows_give_zero(self, n, row):
        assert uniformity(np.tile(row, (n, 1))) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("row", [[0.6, 0.8], [1.0, 0.0], [0.0, 3.0, 4.0]])
    def test_antipodal_rows_give_minus_eight(self, row):
        a = np.array(row)
        assert uniformity(np.stack([a, -a])) == pytest.approx(-8.0, abs=1e-15)

    def test_identical_and_antipodal_rows_in_random_directions(self):
        # the exponent 4 a.b carries a few ulps of rounding, as the squared
        # distance of the Gram form did: the worst measured over random
        # directions is 2.1e-15 (identical) and 5.3e-15 (antipodal) on both
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.normal(size=int(rng.integers(2, 70))) * 10.0 ** int(rng.integers(-3, 4))
            n = int(rng.choice([2, 3, 255, 256, 257]))
            assert uniformity(np.tile(a, (n, 1))) == pytest.approx(0.0, abs=1e-14)
            assert uniformity(np.stack([a, -a])) == pytest.approx(-8.0, abs=1e-14)

    def test_never_above_zero(self):
        # near-identical rows put the exact value an ulp or so below 0, where
        # the product of three exponentials can round above it
        rng = np.random.default_rng(13)
        for _ in range(300):
            n, d = int(rng.integers(2, 40)), int(rng.integers(2, 20))
            f = rng.normal(size=d) + 1e-9 * rng.normal(size=(n, d))
            assert -8.0 <= uniformity(f) <= 0.0
            assert -8.0 <= uniformity(rng.normal(size=(n, d))) <= 0.0


class TestReportAndInvariances:
    def test_simultaneous_permutation(self):
        rng = np.random.default_rng(5)
        truth = (rng.random((10, 4)) < 0.4).astype(int)
        truth[0, 0] = 1
        pred = (rng.random((10, 4)) < 0.4).astype(int)
        scores = rng.normal(size=(10, 4))
        feats = rng.normal(size=(10, 3))
        perm = rng.permutation(10)
        assert micro_f1(pred, truth) == micro_f1(pred[perm], truth[perm])
        assert macro_f1(pred, truth) == macro_f1(pred[perm], truth[perm])
        assert hamming(pred, truth) == hamming(pred[perm], truth[perm])
        assert mean_average_precision(scores, truth) == pytest.approx(
            mean_average_precision(scores[perm], truth[perm]), abs=1e-15)
        assert alignment(feats, truth) == pytest.approx(
            alignment(feats[perm], truth[perm]), abs=1e-12)
        assert uniformity(feats) == pytest.approx(uniformity(feats[perm]), abs=1e-12)

    def test_json_field_names_and_absent_keys(self):
        report = MetricsReport(micro_f1=0.5, macro_f1=0.4, hamming=0.01)
        doc = report.to_dict()
        assert set(doc) == {"micro_f1", "macro_f1", "hamming_x1000"}
        report2 = MetricsReport(micro_f1=0.5, macro_f1=0.4, hamming=0.01,
                                map=0.9, align=1.0, uniform=-2.0, prr=0.3)
        doc2 = report2.to_dict()
        assert set(doc2) == {"micro_f1", "macro_f1", "hamming_x1000",
                             "map", "align", "uniform", "prr"}
        assert doc2["hamming_x1000"] == pytest.approx(10.0)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64, bool])
    def test_report_matches_public_functions(self, dtype):
        rng = np.random.default_rng(9)
        truth = (rng.random((300, 5)) < 0.3).astype(dtype)
        pred = (rng.random((300, 5)) < 0.3).astype(dtype)
        scores = rng.normal(size=(300, 5))
        feats = rng.normal(size=(300, 8))
        labels = truth[:, :2]
        report = compute_report(pred, truth, scores=scores, features=feats, labels=labels)
        for got, want in ((report.micro_f1, micro_f1(pred, truth)),
                          (report.macro_f1, macro_f1(pred, truth)),
                          (report.hamming, hamming(pred, truth)),
                          (report.map, mean_average_precision(scores, truth))):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert report.align == pytest.approx(alignment(feats, labels), rel=1e-14)
        assert report.uniform == pytest.approx(uniformity(feats), rel=1e-14)

    @pytest.mark.parametrize("case", ["non-binary pred", "non-binary truth", "nan pred",
                                      "shape mismatch", "1-D", "non-finite scores",
                                      "non-finite features"])
    def test_report_rejects_bad_inputs(self, case):
        rng = np.random.default_rng(10)
        truth = (rng.random((6, 3)) < 0.5).astype(int)
        pred, scores, feats = truth.copy(), rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
        if case == "non-binary pred":
            pred[2, 1] = 2
        elif case == "non-binary truth":
            truth = truth.astype(float)
            truth[0, 0] = 0.5
        elif case == "nan pred":
            pred = pred.astype(float)
            pred[1, 1] = np.nan
        elif case == "shape mismatch":
            pred = pred[:, :2]
        elif case == "1-D":
            pred, truth = pred[0], truth[0]
        elif case == "non-finite scores":
            scores[3, 2] = np.inf
        else:
            feats[4, 0] = np.nan
        with pytest.raises(DomainError):
            compute_report(pred, truth, scores=scores, features=feats, labels=truth)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            micro_f1(np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int))

    def test_nonbinary_rejected(self):
        with pytest.raises(DomainError):
            micro_f1(np.array([[2, 0]]), np.array([[1, 0]]))


def _pairwise_alignment(f, y):
    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    d = [np.sum((f[a] - f[b]) ** 2) for a in range(len(f)) for b in range(a + 1, len(f))
         if np.array_equal(y[a], y[b])]
    return float(np.mean(d)) if d else None


def _pairwise_uniformity(f):
    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    iu = np.triu_indices(len(f), k=1)
    sq = np.sum((f[iu[0]] - f[iu[1]]) ** 2, axis=1)
    return float(np.log(np.mean(np.exp(-2.0 * sq))))


class TestAgainstPairwiseReferences:
    """The metrics avoid pairwise arrays; these brute-force forms are the
    definitions they must reproduce."""

    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_alignment_and_uniformity_at_block_edges(self, n):
        # one row short of, exactly at, and one past a 256-row block, and a
        # last block of one row
        rng = np.random.default_rng(n)
        f = rng.normal(size=(n, 16))
        y = (rng.random((n, 3)) < 0.4).astype(np.int8)
        assert alignment(f, y) == pytest.approx(_pairwise_alignment(f, y), rel=1e-12)
        assert uniformity(f) == pytest.approx(_pairwise_uniformity(f), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_alignment_and_uniformity_at_n_250(self, seed):
        rng = np.random.default_rng(seed)
        n = 250
        f = rng.normal(size=(n, 16))
        # few labels so that many rows share an exact label set
        y = (rng.random((n, 3)) < 0.4).astype(np.int8)
        assert alignment(f, y) == pytest.approx(_pairwise_alignment(f, y), rel=1e-12)
        assert uniformity(f) == pytest.approx(_pairwise_uniformity(f), rel=1e-12)

    def test_alignment_without_label_columns(self):
        # every row has the empty label set, so every pair counts
        f = np.random.default_rng(14).normal(size=(20, 4))
        y = np.zeros((20, 0), dtype=np.int8)
        assert alignment(f, y) == pytest.approx(_pairwise_alignment(f, y), rel=1e-12)

    def test_clustered_features(self):
        # tight clusters per label set: small distances next to unit norms
        rng = np.random.default_rng(7)
        y = (rng.random((250, 2)) < 0.5).astype(np.int8)
        centers = rng.normal(size=(4, 8))
        f = centers[y[:, 0] * 2 + y[:, 1]] + 1e-3 * rng.normal(size=(250, 8))
        assert alignment(f, y) == pytest.approx(_pairwise_alignment(f, y), rel=1e-12)
        assert uniformity(f) == pytest.approx(_pairwise_uniformity(f), rel=1e-12)

    def test_f1_matches_per_label_counts(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, big_l = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            pred = (rng.random((n, big_l)) < rng.random()).astype(int)
            truth = (rng.random((n, big_l)) < rng.random()).astype(int)
            scores = []
            for j in range(big_l):
                tp = int(np.sum((pred[:, j] == 1) & (truth[:, j] == 1)))
                fp = int(np.sum((pred[:, j] == 1) & (truth[:, j] == 0)))
                fn = int(np.sum((pred[:, j] == 0) & (truth[:, j] == 1)))
                scores.append(2.0 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
            assert macro_f1(pred, truth) == float(np.mean(scores))
            tp = int(np.sum(pred & truth))
            denom = 2 * tp + int(np.sum(pred != truth))
            assert micro_f1(pred, truth) == (2.0 * tp / denom if denom else 0.0)
