import datetime
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowline_risk import evaluation
from flowline_risk.evaluation import (
    NO_STRUCTURE_SILHOUETTE,
    LengthMismatch,
    SingleClassTest,
    SingleCluster,
    confusion,
    eda_summaries,
    metric_rows,
    metric_table,
    silhouette,
    silhouette_sweep,
    silhouettes,
    structure_found,
)
from flowline_risk.ml.kmeans import fit_kmeans

import silhouette_oracle
from conftest import make_operational, two_blobs, three_blobs
from geometry_oracle import multiline
from merged_oracle import MergedFlowline, merged_flowlines

REF = datetime.date(2024, 6, 30)
# Scores of the blocked kernel and the full-matrix oracle sum the same
# distances in a different order.
SILHOUETTE_ABS_TOL = 1e-12


class TestConfusion:
    def test_perfect_pair(self):
        cm = confusion([1, 0], [1, 0])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)

    def test_all_negative_predictions(self):
        cm = confusion([1] * 5, [0] * 5)
        assert cm.fn == 5

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            y_true = (rng.random(n) < 0.3).astype(int)
            y_pred = (rng.random(n) < 0.5).astype(int)
            cm = confusion(y_true, y_pred)
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
            fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
            tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
            assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)
            assert cm.n == n

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [1])


def positive_class_row(tp: int, fp: int, fn: int, tn: int):
    """metric_rows' positive-class row for predictions with these counts."""
    y_true = [1] * tp + [0] * fp + [1] * fn + [0] * tn
    y_pred = [1] * (tp + fp) + [0] * (fn + tn)
    (row,) = [r for r in metric_rows("M", y_true, y_pred) if r.averaging == "positive-class"]
    return row


class TestMetrics:
    def test_knn_row_from_reported_precision_recall(self):
        # the published K-NN row: precision 0.80, recall 0.33 gives F1 0.47
        row = positive_class_row(tp=4, fp=1, fn=8, tn=87)
        assert (row.precision, row.recall) == (0.8, 4 / 12)
        assert round(row.f1, 2) == 0.47

    def test_perfect_predictions(self):
        row = positive_class_row(tp=10, fp=0, fn=0, tn=90)
        assert (row.accuracy, row.precision, row.recall, row.f1) == (1.0, 1.0, 1.0, 1.0)
        assert row.undefined == ()

    def test_zero_division_convention(self):
        row = positive_class_row(tp=0, fp=0, fn=5, tn=95)
        assert row.precision == 0.0 and row.f1 == 0.0
        assert "precision[1]" in row.undefined

    def test_metrics_match_direct_formulas(self):
        rng = np.random.default_rng(82)
        for _ in range(1000):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 20, size=4))
            if tp + fp + fn + tn == 0:
                continue
            row = positive_class_row(tp, fp, fn, tn)
            acc, p, r, f1 = row.accuracy, row.precision, row.recall, row.f1
            assert acc == (tp + tn) / (tp + fp + fn + tn)
            assert p == (tp / (tp + fp) if tp + fp else 0.0)
            assert r == (tp / (tp + fn) if tp + fn else 0.0)
            assert f1 == (2 * p * r / (p + r) if p + r else 0.0)


class TestMetricRows:
    def test_positive_class_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(83)
        y_true = (rng.random(300) < 0.2).astype(int)
        y_pred = (rng.random(300) < 0.3).astype(int)
        row = [r for r in metric_rows("LR", y_true, y_pred)
               if r.averaging == "positive-class"][0]
        assert row.f1 == pytest.approx(2 * row.precision * row.recall / (row.precision + row.recall))

    def test_majority_predictor_on_99_1(self):
        y_true = np.array([0] * 990 + [1] * 10)
        y_pred = np.zeros(1000, dtype=int)
        rows = {r.averaging: r for r in metric_rows("LR", y_true, y_pred)}
        assert rows["positive-class"].accuracy == pytest.approx(0.990)
        assert rows["positive-class"].recall == 0.0

    def test_three_averaging_modes(self):
        y = np.array([0, 0, 1, 1])
        rows = metric_rows("SVM", y, y)
        assert [r.averaging for r in rows] == ["positive-class", "macro", "weighted"]
        for r in rows:
            assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_table_order_and_single_class_guard(self):
        class Stub:
            def __init__(self, out):
                self.out = out

            def predict(self, X):
                return np.full(X.shape[0], self.out, dtype=int)

        X = np.zeros((4, 1))
        y = np.array([0, 0, 1, 1])
        models = {"RF": Stub(0), "LR": Stub(1), "GBDT": Stub(0), "KNN": Stub(1),
                  "ADABOOST": Stub(1), "SVM": Stub(0)}
        rows = metric_table(models, X, y)
        assert [r.classifier for r in rows[::3]] == ["LR", "KNN", "SVM", "GBDT", "ADABOOST", "RF"]
        with pytest.raises(SingleClassTest):
            metric_table(models, X, np.zeros(4, dtype=int))


class TestSilhouette:
    def test_two_singletons_score_zero(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert silhouette(X, np.array([0, 1])) == 0.0

    def test_two_tight_blobs(self):
        X, labels = two_blobs(seed=84)
        assert silhouette(X, labels) >= 0.9

    def test_four_point_hand_case(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        a = 1.0
        b = (10.0 + math.sqrt(101.0)) / 2.0
        expected = (b - a) / max(a, b)
        assert silhouette(X, labels) == pytest.approx(expected, abs=1e-9)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(85)
        X = rng.normal(size=(40, 2))
        labels = rng.integers(0, 3, size=40)
        while len(np.unique(labels)) < 2:
            labels = rng.integers(0, 3, size=40)
        permuted = (labels + 1) % 3
        assert silhouette(X, labels) == pytest.approx(silhouette(X, permuted))

    def test_range_bound(self):
        rng = np.random.default_rng(86)
        for _ in range(20):
            X = rng.normal(size=(30, 2))
            labels = rng.integers(0, 4, size=30)
            if len(np.unique(labels)) < 2:
                continue
            s = silhouette(X, labels)
            assert -1.0 <= s <= 1.0

    def test_single_cluster_rejected(self):
        with pytest.raises(SingleCluster):
            silhouette(np.zeros((5, 2)), np.zeros(5, dtype=int))


class TestSilhouetteSweep:
    def test_two_blob_selects_two(self):
        X, _ = two_blobs(seed=87)
        best, scores, _, _ = silhouette_sweep(X, range(2, 6), seed=87)
        assert best == 2
        assert len(scores) == 4

    def test_three_blob_selects_three(self):
        X, _ = three_blobs(seed=88)
        best, _, _, _ = silhouette_sweep(X, range(2, 6), seed=88)
        assert best == 3

    def test_tie_goes_to_smaller_k(self):
        with mock.patch("flowline_risk.evaluation.silhouettes", return_value=[0.5, 0.5, 0.3, 0.2]):
            X, _ = two_blobs(seed=89)
            best, scores, _, _ = silhouette_sweep(X, range(2, 6), seed=89)
        assert best == 2

    def test_one_kernel_call_for_the_whole_sweep(self):
        X, _ = three_blobs(seed=90)
        with mock.patch("flowline_risk.evaluation.silhouettes", wraps=silhouettes) as kernel:
            _, scores, models, _ = silhouette_sweep(X, range(2, 6), seed=90)
        assert kernel.call_count == 1
        for k, model in models.items():
            assert scores[k] == pytest.approx(
                silhouette_oracle.silhouette(X, model.assignments), abs=SILHOUETTE_ABS_TOL)


class TestStructureFound:
    def test_at_threshold_is_no_structure(self):
        assert not structure_found({2: NO_STRUCTURE_SILHOUETTE, 3: 0.1, 4: -0.2})

    def test_just_above_threshold_is_structure(self):
        assert structure_found({2: 0.1, 3: math.nextafter(NO_STRUCTURE_SILHOUETTE, 1.0)})

    def test_two_blobs_have_structure(self):
        X, _ = two_blobs(seed=92)
        _, scores, _, _ = silhouette_sweep(X, range(2, 6), seed=92)
        assert structure_found(scores)

    def test_uniform_noise_has_none(self):
        X = np.random.default_rng(93).random((400, 8))
        _, scores, _, _ = silhouette_sweep(X, range(2, 6), seed=93)
        assert not structure_found(scores)


@st.composite
def silhouette_cases(draw):
    """Points on a half-unit grid, several assignments, and a block size.

    Grid coordinates make the Gram identity exact, so both implementations
    see bit-identical distances and only the summation order differs.
    Coordinates span few values, so duplicate points are common; labels
    span up to n values, so singleton clusters are too.
    """
    n = draw(st.integers(2, 300))
    p = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.int64, (n, p), elements=st.integers(-4, 4))) * 0.5
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(2, min(n, 8)))
        labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        if np.unique(labels).size < 2:
            labels[0] = (labels[0] + 1) % k
        sets.append(labels)
    rows = draw(st.integers(1, n))
    return X, sets, rows


class TestSilhouettesKernel:
    @settings(max_examples=200, deadline=None)
    @given(silhouette_cases())
    def test_matches_full_matrix_oracle(self, case):
        X, sets, rows = case
        with mock.patch.object(evaluation, "_SILHOUETTE_BLOCK_BYTES", rows * 8 * X.shape[0]), \
                np.errstate(invalid="ignore"):
            got = silhouettes(X, sets)
            want = [silhouette_oracle.silhouette(X, labels) for labels in sets]
        np.testing.assert_allclose(got, want, rtol=0, atol=SILHOUETTE_ABS_TOL, equal_nan=True)

    def test_kmeans_sweep_on_continuous_data(self):
        rng = np.random.default_rng(94)
        X = np.vstack([rng.normal(c, 1.0, size=(300, 6)) for c in (0.0, 2.0, 5.0)])
        sets = [fit_kmeans(X, k, seed=94).assignments for k in range(2, 6)]
        want = [silhouette_oracle.silhouette(X, labels) for labels in sets]
        for block_bytes in (8 * X.shape[0], 37 * 8 * X.shape[0], 2 << 20):
            with mock.patch.object(evaluation, "_SILHOUETTE_BLOCK_BYTES", block_bytes):
                got = silhouettes(X, sets)
            np.testing.assert_allclose(got, want, rtol=0, atol=SILHOUETTE_ABS_TOL)

    def test_each_set_needs_two_clusters(self):
        X = np.zeros((4, 2))
        with pytest.raises(SingleCluster):
            silhouettes(X, [np.array([0, 0, 1, 1]), np.zeros(4, dtype=int)])

    def test_working_set_is_linear_in_n(self):
        rng = np.random.default_rng(95)

        def peak_bytes(n):
            X = rng.normal(size=(n, 10))
            sets = [rng.integers(0, k, size=n) for k in range(2, 6)]
            tracemalloc.start()
            try:
                silhouettes(X, sets)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(1000), peak_bytes(4000)
        assert large < 3 * small
        assert large < 4000 * 4000 * 8  # one n x n float64 matrix


def make_merged(fluid, material, diameter, operator_number, construction, risk):
    g = multiline([(0.0, 0.0), (10.0, 0.0)])
    op = make_operational(fluid_type=fluid, material=material, diameter_inches=diameter,
                          operator_number=operator_number, construction_date=construction)
    return MergedFlowline(op, g, risk=risk)


def eda_of(rows, reference_date):
    """eda_summaries of MergedFlowline records, labelled by their risk."""
    return eda_summaries(merged_flowlines(rows), [m.risk for m in rows], reference_date=reference_date)


class TestEdaSummaries:
    def _merged_set(self, n=1000, positives=10):
        date = datetime.date(2010, 1, 1)
        rows = [make_merged("CRUDE_OIL", "STEEL", 8.0, "98216", date, 1) for _ in range(positives)]
        rows += [make_merged("NATURAL_GAS", "HDPE", 4.0, "98218", date, 0)
                 for _ in range(n - positives)]
        return rows

    def test_overall_imbalance(self):
        tables = eda_of(self._merged_set(), REF)
        overall = {(r[0], r[1]): r[3] for r in tables["overall"].rows}
        assert overall[("all", 0)] == pytest.approx(0.99)
        assert overall[("all", 1)] == pytest.approx(0.01)

    def test_single_fluid_single_row(self):
        rows = [make_merged("CRUDE_OIL", "STEEL", 8.0, "98216", datetime.date(2010, 1, 1), 0)
                for _ in range(5)]
        tables = eda_of(rows, REF)
        assert len(tables["fluid_type"].rows) == 1

    def test_proportions_sum_to_one(self):
        tables = eda_of(self._merged_set(), REF)
        for table in tables.values():
            assert sum(r[3] for r in table.rows) == pytest.approx(1.0, abs=1e-12)

    def test_cross_tab_marginals_re_sum(self):
        merged = self._merged_set(200, 7)
        tables = eda_of(merged, REF)
        for name in ("line_age", "diameter", "fluid_type", "material", "operator_number"):
            assert sum(r[2] for r in tables[name].rows) == 200
            positives = sum(r[2] for r in tables[name].rows if r[1] == 1)
            assert positives == 7
