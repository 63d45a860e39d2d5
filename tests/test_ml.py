import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowline_risk.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GBDTClassifier,
    KMeansModel,
    KNNClassifier,
    KTooLarge,
    LinearSVM,
    LogisticRegressionGD,
    NotFitted,
    RandomForestClassifier,
    SingleClass,
    best_gini_split,
    fit_kmeans,
    gini_impurity,
    logistic_loss_and_grad,
    RegressionTree,
    model_from_dict,
    model_to_dict,
)
from flowline_risk.ml import kmeans, neighbors, trees
from flowline_risk.ml.trees import presort, rank_keys

import cart_oracle
import knn_oracle
from conftest import disk_blob

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def blobs(seed=0, n=40, gap=4.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal((-gap, -gap), 0.5, (n, 2)), rng.normal((gap, gap), 0.5, (n, 2))])
    return X, np.array([0] * n + [1] * n)


class TestLogistic:
    def test_separable_1d(self):
        X = np.array([[-1.0]] * 20 + [[1.0]] * 20)
        y = np.array([0] * 20 + [1] * 20)
        model = LogisticRegressionGD().fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_all_zero_features_predict_majority(self):
        X = np.zeros((50, 3))
        y = np.array([0] * 40 + [1] * 10)
        model = LogisticRegressionGD().fit(X, y)
        assert np.all(model.predict(X) == 0)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) < 0.4).astype(int)
        l2 = 1e-3
        h = 1e-6
        for _ in range(10):
            w = rng.normal(size=4)
            b = float(rng.normal())
            _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, l2)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                up = logistic_loss_and_grad(w + e, b, X, y, l2)[0]
                dn = logistic_loss_and_grad(w - e, b, X, y, l2)[0]
                numeric = (up - dn) / (2 * h)
                assert abs(numeric - grad_w[i]) / max(1e-8, abs(grad_w[i])) < 1e-6
            numeric_b = (logistic_loss_and_grad(w, b + h, X, y, l2)[0]
                         - logistic_loss_and_grad(w, b - h, X, y, l2)[0]) / (2 * h)
            assert abs(numeric_b - grad_b) / max(1e-8, abs(grad_b)) < 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            LogisticRegressionGD().fit(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_xor_stays_weak(self):
        model = LogisticRegressionGD().fit(XOR_X, XOR_Y)
        assert np.mean(model.predict(XOR_X) == XOR_Y) <= 0.6

    def test_probabilities_in_range(self):
        X, y = blobs(62)
        p = LogisticRegressionGD().fit(X, y).predict_proba(X)
        assert np.all((p >= 0.0) & (p <= 1.0))


class TestKNN:
    def test_memorizes_with_k1(self):
        X, y = blobs(63)
        model = KNNClassifier(1).fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_global_vote_with_k_equals_n(self):
        rng = np.random.default_rng(64)
        X = rng.normal(size=(100, 2))
        y = np.array([0] * 99 + [1])
        model = KNNClassifier(100).fit(X, y)
        assert np.all(model.predict(X) == 0)

    def test_matches_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(65)
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.5).astype(int)
        queries = rng.normal(size=(50, 3))
        k = 7
        model = KNNClassifier(k).fit(X, y)
        got = model.predict(queries)
        for qi, q in enumerate(queries):
            dist = [(float(np.linalg.norm(X[i] - q)), i) for i in range(200)]
            dist.sort()
            votes = sum(y[i] for _, i in dist[:k])
            assert got[qi] == (1 if votes > k / 2 else 0)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            KNNClassifier(11).fit(np.zeros((10, 2)), np.array([0] * 5 + [1] * 5))

    def test_tie_goes_to_class_zero(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = KNNClassifier(2).fit(X, y)
        assert model.predict(np.array([[0.5]]))[0] == 0

    def test_vote_shares_memory_is_a_few_blocks(self):
        # Each block of queries holds its squared norms, Gram distances and
        # upper bounds, about three blocks of bytes, whatever the sizes.
        rng = np.random.default_rng(67)

        def peak_bytes(n):
            model = KNNClassifier(5).fit(rng.normal(size=(n, 5)), rng.integers(0, 2, n))
            queries = rng.normal(size=(3000, 5))
            tracemalloc.start()
            try:
                model.vote_shares(queries)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n in (2000, 8000):
            assert peak_bytes(n) < 4 * neighbors._BLOCK_BYTES


class TestLinearSVM:
    def test_separable_blobs(self):
        X, y = blobs(66)
        model = LinearSVM().fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0
        s = 2.0 * y - 1.0
        assert np.all(s * model.decision_function(X) >= 0.0)

    def test_objective_trace_non_increasing(self):
        X, y = blobs(67, n=60, gap=2.0)
        model = LinearSVM().fit(X, y)
        trace = model.objective_trace
        tol = 1e-3 * max(1.0, trace[0])
        assert all(b <= a + tol for a, b in zip(trace, trace[1:]))

    def test_four_point_grid_oracle(self):
        X = np.array([[-1.0, -1.0], [-1.5, -0.5], [1.0, 1.0], [1.5, 0.5]])
        y = np.array([0, 0, 1, 1])
        model = LinearSVM(C=10.0, epochs=500).fit(X, y)

        # exhaustive grid over (w, b): best hinge objective wins
        s = 2.0 * y - 1.0
        grid = np.linspace(-2.0, 2.0, 17)
        best = None
        for w1, w2, b in itertools.product(grid, grid, grid):
            w = np.array([w1, w2])
            obj = 0.5 * w @ w + 10.0 * np.sum(np.maximum(0.0, 1.0 - s * (X @ w + b)))
            if best is None or obj < best[0]:
                best = (obj, w, b)
        _, gw, gb = best
        grid_pred = (X @ gw + gb > 0).astype(int)
        assert np.array_equal(model.predict(X), grid_pred)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            LinearSVM().fit(np.zeros((4, 2)), np.ones(4, dtype=int))


class TestDecisionTree:
    def test_pure_input_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        tree = DecisionTreeClassifier().fit(X, np.zeros(3, dtype=int))
        assert tree.feature.tolist() == [-1] and tree.tree_start.tolist() == [0, 1]
        assert np.all(tree.predict(X) == 0)

    def test_xor_depth_two(self):
        tree = DecisionTreeClassifier(max_depth=2, min_leaf=1).fit(XOR_X, XOR_Y)
        assert np.mean(tree.predict(XOR_X) == XOR_Y) == 1.0

    def test_root_split_matches_brute_force_oracle(self):
        rng = np.random.default_rng(68)
        for _ in range(10):
            X = rng.normal(size=(50, 3))
            y = (rng.random(50) < 0.5).astype(int)
            weights = np.full(50, 1.0 / 50)
            got = best_gini_split(X, y, weights, min_leaf=1)

            best = None
            parent = gini_impurity(y, weights)
            for f in range(3):
                for thr in np.unique(X[:, f])[:-1]:
                    # midpoint thresholds, same candidate family as the impl
                    upper = np.min(X[X[:, f] > thr, f])
                    mid = (thr + upper) / 2.0
                    mask = X[:, f] <= mid
                    wl, wr = mask.sum() / 50, (~mask).sum() / 50
                    gl = gini_impurity(y[mask], np.full(mask.sum(), 1.0))
                    gr = gini_impurity(y[~mask], np.full((~mask).sum(), 1.0))
                    gain = parent - (wl * gl + wr * gr)
                    cand = (-gain, f, mid)
                    if best is None or cand < best:
                        best = cand
            assert got[0] == best[1]
            assert got[1] == pytest.approx(best[2])
            assert -best[0] == pytest.approx(got[2], abs=1e-12)

    def test_predict_before_fit(self):
        with pytest.raises(NotFitted):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))


class TestGBDT:
    def test_single_stump_equivalent(self):
        X = np.array([[-2.0]] * 10 + [[2.0]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        gbdt = GBDTClassifier(n_trees=1, max_depth=1, shrinkage=1.0, min_leaf=1).fit(X, y)
        stump = DecisionTreeClassifier(max_depth=1, min_leaf=1).fit(X, y)
        assert np.array_equal(gbdt.predict(X), stump.predict(X))

    def test_stage_losses_non_increasing(self):
        rng = np.random.default_rng(69)
        X = rng.normal(size=(120, 4))
        y = ((X[:, 0] + X[:, 1] * X[:, 2]) > 0).astype(int)
        gbdt = GBDTClassifier(n_trees=40, max_depth=3).fit(X, y)
        losses = gbdt.stage_losses
        assert len(losses) == 41
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_xor(self):
        gbdt = GBDTClassifier(n_trees=10, max_depth=2, shrinkage=0.5, min_leaf=1).fit(XOR_X, XOR_Y)
        assert np.mean(gbdt.predict(XOR_X) == XOR_Y) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            GBDTClassifier().fit(np.zeros((4, 2)), np.zeros(4, dtype=int))


class TestAdaBoost:
    def test_first_round_weights_uniform(self):
        X, y = blobs(70)
        model = AdaBoostClassifier(5).fit(X, y)
        assert np.allclose(model.initial_weights, 1.0 / len(y))

    def test_separable_stops_after_one_round(self):
        X = np.array([[-1.0]] * 15 + [[1.0]] * 15)
        y = np.array([0] * 15 + [1] * 15)
        model = AdaBoostClassifier(50).fit(X, y)
        assert model.tree_count == 1
        assert model.round_errors[0] == 0.0
        assert np.mean(model.predict(X) == y) == 1.0

    def test_exponential_bound_non_increasing_and_binding(self):
        rng = np.random.default_rng(71)
        X = rng.normal(size=(150, 3))
        y = ((X[:, 0] + 0.5 * X[:, 1] ** 2) > 0.2).astype(int)
        model = AdaBoostClassifier(60).fit(X, y)
        bounds = model.bound_trace
        assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))
        train_error = float(np.mean(model.predict(X) != y))
        assert train_error <= bounds[-1] + 1e-12


class TestRandomForest:
    def test_degenerate_forest_equals_cart(self):
        rng = np.random.default_rng(72)
        X = rng.normal(size=(100, 5))
        y = ((X[:, 0] - X[:, 3]) > 0).astype(int)
        rf = RandomForestClassifier(n_trees=1, max_depth=6, mtry=5, seed=3,
                                    bootstrap=False).fit(X, y)
        cart = DecisionTreeClassifier(max_depth=6, min_leaf=2).fit(X, y)
        probe = rng.normal(size=(200, 5))
        assert np.array_equal(rf.predict(probe), cart.predict(probe))

    def test_seed_determinism(self):
        X, y = blobs(73, n=60, gap=1.5)
        a = RandomForestClassifier(n_trees=15, seed=5).fit(X, y)
        b = RandomForestClassifier(n_trees=15, seed=5).fit(X, y)
        probe = np.random.default_rng(1).normal(size=(50, 2))
        assert np.array_equal(a.predict(probe), b.predict(probe))

    def test_separable_blobs_accuracy(self):
        X, y = blobs(74, n=100, gap=3.0)
        train = np.r_[0:80, 100:180]
        test = np.r_[80:100, 180:200]
        rf = RandomForestClassifier(n_trees=25, seed=2).fit(X[train], y[train])
        assert np.mean(rf.predict(X[test]) == y[test]) >= 0.95


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(75)
        X = rng.normal(size=(80, 3))
        model = fit_kmeans(X, 1, seed=0)
        assert np.allclose(model.centroids[0], X.mean(axis=0))
        expected = float(np.sum((X - X.mean(axis=0)) ** 2))
        assert model.inertia == pytest.approx(expected)

    def test_two_blob_recovery(self):
        rng = np.random.default_rng(76)
        X = np.vstack([disk_blob(rng, (0, 0), 1.0, 60), disk_blob(rng, (10, 0), 1.0, 60)])
        truth = np.array([0] * 60 + [1] * 60)
        model = fit_kmeans(X, 2, seed=1)
        agreement = np.mean(model.assignments == truth)
        assert max(agreement, 1.0 - agreement) == 1.0  # up to label swap

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(77)
        X = rng.normal(size=(300, 4))
        model = fit_kmeans(X, 5, seed=4)
        hist = model.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_assignments_are_nearest(self):
        rng = np.random.default_rng(78)
        X = rng.normal(size=(100, 2))
        model = fit_kmeans(X, 3, seed=2)
        d2 = ((X[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(model.assignments, np.argmin(d2, axis=1))
        assert model.inertia == pytest.approx(
            float(np.sum(d2[np.arange(100), model.assignments])))

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            fit_kmeans(np.zeros((3, 2)), 4, seed=0)

    @given(st.integers(1, 400), st.integers(1, 200), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(1, 1, 1, 0)
    @example(4000, 39, 5, 1)
    def test_distances_match_broadcast_bits(self, n, p, k, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4)
        centroids = X[rng.integers(n, size=k)] + rng.normal(size=(k, p))
        diff = X[:, None, :] - centroids[None, :, :]
        assert np.array_equal(kmeans._squared_distances(X, centroids),
                              np.einsum("nkp,nkp->nk", diff, diff))

    def test_seed_determinism(self):
        rng = np.random.default_rng(79)
        X = rng.normal(size=(120, 3))
        a = fit_kmeans(X, 4, seed=11)
        b = fit_kmeans(X, 4, seed=11)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    @pytest.mark.parametrize("max_iter, runs_out", [(300, False), (2, True), (0, True)])
    def test_one_distance_pass_per_lloyd_step(self, monkeypatch, max_iter, runs_out):
        # A fixpoint reuses the last step's distances; only a loop that ran
        # out of steps (moving the centroids last) computes them once more.
        rng = np.random.default_rng(80)
        X = rng.normal(size=(200, 3))
        seeds = kmeans._kmeanspp_seed(X, 4, np.random.default_rng(5))
        distances = kmeans._squared_distances
        calls = []
        monkeypatch.setattr(kmeans, "_squared_distances",
                            lambda *args: calls.append(1) or distances(*args))
        centroids, assignments, inertia, history = kmeans._lloyd(X, seeds.copy(), max_iter)
        assert len(calls) == len(history) + runs_out
        assert (len(history) == max_iter) if runs_out else (len(history) < max_iter)
        d2 = distances(X, centroids)
        assert np.array_equal(assignments, np.argmin(d2, axis=1))
        assert inertia == float(np.sum(d2[np.arange(len(X)), assignments]))


# every score a model kind may expose
SCORES = ("predict", "predict_proba", "decision_scores", "vote_shares", "decision_function")


def on_thresholds(model, X) -> np.ndarray:
    """Copies of X's first row, one per split of a tree model (none for
    other kinds), with the split's column set to its threshold."""
    if not isinstance(model, trees.TreeTable):
        return X[:0]
    splits = np.flatnonzero(model.feature >= 0)
    rows = np.repeat(X[:1], splits.size, axis=0)
    rows[np.arange(splits.size), model.feature[splits]] = model.threshold[splits]
    return rows


class TestSerialization:
    @pytest.mark.parametrize("factory", [
        lambda: LogisticRegressionGD(epochs=50),
        lambda: KNNClassifier(3),
        lambda: LinearSVM(epochs=50),
        lambda: DecisionTreeClassifier(max_depth=4),
        lambda: GBDTClassifier(n_trees=10),
        lambda: AdaBoostClassifier(n_stumps=10),
        lambda: RandomForestClassifier(n_trees=10, seed=1),
        lambda: DecisionTreeClassifier(max_depth=4, min_leaf=50),  # a single leaf
        lambda: GBDTClassifier(n_trees=3, min_leaf=50),  # single-leaf stages
    ])
    def test_json_round_trip(self, factory):
        X, y = blobs(80, n=40, gap=2.0)
        model = factory().fit(X, y)
        doc = json.loads(json.dumps(model_to_dict(model, seed=1), allow_nan=False))
        back = model_from_dict(doc, width=2)
        probe = np.vstack([np.random.default_rng(2).normal(size=(60, 2)), on_thresholds(model, X)])
        exposed = [name for name in SCORES if hasattr(model, name)]
        assert len(exposed) >= 2  # predict and at least one score
        for name in exposed:
            assert bits(getattr(back, name)(probe)) == bits(getattr(model, name)(probe)), name

    def test_a_row_on_a_threshold_goes_left(self):
        X, y = blobs(80, n=40, gap=2.0)
        tree = DecisionTreeClassifier(max_depth=1, min_leaf=1).fit(X, y)
        f, thr = tree.feature[0], tree.threshold[0]
        row = X[:1].copy()
        row[0, f] = thr
        assert tree._leaves(row)[0, 0] == 1  # the left child, next in preorder
        row[0, f] = np.nextafter(thr, np.inf)
        assert tree._leaves(row)[0, 0] == tree.right[0]

    def test_only_finite_numbers_are_written_or_read(self):
        X, y = blobs(80, n=40, gap=2.0)
        model = LogisticRegressionGD(epochs=5).fit(X, y)
        model.weights[0] = np.nan
        with pytest.raises(ValueError, match="'weights' holds a value that is not finite"):
            model.state_dict()
        model.weights[0] = 1.0
        doc = model_to_dict(model)
        doc["parameters"]["bias"] = float("inf")
        with pytest.raises(ValueError, match="'bias' holds a value that is not finite"):
            model_from_dict(doc)
        doc["parameters"]["bias"] = [True]
        with pytest.raises(ValueError, match="'bias' holds bool values, not numbers"):
            model_from_dict(doc)

    @pytest.mark.parametrize("edit, problem", [
        (lambda p: p["threshold"].pop(), "the node arrays .* differ in shape"),
        (lambda p: p["tree_start"].__setitem__(-1, 10**6), "tree_start must rise from 0"),
        (lambda p: p["right"].__setitem__(0, 0), "a child index is not after its node"),
        (lambda p: p["feature"].__setitem__(0, 2), "a node splits on column 2 of a matrix with 2 columns"),
        (lambda p: p["alphas"].pop(), "must hold one entry for each of 3 trees"),
    ])
    def test_inconsistent_tables_refused(self, edit, problem):
        X, y = blobs(80, n=40, gap=1.0)
        doc = model_to_dict(AdaBoostClassifier(n_stumps=3).fit(X, y))
        assert model_from_dict(doc, width=2).tree_count == 3
        edit(doc["parameters"])
        with pytest.raises(ValueError, match=problem):
            model_from_dict(doc, width=2)

    def test_document_carries_seed_and_schema_hash(self):
        from flowline_risk.features import ColumnMeta
        from flowline_risk.ml import schema_hash

        X, y = blobs(81, n=30, gap=2.0)
        meta = [ColumnMeta("a", "numeric"), ColumnMeta("fluid=GAS", "one-hot", "fluid", "GAS")]
        doc = model_to_dict(KNNClassifier(3).fit(X, y), seed=9, column_meta=meta)
        assert doc["seed"] == 9
        assert doc["schema_hash"] == schema_hash(meta)
        assert doc["kind"] == "KNN"
        reordered = [meta[1], meta[0]]
        assert schema_hash(reordered) != doc["schema_hash"]


# ---------------------------------------------------------------------------
# presorted split search against the per-feature oracle


@st.composite
def tree_problems(draw):
    """Small heavily tied problems: integer-valued, constant, one-hot and
    continuous columns, both classes present, optionally skewed weights."""
    n = draw(st.integers(2, 80))
    p = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["ints", "ints", "constant", "one-hot", "float"]),
                          min_size=p, max_size=p))
    levels = draw(st.integers(1, 4))
    weighting = draw(st.sampled_from(["uniform", "random", "with-zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    columns = []
    for kind in kinds:
        if kind == "ints":
            columns.append(rng.integers(0, levels + 1, n).astype(float))
        elif kind == "constant":
            columns.append(np.full(n, float(rng.integers(-2, 3))))
        elif kind == "one-hot":
            columns.append((np.arange(n) == rng.integers(0, n)).astype(float))
        else:
            columns.append(rng.normal(size=n))
    X = np.column_stack(columns)
    y = rng.integers(0, 2, n)
    if np.all(y == y[0]):
        y[rng.integers(0, n)] ^= 1
    if weighting == "uniform":
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.random(n) + (0.0 if weighting == "with-zeros" else 0.05)
        if weighting == "with-zeros":
            weights[rng.random(n) < 0.3] = 0.0
            weights[rng.integers(0, n)] = 1.0
        weights /= weights.sum()
    return X, y, weights


@st.composite
def mostly_constant_problems(draw):
    """tree_problems with up to three times as many constant columns (signed
    zeros mixed in one column included) shuffled in among their columns."""
    X, y, weights = draw(tree_problems())
    n, p = X.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constants = []
    for _ in range(draw(st.integers(1, 3 * p))):
        value = draw(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300, "signed zeros"]))
        constants.append(np.where(rng.random(n) < 0.5, -0.0, 0.0) if value == "signed zeros"
                         else np.full(n, value))
    X = np.column_stack([X] + constants)
    return X[:, rng.permutation(X.shape[1])], y, weights


def state_json(model) -> str:
    return json.dumps(model.state_dict(), sort_keys=True)


def table_json(tree) -> str:
    return json.dumps({name: getattr(tree, name).tolist()
                       for name in tree.node_fields + ("tree_start",)})


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def probe_rows(X: np.ndarray) -> np.ndarray:
    # the training rows plus points between and beyond every training value
    return np.vstack([X, X + 0.5, X - 0.5])


class TestBlockedKNNMatchesOracle:
    """Votes of the blocked KNN are bit-identical to the per-query loop
    (tests/knn_oracle.py) on tied, duplicated and constant rows."""

    @settings(max_examples=150, deadline=None)
    @given(tree_problems(), st.data())
    def test_vote_shares(self, problem, data):
        X, y, _ = problem
        n = X.shape[0]
        # duplicated training rows, with either label
        dups = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1)), max_size=n))
        X = np.vstack([X] + [X[i:i + 1] for i, _ in dups])
        y = np.concatenate([y, np.array([label for _, label in dups], dtype=int)])
        # far from the origin, the Gram form cancels and only its error bound
        # keeps the true neighbours
        X = X * data.draw(st.sampled_from([1.0, 1e-3, 1e5])) + data.draw(st.sampled_from([0.0, 1e4]))
        k = data.draw(st.one_of(st.just(X.shape[0]), st.integers(1, X.shape[0])))
        queries = np.vstack([probe_rows(X), np.zeros((1, X.shape[1]))])
        rows = data.draw(st.integers(1, queries.shape[0]))
        new = KNNClassifier(k).fit(X, y)
        old = knn_oracle.OracleKNNClassifier(k).fit(X, y)
        with mock.patch.object(neighbors, "_BLOCK_BYTES", rows * 8 * X.shape[0]):
            got = new.vote_shares(queries)
        assert bits(got) == bits(old.vote_shares(queries))

    def test_non_finite_query_takes_the_first_training_rows(self):
        rng = np.random.default_rng(66)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, 30)
        y[:2] = (0, 1)
        queries = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.1, 0.2, 0.3]])
        for k in (1, 4, 30):
            new = KNNClassifier(k).fit(X, y)
            old = knn_oracle.OracleKNNClassifier(k).fit(X, y)
            assert bits(new.vote_shares(queries)) == bits(old.vote_shares(queries))


class TestPresortedSplitsMatchOracle:
    """Every fitted state and prediction is bit-identical to the per-feature
    search (tests/cart_oracle.py) on heavily tied inputs."""

    @settings(max_examples=80, deadline=None)
    @given(tree_problems(), st.integers(1, 4), st.data())
    def test_best_gini_split(self, problem, min_leaf, data):
        X, y, weights = problem
        p = X.shape[1]
        features = data.draw(st.none() | st.lists(st.integers(0, p - 1), max_size=p))
        got = best_gini_split(X, y, weights, min_leaf, features)
        want = cart_oracle.best_gini_split(X, y, weights, min_leaf, features)
        assert repr(got) == repr(want)

    @settings(max_examples=80, deadline=None)
    @given(tree_problems(), st.integers(1, 6), st.integers(1, 4), st.booleans(), st.data())
    def test_decision_tree(self, problem, max_depth, min_leaf, draw_features, data):
        X, y, weights = problem
        p = X.shape[1]
        mtry = data.draw(st.integers(1, p)) if draw_features else None
        seed = data.draw(st.integers(0, 2**16))
        new = DecisionTreeClassifier(max_depth, min_leaf, mtry, np.random.default_rng(seed))
        old = cart_oracle.OracleDecisionTreeClassifier(
            max_depth, min_leaf, mtry, np.random.default_rng(seed))
        new.fit(X, y, sample_weight=weights)
        old.fit(X, y, sample_weight=weights)
        assert state_json(new) == state_json(old)
        probe = probe_rows(X)
        assert bits(new.predict_proba(probe)) == bits(old.predict_proba(probe))
        assert bits(new.predict(probe)) == bits(old.predict(probe))

    @settings(max_examples=80, deadline=None)
    @given(tree_problems(), st.integers(1, 6), st.integers(1, 4), st.booleans())
    def test_regression_tree(self, problem, max_depth, min_leaf, tied_targets):
        X, y, weights = problem
        targets = y - 0.5 if tied_targets else weights - weights.mean()
        new = RegressionTree(max_depth, min_leaf)
        fitted = new.fit_predict(X, targets)
        old = cart_oracle.OracleRegressionTree(max_depth, min_leaf).fit(X, targets)
        assert table_json(new) == table_json(old)
        assert bits(fitted) == bits(old.predict(X))
        probe = probe_rows(X)
        assert bits(new.predict(probe)) == bits(old.predict(probe))

    @settings(max_examples=40, deadline=None)
    @given(tree_problems(), st.integers(1, 8), st.integers(1, 6), st.integers(1, 4),
           st.sampled_from([0.1, 0.5, 1.0]))
    def test_gbdt(self, problem, n_trees, max_depth, min_leaf, shrinkage):
        X, y, _ = problem
        new = GBDTClassifier(n_trees, max_depth, shrinkage, min_leaf).fit(X, y)
        old = cart_oracle.OracleGBDTClassifier(n_trees, max_depth, shrinkage, min_leaf).fit(X, y)
        assert state_json(new) == state_json(old)
        assert new.stage_losses == old.stage_losses
        probe = probe_rows(X)
        assert bits(new.decision_scores(probe)) == bits(old.decision_scores(probe))
        assert bits(new.predict_proba(probe)) == bits(old.predict_proba(probe))

    @settings(max_examples=40, deadline=None)
    @given(tree_problems(), st.integers(1, 12))
    def test_adaboost(self, problem, n_stumps):
        X, y, _ = problem
        new = AdaBoostClassifier(n_stumps).fit(X, y)
        old = cart_oracle.OracleAdaBoostClassifier(n_stumps).fit(X, y)
        assert state_json(new) == state_json(old)
        assert new.round_errors == old.round_errors
        probe = probe_rows(X)
        assert bits(new.decision_scores(probe)) == bits(old.decision_scores(probe))

    @settings(max_examples=40, deadline=None)
    @given(tree_problems(), st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
           st.booleans(), st.integers(0, 2**16), st.data())
    def test_random_forest(self, problem, n_trees, max_depth, min_leaf, bootstrap, seed, data):
        X, y, _ = problem
        p = X.shape[1]
        mtry = data.draw(st.integers(1, p))
        args = (n_trees, max_depth, mtry, seed, min_leaf, bootstrap)
        new = RandomForestClassifier(*args).fit(X, y)
        old = cart_oracle.OracleRandomForestClassifier(*args).fit(X, y)
        assert state_json(new) == state_json(old)
        probe = probe_rows(X)
        assert bits(new.vote_shares(probe)) == bits(old.vote_shares(probe))

    @settings(max_examples=40, deadline=None)
    @given(mostly_constant_problems(), st.integers(1, 4), st.integers(0, 2**16), st.data())
    def test_constant_columns(self, problem, max_depth, seed, data):
        # constant columns are in no sorted block; mtry draws take some,
        # none or only them
        X, y, weights = problem
        p = X.shape[1]
        mtry = data.draw(st.integers(1, p))
        tree_mtry = data.draw(st.none() | st.just(mtry))
        pairs = [
            (DecisionTreeClassifier(max_depth, 2, tree_mtry, np.random.default_rng(seed)),
             cart_oracle.OracleDecisionTreeClassifier(
                 max_depth, 2, tree_mtry, np.random.default_rng(seed))),
            (RandomForestClassifier(3, max_depth, mtry, seed),
             cart_oracle.OracleRandomForestClassifier(3, max_depth, mtry, seed)),
            (GBDTClassifier(3, max_depth, 0.5), cart_oracle.OracleGBDTClassifier(3, max_depth, 0.5)),
            (AdaBoostClassifier(4), cart_oracle.OracleAdaBoostClassifier(4)),
        ]
        probe = probe_rows(X)
        for new, old in pairs:
            if isinstance(new, DecisionTreeClassifier):
                new.fit(X, y, sample_weight=weights)
                old.fit(X, y, sample_weight=weights)
            else:
                new.fit(X, y)
                old.fit(X, y)
            assert state_json(new) == state_json(old)
            assert bits(new.predict(probe)) == bits(old.predict(probe))

    def test_bootstrap_repeats_count_toward_min_leaf(self):
        # The one tree draws row 4, the only row on the one-hot column's high
        # side, twice: in the tree's own rows that side holds min_leaf = 2
        # rows, so the column has a cut, and it isolates the only positive.
        n, seed, hot = 12, 5, 4
        root = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]).integers(0, n, n)
        assert np.count_nonzero(root == hot) == 2 and root.min() < hot < root.max()
        X = np.column_stack([np.arange(n) == hot, np.arange(n)]).astype(float)
        y = (np.arange(n) == hot).astype(int)
        new = RandomForestClassifier(1, 3, 2, seed, min_leaf=2).fit(X, y)
        old = cart_oracle.OracleRandomForestClassifier(1, 3, 2, seed, min_leaf=2).fit(X, y)
        assert state_json(new) == state_json(old)
        assert new.feature[0] == 0 and new.threshold[0] == 0.5

    def test_infinite_scores_pick_the_first_admissible_cut(self):
        # A slab of mostly admissible cuts is scored whole, and only its
        # admissible positions compete; when every admissible score is
        # -inf, an inadmissible position must not win.
        X = np.array([[0.0, 5.0], [0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
        data = trees._Rows(X)
        cuts = data.cuts(data.rows, None, min_leaf=1)
        assert cuts.sorted.dense and not cuts.sorted.ok.flat[0]
        scores = np.full(cuts.sorted.ok.shape, -np.inf)
        assert cuts.best([scores]) == (0, 0.5, 0, 1)


# ---------------------------------------------------------------------------
# split choices against the old score formulas

# unit roundoff; a split's old score may trail the old best by NEAR_TIE
# times m u times the node's scale (m rows; sum of t^2, or the node weight)
U = np.finfo(float).eps / 2
NEAR_TIE = 4.0


@st.composite
def near_tie_problems(draw):
    """A node of a fit: tied, one-hot, two-valued, constant, signed-zero and
    copied columns at any scale, weights partly zero, and targets at any scale."""
    n = draw(st.integers(2, 80))
    p = draw(st.integers(1, 10))
    kinds = draw(st.lists(st.sampled_from(
        ["ints", "one-hot", "two-valued", "constant", "signed-zero", "copy", "float"]),
        min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "ints":
            column = rng.integers(0, draw(st.integers(1, 4)) + 1, n).astype(float)
        elif kind == "one-hot":
            column = (rng.random(n) < rng.random()).astype(float)
        elif kind == "two-valued":
            column = rng.choice(rng.normal(size=2), n)
        elif kind == "constant":
            column = np.full(n, float(rng.integers(-2, 3)))
        elif kind == "signed-zero":
            column = rng.choice([-0.0, 0.0, draw(st.sampled_from([0.0, 1.0, -1.0]))], n)
        elif kind == "copy" and columns:
            column = columns[rng.integers(len(columns))].copy()
            column[rng.random(n) < 0.2] = rng.normal()  # equal on part of the rows
        else:
            column = rng.normal(size=n)
        columns.append(column * 10.0 ** draw(st.integers(-6, 6)))
    X = np.column_stack(columns)
    y = rng.integers(0, 2, n)
    scale = 10.0 ** draw(st.integers(-8, 8))
    targets = scale * draw(st.sampled_from([y - 0.5, y - rng.random(n), rng.normal(size=n)]))
    rows = np.flatnonzero(rng.random(n) < draw(st.sampled_from([1.0, 0.6])))
    if rows.size < 2:
        rows = np.arange(n)
    weights = rng.random(n) * (rng.random(n) < draw(st.sampled_from([1.0, 0.7, 0.3])))
    weights[rng.choice(rows)] = 1.0  # the node's weight is positive
    weights = weights / weights.sum() if draw(st.booleans()) else np.full(n, 1.0 / n)
    mtry = draw(st.none() | st.integers(1, p))
    features = None if mtry is None else sorted(rng.choice(p, mtry, replace=False).tolist())
    return X, y, weights, targets, rows, features, draw(st.integers(1, 3))


def near_tie_gaps(problem) -> tuple[float, float]:
    """How far the old score of each new split choice (Gini, then squared
    error) trails the old best at the node, in units of m u times the scale;
    nan where the node has no admissible cut."""
    X, y, weights, targets, rows, features, min_leaf = problem
    data = trees._Rows(X)
    allowed = set(range(X.shape[1]) if features is None else features)
    m = rows.size
    gaps = []
    for kind in ("gini", "sse"):
        cuts = data.cuts(rows, None, min_leaf, features)
        if kind == "gini":
            split = trees._gini_split(cuts, rows, np.stack([weights, weights * (y == 1)]))
            old = cart_oracle.old_gini_candidates(X[rows], y[rows], weights[rows], min_leaf)
            sign, scale = -1.0, 1.0  # gains: the weighted decrease over the node weight
        else:
            split = trees._sse_split(cuts, targets)
            old = cart_oracle.old_sse_candidates(X[rows], targets[rows], min_leaf)
            sign, scale = 1.0, float(np.sum(targets[rows] ** 2))
        old = {cut: sign * score for cut, score in old.items() if cut[0] in allowed}
        assert (split is None) == (not old)
        if split is None:
            gaps.append(np.nan)
            continue
        chosen = old[split[:2]]  # the same cut, threshold bits included
        gaps.append((chosen - min(old.values())) / (m * U * scale))
    return gaps[0], gaps[1]


class TestSplitChoicesAreOldNearBest:
    """The squared-sum scores and the binary columns' sums change a split
    only where the old scores nearly tie (tests/cart_oracle.py's old_*)."""

    @settings(max_examples=150, deadline=None)
    @given(near_tie_problems())
    def test_old_score_of_the_new_choice_is_near_the_old_best(self, problem):
        for gap in near_tie_gaps(problem):
            assert np.isnan(gap) or 0.0 <= gap <= NEAR_TIE

    @pytest.mark.parametrize("m", [2, 8, 9, 2800, 8193])
    @pytest.mark.parametrize("nb", [1, 32])
    @pytest.mark.parametrize("q", [None, 2])
    def test_binary_sums_are_per_column_sums(self, m, nb, q):
        # what the oracle sums for one binary column at a time, whatever the
        # number of columns and quantities summed together
        rng = np.random.default_rng(m * nb)
        rows = np.sort(rng.choice(2 * m, m, replace=False))
        values = rng.normal(size=2 * m if q is None else (q, 2 * m)) * rng.lognormal(size=2 * m)
        low = rng.random((nb, m)) < 0.5
        low[:, 0], low[:, -1] = True, False
        cuts = trees._BinaryCuts(np.arange(nb), low, np.zeros(nb), rows, 1)
        left, right = cuts.sides(values)
        for v, got_left, got_right in zip(np.atleast_2d(values), np.atleast_2d(left),
                                          np.atleast_2d(right)):
            node = v[rows]
            want = np.array([np.sum(side * node) for side in low])
            assert bits(got_left) == bits(want)
            assert bits(got_right) == bits(np.sum(node) - want)

    def test_binary_and_sorted_ties_go_to_the_lower_feature(self):
        # the same cut of a binary column and of a three-valued one: equal
        # new scores, so the lower feature wins in either order
        x = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
        three = np.where(x == 1.0, 2.0, 0.0)
        three[0] = -1.0  # a third value, alone: min_leaf 2 rules out cutting it off
        y = np.array([0, 1, 1, 1, 1, 0])
        weights = np.full(6, 1 / 6)
        for X, want in ((np.column_stack([x, three]), 0), (np.column_stack([three, x]), 0)):
            got = best_gini_split(X, y, weights, min_leaf=2)
            assert got == cart_oracle.best_gini_split(X, y, weights, min_leaf=2)
            assert got[0] == want


# ---------------------------------------------------------------------------
# rank keys and what each ensemble fit sorts

_SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])


@st.composite
def ranked_columns(draw):
    """n on both sides of the uint8/uint16 and uint16/uint32 key boundaries,
    with tied, one-hot, constant, signed-zero/infinite/NaN and float columns."""
    n = draw(st.sampled_from([1, 2, 3, 40, 255, 256, 257, 65535, 65536]))
    kinds = draw(st.lists(st.sampled_from(["ints", "one-hot", "constant", "specials", "float"]),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "ints":
            columns.append(rng.integers(-2, 3, n).astype(float))
        elif kind == "one-hot":
            columns.append((np.arange(n) == rng.integers(0, n)).astype(float))
        elif kind == "constant":
            columns.append(np.full(n, rng.choice(_SPECIALS)))
        elif kind == "specials":
            columns.append(rng.choice(_SPECIALS, n))
        else:
            columns.append(rng.normal(size=n))
    return np.column_stack(columns), rng


class TestRankKeys:
    @settings(max_examples=60, deadline=None)
    @given(ranked_columns(), st.sampled_from(["subset", "bootstrap", "all"]))
    def test_stable_key_sort_is_the_stable_float_sort(self, problem, rows_kind):
        X, rng = problem
        n = X.shape[0]
        keys = rank_keys(X)
        assert keys.shape == (X.shape[1], n)
        assert keys.dtype == np.min_scalar_type(n)
        if rows_kind == "subset":  # a node's rows: increasing, any subset
            rows = np.flatnonzero(rng.random(n) < rng.random())
        elif rows_kind == "bootstrap":  # a tree's rows: repeats, any order
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        for f in range(X.shape[1]):
            want = np.argsort(X[rows, f], kind="stable")
            assert np.array_equal(np.argsort(keys[f, rows], kind="stable"), want)

    @settings(max_examples=40, deadline=None)
    @given(ranked_columns(), st.integers(1, 4))
    def test_node_block_is_the_partitioned_presort(self, problem, min_leaf):
        X, rng = problem
        n, p = X.shape
        rows = np.flatnonzero(rng.random(n) < rng.random())
        if not rows.size:
            rows = np.arange(n)
        feats = np.sort(rng.choice(p, size=rng.integers(1, p + 1), replace=False))
        order = presort(X)
        in_node = np.zeros(n, dtype=bool)
        in_node[rows] = True
        data = trees._Rows(X)
        distinct = [np.unique(X[:, f]).size if np.all(np.isfinite(X[:, f])) else 0
                    for f in range(p)]
        assert data.is_binary.tolist() == [d == 2 for d in distinct]
        assert data.is_constant.tolist() == [d == 1 for d in distinct]
        got = data.cuts(rows, None, min_leaf, feats.tolist())
        # binary and constant columns are in no block
        feats = feats[~(data.is_binary | data.is_constant)[feats]]
        want = order[in_node[order]].reshape(p, -1)[feats]
        assert np.array_equal(got.sorted.feats, feats)
        assert np.array_equal(got.block, want)

    @settings(max_examples=40, deadline=None)
    @given(ranked_columns(), st.integers(0, 3))
    def test_inherited_block_is_the_sorted_block(self, problem, feature):
        # a child that inherits its share of the parent's block by partition
        # holds the block it would get by sorting its own keys
        X, rng = problem
        n, p = X.shape
        feature = min(feature, p - 1)
        data = trees._Rows(X)
        parent = np.flatnonzero(rng.random(n) < 0.8)
        inheritance = data.cuts(parent, None, 1).inheritance()
        threshold = X[rng.integers(0, n), feature]
        for rows, (inherited, _) in data.partition(parent, inheritance, feature, threshold):
            assert np.array_equal(inherited, data.cuts(rows, None, 1).block)

    @settings(max_examples=60, deadline=None)
    @given(ranked_columns(), st.integers(1, 3), st.booleans(), st.integers(0, 3))
    def test_inherited_binary_columns_are_those_a_fresh_scan_keeps(
            self, problem, min_leaf, bootstrap, feature):
        # a child's rows are a subset of its parent's, bootstrap repeats
        # included, so the binary columns with an admissible cut at the
        # parent hold every one the child has
        X, rng = problem
        n, p = X.shape
        feature = min(feature, p - 1)
        data = trees._Rows(X)
        parent = rng.integers(0, n, n) if bootstrap else np.flatnonzero(rng.random(n) < 0.8)
        inheritance = data.cuts(parent, None, min_leaf).inheritance()
        threshold = X[rng.integers(0, n), feature]
        for rows, inherited in data.partition(parent, inheritance, feature, threshold):
            fresh = data.cuts(rows, None, min_leaf)
            assert set(fresh.binary.feats) <= set(inherited[1])
            got = data.cuts(rows, inherited, min_leaf)
            assert np.array_equal(got.binary.feats, fresh.binary.feats)
            assert np.array_equal(got.binary.low, fresh.binary.low)
            assert np.array_equal(got.block, fresh.block)

    def test_key_dtype_at_the_boundaries(self):
        for n, dtype in ((255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)):
            X = np.arange(n, dtype=float)[::-1, None]
            keys = rank_keys(X)
            assert keys.dtype == dtype
            assert np.array_equal(keys[0], np.arange(n)[::-1])


def benchmark_shaped(n: int, seed: int, positive_rate: float = 0.01):
    """Standardized one-hot, count and continuous columns with rare positives,
    like the train lane of a preset-a run."""
    rng = np.random.default_rng(seed)
    columns = []
    for j in range(12):
        if j % 3 == 0:
            columns.append((rng.integers(0, 6, n) == 0).astype(float))
        elif j % 3 == 1:
            columns.append(rng.integers(0, 20, n).astype(float))
        else:
            columns.append(rng.lognormal(size=n))
    X = np.column_stack(columns)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = (rng.random(n) < positive_rate).astype(int)
    y[rng.choice(n, 3, replace=False)] = 1
    return X, y, probe_rows(X)


def count_float_argsorts(monkeypatch) -> list:
    calls = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        if np.asarray(a).dtype.kind == "f":
            calls.append(np.shape(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return calls


def count_root_cuts(monkeypatch, n: int) -> list:
    calls = []

    class Counting(trees._SortedCuts):
        def __init__(self, feats, block, Xt, min_leaf):
            if block.shape[1] == n:
                calls.append(block.shape)
            super().__init__(feats, block, Xt, min_leaf)

    monkeypatch.setattr(trees, "_SortedCuts", Counting)
    return calls


class TestWhatEachFitSorts:
    @pytest.mark.parametrize("model", [
        pytest.param(RandomForestClassifier(n_trees, max_depth=4, mtry=mtry, seed=3),
                     id=f"{mtry}-{n_trees}")
        for mtry in (2, 5) for n_trees in (1, 7)
    ] + [
        pytest.param(GBDTClassifier(n_trees=6, max_depth=3), id="GBDT"),
        pytest.param(AdaBoostClassifier(n_stumps=6), id="ADABOOST"),
    ])
    def test_one_float_sort_per_forest_fit(self, monkeypatch, model):
        # forests and boosted ensembles alike rank X once per fit
        X, y = benchmark_shaped(120, seed=81)[:2]
        X = X[:, :5]
        calls = count_float_argsorts(monkeypatch)
        model.fit(X, y)
        assert len(calls) == 1

    def test_one_root_cut_geometry_per_boosted_fit(self, monkeypatch):
        X, y, _ = benchmark_shaped(200, seed=82, positive_rate=0.2)
        calls = count_root_cuts(monkeypatch, len(y))
        gbdt = GBDTClassifier(n_trees=6, max_depth=2).fit(X, y)
        assert gbdt.tree_count == 6 and len(calls) == 1
        calls.clear()
        ada = AdaBoostClassifier(n_stumps=6).fit(X, y)
        assert ada.tree_count > 1 and len(calls) == 1


class TestEnsemblesMatchOracleAtBenchmarkShape:
    """n = 300 and 3000 key the forest's ranks as uint16, past what
    tree_problems draws; rare positives and one-hot columns as in `tall`."""

    @pytest.mark.parametrize("n", [300, 3000])
    @pytest.mark.parametrize("mtry, bootstrap", [(4, True), (12, True), (4, False)])
    def test_random_forest(self, n, mtry, bootstrap):
        X, y, probe = benchmark_shaped(n, seed=n + mtry)
        args = (3, 8, mtry, 11, 2, bootstrap)
        new = RandomForestClassifier(*args).fit(X, y)
        old = cart_oracle.OracleRandomForestClassifier(*args).fit(X, y)
        assert state_json(new) == state_json(old)
        assert bits(new.vote_shares(probe)) == bits(old.vote_shares(probe))

    @pytest.mark.parametrize("n", [300, 3000])
    def test_gbdt(self, n):
        X, y, probe = benchmark_shaped(n, seed=n + 1)
        new = GBDTClassifier(5, 3, 0.1).fit(X, y)
        old = cart_oracle.OracleGBDTClassifier(5, 3, 0.1).fit(X, y)
        assert state_json(new) == state_json(old)
        assert new.stage_losses == old.stage_losses
        assert bits(new.decision_scores(probe)) == bits(old.decision_scores(probe))

    @pytest.mark.parametrize("n", [300, 3000])
    def test_adaboost(self, n):
        X, y, probe = benchmark_shaped(n, seed=n + 2)
        new = AdaBoostClassifier(8).fit(X, y)
        old = cart_oracle.OracleAdaBoostClassifier(8).fit(X, y)
        assert state_json(new) == state_json(old)
        assert new.round_errors == old.round_errors
        assert bits(new.decision_scores(probe)) == bits(old.decision_scores(probe))
