import numpy as np
import pytest

from flowline_risk.numerics import (
    BadK,
    NotSymmetric,
    PCAModel,
    TooFewRows,
    choose_k_by_variance,
    covariance,
    pca_fit,
    pca_transform,
    sym_eigen,
)


def naive_covariance(X):
    """Double-loop unbiased sample covariance."""
    n, p = X.shape
    means = [sum(X[i, j] for i in range(n)) / n for j in range(p)]
    C = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            C[a, b] = sum((X[i, a] - means[a]) * (X[i, b] - means[b]) for i in range(n)) / (n - 1)
    return C


class TestCovariance:
    def test_single_column_variance(self):
        assert covariance(np.array([[0.0], [2.0]])) == pytest.approx(np.array([[2.0]]))

    def test_decorrelated_columns(self):
        X = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        C = covariance(X)
        assert abs(C[0, 1]) < 1e-12

    def test_random_against_double_loop(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            X = rng.normal(size=(rng.integers(3, 20), rng.integers(1, 6)))
            C = covariance(X)
            assert np.max(np.abs(C - naive_covariance(X))) < 1e-10
            assert np.max(np.abs(C - C.T)) < 1e-12

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            covariance(np.array([[1.0, 2.0]]))


class TestSymEigen:
    def test_identity(self):
        values, vectors = sym_eigen(np.eye(3))
        assert values == pytest.approx([1.0, 1.0, 1.0])
        assert vectors @ vectors.T == pytest.approx(np.eye(3))

    def test_closed_form_2x2(self):
        values, vectors = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert values == pytest.approx([3.0, 1.0], abs=1e-10)
        r = 1.0 / np.sqrt(2.0)
        assert np.abs(vectors[:, 0]) == pytest.approx([r, r], abs=1e-10)
        assert np.abs(vectors[:, 1]) == pytest.approx([r, r], abs=1e-10)
        assert vectors[:, 0] @ vectors[:, 1] == pytest.approx(0.0, abs=1e-12)

    def test_reconstruction_on_random_6x6(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            A = rng.normal(size=(6, 6))
            A = (A + A.T) / 2.0
            values, vectors = sym_eigen(A)
            assert np.linalg.norm(A - vectors @ np.diag(values) @ vectors.T) < 1e-8
            assert np.linalg.norm(vectors.T @ vectors - np.eye(6)) < 1e-8
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_deterministic_signs(self):
        rng = np.random.default_rng(43)
        A = rng.normal(size=(5, 5))
        A = (A + A.T) / 2.0
        v1 = sym_eigen(A)[1]
        v2 = sym_eigen(A.copy())[1]
        assert np.array_equal(v1, v2)
        for k in range(5):
            pivot = np.argmax(np.abs(v1[:, k]))
            assert v1[pivot, k] > 0


class TestPCA:
    def test_line_data_concentrates_variance(self):
        rng = np.random.default_rng(44)
        t = rng.normal(size=200)
        X = np.column_stack([t, t]) + rng.normal(scale=1e-6, size=(200, 2))
        model = pca_fit(X, 2)
        total = np.sum(model.explained_variance)
        assert model.explained_variance[0] / total > 0.999999
        assert model.explained_variance[1] / total < 1e-6

    def test_full_rank_transform_is_isometry(self):
        rng = np.random.default_rng(45)
        X = rng.normal(size=(50, 4))
        model = pca_fit(X, 4)
        Z = pca_transform(model, X)
        for _ in range(50):
            i, j = rng.integers(0, 50, size=2)
            d_orig = np.linalg.norm(X[i] - X[j])
            d_proj = np.linalg.norm(Z[i] - Z[j])
            assert d_proj == pytest.approx(d_orig, abs=1e-8)

    def test_scores_match_eigen_oracle(self):
        rng = np.random.default_rng(46)
        X = rng.normal(size=(80, 5))
        model = pca_fit(X, 2)
        # oracle: project the centered data on the covariance eigenvectors
        values, vectors = np.linalg.eigh(covariance(X))
        order = np.argsort(-values)
        top = vectors[:, order[:2]]
        for k in range(2):
            pivot = np.argmax(np.abs(top[:, k]))
            if top[pivot, k] < 0:
                top[:, k] = -top[:, k]
        expect = (X - X.mean(axis=0)) @ top
        assert np.max(np.abs(pca_transform(model, X) - expect)) < 1e-8

    def test_variance_accounting(self):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(60, 6)) * rng.uniform(0.1, 3.0, size=6)
        model = pca_fit(X, 6)
        assert np.sum(model.explained_variance) == pytest.approx(
            np.trace(covariance(X)), abs=1e-8)

    def test_transform_columns_uncorrelated(self):
        rng = np.random.default_rng(48)
        X = rng.normal(size=(150, 5)) @ rng.normal(size=(5, 5))
        Z = pca_transform(pca_fit(X, 5), X)
        C = covariance(Z)
        off = C - np.diag(np.diag(C))
        assert np.max(np.abs(off)) < 1e-6

    def test_bad_k(self):
        X = np.zeros((10, 3))
        with pytest.raises(BadK):
            pca_fit(X, 0)
        with pytest.raises(BadK):
            pca_fit(X, 4)

    def test_orthonormal_components_invariant(self):
        rng = np.random.default_rng(49)
        X = rng.normal(size=(40, 4))
        model = pca_fit(X, 3)
        gram = model.components.T @ model.components
        assert np.linalg.norm(gram - np.eye(3)) < 1e-8
        assert all(b <= a for a, b in zip(model.explained_variance, model.explained_variance[1:]))
        assert np.all(model.explained_variance >= 0)


class TestChooseK:
    def test_threshold_rule(self):
        explained = np.array([8.0, 1.5, 0.4, 0.1])
        assert choose_k_by_variance(explained, 0.80) == 1
        assert choose_k_by_variance(explained, 0.95) == 2
        assert choose_k_by_variance(explained, 0.9999) == 4

    def test_degenerate_total(self):
        assert choose_k_by_variance(np.zeros(3), 0.95) == 1


class TestPcaByConfig:
    """The pipeline's one-decomposition PCA against a fresh pca_fit(X, k)."""

    @pytest.mark.parametrize("pca_k, min_k, k", [(0, 1, 2), (0, 3, 3), (4, 1, 4)])
    def test_sliced_model_equals_refit(self, pca_k, min_k, k):
        from flowline_risk.config import RunConfig
        from flowline_risk.pipeline import _pca_by_config

        rng = np.random.default_rng(50)
        X = rng.normal(size=(60, 6)) * np.array([5.0, 4.0, 0.3, 0.2, 0.1, 0.05])
        model, spectrum = _pca_by_config(RunConfig(seed=1, pca_k=pca_k), X, min_k=min_k)
        refit = pca_fit(X, k)
        assert model.n_components == k
        assert np.array_equal(model.components, refit.components)
        assert np.array_equal(model.explained_variance, refit.explained_variance)
        assert np.array_equal(model.means, refit.means)
        assert np.array_equal(pca_transform(model, X), pca_transform(refit, X))
        assert np.array_equal(spectrum, pca_fit(X, 6).explained_variance)

    def test_k_beyond_width_rejected(self):
        from flowline_risk.config import RunConfig
        from flowline_risk.pipeline import _pca_by_config

        with pytest.raises(BadK):
            _pca_by_config(RunConfig(seed=1, pca_k=7), np.eye(6))
        with pytest.raises(BadK):
            _pca_by_config(RunConfig(seed=1), np.ones((5, 1)), min_k=2)
