import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jacobi_oracle import jacobi_eigen

from flowline_risk import numerics
from flowline_risk.numerics import (
    GRAM_FLOOR,
    BadK,
    NonConvergence,
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


def one_hot_covariance(rng, n, p):
    """Covariance of a standardized one-hot-heavy X with n < p rows, shaped like
    the pipeline's default-width design matrix: a few numeric columns, the rest
    two one-hot id groups. Rank is below n."""
    return covariance(one_hot_matrix(rng, n, p))


def one_hot_matrix(rng, n, p):
    """The standardized one-hot-heavy X of one_hot_covariance."""
    n_numeric = (p + 4) // 5
    levels = p - n_numeric
    first = (levels + 1) // 2
    X = np.zeros((n, p))
    X[:, :n_numeric] = rng.normal(size=(n, n_numeric))
    rows = np.arange(n)
    if first:
        X[rows, n_numeric + rng.integers(0, first, size=n)] = 1.0
    if levels > first:
        X[rows, n_numeric + first + rng.integers(0, levels - first, size=n)] = 1.0
    sd = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(sd > 0, sd, 1.0)


def symmetric_case(kind, p, seed, scale):
    rng = np.random.default_rng(seed)
    if kind == "random":
        A = rng.normal(size=(p, p))
        A = (A + A.T) / 2.0
    elif kind == "zero":
        A = np.zeros((p, p))
    elif kind == "diagonal":
        A = np.diag(rng.normal(size=p))
    elif kind == "tridiagonal":
        off = rng.normal(size=p - 1)
        A = np.diag(rng.normal(size=p)) + np.diag(off, 1) + np.diag(off, -1)
    elif kind == "repeated":
        Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        levels = rng.normal(size=max(1, p // 4))
        A = Q @ np.diag(rng.choice(levels, size=p)) @ Q.T
        A = (A + A.T) / 2.0
    else:  # "one_hot"
        A = one_hot_covariance(rng, max(2, p // 2), p)
    return A * scale


matrix_cases = st.tuples(
    st.sampled_from(["random", "zero", "diagonal", "tridiagonal", "repeated", "one_hot"]),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e-8, 1e8]),
).map(lambda case: symmetric_case(*case))


def assert_matches_reference(A, values, vectors, ref_values, ref_vectors):
    """Values within 1e-10 max(1, ||A||_F); spectral projectors agree at every cut
    with a clear gap. Inside a repeated eigenvalue the basis is solver-specific."""
    norm = float(np.linalg.norm(A))
    tol = 1e-10 * max(1.0, norm)
    assert np.max(np.abs(values - ref_values)) <= tol
    for k in range(1, len(values)):
        gap = ref_values[k - 1] - ref_values[k]
        if gap > 1e-6 * norm:
            P = vectors[:, :k] @ vectors[:, :k].T
            P_ref = ref_vectors[:, :k] @ ref_vectors[:, :k].T
            assert np.max(np.abs(P - P_ref)) <= 1e-12 * norm / gap


class TestSymEigenEquivalence:
    """Householder + QL against cyclic Jacobi and scipy's LAPACK eigh."""

    @settings(max_examples=25, deadline=None)
    @given(matrix_cases)
    def test_against_jacobi_oracle(self, A):
        values, vectors = sym_eigen(A)
        assert_matches_reference(A, values, vectors, *jacobi_eigen(A))

    @settings(max_examples=100, deadline=None)
    @given(matrix_cases)
    def test_against_scipy(self, A):
        values, vectors = sym_eigen(A)
        ref_values, ref_vectors = scipy.linalg.eigh(A)
        assert_matches_reference(A, values, vectors, ref_values[::-1], ref_vectors[:, ::-1])

    @settings(max_examples=100, deadline=None)
    @given(matrix_cases)
    def test_decomposition_invariants(self, A):
        p = A.shape[0]
        tol = 1e-10 * max(1.0, float(np.linalg.norm(A)))
        values, vectors = sym_eigen(A)
        assert np.linalg.norm(A - vectors @ np.diag(values) @ vectors.T) <= tol
        assert np.linalg.norm(vectors.T @ vectors - np.eye(p)) <= tol
        assert np.all(np.diff(values) <= 0)
        pivots = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[pivots, np.arange(p)] > 0)
        again_values, again_vectors = sym_eigen(A.copy())
        assert np.array_equal(values, again_values)
        assert np.array_equal(vectors, again_vectors)

    def test_default_width_covariance(self):
        # p = 179 from n = 98 rows, as the pipeline's default width gives on a
        # 70-line network; rank < 98, so most of the spectrum is a null space.
        A = one_hot_covariance(np.random.default_rng(51), 98, 179)
        values, vectors = sym_eigen(A)
        assert np.linalg.matrix_rank(A) < 98
        norm = float(np.linalg.norm(A))
        assert np.max(np.abs(values - np.linalg.eigvalsh(A)[::-1])) <= 1e-10 * norm
        assert np.linalg.norm(A - vectors @ np.diag(values) @ vectors.T) <= 1e-10 * norm

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "QL_MAX_ITER", 0)
        with pytest.raises(NonConvergence):
            sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        # a diagonal matrix needs no iteration, so the cap does not bite
        assert sym_eigen(np.diag([1.0, 3.0]))[0] == pytest.approx([3.0, 1.0])


def wide_case(kind, n, extra, seed, scale):
    """An n x p matrix with fewer rows than columns (p = n + extra)."""
    rng = np.random.default_rng(seed)
    p = n + extra
    if kind == "one_hot":
        X = one_hot_matrix(rng, n, p)
    elif kind == "duplicate_rows":
        X = rng.normal(size=(max(1, n // 3), p))[rng.integers(0, max(1, n // 3), size=n)]
    elif kind == "zero_columns":
        X = rng.normal(size=(n, p)) * (rng.random(p) < 0.5)
    elif kind == "low_rank":
        X = rng.normal(size=(n, 2)) @ rng.normal(size=(2, p))
    elif kind == "graded":
        # singular values from 1 down to 1e-6: eigenvalues on both sides of the floor
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        W, _ = np.linalg.qr(rng.normal(size=(p, n)))
        X = (U * np.logspace(0, -6, n)) @ W.T
    else:  # "random"
        X = rng.normal(size=(n, p))
    return X * scale


wide_cases = st.tuples(
    st.sampled_from(["random", "one_hot", "duplicate_rows", "zero_columns", "low_rank", "graded"]),
    st.integers(2, 40),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 1e-8, 1e8]),
).map(lambda case: wide_case(*case))

# Gram-path components are orthonormal to within machine epsilon times the
# largest eigenvalue over the smallest kept one, at most about sqrt(eps)
# (GRAM_FLOOR) times a small constant.
GRAM_ORTHONORMAL_TOL = 1e-6


def assert_gram_path_matches(X, model, ref_values, ref_vectors):
    """The Gram path's r components against a full reference decomposition of
    X's covariance C: values within 1e-10 max(1, ||C||_F), every dropped
    value at the floor up to that tolerance, spectral projectors at every
    gapped cut, and orthonormal components."""
    C = covariance(X)
    norm = float(np.linalg.norm(C))
    tol = 1e-10 * max(1.0, norm)
    r = model.n_components
    assert r <= min(X.shape[0] - 1, X.shape[1])
    assert np.max(np.abs(model.explained_variance - ref_values[:r]), initial=0.0) <= tol
    assert np.all(model.explained_variance > 0)
    assert np.all(np.diff(model.explained_variance) <= 0)
    assert np.all(ref_values[r:] <= GRAM_FLOOR * max(ref_values[0], 0.0) + tol)
    V = model.components
    for k in range(1, r + 1):
        gap = ref_values[k - 1] - ref_values[k]
        if gap > 1e-6 * norm:
            P = V[:, :k] @ V[:, :k].T
            P_ref = ref_vectors[:, :k] @ ref_vectors[:, :k].T
            assert np.max(np.abs(P - P_ref)) <= 1e-12 * norm / gap
    assert np.max(np.abs(V.T @ V - np.eye(r)), initial=0.0) <= GRAM_ORTHONORMAL_TOL
    pivots = np.argmax(np.abs(V), axis=0)
    assert np.all(V[pivots, np.arange(r)] > 0)
    assert np.array_equal(model.means, X.mean(axis=0))


class TestGramPath:
    """PCA of a matrix with fewer rows than columns through its n x n Gram
    matrix, against the p x p covariance path and scipy's LAPACK eigh."""

    @settings(max_examples=100, deadline=None)
    @given(wide_cases)
    # At scale 1e-8 the reduction reaches a column whose entries, about
    # 1e-162, square to 0; the covariance path returned NaN there.
    @example(wide_case("one_hot", 2, 37, 2, 1e-08))
    def test_against_covariance_path(self, X):
        values, vectors = sym_eigen(covariance(X))
        assert_gram_path_matches(X, pca_fit(X), values, vectors)

    @settings(max_examples=100, deadline=None)
    @given(wide_cases)
    def test_against_scipy(self, X):
        ref_values, ref_vectors = scipy.linalg.eigh(covariance(X))
        assert_gram_path_matches(X, pca_fit(X), ref_values[::-1], ref_vectors[:, ::-1])

    def test_default_width_shape(self):
        # n = 200 rows and p = 439 columns, as featurize gives at default
        # width on a 200-line network
        X = one_hot_matrix(np.random.default_rng(52), 200, 439)
        model = pca_fit(X)
        ref_values, ref_vectors = scipy.linalg.eigh(covariance(X))
        assert_gram_path_matches(X, model, ref_values[::-1], ref_vectors[:, ::-1])
        assert 150 < model.n_components <= 199
        assert np.sum(model.explained_variance) == pytest.approx(np.trace(covariance(X)), rel=1e-12)

    def test_no_p_by_p_array(self):
        rng = np.random.default_rng(53)
        n, p = 20, 2000
        X = rng.normal(size=(n, p))
        tracemalloc.start()
        try:
            model = pca_fit(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.n_components == n - 1
        assert peak < p * p * 8 / 10  # a tenth of one p x p float64 matrix

    def test_k_above_the_rank_is_refused(self):
        X = np.random.default_rng(54).normal(size=(5, 12))
        assert pca_fit(X).n_components == 4
        assert pca_fit(X, 4).n_components == 4
        with pytest.raises(BadK, match=r"\[1, 4\], got 5"):
            pca_fit(X, 5)

    def test_constant_rows_have_no_axis(self):
        assert pca_fit(np.ones((3, 5))).n_components == 0

    def test_tall_matrices_keep_the_covariance_path(self):
        rng = np.random.default_rng(55)
        for n, p in ((6, 6), (40, 7)):
            X = rng.normal(size=(n, p))
            values, vectors = sym_eigen(covariance(X))
            model = pca_fit(X)
            assert np.array_equal(model.components, vectors)
            assert np.array_equal(model.explained_variance, np.maximum(values, 0.0))


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
        from flowline_risk.modeling import _pca_by_config

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

    def test_wide_matrix_gives_every_gram_component(self):
        from flowline_risk.config import RunConfig
        from flowline_risk.modeling import _pca_by_config

        X = one_hot_matrix(np.random.default_rng(56), 30, 70)
        model, spectrum = _pca_by_config(RunConfig(seed=1), X)
        full = pca_fit(X)
        assert np.array_equal(spectrum, full.explained_variance)
        assert spectrum.size == full.n_components <= 29
        assert model.n_components == choose_k_by_variance(spectrum, 0.95)
        assert np.array_equal(model.components, full.components[:, :model.n_components])
        with pytest.raises(BadK, match=rf"k must be in \[1, {spectrum.size}\], got 30"):
            _pca_by_config(RunConfig(seed=1, pca_k=30), X)

    def test_k_beyond_width_rejected(self):
        from flowline_risk.config import RunConfig
        from flowline_risk.modeling import _pca_by_config

        with pytest.raises(BadK):
            _pca_by_config(RunConfig(seed=1, pca_k=7), np.eye(6))
        with pytest.raises(BadK):
            _pca_by_config(RunConfig(seed=1), np.ones((5, 1)), min_k=2)
