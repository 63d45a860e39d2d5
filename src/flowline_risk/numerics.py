"""Dense symmetric eigendecomposition and PCA on top of it.

The eigensolver is a cyclic Jacobi rotation sweep: provably convergent,
simple to audit, and fast enough at the post-encoding matrix widths this
pipeline produces. Matrices are plain float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-12
SYMMETRY_TOL = 1e-8


class TooFewRows(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


class BadK(ValueError):
    pass


def covariance(X: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of the columns of X (n x p), p x p."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TooFewRows("covariance needs a 2-D matrix with n >= 2 rows")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    return (cov + cov.T) / 2.0  # kill rounding asymmetry


def _off_diagonal_norm(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.sqrt(np.sum(off * off)))


def sym_eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric A.

    Cyclic Jacobi: repeatedly zero each off-diagonal entry with a plane
    rotation until the off-diagonal Frobenius norm falls below
    1e-12 * ||A||, at most 100 sweeps. Eigenvector columns get a fixed sign
    (largest-magnitude entry positive) so results are reproducible.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix must be square")
    if not np.allclose(A, A.T, atol=SYMMETRY_TOL, rtol=0):
        raise NotSymmetric("matrix is not symmetric within 1e-8")

    p = A.shape[0]
    M = (A + A.T) / 2.0
    V = np.eye(p)
    norm_a = float(np.sqrt(np.sum(M * M)))
    if p == 1 or norm_a == 0.0:
        return _sorted_eigen(np.diag(M).copy(), V)

    threshold = JACOBI_REL_TOL * norm_a
    converged = _off_diagonal_norm(M) < threshold
    for _ in range(JACOBI_MAX_SWEEPS):
        if converged:
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                apq = M[i, j]
                if apq == 0.0:
                    continue
                # Rotation angle that annihilates M[i, j].
                theta = (M[j, j] - M[i, i]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                row_i = M[i, :].copy()
                row_j = M[j, :].copy()
                M[i, :] = c * row_i - s * row_j
                M[j, :] = s * row_i + c * row_j
                col_i = M[:, i].copy()
                col_j = M[:, j].copy()
                M[:, i] = c * col_i - s * col_j
                M[:, j] = s * col_i + c * col_j

                vcol_i = V[:, i].copy()
                vcol_j = V[:, j].copy()
                V[:, i] = c * vcol_i - s * vcol_j
                V[:, j] = s * vcol_i + c * vcol_j
        converged = _off_diagonal_norm(M) < threshold
    if not converged:
        raise NonConvergence(f"Jacobi sweep limit {JACOBI_MAX_SWEEPS} reached")

    return _sorted_eigen(np.diag(M).copy(), V)


def _sorted_eigen(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    # Deterministic sign: make the largest-magnitude entry of each column positive.
    for k in range(vectors.shape[1]):
        pivot = np.argmax(np.abs(vectors[:, k]))
        if vectors[pivot, k] < 0:
            vectors[:, k] = -vectors[:, k]
    return values, vectors


@dataclass(frozen=True)
class PCAModel:
    means: np.ndarray            # p
    components: np.ndarray       # p x k, orthonormal columns
    explained_variance: np.ndarray  # k, descending, nonnegative

    @property
    def n_components(self) -> int:
        return self.components.shape[1]

    def truncated(self, k: int) -> "PCAModel":
        """The model cut to its first k components."""
        if not 1 <= k <= self.n_components:
            raise BadK(f"k must be in [1, {self.n_components}], got {k}")
        return PCAModel(self.means, self.components[:, :k].copy(), self.explained_variance[:k])


def pca_fit(X: np.ndarray, k: int) -> PCAModel:
    """Top-k principal axes of X by eigendecomposition of its covariance."""
    X = np.asarray(X, dtype=float)
    values, vectors = sym_eigen(covariance(X))
    variances = np.maximum(values, 0.0)  # clip rounding negatives on PSD input
    return PCAModel(X.mean(axis=0), vectors, variances).truncated(k)


def pca_transform(model: PCAModel, X: np.ndarray) -> np.ndarray:
    """Project rows of X onto the model's components, n x k scores."""
    X = np.asarray(X, dtype=float)
    return (X - model.means) @ model.components


def choose_k_by_variance(explained: np.ndarray, threshold: float = 0.95) -> int:
    """Smallest k whose cumulative share of total variance reaches threshold."""
    total = float(np.sum(explained))
    if total <= 0:
        return 1
    cumulative = np.cumsum(explained) / total
    return int(np.searchsorted(cumulative, threshold - 1e-12) + 1)
