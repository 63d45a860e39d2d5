"""Dense symmetric eigendecomposition and PCA on top of it.

The eigensolver is the textbook dense symmetric path (Golub & Van Loan,
*Matrix Computations* 8.3; EISPACK tred2/tql2): a Householder reduction to
tridiagonal form, vectorized in numpy, followed by implicit-shift QL
iteration on the tridiagonal. Matrices are plain float64 numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QL_MAX_ITER = 30  # QL iterations allowed per eigenvalue, as in EISPACK tql2
SYMMETRY_TOL = 1e-8
# Gram-path eigenvalues at or below this share of the largest are dropped:
# sqrt(machine epsilon), where mapping an eigenvector back divides by sqrt(lam).
GRAM_FLOOR = math.sqrt(np.finfo(float).eps)


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


def _tridiagonalize(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder reduction M = Q T Q^T of symmetric M.

    Returns the diagonal d and subdiagonal e of T (e[i] couples d[i] and
    d[i + 1]; e[-1] is 0) and Q^T, whose rows are the columns of Q.
    """
    p = M.shape[0]
    A = M.copy()
    Qt = np.eye(p)
    e = np.zeros(p)
    for k in range(p - 1):
        x = A[k + 1:, k]
        norm_x = float(np.linalg.norm(x))
        if not x[1:].any() or norm_x == 0.0:  # already tridiagonal, or squares underflow to 0
            e[k] = x[0]
            continue
        alpha = -norm_x if x[0] >= 0 else norm_x  # sign that avoids cancellation
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        e[k] = alpha
        # H A H with H = I - 2 v v^T is a symmetric rank-2 update of the trailing block.
        trailing = A[k + 1:, k + 1:]
        u = trailing @ v
        w = u - (v @ u) * v
        trailing -= 2.0 * (np.outer(v, w) + np.outer(w, v))
        Qt[k + 1:] -= 2.0 * np.outer(v, v @ Qt[k + 1:])
    return np.diag(A).copy(), e, Qt


def _tridiagonal_ql(d: np.ndarray, e: np.ndarray, Zt: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal (d, e) by implicit-shift QL.

    Every Givens rotation is applied to two adjacent rows of Zt in place, so
    on return row i of Zt is the eigenvector of the i-th returned value.
    """
    p = len(d)
    d = [float(x) for x in d]
    e = [float(x) for x in e]
    # Deflate against the whole tridiagonal's scale, as tql2 does: a test local
    # to d[m], d[m + 1] never fires inside a numerically zero eigenspace.
    tol = np.finfo(float).eps * max(abs(a) + abs(b) for a, b in zip(d, e))
    for lo in range(p):
        iterations = 0
        while True:
            m = lo
            while m < p - 1 and abs(e[m]) > tol:
                m += 1
            if m == lo:
                break
            if iterations >= QL_MAX_ITER:
                raise NonConvergence(f"QL iteration limit {QL_MAX_ITER} reached")
            iterations += 1
            # Shift: the eigenvalue of the leading 2 x 2 block nearer d[lo].
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(r, g))
            s = c = 1.0
            delta = 0.0
            underflow = False
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # the chase split the block; restart on the pieces
                    d[i + 1] -= delta
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - delta
                r = (d[i] - g) * s + 2.0 * c * b
                delta = s * r
                d[i + 1] = g + delta
                g = c * r - b
                Zt[i:i + 2] = np.array(((c, -s), (s, c))) @ Zt[i:i + 2]
            if not underflow:
                d[lo] -= delta
                e[lo] = g
                e[m] = 0.0
    return np.array(d)


def sym_eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric A.

    Householder tridiagonalization, then implicit-shift QL with at most 30
    iterations per eigenvalue; an off-diagonal entry deflates once it falls
    below machine epsilon times the largest |d| + |e| of the tridiagonal.
    Eigenvector columns get a fixed sign (largest-magnitude entry positive)
    so results are reproducible.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix must be square")
    if not np.allclose(A, A.T, atol=SYMMETRY_TOL, rtol=0):
        raise NotSymmetric("matrix is not symmetric within 1e-8")

    p = A.shape[0]
    M = (A + A.T) / 2.0
    if p == 1 or not M.any():
        return _sorted_eigen(np.diag(M).copy(), np.eye(p))

    d, e, Qt = _tridiagonalize(M)
    values = _tridiagonal_ql(d, e, Qt)
    return _sorted_eigen(values, Qt.T)


def _sorted_eigen(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(-values, kind="stable")
    return values[order], _fix_signs(vectors[:, order])


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign: make the largest-magnitude entry of each column positive."""
    for k in range(vectors.shape[1]):
        pivot = np.argmax(np.abs(vectors[:, k]))
        if vectors[pivot, k] < 0:
            vectors[:, k] = -vectors[:, k]
    return vectors


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


def pca_fit(X: np.ndarray, k: int | None = None) -> PCAModel:
    """Top-k principal axes of X (n x p); every axis found when k is None.

    With n >= p, the p x p covariance is eigendecomposed and all p axes are
    found. With n < p the covariance has rank at most n - 1, so the n x n
    Gram matrix G = Zc Zc^T / (n - 1) of the centered rows Zc is
    eigendecomposed instead (the method of snapshots, Sirovich 1987), and no
    p x p matrix is formed. G shares the covariance's nonzero eigenvalues,
    and G's eigenvector u of eigenvalue lam maps to v = Zc^T u / sqrt((n - 1) lam).
    That divides by sqrt(lam), so pairs whose eigenvalue is at or below
    GRAM_FLOOR (sqrt(eps)) times the largest are dropped: at most n - 1 axes
    are found, orthonormal to within about eps times the largest eigenvalue
    over the smallest kept, so about sqrt(eps).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 2 and 2 <= X.shape[0] < X.shape[1]:
        model = _pca_by_gram(X)
    else:
        values, vectors = sym_eigen(covariance(X))
        variances = np.maximum(values, 0.0)  # clip rounding negatives on PSD input
        model = PCAModel(X.mean(axis=0), vectors, variances)
    return model if k is None else model.truncated(k)


def _pca_by_gram(X: np.ndarray) -> PCAModel:
    """Every reliably mappable principal axis of X (n < p) from its n x n Gram matrix."""
    n = X.shape[0]
    means = X.mean(axis=0)
    centered = X - means
    gram = centered @ centered.T / (n - 1)
    values, vectors = sym_eigen((gram + gram.T) / 2.0)  # kill rounding asymmetry
    floor = GRAM_FLOOR * max(float(values[0]), 0.0)
    r = int(np.count_nonzero(values[:n - 1] > floor))  # values descend
    variances = values[:r]  # each above floor >= 0, so no clipping is needed
    components = centered.T @ (vectors[:, :r] / np.sqrt((n - 1) * variances))
    return PCAModel(means, _fix_signs(components), variances)


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
