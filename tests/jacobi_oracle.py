"""Cyclic Jacobi eigensolver, kept as a reference for `numerics.sym_eigen`.

This is the package's original solver: repeatedly zero each off-diagonal
entry with a plane rotation until the off-diagonal Frobenius norm falls
below 1e-12 * ||A||, at most 100 sweeps. It is slow (about p^2/2
Python-level rotations per sweep) but simple to audit, so the tests compare
the production solver against it.
"""

from __future__ import annotations

import numpy as np

from flowline_risk.numerics import SYMMETRY_TOL, NonConvergence, NotSymmetric, _sorted_eigen

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-12


def _off_diagonal_norm(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.sqrt(np.sum(off * off)))


def jacobi_eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors by cyclic Jacobi."""
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
