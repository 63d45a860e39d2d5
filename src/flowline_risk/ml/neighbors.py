"""K-nearest-neighbors voting on standardized features."""

from __future__ import annotations

import numpy as np

from .base import Classifier, KTooLarge, check_binary_labels

# Bytes for one block of query-to-training squared distances (B x n float64),
# and for one chunk of exact differences (pairs x p).
_BLOCK_BYTES = 2 << 20
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = 1e-300


def _candidates(Q, T, sq_t, k: int, gram_err: float, norm_err: float) -> np.ndarray:
    """Mask of the training rows T that can be among the k nearest of each
    query row of Q, from the Gram identity and its rounding bound (see
    KNNClassifier.vote_shares). Each step writes into an array of the block
    that it no longer needs, and all of them are freed on return."""
    with np.errstate(invalid="ignore"):  # non-finite rows keep everything
        sq = sq_t[None, :] + np.sum(Q * Q, axis=1)[:, None]
        approx = Q @ T.T
        np.multiply(approx, 2.0, out=approx)
        np.subtract(sq, approx, out=approx)
        slack = np.multiply(sq, gram_err, out=sq)
        slack += _TINY
        # The k-th smallest upper bound is one no k-th nearest exceeds.
        upper = approx + slack
        upper.partition(k - 1, axis=1)
        kth = upper[:, k - 1]
        keep = np.subtract(approx, slack, out=slack) <= kth[:, None] * (1.0 + 8.0 * norm_err)
    keep[~np.isfinite(approx).all(axis=1)] = True
    return keep


class KNNClassifier(Classifier):
    """Lazy Euclidean majority vote; ties go to class 0.

    k defaults to 5 and should stay odd so ties only arise through equal
    distances, which the stable sort resolves by training-row order.
    """

    kind = "KNN"
    fitted_state = ("train_X", "train_y")

    def __init__(self, k_neighbors: int = 5):
        super().__init__()
        if k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        self.k_neighbors = k_neighbors
        self.train_X = None
        self.train_y = None

    def _fit(self, X, y):
        y = check_binary_labels(y)
        if self.k_neighbors > X.shape[0]:
            raise KTooLarge(f"k={self.k_neighbors} exceeds {X.shape[0]} training rows")
        self.train_X = X.copy()
        self.train_y = y.copy()

    def vote_shares(self, X) -> np.ndarray:
        """Fraction of class-1 votes among the k nearest, per query row.

        Each block of query rows gets its squared distances to every
        training row from the Gram identity, with a bound on their rounding
        error. That bound keeps every row that can be among the k nearest;
        those few get the exact distance np.linalg.norm(train_X - q), and a
        sort on (distance, training row) picks the k nearest, so the votes
        are those of a stable argsort of all exact distances.
        """
        X = np.asarray(X, dtype=float)
        T, k = self.train_X, self.k_neighbors
        n, p = T.shape
        sq_t = np.sum(T * T, axis=1)
        positive = self.train_y == 1
        # Rounding bounds: the Gram form is within gram_err * (|q|^2 + |t|^2)
        # (+ tiny, for underflow) of the squared distance, and the exact
        # distance within a relative norm_err of the true one.
        gram_err = (4 * p + 16) * _UNIT_ROUNDOFF
        norm_err = (p + 8) * _UNIT_ROUNDOFF
        shares = np.empty(X.shape[0])
        rows = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
        pairs = max(1, _BLOCK_BYTES // (8 * max(p, 1)))
        for lo in range(0, X.shape[0], rows):
            Q = X[lo:lo + rows]
            keep = _candidates(Q, T, sq_t, k, gram_err, norm_err)
            q, r = np.nonzero(keep)
            # Ties can keep whole rows of pairs; gather them in bounded chunks.
            d = np.concatenate([np.linalg.norm(T[r[i:i + pairs]] - Q[q[i:i + pairs]], axis=1)
                                for i in range(0, q.size, pairs)])
            order = np.lexsort((r, d, q))
            q, r = q[order], r[order]
            rank = np.arange(q.size) - np.searchsorted(q, np.arange(Q.shape[0]))[q]
            nearest = rank < k
            votes = np.bincount(q[nearest], weights=positive[r[nearest]], minlength=Q.shape[0])
            shares[lo:lo + rows] = votes / k
        return shares

    def _predict(self, X):
        return (self.vote_shares(X) > 0.5).astype(int)

    def hyperparameters(self):
        return {"k_neighbors": self.k_neighbors}
