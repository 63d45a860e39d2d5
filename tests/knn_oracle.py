"""Per-query KNN vote, kept as a reference for `ml.neighbors`.

This is the package's original prediction loop: for each query row it
measures the exact distance to every training row and takes the first k of
a stable argsort, so ties go to the earlier training row. The package now
ranks blocks of queries at once, and the tests check that the votes are
bit-identical.
"""

from __future__ import annotations

import numpy as np

from flowline_risk.ml import KNNClassifier


class OracleKNNClassifier(KNNClassifier):
    def vote_shares(self, X) -> np.ndarray:
        """Fraction of class-1 votes among the k nearest, per query row."""
        X = np.asarray(X, dtype=float)
        shares = np.empty(X.shape[0])
        for i, q in enumerate(X):
            d = np.linalg.norm(self.train_X - q, axis=1)
            nearest = np.argsort(d, kind="stable")[: self.k_neighbors]
            shares[i] = float(np.sum(self.train_y[nearest])) / self.k_neighbors
        return shares
