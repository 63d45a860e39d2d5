"""Full-matrix silhouette, kept as a reference for `evaluation.silhouettes`.

This is the package's original implementation: it builds the whole n x n
distance matrix for one assignment and reads each cluster's block out of
it. Its memory grows as n^2, so the package now walks the rows in blocks
instead; the tests compare the two.
"""

from __future__ import annotations

import numpy as np

from flowline_risk.evaluation import SingleCluster


def silhouette(X, assignments) -> float:
    """Mean silhouette score over all points; singleton clusters score 0."""
    X = np.asarray(X, dtype=float)
    assignments = np.asarray(assignments, dtype=int)
    labels = np.unique(assignments)
    if labels.size < 2:
        raise SingleCluster("silhouette needs at least two clusters")

    # Pairwise distances via the Gram identity; keeps memory at n^2, not n^2 p.
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    dist = np.sqrt(np.maximum(d2, 0.0))
    np.fill_diagonal(dist, 0.0)
    members = {c: np.flatnonzero(assignments == c) for c in labels}

    scores = np.zeros(X.shape[0])
    for c in labels:
        idx = members[c]
        if idx.size == 1:
            scores[idx[0]] = 0.0  # singleton convention
            continue
        own = dist[np.ix_(idx, idx)]
        a = own.sum(axis=1) / (idx.size - 1)
        b = np.full(idx.size, np.inf)
        for other in labels:
            if other == c:
                continue
            mean_other = dist[np.ix_(idx, members[other])].mean(axis=1)
            b = np.minimum(b, mean_other)
        scores[idx] = (b - a) / np.maximum(a, b)
    return float(np.mean(scores))
