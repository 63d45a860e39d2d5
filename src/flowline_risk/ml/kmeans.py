"""K-means with k-means++ seeding, restarts, and empty-cluster repair."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import KTooLarge


@dataclass
class KMeansModel:
    k: int
    centroids: np.ndarray
    inertia: float
    assignments: np.ndarray
    inertia_history: list[float] = field(default_factory=list)


def _squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """n x k matrix of squared Euclidean distances, one centroid at a time
    into one n x p buffer, so the working set is n x p, not n x k x p."""
    d2 = np.empty((X.shape[0], centroids.shape[0]))
    d = np.empty(X.shape)
    for j, c in enumerate(centroids):
        np.subtract(X, c, out=d)
        np.einsum("np,np->n", d, d, out=d2[:, j])
    return d2


def _kmeanspp_seed(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = np.sum((X - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(np.sum(closest))
        if total <= 0.0:
            centroids[j] = X[rng.integers(n)]  # all points coincide
        else:
            centroids[j] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((X - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(X, centroids, max_iter):
    assignments = None
    history = []
    for _ in range(max_iter):
        d2 = _squared_distances(X, centroids)
        new_assignments = np.argmin(d2, axis=1)
        history.append(float(np.sum(d2[np.arange(len(X)), new_assignments])))
        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        assigned_d2 = d2[np.arange(len(X)), assignments].copy()
        for j in range(centroids.shape[0]):
            members = assignments == j
            if np.any(members):
                centroids[j] = X[members].mean(axis=0)
            else:
                # Re-seed an empty cluster to the point farthest from its centroid.
                worst = int(np.argmax(assigned_d2))
                centroids[j] = X[worst]
                assignments[worst] = j
                assigned_d2[worst] = -1.0
    else:
        # max_iter ran out: the last step moved the centroids. On a fixpoint
        # they have not moved since d2 was computed, so it is reused.
        d2 = _squared_distances(X, centroids)
    assignments = np.argmin(d2, axis=1)
    inertia = float(np.sum(d2[np.arange(len(X)), assignments]))
    return centroids, assignments, inertia, history


def fit_kmeans(X, k: int, seed: int = 0, max_iter: int = 300, n_init: int = 10) -> KMeansModel:
    """Best of n_init seeded restarts by final inertia.

    Each restart runs k-means++ then Lloyd iterations to an assignment
    fixpoint; within a run the recorded inertia history never increases.
    """
    X = np.asarray(X, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > X.shape[0]:
        raise KTooLarge(f"k={k} exceeds {X.shape[0]} points")

    best = None
    for stream in np.random.SeedSequence(seed).spawn(n_init):
        rng = np.random.default_rng(stream)
        centroids = _kmeanspp_seed(X, k, rng)
        centroids, assignments, inertia, history = _lloyd(X, centroids.copy(), max_iter)
        if best is None or inertia < best.inertia:
            best = KMeansModel(k, centroids, inertia, assignments, history)
    return best
