"""Shared classifier contract and errors for the model zoo."""

from __future__ import annotations

import numpy as np


class SingleClass(ValueError):
    """Training labels contain only one class."""


class KTooLarge(ValueError):
    """k exceeds what the training data can support."""


class NotFitted(RuntimeError):
    pass


def check_binary_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=int)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if np.unique(y).size < 2:
        raise SingleClass("training labels contain a single class")
    return y


class Classifier:
    """Uniform train/predict surface over all model kinds.

    Subclasses set `kind`, implement _fit/_predict, and describe their
    learned state through state_dict/load_state for JSON round trips.
    schema_hash is the feature-schema digest a loaded model was saved with.
    """

    kind: str = "?"

    def __init__(self):
        self.fitted = False
        self.schema_hash: str | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p with one label per row")
        self._fit(X, y)
        self.fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise NotFitted(f"{self.kind} classifier used before fit")
        out = self._predict(np.asarray(X, dtype=float))
        return np.asarray(out, dtype=int)

    def _fit(self, X, y):  # pragma: no cover - abstract
        raise NotImplementedError

    def _predict(self, X):  # pragma: no cover - abstract
        raise NotImplementedError

    def hyperparameters(self) -> dict:
        raise NotImplementedError

    def state_dict(self) -> dict:
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        raise NotImplementedError
