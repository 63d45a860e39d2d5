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

    Subclasses set `kind`, implement _fit/_predict, and name the attributes
    of their learned state (numbers, or arrays or lists of them) in
    fitted_state, which state_dict and load_state round-trip through JSON
    bit for bit. schema_hash is the feature-schema digest a loaded model
    was saved with.
    """

    kind: str = "?"
    fitted_state: tuple[str, ...] = ()

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
        """The fitted_state attributes as JSON numbers and (nested) lists."""
        return {name: _numbers(name, getattr(self, name)).tolist() for name in self.fitted_state}

    def load_state(self, state: dict) -> None:
        """Set the fitted_state attributes from state_dict's output, a list
        as a numpy array of the dtype its numbers give."""
        for name in self.fitted_state:
            array = _numbers(name, state[name])
            setattr(self, name, array if array.ndim else array.item())
        self.fitted = True

    def check_state(self, width: int | None = None) -> None:
        """Raise ValueError where a loaded state cannot fit `width` columns."""


def _numbers(name: str, value) -> np.ndarray:
    """value as a numpy array, checked to hold finite numbers, which is all
    that JSON can carry."""
    array = np.asarray(value)
    if array.size and array.dtype.kind not in "iuf":
        raise ValueError(f"{name!r} holds {array.dtype} values, not numbers")
    if array.dtype.kind == "f" and not np.all(np.isfinite(array)):
        raise ValueError(f"{name!r} holds a value that is not finite")
    return array
