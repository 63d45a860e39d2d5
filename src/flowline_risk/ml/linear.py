"""Linear models: logistic regression and a primal linear SVM."""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_binary_labels


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_and_grad(w, b, X, y, l2):
    """Mean cross-entropy plus (l2/2)||w||^2 and its exact gradient.

    The intercept is not regularized. Softplus is evaluated in its stable
    form so extreme scores cannot overflow.
    """
    w = np.asarray(w, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    z = X @ w + b
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    loss = float(np.mean(softplus - y * z) + 0.5 * l2 * np.dot(w, w))
    p = sigmoid(z)
    grad_w = X.T @ (p - y) / len(y) + l2 * w
    grad_b = float(np.mean(p - y))
    return loss, grad_w, grad_b


class LogisticRegressionGD(Classifier):
    """L2-regularized logistic regression, full-batch gradient descent.

    Deterministic: zero start, fixed step, fixed epoch count. Decision
    threshold is 0.5 on the sigmoid score.
    """

    kind = "LR"
    fitted_state = ("weights", "bias")

    def __init__(self, learning_rate: float = 0.1, epochs: int = 500, l2: float = 1e-4):
        super().__init__()
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.weights = None
        self.bias = 0.0

    def _fit(self, X, y):
        y = check_binary_labels(y)
        w = np.zeros(X.shape[1])
        b = 0.0
        for _ in range(self.epochs):
            _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, self.l2)
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
        self.weights = w
        self.bias = b

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(np.asarray(X, dtype=float) @ self.weights + self.bias)

    def _predict(self, X):
        return (self.predict_proba(X) >= 0.5).astype(int)

    def hyperparameters(self):
        return {"learning_rate": self.learning_rate, "epochs": self.epochs, "l2": self.l2}


class LinearSVM(Classifier):
    """Primal hinge-loss SVM trained by projected subgradient descent.

    Minimizes (lambda/2)||w||^2 + mean hinge with lambda = 1/(C n), the
    Pegasos normalization of 0.5||w||^2 + C sum hinge, using the 1/(lambda t)
    step schedule, the ball projection, and averaged iterates as the model.
    """

    kind = "SVM"
    fitted_state = ("weights", "bias")

    def __init__(self, C: float = 1.0, epochs: int = 200):
        super().__init__()
        self.C = C
        self.epochs = epochs
        self.weights = None
        self.bias = 0.0
        self.objective_trace: list[float] = []

    def objective(self, w, b, X, s) -> float:
        """0.5||w||^2 + C sum hinge on {-1,+1} labels s."""
        margins = s * (X @ w + b)
        hinge = np.maximum(0.0, 1.0 - margins)
        return float(0.5 * np.dot(w, w) + self.C * np.sum(hinge))

    def _fit(self, X, y):
        y = check_binary_labels(y)
        s = 2.0 * y - 1.0
        n, p = X.shape
        lam = 1.0 / (self.C * n)
        radius = 1.0 / np.sqrt(lam)

        w = np.zeros(p)
        b = 0.0
        w_sum = np.zeros(p)
        b_sum = 0.0
        self.objective_trace = []
        for t in range(1, self.epochs + 1):
            eta = 1.0 / (lam * t)
            margins = s * (X @ w + b)
            violators = margins < 1.0
            if np.any(violators):
                gw = lam * w - (s[violators, None] * X[violators]).sum(axis=0) / n
                gb = -float(np.sum(s[violators])) / n
            else:
                gw = lam * w
                gb = 0.0
            w = w - eta * gw
            b = b - eta * gb
            norm = np.linalg.norm(w)
            if norm > radius:
                w = w * (radius / norm)
            w_sum += w
            b_sum += b
            self.objective_trace.append(self.objective(w_sum / t, b_sum / t, X, s))

        self.weights = w_sum / self.epochs
        self.bias = b_sum / self.epochs

    def decision_function(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.weights + self.bias

    def _predict(self, X):
        return (self.decision_function(X) > 0.0).astype(int)

    def hyperparameters(self):
        return {"C": self.C, "epochs": self.epochs}
