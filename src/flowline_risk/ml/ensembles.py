"""Boosted and bagged tree ensembles built on the CART primitives."""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_binary_labels
from .linear import sigmoid
from .trees import DecisionTreeClassifier, RegressionTree, _Rows

_LEAF_CLAMP = 10.0
_ALPHA_ERR_FLOOR = 1e-10


def log_loss(y: np.ndarray, scores: np.ndarray) -> float:
    """Mean logistic loss of raw additive scores against {0,1} labels."""
    softplus = np.maximum(scores, 0.0) + np.log1p(np.exp(-np.abs(scores)))
    return float(np.mean(softplus - y * scores))


class GBDTClassifier(Classifier):
    """Stage-wise logistic gradient boosting with regression trees.

    Each stage fits a squared-error tree to the negative log-loss gradient
    (the residual y - p) and installs Newton-step leaf outputs. Stages that
    would raise the training loss are halved, then dropped, so the recorded
    stage_losses trace is non-increasing by construction.
    """

    kind = "GBDT"

    def __init__(self, n_trees: int = 100, max_depth: int = 3,
                 shrinkage: float = 0.1, min_leaf: int = 2):
        super().__init__()
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.shrinkage = shrinkage
        self.min_leaf = min_leaf
        self.prior = 0.0
        self.trees: list[RegressionTree] = []
        self.stage_scales: list[float] = []
        self.stage_losses: list[float] = []

    def _fit(self, X, y):
        y = check_binary_labels(y).astype(float)
        pos = float(np.mean(y))
        self.prior = float(np.log(pos / (1.0 - pos)))
        scores = np.full(len(y), self.prior)
        self.trees = []
        self.stage_scales = []
        self.stage_losses = [log_loss(y, scores)]
        data = _Rows(X)

        for _ in range(self.n_trees):
            p = sigmoid(scores)
            residual = y - p
            hessian = p * (1.0 - p)

            def newton_leaf(idx, residual=residual, hessian=hessian):
                value = np.sum(residual[idx]) / max(np.sum(hessian[idx]), 1e-12)
                return float(np.clip(value, -_LEAF_CLAMP, _LEAF_CLAMP))

            tree = RegressionTree(self.max_depth, self.min_leaf)
            step = self.shrinkage * tree.fit_predict(X, residual, newton_leaf, data)

            # Guard the monotone-loss contract: back off a stage that overshoots.
            prev = self.stage_losses[-1]
            scale = 1.0
            for _ in range(10):
                if log_loss(y, scores + scale * step) <= prev:
                    break
                scale *= 0.5
            else:
                scale = 0.0
            scores = scores + scale * step
            self.trees.append(tree)
            self.stage_scales.append(scale)
            self.stage_losses.append(log_loss(y, scores))

    def decision_scores(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = np.full(X.shape[0], self.prior)
        for tree, scale in zip(self.trees, self.stage_scales):
            scores += scale * self.shrinkage * tree.predict(X)
        return scores

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.decision_scores(X))

    def _predict(self, X):
        return (self.predict_proba(X) >= 0.5).astype(int)

    def hyperparameters(self):
        return {
            "n_trees": self.n_trees, "max_depth": self.max_depth,
            "shrinkage": self.shrinkage, "min_leaf": self.min_leaf,
        }

    def state_dict(self):
        return {
            "prior": self.prior,
            "trees": [t.to_dict() for t in self.trees],
            "stage_scales": self.stage_scales,
        }

    def load_state(self, state):
        self.prior = float(state["prior"])
        self.trees = [RegressionTree.from_dict(d, self.max_depth, self.min_leaf)
                      for d in state["trees"]]
        self.stage_scales = [float(s) for s in state["stage_scales"]]
        self.fitted = True


class AdaBoostClassifier(Classifier):
    """Discrete AdaBoost over depth-1 weighted Gini stumps.

    Instance weights start uniform at 1/n and renormalize every round.
    Rounds stop early on a perfect stump (error floored for a finite alpha)
    or a stump no better than chance.
    """

    kind = "ADABOOST"

    def __init__(self, n_stumps: int = 100):
        super().__init__()
        if n_stumps < 1:
            raise ValueError("n_stumps must be >= 1")
        self.n_stumps = n_stumps
        self.stumps: list[DecisionTreeClassifier] = []
        self.alphas: list[float] = []
        self.round_errors: list[float] = []
        self.bound_trace: list[float] = []
        self.initial_weights = None

    def _fit(self, X, y):
        y = check_binary_labels(y)
        s = 2 * y - 1
        n = len(y)
        weights = np.full(n, 1.0 / n)
        self.initial_weights = weights.copy()
        self.stumps, self.alphas = [], []
        self.round_errors, self.bound_trace = [], []
        bound = 1.0
        data = _Rows(X)

        for _ in range(self.n_stumps):
            stump = DecisionTreeClassifier(max_depth=1, min_leaf=1)
            stump.fit(X, y, sample_weight=weights, data=data)
            pred = stump.predict(X)
            miss = pred != y
            err = float(np.sum(weights[miss]))
            if err >= 0.5:
                break
            self.round_errors.append(err)
            erred = max(err, _ALPHA_ERR_FLOOR)
            alpha = 0.5 * np.log((1.0 - erred) / erred)
            self.stumps.append(stump)
            self.alphas.append(float(alpha))
            bound *= 2.0 * np.sqrt(erred * (1.0 - erred))
            self.bound_trace.append(float(bound))
            if err == 0.0:
                break
            h = 2 * pred - 1
            weights = weights * np.exp(-alpha * s * h)
            weights /= np.sum(weights)

    def decision_scores(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = np.zeros(X.shape[0])
        for stump, alpha in zip(self.stumps, self.alphas):
            scores += alpha * (2 * stump.predict(X) - 1)
        return scores

    def _predict(self, X):
        return (self.decision_scores(X) > 0.0).astype(int)

    def hyperparameters(self):
        return {"n_stumps": self.n_stumps}

    def state_dict(self):
        return {
            "stumps": [s.state_dict()["root"] for s in self.stumps],
            "alphas": self.alphas,
        }

    def load_state(self, state):
        self.stumps = []
        for root in state["stumps"]:
            stump = DecisionTreeClassifier(max_depth=1, min_leaf=1)
            stump.load_state({"root": root})
            self.stumps.append(stump)
        self.alphas = [float(a) for a in state["alphas"]]
        self.fitted = True


class RandomForestClassifier(Classifier):
    """Bootstrap-bagged CARTs with per-split feature subsets, majority vote.

    Trees are fitted in order, each drawing from its own SeedSequence
    spawn of the forest seed. Vote ties resolve to class 0, the majority
    class in this domain.

    The training matrix is ranked (trees.rank_keys, one float sort) and its
    binary and constant columns found once per fit, and each tree takes its
    bootstrap rows of both, so a column is binary, or constant, for every
    tree or for none.
    """

    kind = "RF"

    def __init__(self, n_trees: int = 100, max_depth: int = 8, mtry: int | None = None,
                 seed: int = 0, min_leaf: int = 2, bootstrap: bool = True):
        super().__init__()
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.mtry = mtry
        self.seed = seed
        self.min_leaf = min_leaf
        self.bootstrap = bootstrap
        self.trees: list[DecisionTreeClassifier] = []

    def _fit(self, X, y):
        y = check_binary_labels(y)
        n, p = X.shape
        mtry = self.mtry if self.mtry is not None else int(np.ceil(np.sqrt(p)))
        if not 1 <= mtry <= p:
            raise ValueError(f"mtry must be in [1, {p}]")
        data = _Rows(X)
        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees = []
        for stream in streams:
            rng = np.random.default_rng(stream)
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = DecisionTreeClassifier(self.max_depth, self.min_leaf, mtry=mtry, rng=rng)
            sample = data.take(idx)
            tree.fit(sample.X, y[idx], data=sample)
            self.trees.append(tree)

    def vote_shares(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros(X.shape[0])
        for tree in self.trees:
            votes += tree.predict(X)
        return votes / len(self.trees)

    def _predict(self, X):
        return (self.vote_shares(X) > 0.5).astype(int)

    def hyperparameters(self):
        return {
            "n_trees": self.n_trees, "max_depth": self.max_depth, "mtry": self.mtry,
            "seed": self.seed, "min_leaf": self.min_leaf, "bootstrap": self.bootstrap,
        }

    def state_dict(self):
        return {"trees": [t.state_dict()["root"] for t in self.trees]}

    def load_state(self, state):
        self.trees = []
        for root in state["trees"]:
            tree = DecisionTreeClassifier(self.max_depth, self.min_leaf)
            tree.load_state({"root": root})
            self.trees.append(tree)
        self.fitted = True
