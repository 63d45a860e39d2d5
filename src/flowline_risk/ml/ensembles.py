"""Boosted and bagged tree ensembles built on the CART primitives."""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_binary_labels
from .linear import sigmoid
from .trees import DecisionTreeClassifier, RegressionTree, TreeTable, _Rows

_LEAF_CLAMP = 10.0
_ALPHA_ERR_FLOOR = 1e-10


def log_loss(y: np.ndarray, scores: np.ndarray) -> float:
    """Mean logistic loss of raw additive scores against {0,1} labels."""
    softplus = np.maximum(scores, 0.0) + np.log1p(np.exp(-np.abs(scores)))
    return float(np.mean(softplus - y * scores))


class GBDTClassifier(TreeTable, Classifier):
    """Stage-wise logistic gradient boosting with regression trees.

    Each stage fits a squared-error tree to the negative log-loss gradient
    (the residual y - p) and installs Newton-step leaf outputs. Stages that
    would raise the training loss are halved, then dropped, so the recorded
    stage_losses trace is non-increasing by construction. The stages' trees
    are one table, in fit order.
    """

    kind = "GBDT"
    per_tree = ("stage_scales",)
    fitted_state = ("prior", "stage_scales") + TreeTable.node_fields + ("tree_start",)

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
        self.stage_scales: list[float] = []
        self.stage_losses: list[float] = []

    def _fit(self, X, y):
        y = check_binary_labels(y).astype(float)
        pos = float(np.mean(y))
        self.prior = float(np.log(pos / (1.0 - pos)))
        scores = np.full(len(y), self.prior)
        trees = []
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
            step = self.shrinkage * tree._fit_rows(data, data.rows, residual, newton_leaf)

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
            trees.append(tree)
            self.stage_scales.append(scale)
            self.stage_losses.append(log_loss(y, scores))
        self._set_table(trees)

    def decision_scores(self, X) -> np.ndarray:
        """The prior plus each stage's scaled tree output, added in fit order."""
        values = self.value[self._leaves(X)]
        scores = np.full(values.shape[1], self.prior)
        for value, scale in zip(values, self.stage_scales):
            scores += scale * self.shrinkage * value
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


class AdaBoostClassifier(TreeTable, Classifier):
    """Discrete AdaBoost over depth-1 weighted Gini stumps.

    Instance weights start uniform at 1/n and renormalize every round.
    Rounds stop early on a perfect stump (error floored for a finite alpha)
    or a stump no better than chance. The kept stumps are one table, each
    leaf's value its class.
    """

    kind = "ADABOOST"
    per_tree = ("alphas",)
    fitted_state = ("alphas",) + TreeTable.node_fields + ("tree_start",)

    def __init__(self, n_stumps: int = 100):
        super().__init__()
        if n_stumps < 1:
            raise ValueError("n_stumps must be >= 1")
        self.n_stumps = n_stumps
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
        stumps, self.alphas = [], []
        self.round_errors, self.bound_trace = [], []
        bound = 1.0
        data = _Rows(X)

        for _ in range(self.n_stumps):
            stump = DecisionTreeClassifier(max_depth=1, min_leaf=1)
            pred = stump._fit_rows(data, data.rows, y, weights)  # its class for each row
            miss = pred != y
            err = float(np.sum(weights[miss]))
            if err >= 0.5:
                break
            self.round_errors.append(err)
            erred = max(err, _ALPHA_ERR_FLOOR)
            alpha = 0.5 * np.log((1.0 - erred) / erred)
            stumps.append(stump)
            self.alphas.append(float(alpha))
            bound *= 2.0 * np.sqrt(erred * (1.0 - erred))
            self.bound_trace.append(float(bound))
            if err == 0.0:
                break
            h = 2 * pred - 1
            weights = weights * np.exp(-alpha * s * h)
            weights /= np.sum(weights)
        self._set_table(stumps)

    def decision_scores(self, X) -> np.ndarray:
        """Each stump's alpha-weighted vote of -1 or +1, added in fit order."""
        votes = 2 * self.value[self._leaves(X)] - 1
        scores = np.zeros(votes.shape[1])
        for vote, alpha in zip(votes, self.alphas):
            scores += alpha * vote
        return scores

    def _predict(self, X):
        return (self.decision_scores(X) > 0.0).astype(int)

    def hyperparameters(self):
        return {"n_stumps": self.n_stumps}


class RandomForestClassifier(TreeTable, Classifier):
    """Bootstrap-bagged CARTs with per-split feature subsets, majority vote.

    Trees are fitted in order, each drawing from its own SeedSequence
    spawn of the forest seed. Vote ties resolve to class 0, the majority
    class in this domain.

    The training matrix is ranked (trees.rank_keys, one float sort) and its
    binary and constant columns found once per fit; each tree grows over its
    bootstrap draw of row indices into it and copies no rows. The trees are
    one table, each leaf's value its class.
    """

    kind = "RF"
    fitted_state = TreeTable.node_fields + ("tree_start",)

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

    def _fit(self, X, y):
        y = check_binary_labels(y)
        n, p = X.shape
        mtry = self.mtry if self.mtry is not None else int(np.ceil(np.sqrt(p)))
        if not 1 <= mtry <= p:
            raise ValueError(f"mtry must be in [1, {p}]")
        data = _Rows(X)
        weights = np.full(n, 1.0 / n)
        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        trees = []
        for stream in streams:
            rng = np.random.default_rng(stream)
            root = rng.integers(0, n, size=n) if self.bootstrap else data.rows
            tree = DecisionTreeClassifier(self.max_depth, self.min_leaf, mtry=mtry, rng=rng)
            tree._fit_rows(data, root, y, weights)
            trees.append(tree)
        self._set_table(trees)

    def vote_shares(self, X) -> np.ndarray:
        # the votes are whole numbers, so their sum is exact in any order
        return self.value[self._leaves(X)].sum(axis=0) / self.tree_count

    def _predict(self, X):
        return (self.vote_shares(X) > 0.5).astype(int)

    def hyperparameters(self):
        return {
            "n_trees": self.n_trees, "max_depth": self.max_depth, "mtry": self.mtry,
            "seed": self.seed, "min_leaf": self.min_leaf, "bootstrap": self.bootstrap,
        }
