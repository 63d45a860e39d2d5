"""Per-feature CART split search, kept as a reference for `ml.trees`.

These are the package's original split searches and tree growers: at every
node, each feature is argsorted again and scanned on its own, and the best
candidate is kept by comparing (score, feature, threshold) tuples. Slow but
simple to audit, so the tests check that the presorted, one-pass trees and
the ensembles built on them produce identical fitted states and predictions.
"""

from __future__ import annotations

import numpy as np

from flowline_risk.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GBDTClassifier,
    RandomForestClassifier,
    RegressionTree,
    gini_impurity,
)
from flowline_risk.ml.base import check_binary_labels
from flowline_risk.ml.ensembles import _ALPHA_ERR_FLOOR, _LEAF_CLAMP, log_loss
from flowline_risk.ml.linear import sigmoid
from flowline_risk.ml.trees import _Node


def _traverse(node: _Node, X: np.ndarray) -> list[_Node]:
    out = [None] * X.shape[0]
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        cur, idx = stack.pop()
        if cur.is_leaf:
            for i in idx:
                out[i] = cur
            continue
        go_left = X[idx, cur.feature] <= cur.threshold
        stack.append((cur.left, idx[go_left]))
        stack.append((cur.right, idx[~go_left]))
    return out


def best_gini_split(X, y, weights, min_leaf: int, features=None):
    """Best (feature, threshold, gain) over the given feature subset.

    Gain is the weighted impurity decrease; returns None when no candidate
    respects the min_leaf count on both sides. Splits with zero gain are
    still candidates, which is what lets depth-limited trees carve XOR.
    """
    n, p = X.shape
    features = range(p) if features is None else features
    total_w = float(np.sum(weights))
    w_pos = weights * (y == 1)
    parent = gini_impurity(y, weights)

    best = None  # (neg_gain, feature, threshold) ordering key
    for f in features:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        w_sorted = weights[order]
        wp_sorted = w_pos[order]

        cut = np.flatnonzero(xs[:-1] != xs[1:]) + 1  # left-side sizes
        if cut.size == 0:
            continue
        ok = (cut >= min_leaf) & (n - cut >= min_leaf)
        cut = cut[ok]
        if cut.size == 0:
            continue

        cw = np.cumsum(w_sorted)
        cwp = np.cumsum(wp_sorted)
        wl = cw[cut - 1]
        wpl = cwp[cut - 1]
        wr = total_w - wl
        wpr = cwp[-1] - wpl

        with np.errstate(invalid="ignore", divide="ignore"):
            pl = np.where(wl > 0, wpl / np.where(wl > 0, wl, 1.0), 0.0)
            pr = np.where(wr > 0, wpr / np.where(wr > 0, wr, 1.0), 0.0)
        gini_l = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
        gini_r = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
        child = (wl * gini_l + wr * gini_r) / total_w
        gains = parent - child

        k = int(np.argmax(gains))
        thr = (xs[cut[k] - 1] + xs[cut[k]]) / 2.0
        cand = (-float(gains[k]), f, float(thr))
        if best is None or cand < best:
            best = cand

    if best is None:
        return None
    neg_gain, f, thr = best
    return f, thr, -neg_gain


class OracleDecisionTreeClassifier(DecisionTreeClassifier):
    """DecisionTreeClassifier grown with the per-feature search above."""

    def fit(self, X, y, sample_weight=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p with one label per row")
        if sample_weight is None:
            sample_weight = np.full(len(y), 1.0 / len(y))
        self.root = self._grow(X, y, np.asarray(sample_weight, dtype=float), 0)
        self.fitted = True
        return self

    def _grow(self, X, y, weights, depth) -> _Node:
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf or np.all(y == y[0]):
            return self._leaf(y, weights)

        p = X.shape[1]
        if self.mtry is not None and self.mtry < p:
            features = sorted(self.rng.choice(p, size=self.mtry, replace=False).tolist())
        else:
            features = None
        split = best_gini_split(X, y, weights, self.min_leaf, features)
        if split is None:
            return self._leaf(y, weights)
        f, thr, _ = split
        mask = X[:, f] <= thr
        return _Node(
            feature=f, threshold=thr,
            left=self._grow(X[mask], y[mask], weights[mask], depth + 1),
            right=self._grow(X[~mask], y[~mask], weights[~mask], depth + 1),
        )

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.array([leaf.proba for leaf in _traverse(self.root, X)])

    def _predict(self, X):
        return np.array([leaf.prediction for leaf in _traverse(self.root, X)], dtype=int)


class OracleRegressionTree(RegressionTree):
    """RegressionTree grown with the per-feature search below."""

    def fit(self, X, targets, leaf_value=None):
        X = np.asarray(X, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if leaf_value is None:
            leaf_value = lambda idx: float(np.mean(targets[idx]))
        self.root = self._grow(X, targets, np.arange(len(targets)), 0, leaf_value)
        return self

    def _grow(self, X, targets, idx, depth, leaf_value) -> _Node:
        t = targets[idx]
        if depth >= self.max_depth or len(idx) < 2 * self.min_leaf or np.ptp(t) == 0.0:
            return _Node(prediction=leaf_value(idx), proba=None)
        split = self._best_sse_split(X[idx], t)
        if split is None:
            return _Node(prediction=leaf_value(idx), proba=None)
        f, thr = split
        mask = X[idx, f] <= thr
        return _Node(
            feature=f, threshold=thr,
            left=self._grow(X, targets, idx[mask], depth + 1, leaf_value),
            right=self._grow(X, targets, idx[~mask], depth + 1, leaf_value),
        )

    def _best_sse_split(self, X, t):
        n, p = X.shape
        best = None
        for f in range(p):
            order = np.argsort(X[:, f], kind="stable")
            xs = X[order, f]
            ts = t[order]
            cut = np.flatnonzero(xs[:-1] != xs[1:]) + 1
            cut = cut[(cut >= self.min_leaf) & (n - cut >= self.min_leaf)]
            if cut.size == 0:
                continue
            cs = np.cumsum(ts)
            cs2 = np.cumsum(ts * ts)
            nl = cut.astype(float)
            nr = n - nl
            sl = cs[cut - 1]
            sr = cs[-1] - sl
            sse = (cs2[cut - 1] - sl * sl / nl) + (cs2[-1] - cs2[cut - 1] - sr * sr / nr)
            k = int(np.argmin(sse))
            thr = (xs[cut[k] - 1] + xs[cut[k]]) / 2.0
            cand = (float(sse[k]), f, float(thr))
            if best is None or cand < best:
                best = cand
        if best is None:
            return None
        _, f, thr = best
        return f, thr

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.array([leaf.prediction for leaf in _traverse(self.root, X)])


class OracleGBDTClassifier(GBDTClassifier):
    def _fit(self, X, y):
        y = check_binary_labels(y).astype(float)
        pos = float(np.mean(y))
        self.prior = float(np.log(pos / (1.0 - pos)))
        scores = np.full(len(y), self.prior)
        self.trees = []
        self.stage_scales = []
        self.stage_losses = [log_loss(y, scores)]

        for _ in range(self.n_trees):
            p = sigmoid(scores)
            residual = y - p
            hessian = p * (1.0 - p)

            def newton_leaf(idx, residual=residual, hessian=hessian):
                value = np.sum(residual[idx]) / max(np.sum(hessian[idx]), 1e-12)
                return float(np.clip(value, -_LEAF_CLAMP, _LEAF_CLAMP))

            tree = OracleRegressionTree(self.max_depth, self.min_leaf)
            tree.fit(X, residual, leaf_value=newton_leaf)
            step = self.shrinkage * tree.predict(X)

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


class OracleAdaBoostClassifier(AdaBoostClassifier):
    def _fit(self, X, y):
        y = check_binary_labels(y)
        s = 2 * y - 1
        n = len(y)
        weights = np.full(n, 1.0 / n)
        self.initial_weights = weights.copy()
        self.stumps, self.alphas = [], []
        self.round_errors, self.bound_trace = [], []
        bound = 1.0

        for _ in range(self.n_stumps):
            stump = OracleDecisionTreeClassifier(max_depth=1, min_leaf=1)
            stump.fit(X, y, sample_weight=weights)
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


class OracleRandomForestClassifier(RandomForestClassifier):
    def _fit(self, X, y):
        y = check_binary_labels(y)
        n, p = X.shape
        mtry = self.mtry if self.mtry is not None else int(np.ceil(np.sqrt(p)))
        if not 1 <= mtry <= p:
            raise ValueError(f"mtry must be in [1, {p}]")
        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees = []
        for stream in streams:
            rng = np.random.default_rng(stream)
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = OracleDecisionTreeClassifier(self.max_depth, self.min_leaf, mtry=mtry, rng=rng)
            tree.fit(X[idx], y[idx])
            self.trees.append(tree)
