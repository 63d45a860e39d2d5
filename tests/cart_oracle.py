"""Per-feature CART split search, kept as a reference for `ml.trees`.

These are the package's original split searches and tree growers: at every
node, each feature is argsorted again and scanned on its own, and the best
candidate is kept by comparing (score, feature, threshold) tuples. They score
cuts as the package does (the squared-sum forms, and one sum over the node's
rows for a binary column; a tree without weights, as every forest member,
counts its rows and scores count_scores), so the tests check that the
presorted, one-pass trees and the ensembles built on them produce identical
fitted states and predictions. Slow but simple to audit.

The trees here are the package's original recursive nodes (`_Node`),
routed one row subset at a time. `flatten` writes a tree of them into the
package's preorder node table, so an oracle model's state_dict is what the
package's would be, while its predictions still come from the nodes.

The score formulas used before the squared-sum forms are kept as `old_*`,
with the per-feature search that applied them to every column, so a test can
bound how far a split chosen now is from the best split by the old scores.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from flowline_risk.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GBDTClassifier,
    RandomForestClassifier,
    RegressionTree,
)
from flowline_risk.ml.base import check_binary_labels
from flowline_risk.ml.ensembles import _ALPHA_ERR_FLOOR, _LEAF_CLAMP, log_loss
from flowline_risk.ml.linear import sigmoid


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "prediction", "proba")

    def __init__(self, feature=None, threshold=None, left=None, right=None,
                 prediction=None, proba=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.prediction = prediction
        self.proba = proba

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def flatten(root: _Node) -> SimpleNamespace:
    """root's tree as the package's one-tree node lists: nodes in preorder,
    a leaf's feature -1, threshold 0 and right -1, a split's value and proba 0."""
    flat = SimpleNamespace(feature=[], threshold=[], right=[], value=[], proba=[])

    def visit(node):
        at = len(flat.feature)
        leaf = node.is_leaf
        flat.feature.append(-1 if leaf else node.feature)
        flat.threshold.append(0.0 if leaf else node.threshold)
        flat.right.append(-1)
        flat.value.append(float(node.prediction) if leaf else 0.0)
        flat.proba.append(node.proba if leaf and node.proba is not None else 0.0)
        if not leaf:
            visit(node.left)
            flat.right[at] = len(flat.feature)
            visit(node.right)

    visit(root)
    return flat


def _leaf(y, weights) -> _Node:
    """A leaf of these rows; weights None counts each row once."""
    if weights is None:
        weights = np.ones(len(y))
    w1 = float(np.sum(weights[y == 1]))
    w0 = float(np.sum(weights[y == 0]))
    total = w0 + w1
    proba = w1 / total if total > 0 else 0.0
    return _Node(prediction=1 if w1 > w0 else 0, proba=proba)


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


def gini_impurity(y: np.ndarray, weights: np.ndarray) -> float:
    total = float(np.sum(weights))
    if total <= 0:
        return 0.0
    w1 = float(np.sum(weights[y == 1]))
    p1 = w1 / total
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def binary_columns(X) -> dict:
    """{feature: (low value, threshold)} of the columns of X that hold exactly
    two distinct values; the threshold is their midpoint."""
    out = {}
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])  # -0.0 and 0.0 are one value
        if values.size == 2:
            out[f] = (values[0], (values[0] + values[1]) / 2.0)
    return out


def _sorted_cuts(x, n, min_leaf):
    """Stable sort order of x, its sorted values, and its admissible cuts as
    left-side sizes."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cut = np.flatnonzero(xs[:-1] != xs[1:]) + 1  # left-side sizes
    cut = cut[(cut >= min_leaf) & (n - cut >= min_leaf)]
    return order, xs, cut


def _low_side(x, low_value, n, min_leaf):
    """The rows on a binary column's low side, or None when its cut leaves
    fewer than min_leaf rows on a side."""
    low = x == low_value
    nl = int(np.count_nonzero(low))
    return low if min(nl, n - nl) >= max(min_leaf, 1) else None


def gini_scores(wl, wpl, wr, wpr):
    with np.errstate(invalid="ignore", divide="ignore"):
        return (np.where(wl > 0, wpl * wpl / np.where(wl > 0, wl, 1.0), 0.0)
                + np.where(wr > 0, wpr * wpr / np.where(wr > 0, wr, 1.0), 0.0))


def count_scores(nl, npl, nr, npr):
    """npl^2/nl + npr^2/nr over one common denominator, from whole-number
    counts: exact up to the one rounding of the division."""
    return (npl * npl * nr + npr * npr * nl) / (nl * nr)


def sse_scores(sl, sr, nl, nr):
    return sl * sl / nl + sr * sr / nr


def old_gini_gains(wl, wpl, wr, wpr, total_w, parent):
    """The Gini gains the package scored cuts by before the squared-sum form."""
    with np.errstate(invalid="ignore", divide="ignore"):
        pl = np.where(wl > 0, wpl / np.where(wl > 0, wl, 1.0), 0.0)
        pr = np.where(wr > 0, wpr / np.where(wr > 0, wr, 1.0), 0.0)
    gini_l = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    gini_r = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    child = (wl * gini_l + wr * gini_r) / total_w
    return parent - child


def old_sse(left2, total2, sl, sr, nl, nr):
    """The child SSE the package scored cuts by before the squared-sum form,
    from the left and total sums of squared targets."""
    return (left2 - sl * sl / nl) + (total2 - left2 - sr * sr / nr)


def best_gini_split(X, y, weights, min_leaf: int, features=None, binary=None):
    """Best (feature, threshold, gain) over the given feature subset.

    Gain is the weighted impurity decrease; returns None when no candidate
    respects the min_leaf count on both sides. Splits with zero gain are
    still candidates, which is what lets depth-limited trees carve XOR.
    `binary` is binary_columns() of the fit's matrix (default: of X).
    weights None counts each row once, and scores cuts by count_scores.
    """
    n, p = X.shape
    features = range(p) if features is None else features
    binary = binary_columns(X) if binary is None else binary
    scores_of = gini_scores if weights is not None else count_scores
    weights = np.ones(n) if weights is None else weights
    total_w = float(np.sum(weights))
    w_pos = weights * (y == 1)
    total_p = np.sum(w_pos)

    best, sides = None, None  # (neg_score, feature, threshold) ordering key
    for f in features:
        if f in binary:
            low_value, thr = binary[f]
            low = _low_side(X[:, f], low_value, n, min_leaf)
            if low is None:
                continue
            wl = np.sum(low * weights)
            wpl = np.sum(low * w_pos)
            wr, wpr = total_w - wl, total_p - wpl
            score = scores_of(wl, wpl, wr, wpr)
            cand_sides = (wl, wpl, wr, wpr)
        else:
            order, xs, cut = _sorted_cuts(X[:, f], n, min_leaf)
            if cut.size == 0:
                continue
            cw = np.cumsum(weights[order])
            cwp = np.cumsum(w_pos[order])
            wl = cw[cut - 1]
            wpl = cwp[cut - 1]
            wr = total_w - wl
            wpr = cwp[-1] - wpl
            scores = scores_of(wl, wpl, wr, wpr)
            k = int(np.argmax(scores))
            score, thr = scores[k], (xs[cut[k] - 1] + xs[cut[k]]) / 2.0
            cand_sides = (wl[k], wpl[k], wr[k], wpr[k])
        cand = (-float(score), f, float(thr))
        if best is None or cand < best:
            best, sides = cand, cand_sides

    if best is None:
        return None
    _, f, thr = best
    with np.errstate(invalid="ignore", divide="ignore"):  # a node of zero weight
        gain = old_gini_gains(*(np.array([s]) for s in sides), total_w, gini_impurity(y, weights))
    return f, thr, float(gain[0])


def old_gini_candidates(X, y, weights, min_leaf: int) -> dict:
    """{(feature, threshold): gain} of every admissible cut of X, each column
    sorted and scored as the package did before binary columns were summed
    and before the squared-sum form."""
    n, p = X.shape
    total_w = float(np.sum(weights))
    w_pos = weights * (y == 1)
    parent = gini_impurity(y, weights)
    out = {}
    for f in range(p):
        order, xs, cut = _sorted_cuts(X[:, f], n, min_leaf)
        if cut.size == 0:
            continue
        cw = np.cumsum(weights[order])
        cwp = np.cumsum(w_pos[order])
        wl = cw[cut - 1]
        wpl = cwp[cut - 1]
        gains = old_gini_gains(wl, wpl, total_w - wl, cwp[-1] - wpl, total_w, parent)
        for c, gain in zip(cut, gains):
            out[(f, float((xs[c - 1] + xs[c]) / 2.0))] = float(gain)
    return out


def old_sse_candidates(X, t, min_leaf: int) -> dict:
    """{(feature, threshold): child SSE} of every admissible cut of X, each
    column sorted and scored as the package did before binary columns were
    summed and before the squared-sum form."""
    n, p = X.shape
    out = {}
    for f in range(p):
        order, xs, cut = _sorted_cuts(X[:, f], n, min_leaf)
        if cut.size == 0:
            continue
        ts = t[order]
        cs = np.cumsum(ts)
        cs2 = np.cumsum(ts * ts)
        nl = cut.astype(float)
        sl = cs[cut - 1]
        sse = old_sse(cs2[cut - 1], cs2[-1], sl, cs[-1] - sl, nl, n - nl)
        for c, value in zip(cut, sse):
            out[(f, float((xs[c - 1] + xs[c]) / 2.0))] = float(value)
    return out


class OracleDecisionTreeClassifier(DecisionTreeClassifier):
    """DecisionTreeClassifier grown with the per-feature search above."""

    def fit(self, X, y, sample_weight=None, binary=None):
        """`binary` is binary_columns() of the matrix X's rows were drawn
        from (default: of X)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p with one label per row")
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float)
        self.binary = binary_columns(X) if binary is None else binary
        self.root = self._grow(X, y, sample_weight, 0)
        self._set_table([flatten(self.root)])
        self.fitted = True
        return self

    def _grow(self, X, y, weights, depth) -> _Node:
        """weights None counts each row once."""
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf or np.all(y == y[0]):
            return _leaf(y, weights)

        p = X.shape[1]
        if self.mtry is not None and self.mtry < p:
            features = sorted(self.rng.choice(p, size=self.mtry, replace=False).tolist())
        else:
            features = None
        split = best_gini_split(X, y, weights, self.min_leaf, features, self.binary)
        if split is None:
            return _leaf(y, weights)
        f, thr, _ = split
        mask = X[:, f] <= thr
        return _Node(
            feature=f, threshold=thr,
            left=self._grow(X[mask], y[mask], None if weights is None else weights[mask], depth + 1),
            right=self._grow(X[~mask], y[~mask], None if weights is None else weights[~mask], depth + 1),
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
        self.binary = binary_columns(X)
        self.root = self._grow(X, targets, np.arange(len(targets)), 0, leaf_value)
        self._set_table([flatten(self.root)])
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
        total = np.sum(t)
        best = None
        for f in range(p):
            if f in self.binary:
                low_value, thr = self.binary[f]
                low = _low_side(X[:, f], low_value, n, self.min_leaf)
                if low is None:
                    continue
                sl = np.sum(low * t)
                nl = float(np.count_nonzero(low))
                score = sse_scores(sl, total - sl, nl, n - nl)
            else:
                order, xs, cut = _sorted_cuts(X[:, f], n, self.min_leaf)
                if cut.size == 0:
                    continue
                cs = np.cumsum(t[order])
                nl = cut.astype(float)
                sl = cs[cut - 1]
                scores = sse_scores(sl, cs[-1] - sl, nl, n - nl)
                k = int(np.argmax(scores))
                score, thr = scores[k], (xs[cut[k] - 1] + xs[cut[k]]) / 2.0
            cand = (-float(score), f, float(thr))
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
        self._set_table(self.trees)

    def decision_scores(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = np.full(X.shape[0], self.prior)
        for tree, scale in zip(self.trees, self.stage_scales):
            scores += scale * self.shrinkage * tree.predict(X)
        return scores


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
        self._set_table(self.stumps)

    def decision_scores(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = np.zeros(X.shape[0])
        for stump, alpha in zip(self.stumps, self.alphas):
            scores += alpha * (2 * stump.predict(X) - 1)
        return scores


class OracleRandomForestClassifier(RandomForestClassifier):
    def _fit(self, X, y):
        y = check_binary_labels(y)
        n, p = X.shape
        mtry = self.mtry if self.mtry is not None else int(np.ceil(np.sqrt(p)))
        if not 1 <= mtry <= p:
            raise ValueError(f"mtry must be in [1, {p}]")
        binary = binary_columns(X)
        streams = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees = []
        for stream in streams:
            rng = np.random.default_rng(stream)
            idx = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = OracleDecisionTreeClassifier(self.max_depth, self.min_leaf, mtry=mtry, rng=rng)
            tree.fit(X[idx], y[idx], binary=binary)
            self.trees.append(tree)
        self._set_table(self.trees)

    def vote_shares(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros(X.shape[0])
        for tree in self.trees:
            votes += tree.predict(X)
        return votes / len(self.trees)
