"""CART trees: Gini classification and squared-error regression.

Split search is CART's exhaustive scan over the midpoints of consecutive
distinct feature values (Breiman et al. 1984). A node scores every
admissible cut of its features in one numpy pass over cumulative sums along
a sorted block, whose rows hold the node's rows in the stable sort order of
one feature each.

Each fit ranks X once into dense integer keys that order rows exactly as
their floats do (ties, -0.0 == 0.0 and NaNs last included). A node whose
parent scored every feature inherits its block by a stable partition of the
parent's, in O(p m) for m rows (the presorted attribute lists of SLIQ;
Mehta, Agrawal & Rissanen 1996). Every other node (the root, and each node
of a forest tree that draws mtry < p features) stable-sorts the keys it
scores over its own rows, so it pays only for what it scores. Boosted
ensembles share one ranking, and the root's cuts, across all their stages.

Ties between equally good splits resolve to the lowest feature index, then
the lowest threshold (one row-major argmax over feature and cut), so a fit
is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier


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

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"prediction": self.prediction, "proba": self.proba}
        return {
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "_Node":
        if "feature" not in d:
            return _Node(prediction=d["prediction"], proba=d["proba"])
        return _Node(
            feature=d["feature"], threshold=d["threshold"],
            left=_Node.from_dict(d["left"]), right=_Node.from_dict(d["right"]),
        )


def _leaf_values(root: _Node, X: np.ndarray, field: str, dtype) -> np.ndarray:
    """Route all rows of X down the tree at once; each row gets its leaf's field."""
    out = np.empty(X.shape[0], dtype=dtype)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = getattr(node, field)
        elif idx.size:
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
    return out


def gini_impurity(y: np.ndarray, weights: np.ndarray) -> float:
    total = float(np.sum(weights))
    if total <= 0:
        return 0.0
    w1 = float(np.sum(weights[y == 1]))
    p1 = w1 / total
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def presort(X: np.ndarray) -> np.ndarray:
    """p x n matrix of row indices; row f is the stable sort order of X[:, f]."""
    return np.argsort(np.asarray(X, dtype=float).T, axis=1, kind="stable")


def rank_keys(X: np.ndarray) -> np.ndarray:
    """p x n dense ranks of X's columns, from one stable float sort.

    Equal values share a rank (-0.0 equals 0.0, and every NaN takes the top
    rank), so the keys of any row list, bootstrap repeats included, stable-
    sort into the same permutation as its floats. The dtype is the smallest
    unsigned one that holds n, which numpy sorts by radix for n < 65536.
    """
    X = np.asarray(X, dtype=float)
    order = presort(X)
    xs = np.take_along_axis(X.T, order, axis=1)
    steps = (xs[:, 1:] != xs[:, :-1]) & ~np.isnan(xs[:, :-1])  # NaNs sort last
    ranked = np.zeros(order.shape, dtype=np.min_scalar_type(X.shape[0]))
    np.cumsum(steps, axis=1, dtype=ranked.dtype, out=ranked[:, 1:])
    keys = np.empty_like(ranked)
    np.put_along_axis(keys, order, ranked, axis=1)
    return keys


class _Rows:
    """One fit's X and rank keys, from which each node gets its sorted block.

    A node is its row indices in increasing order (what per-node sums run
    over, so their bits match a scan of the node's own rows) plus, when its
    parent scored every feature, the p x m block it inherits by partition().
    A node without one stable-sorts the keys of the features it scores over
    its rows, which orders ties by row as a presort does. The root's cuts of
    every feature are built once per min_leaf, so boosting stages that share
    this object share them too.
    """

    def __init__(self, X: np.ndarray, keys: np.ndarray | None = None):
        self.X = X
        self.Xt = np.ascontiguousarray(X.T)
        self.keys = rank_keys(X) if keys is None else keys
        self.rows = np.arange(X.shape[0])  # the root's rows
        self._go_left = np.zeros(X.shape[0], dtype=bool)
        self._root_cuts: dict[int, _Cuts] = {}

    def cuts(self, rows, block, min_leaf: int, features=None) -> "_Cuts":
        """Admissible cuts of `features` (default: all) over the node's rows;
        `block` is the node's inherited block or None."""
        root = features is None and rows is self.rows
        if root and min_leaf in self._root_cuts:
            return self._root_cuts[min_leaf]
        if features is None:
            feats = np.arange(self.keys.shape[0])
        else:
            feats = np.sort(np.asarray(list(features), dtype=np.intp))
        if block is None:
            local = np.argsort(self.keys[feats[:, None], rows], axis=1, kind="stable")
            block = rows.take(local)
        cuts = _Cuts(feats, block, self.Xt, min_leaf)
        if root:
            self._root_cuts[min_leaf] = cuts
        return cuts

    def partition(self, rows, block, feature, threshold):
        """Children's (rows, block). Given the node's block of every feature,
        each child inherits its share of it; given None, children sort."""
        go_left = self.X[rows, feature] <= threshold
        left, right = rows[go_left], rows[~go_left]
        if block is None:
            return (left, None), (right, None)
        self._go_left[rows] = go_left
        mask = self._go_left.take(block)
        p = block.shape[0]
        return (left, block[mask].reshape(p, -1)), (right, block[~mask].reshape(p, -1))


class _Cuts:
    """The cuts of a sorted block that leave min_leaf rows on each side.

    Row r of the block is feature feats[r]'s rows in sorted order, with
    values xs[r] gathered from the fit's p x n transpose Xt. A cut after sorted position j puts j + 1 rows on the left
    and is admissible where the values on its two sides differ. Scores are
    computed from cumulative sums along the rows: over the whole slab of
    positions when most of them are admissible, else only at a gathered
    list of the admissible ones (a one-hot column has a single cut).
    """

    def __init__(self, feats, block, Xt, min_leaf: int):
        xs = Xt.take(block + (feats * Xt.shape[1])[:, None])
        self.feats, self.block, self.xs = feats, block, xs
        m = block.shape[1]
        ml = max(min_leaf, 1)
        self.lo, self.hi = ml - 1, m - ml  # admissible last-left positions
        self.ok = xs[:, self.lo:self.hi] != xs[:, self.lo + 1:self.hi + 1]
        n_ok = np.count_nonzero(self.ok)
        self.empty = n_ok == 0
        self.dense = 2 * n_ok >= self.ok.size
        if not self.dense:
            fi, j = np.nonzero(self.ok)
            self.fi, self.at = fi, fi * m + j + self.lo

    def left(self, sums: np.ndarray) -> np.ndarray:
        """Each cut's cumulative sum through its last left row."""
        return sums[:, self.lo:self.hi] if self.dense else sums.take(self.at)

    def total(self, sums: np.ndarray) -> np.ndarray:
        """Each cut's row total, aligned with left()."""
        return sums[:, -1:] if self.dense else sums[:, -1].take(self.fi)

    def left_sizes(self) -> np.ndarray:
        if self.dense:
            return np.arange(self.lo + 1, self.hi + 1, dtype=float)
        return (self.at % self.block.shape[1] + 1).astype(float)

    def best(self, scores: np.ndarray, maximize: bool) -> tuple[int, float, float]:
        """(feature, midpoint threshold, score) of the first best cut in
        row-major (feature, cut) order."""
        pick = np.argmax if maximize else np.argmin
        if self.dense:
            k = int(pick(np.where(self.ok, scores, -np.inf if maximize else np.inf)))
            if not self.ok.flat[k]:  # every admissible score is infinite
                k = int(np.flatnonzero(self.ok)[pick(scores[self.ok])])
            row, j = divmod(k, self.ok.shape[1])
            at = row * self.block.shape[1] + j + self.lo
        else:
            k = int(pick(scores))
            row, at = self.fi[k], self.at[k]
        thr = (self.xs.take(at) + self.xs.take(at + 1)) / 2.0
        return int(self.feats[row]), float(thr), float(scores.flat[k])


def _gini_split(cuts: _Cuts, rows, y, weights, w_pos):
    if cuts.empty:
        return None
    node_w = weights[rows]
    total_w = float(np.sum(node_w))
    parent = gini_impurity(y[rows], node_w)

    cw = np.cumsum(weights.take(cuts.block), axis=1)
    cwp = np.cumsum(w_pos.take(cuts.block), axis=1)
    wl = cuts.left(cw)
    wpl = cuts.left(cwp)
    wr = total_w - wl
    wpr = cuts.total(cwp) - wpl

    pl = np.divide(wpl, wl, out=np.zeros_like(wl), where=wl > 0)
    pr = np.divide(wpr, wr, out=np.zeros_like(wr), where=wr > 0)
    gini_l = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    gini_r = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    child = (wl * gini_l + wr * gini_r) / total_w
    return cuts.best(parent - child, maximize=True)


def _sse_split(cuts: _Cuts, targets):
    if cuts.empty:
        return None
    ts = targets.take(cuts.block)
    cs = np.cumsum(ts, axis=1)
    cs2 = np.cumsum(ts * ts, axis=1)
    nl = cuts.left_sizes()
    nr = cuts.block.shape[1] - nl
    sl = cuts.left(cs)
    sr = cuts.total(cs) - sl
    left2 = cuts.left(cs2)
    sse = (left2 - sl * sl / nl) + (cuts.total(cs2) - left2 - sr * sr / nr)
    return cuts.best(sse, maximize=False)[:2]


def best_gini_split(X, y, weights, min_leaf: int, features=None):
    """Best (feature, threshold, gain) over the given feature subset.

    Gain is the weighted impurity decrease; returns None when no candidate
    respects the min_leaf count on both sides. Splits with zero gain are
    still candidates, which is what lets depth-limited trees carve XOR.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    weights = np.asarray(weights, dtype=float)
    data = _Rows(X)
    cuts = data.cuts(data.rows, None, min_leaf, features)
    return _gini_split(cuts, data.rows, y, weights, weights * (y == 1))


class DecisionTreeClassifier(Classifier):
    """Binary CART with Gini impurity and optional per-split feature draws.

    sample_weight support makes the same tree serve as the AdaBoost weak
    learner; rng+mtry make it the random-forest member.
    """

    kind = "TREE"

    def __init__(self, max_depth: int = 6, min_leaf: int = 2,
                 mtry: int | None = None, rng: np.random.Generator | None = None):
        super().__init__()
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.mtry = mtry
        self.rng = rng
        self.root: _Node | None = None

    def fit(self, X, y, sample_weight=None, data=None):
        """Grow the tree; `data` is a _Rows of X, when the caller has one."""
        # Pure-label and single-class inputs are legal here: they produce a
        # single leaf, which bootstrap resamples and boosting rely on.
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p with one label per row")
        if sample_weight is None:
            sample_weight = np.full(len(y), 1.0 / len(y))
        weights = np.asarray(sample_weight, dtype=float)
        if data is None:
            data = _Rows(X)
        self.root = self._grow(data, data.rows, None, y, weights, weights * (y == 1), 0)
        self.fitted = True
        return self

    def _leaf(self, y, weights) -> _Node:
        w1 = float(np.sum(weights[y == 1]))
        w0 = float(np.sum(weights[y == 0]))
        total = w0 + w1
        proba = w1 / total if total > 0 else 0.0
        return _Node(prediction=1 if w1 > w0 else 0, proba=proba)

    def _grow(self, data, rows, block, y, weights, w_pos, depth) -> _Node:
        node_y = y[rows]
        if depth >= self.max_depth or len(rows) < 2 * self.min_leaf or np.all(node_y == node_y[0]):
            return self._leaf(node_y, weights[rows])

        p = data.X.shape[1]
        if self.mtry is not None and self.mtry < p:
            features = sorted(self.rng.choice(p, size=self.mtry, replace=False).tolist())
        else:
            features = None
        cuts = data.cuts(rows, block, self.min_leaf, features)
        split = _gini_split(cuts, rows, y, weights, w_pos)
        if split is None:
            return self._leaf(node_y, weights[rows])
        f, thr, _ = split
        inherit = features is None and depth + 1 < self.max_depth
        (lrows, lblock), (rrows, rblock) = data.partition(
            rows, cuts.block if inherit else None, f, thr)
        del cuts  # freed before the subtrees grow: held per level, it slows forest fits
        return _Node(
            feature=f, threshold=thr,
            left=self._grow(data, lrows, lblock, y, weights, w_pos, depth + 1),
            right=self._grow(data, rrows, rblock, y, weights, w_pos, depth + 1),
        )

    def predict_proba(self, X) -> np.ndarray:
        return _leaf_values(self.root, np.asarray(X, dtype=float), "proba", float)

    def _predict(self, X):
        return _leaf_values(self.root, X, "prediction", int)

    def hyperparameters(self):
        return {"max_depth": self.max_depth, "min_leaf": self.min_leaf, "mtry": self.mtry}

    def state_dict(self):
        return {"root": self.root.to_dict()}

    def load_state(self, state):
        self.root = _Node.from_dict(state["root"])
        self.fitted = True


class RegressionTree:
    """Squared-error CART for boosting stages.

    Splits minimize child SSE; leaf values come from leaf_value(indices),
    which lets gradient boosting install Newton-step outputs.
    """

    def __init__(self, max_depth: int = 3, min_leaf: int = 2):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root: _Node | None = None

    def fit(self, X, targets, leaf_value=None):
        self.fit_predict(X, targets, leaf_value)
        return self

    def fit_predict(self, X, targets, leaf_value=None, data=None) -> np.ndarray:
        """Grow the tree and return its prediction for every training row.

        `data` is a _Rows of X, when the caller already has one.
        """
        X = np.asarray(X, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if leaf_value is None:
            leaf_value = lambda idx: float(np.mean(targets[idx]))
        fitted = np.empty(len(targets))
        if data is None:
            data = _Rows(X)
        self.root = self._grow(data, data.rows, None, targets, 0, leaf_value, fitted)
        return fitted

    def _grow(self, data, rows, block, targets, depth, leaf_value, fitted) -> _Node:
        if (depth >= self.max_depth or len(rows) < 2 * self.min_leaf
                or np.ptp(targets[rows]) == 0.0):
            return self._leaf(rows, leaf_value, fitted)
        cuts = data.cuts(rows, block, self.min_leaf)
        split = _sse_split(cuts, targets)
        if split is None:
            return self._leaf(rows, leaf_value, fitted)
        f, thr = split
        inherit = depth + 1 < self.max_depth
        (lrows, lblock), (rrows, rblock) = data.partition(
            rows, cuts.block if inherit else None, f, thr)
        del cuts  # freed before the subtrees grow: held per level, it slows forest fits
        return _Node(
            feature=f, threshold=thr,
            left=self._grow(data, lrows, lblock, targets, depth + 1, leaf_value, fitted),
            right=self._grow(data, rrows, rblock, targets, depth + 1, leaf_value, fitted),
        )

    @staticmethod
    def _leaf(rows, leaf_value, fitted) -> _Node:
        value = leaf_value(rows)
        fitted[rows] = value
        return _Node(prediction=value, proba=None)

    def predict(self, X) -> np.ndarray:
        return _leaf_values(self.root, np.asarray(X, dtype=float), "prediction", float)

    def to_dict(self):
        return self.root.to_dict()

    @staticmethod
    def from_dict(d, max_depth=3, min_leaf=2):
        tree = RegressionTree(max_depth, min_leaf)
        tree.root = _Node.from_dict(d)
        return tree
