"""CART trees: Gini classification and squared-error regression.

Split search is CART's exhaustive scan over the midpoints of consecutive
distinct feature values (Breiman et al. 1984). A node scores every
admissible cut of its features in one numpy pass over cumulative sums along
a sorted block, whose rows hold the node's rows in the stable sort order of
one feature each. Blocks come from one of two sources:

- Presorted attribute lists (SLIQ; Mehta, Agrawal & Rissanen 1996) for
  trees that score every feature at every node: boosting stages, stumps,
  and trees without a feature draw. Each fit argsorts X once into a p x n
  matrix of row indices, and a node that splits partitions it stably into
  its children's blocks in O(p m) for m rows. Boosted ensembles share one
  presort, and the root's cuts, across all their stages; a forest tree
  with mtry = p builds its presort from rank keys by integer sort.
- Rank keys for trees that draw mtry < p features per node (the random
  forest). Dense ranks of X, kept as small unsigned integers, order rows
  exactly as their floats do, ties, -0.0 == 0.0 and NaNs last included. A
  node stable-sorts only its drawn features' keys over its own rows in
  increasing row order, so it pays for what it scores and its children
  need only their row lists. A forest ranks its training matrix once per
  fit and hands each tree the keys of its bootstrap rows.

Both sources give the same block, so a tree grows the same either way.
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


def sort_keys(keys: np.ndarray) -> np.ndarray:
    """presort() of the matrix that rank_keys() ranked, by integer sort."""
    return np.argsort(keys, axis=1, kind="stable")


class _SortedRows:
    """One fit's X and its presorted row matrix, cut and partitioned per node.

    A node is its row indices in increasing order (what per-node sums run
    over, so their bits match a scan of the node's own rows) and its p x m
    block of the presorted matrix. The root's cuts are built once per
    min_leaf, so boosting stages that share this object share them too.
    """

    def __init__(self, X: np.ndarray, order: np.ndarray | None = None):
        self.X = X
        self.Xt = np.ascontiguousarray(X.T)
        self.order = presort(X) if order is None else order
        self._go_left = np.zeros(X.shape[0], dtype=bool)
        self._root_cuts: dict[int, _Cuts] = {}

    def cuts(self, order: np.ndarray, min_leaf: int, features=None) -> "_Cuts":
        """Admissible cuts of the node's sorted block, restricted to `features`."""
        if features is None and order is self.order:
            if min_leaf not in self._root_cuts:
                self._root_cuts[min_leaf] = self._cuts(order, min_leaf, None)
            return self._root_cuts[min_leaf]
        return self._cuts(order, min_leaf, features)

    def _cuts(self, order, min_leaf, features) -> "_Cuts":
        if features is None:
            feats = np.arange(order.shape[0])
        else:
            feats = np.sort(np.asarray(list(features), dtype=np.intp))
            order = order[feats]
        return _Cuts(feats, order, self.Xt, min_leaf)

    def partition(self, order, rows, feature, threshold, deeper: bool):
        """Children's (rows, block); a block only when the children may split."""
        go_left = self.X[rows, feature] <= threshold
        left, right = rows[go_left], rows[~go_left]
        if not deeper:
            return (left, None), (right, None)
        self._go_left[rows] = go_left
        mask = self._go_left.take(order)
        p = order.shape[0]
        return (left, order[mask].reshape(p, -1)), (right, order[~mask].reshape(p, -1))


class _RankedRows:
    """One fit's X and rank keys; each node sorts the keys it scores.

    A node's block is its own row list, in increasing order: cuts() stable-
    sorts the drawn features' keys over those rows, which orders ties by
    row as the presort does, and partition() only splits the row list.
    """

    def __init__(self, X: np.ndarray, keys: np.ndarray | None = None):
        self.X = X
        self.Xt = np.ascontiguousarray(X.T)
        self.keys = rank_keys(X) if keys is None else keys
        self.order = np.arange(X.shape[0])  # the root's block: every row

    def cuts(self, rows: np.ndarray, min_leaf: int, features) -> "_Cuts":
        """Admissible cuts of the drawn `features` over the node's rows."""
        feats = np.sort(np.asarray(list(features), dtype=np.intp))
        local = np.argsort(self.keys[feats[:, None], rows], axis=1, kind="stable")
        block = rows.take(local)
        return _Cuts(feats, block, self.Xt, min_leaf)

    def partition(self, block, rows, feature, threshold, deeper: bool):
        """Children's (rows, block); each child's block is its rows."""
        go_left = self.X[rows, feature] <= threshold
        left, right = rows[go_left], rows[~go_left]
        return (left, left), (right, right)


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


def _gini_split(data, block, rows, y, weights, w_pos, min_leaf, features=None):
    cuts = data.cuts(block, min_leaf, features)
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


def _sse_split(data: _SortedRows, order, targets, min_leaf):
    cuts = data.cuts(order, min_leaf)
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
    data = _SortedRows(X, None)
    return _gini_split(data, data.order, np.arange(X.shape[0]), y, weights,
                       weights * (y == 1), min_leaf, features)


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

    def fit(self, X, y, sample_weight=None, keys=None, data=None):
        """Grow the tree.

        A tree that draws mtry < p features per node sorts rank keys per
        node; any other tree partitions a presort. `keys` is rank_keys(X)
        and `data` a _SortedRows of X, when the caller already has them.
        """
        # Pure-label and single-class inputs are legal here: they produce a
        # single leaf, which bootstrap resamples and boosting rely on.
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p with one label per row")
        if sample_weight is None:
            sample_weight = np.full(len(y), 1.0 / len(y))
        weights = np.asarray(sample_weight, dtype=float)
        if self.mtry is not None and self.mtry < X.shape[1]:
            data = _RankedRows(X, keys)
        elif data is None:
            data = _SortedRows(X, None if keys is None else sort_keys(keys))
        self.root = self._grow(data, data.order, np.arange(len(y)), y, weights,
                               weights * (y == 1), 0)
        self.fitted = True
        return self

    def _leaf(self, y, weights) -> _Node:
        w1 = float(np.sum(weights[y == 1]))
        w0 = float(np.sum(weights[y == 0]))
        total = w0 + w1
        proba = w1 / total if total > 0 else 0.0
        return _Node(prediction=1 if w1 > w0 else 0, proba=proba)

    def _grow(self, data, block, rows, y, weights, w_pos, depth) -> _Node:
        node_y = y[rows]
        if depth >= self.max_depth or len(rows) < 2 * self.min_leaf or np.all(node_y == node_y[0]):
            return self._leaf(node_y, weights[rows])

        p = data.X.shape[1]
        if self.mtry is not None and self.mtry < p:
            features = sorted(self.rng.choice(p, size=self.mtry, replace=False).tolist())
        else:
            features = None
        split = _gini_split(data, block, rows, y, weights, w_pos, self.min_leaf, features)
        if split is None:
            return self._leaf(node_y, weights[rows])
        f, thr, _ = split
        deeper = depth + 1 < self.max_depth
        (lrows, lblock), (rrows, rblock) = data.partition(block, rows, f, thr, deeper)
        return _Node(
            feature=f, threshold=thr,
            left=self._grow(data, lblock, lrows, y, weights, w_pos, depth + 1),
            right=self._grow(data, rblock, rrows, y, weights, w_pos, depth + 1),
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

        `data` is a _SortedRows of X, when the caller already has one.
        """
        X = np.asarray(X, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if leaf_value is None:
            leaf_value = lambda idx: float(np.mean(targets[idx]))
        fitted = np.empty(len(targets))
        if data is None:
            data = _SortedRows(X)
        self.root = self._grow(data, data.order, np.arange(len(targets)), targets, 0,
                               leaf_value, fitted)
        return fitted

    def _grow(self, data, order, rows, targets, depth, leaf_value, fitted) -> _Node:
        if (depth >= self.max_depth or len(rows) < 2 * self.min_leaf
                or np.ptp(targets[rows]) == 0.0):
            return self._leaf(rows, leaf_value, fitted)
        split = _sse_split(data, order, targets, self.min_leaf)
        if split is None:
            return self._leaf(rows, leaf_value, fitted)
        f, thr = split
        deeper = depth + 1 < self.max_depth
        (lrows, lorder), (rrows, rorder) = data.partition(order, rows, f, thr, deeper)
        return _Node(
            feature=f, threshold=thr,
            left=self._grow(data, lorder, lrows, targets, depth + 1, leaf_value, fitted),
            right=self._grow(data, rorder, rrows, targets, depth + 1, leaf_value, fitted),
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
