"""CART trees: Gini classification and squared-error regression.

Split search is CART's exhaustive scan over the midpoints of consecutive
distinct feature values (Breiman et al. 1984). A cut is scored by the part of
its criterion that varies with the cut, and the highest score wins:
sl^2/nl + sr^2/nr for squared error, from the left and right target sums and
row counts (the least-squares improvement of Friedman 2001), and
wpl^2/wl + wpr^2/wr for weighted Gini over {0, 1} labels, from the side
weights and positive weights (0 for a side of zero weight).

A node scores the cuts of most features in one numpy pass over cumulative
sums along a sorted block, whose rows hold the node's rows in the stable sort
order of one feature each. Each fit ranks X once into dense integer keys that
order rows exactly as their floats do (ties, -0.0 == 0.0 and NaNs last
included). A node whose parent scored every feature inherits its block by a
stable partition of the parent's, in O(p m) for m rows (the presorted
attribute lists of SLIQ; Mehta, Agrawal & Rissanen 1996). Every other node
(the root, and each node of a forest tree that draws mtry < p features)
stable-sorts the keys it scores over its own rows, so it pays only for what
it scores. Boosted ensembles share one ranking, and the root's cuts, across
all their stages.

A binary column, one with exactly two distinct finite values in the fit
matrix (for a forest, the forest's matrix), has one cut and no place in the
blocks. A node scores all the binary
columns it considers from one sum over its rows of the values on each
column's low side, as SPRINT's count matrix does for categorical columns
(Shafer, Agrawal & Mehta 1996). A constant column (one finite value in the
fit matrix) has no cut at any node and is in no block either. Columns with
NaNs stay sorted.

Ties between equally good splits resolve to the lowest feature index, then
the lowest threshold, so a fit is a pure function of its inputs.
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
    """One fit's X, rank keys and binary columns, from which each node gets its cuts.

    A node is its row indices in increasing order (what per-node sums run
    over, so their bits match a scan of the node's own rows) plus, when its
    parent scored every feature, the sorted block it inherits by partition().
    A node without one stable-sorts the keys of the features it scores over
    its rows, which orders ties by row as a presort does. Binary columns
    (exactly two distinct finite values in X, or in the matrix take() drew
    X's rows from) are in no block: each keeps a low-side indicator per row
    and the midpoint of its two values. Constant columns (one finite value
    there) are in no block and have no cuts. The root's
    cuts of every feature are built once per min_leaf, so boosting stages that
    share this object share them too.
    """

    def __init__(self, X: np.ndarray, keys: np.ndarray | None = None, columns=None):
        """`keys` and `columns` (is_binary, is_constant, low, mids) describe
        X, when the caller has them from the matrix that X's rows were drawn from."""
        self.X = X
        self.Xt = np.ascontiguousarray(X.T)
        self.keys = rank_keys(X) if keys is None else keys
        self.rows = np.arange(X.shape[0])  # the root's rows
        if columns is None:
            lo = np.min(X, axis=0, initial=np.inf)  # NaN in a column makes both NaN
            hi = np.max(X, axis=0, initial=-np.inf)
            finite = np.isfinite(lo) & np.isfinite(hi)
            is_binary = finite & (lo < hi) & np.all((X == lo) | (X == hi), axis=0)
            # (a + b) / 2 of the two values has the bits of the sorted path's midpoint
            columns = (is_binary, finite & (lo == hi),
                       np.ascontiguousarray((X[:, is_binary] == lo[is_binary]).T),
                       (lo[is_binary] + hi[is_binary]) / 2.0)
        self.is_binary, self.is_constant, self.low, self.mids = columns
        self._in_block = ~(self.is_binary | self.is_constant)
        self.sorted = np.flatnonzero(self._in_block)
        self.binary = np.flatnonzero(self.is_binary)
        self._low_row = np.cumsum(self.is_binary) - 1  # a binary feature's row of low
        low_count = np.count_nonzero(self.low, axis=1)
        self._fewest = np.minimum(low_count, X.shape[0] - low_count)  # rows on a side
        self._go_left = np.zeros(X.shape[0], dtype=bool)
        self._root_cuts: dict[int, _Cuts] = {}

    def take(self, idx) -> "_Rows":
        """Rows idx of X (repeats allowed) as a fit of their own, keeping
        X's ranking, binary and constant columns."""
        return _Rows(self.X[idx], self.keys[:, idx],
                     (self.is_binary, self.is_constant, self.low[:, idx], self.mids))

    def cuts(self, rows, block, min_leaf: int, features=None) -> "_Cuts":
        """Admissible cuts of `features` (default: all) over the node's rows;
        `block` is the node's inherited block of the sorted features or None."""
        root = features is None and rows is self.rows
        if root and min_leaf in self._root_cuts:
            return self._root_cuts[min_leaf]
        if features is None:
            feats, low_rows = self.sorted, np.arange(self.binary.size)
        else:
            feats = np.sort(np.asarray(list(features), dtype=np.intp))
            low_rows = self._low_row[feats[self.is_binary[feats]]]
            feats = feats[self._in_block[feats]]
        # a binary column with fewer than min_leaf rows on a side in the
        # whole fit has no admissible cut at any node
        low_rows = low_rows[self._fewest[low_rows] >= max(min_leaf, 1)]
        if block is None:
            local = np.argsort(self.keys[feats[:, None], rows], axis=1, kind="stable")
            block = rows.take(local)
        cuts = _Cuts(_SortedCuts(feats, block, self.Xt, min_leaf),
                     _BinaryCuts(self.binary[low_rows], self.low[low_rows].take(rows, axis=1),
                                 self.mids[low_rows], rows, min_leaf))
        if root:
            self._root_cuts[min_leaf] = cuts
        return cuts

    def partition(self, rows, block, feature, threshold):
        """Children's (rows, block). Given the node's block of every sorted
        feature, each child inherits its share of it; given None, children sort."""
        go_left = self.X[rows, feature] <= threshold
        left, right = rows[go_left], rows[~go_left]
        if block is None:
            return (left, None), (right, None)
        self._go_left[rows] = go_left
        mask = self._go_left.take(block)
        p = block.shape[0]
        return ((left, block[mask].reshape(p, left.size)),
                (right, block[~mask].reshape(p, right.size)))


class _Cuts:
    """A node's candidate cuts: those of its sorted block and those of its
    binary columns. parts holds the kinds that have an admissible cut."""

    def __init__(self, sorted_cuts: "_SortedCuts", binary_cuts: "_BinaryCuts"):
        self.sorted, self.binary = sorted_cuts, binary_cuts
        self.block = sorted_cuts.block
        self.parts = [c for c in (sorted_cuts, binary_cuts) if not c.empty]

    def best(self, scores) -> tuple[int, float, int, int]:
        """(feature, threshold, part, k) of the best cut over the parts, given
        each part's scores: the highest score, then the lowest feature, then
        the lowest threshold. The cut is cut k of parts[part]."""
        best = None
        for i, (cuts, part_scores) in enumerate(zip(self.parts, scores)):
            score, f, thr, k = cuts.best(part_scores)
            if best is None or score > best[0] or (score == best[0] and f < best[1]):
                best = (score, f, thr, i, k)
        _, f, thr, part, k = best
        return int(f), float(thr), part, k


class _SortedCuts:
    """The cuts of a sorted block that leave min_leaf rows on each side.

    Row r of the block is feature feats[r]'s rows in sorted order, with
    values xs[r] gathered from the fit's p x n transpose Xt. A cut after
    sorted position j puts j + 1 rows on the left and is admissible where the
    values on its two sides differ. Sums come from cumulative sums along the
    rows: over the whole slab of positions when most of them are admissible,
    else only at a gathered list of the admissible ones.
    """

    def __init__(self, feats, block, Xt, min_leaf: int):
        xs = Xt.take(block + (feats * Xt.shape[1])[:, None])
        self.feats, self.block, self.xs = feats, block, xs
        self.m = m = block.shape[1]
        ml = max(min_leaf, 1)
        self.lo, self.hi = ml - 1, m - ml  # admissible last-left positions
        self.ok = xs[:, self.lo:self.hi] != xs[:, self.lo + 1:self.hi + 1]
        n_ok = np.count_nonzero(self.ok)
        self.empty = n_ok == 0
        self.dense = 2 * n_ok >= self.ok.size
        if self.dense:
            self.admissible = np.flatnonzero(self.ok)
        else:
            fi, j = np.nonzero(self.ok)
            self.fi, self.at = fi, fi * m + j + self.lo

    def sides(self, values: np.ndarray):
        """Sums of values (n, or q x n) over each cut's left and right rows."""
        cs = np.cumsum(values.take(self.block, axis=-1), axis=-1)
        if self.dense:
            left, total = cs[..., self.lo:self.hi], cs[..., -1:]
        else:
            flat = cs.reshape(cs.shape[:-2] + (-1,))
            left, total = flat[..., self.at], cs[..., -1][..., self.fi]
        return left, total - left

    def left_sizes(self) -> np.ndarray:
        if self.dense:
            return np.arange(self.lo + 1, self.hi + 1, dtype=float)
        return (self.at % self.m + 1).astype(float)

    def best(self, scores: np.ndarray):
        """(score, feature, midpoint threshold, k) of the first best cut in
        row-major (feature, cut) order; k indexes scores flat."""
        if self.dense:
            k = int(self.admissible[np.argmax(scores.take(self.admissible))])
            row, j = divmod(k, self.ok.shape[1])
            at = row * self.m + j + self.lo
        else:
            k = int(np.argmax(scores))
            row, at = self.fi[k], self.at[k]
        thr = (self.xs.take(at) + self.xs.take(at + 1)) / 2.0
        return scores.flat[k], self.feats[row], thr, k


class _BinaryCuts:
    """The one cut of each of a node's binary columns, where it leaves
    min_leaf rows on each side. low[r] marks which of the node's rows (in row
    order) are on feature feats[r]'s low side; sums over them are one numpy
    reduction per column, not a BLAS product, so their bits do not depend on
    the BLAS thread count."""

    def __init__(self, feats, low, mids, rows, min_leaf: int):
        nl = low.sum(axis=1)
        ml = max(min_leaf, 1)
        keep = (nl >= ml) & (rows.size - nl >= ml)
        self.feats, self.low, self.mids, self.rows = feats[keep], low[keep], mids[keep], rows
        self.nl = nl[keep].astype(float)
        self.m = rows.size
        self.empty = not self.feats.size

    def sides(self, values: np.ndarray):
        """Sums of values (n, or q x n) over each cut's left and right rows.

        Each sum runs along one C-ordered row of the m values times the low
        side's 0/1 indicator, so it has the bits of np.sum over that row alone."""
        node = values.take(self.rows, axis=-1)
        left = np.multiply(self.low, node[..., None, :], order="C").sum(axis=-1)
        return left, node.sum(axis=-1, keepdims=True) - left

    def left_sizes(self) -> np.ndarray:
        return self.nl

    def best(self, scores: np.ndarray):
        k = int(np.argmax(scores))
        return scores[k], self.feats[k], self.mids[k], k


def _squares_over(num, den):
    """num^2 / den, and 0 where den is not positive (a side of zero weight)."""
    return np.divide(num * num, den, out=np.zeros(den.shape), where=den > 0)


def _gini_split(cuts: _Cuts, rows, wv):
    """(feature, threshold, (wl, wpl, wr, wpr) at the cut) maximizing
    wpl^2/wl + wpr^2/wr, which is maximizing the weighted Gini decrease;
    wv stacks the weights and the positive-class weights (2 x n)."""
    if not cuts.parts:
        return None
    total_w = float(np.sum(wv[0][rows]))
    sides, scores = [], []
    for part in cuts.parts:
        (wl, wpl), (_, wpr) = part.sides(wv)
        wr = total_w - wl
        sides.append((wl, wpl, wr, wpr))
        scores.append(_squares_over(wpl, wl) + _squares_over(wpr, wr))
    f, thr, part, k = cuts.best(scores)
    return f, thr, tuple(a.flat[k] for a in sides[part])


def _sse_split(cuts: _Cuts, targets):
    """(feature, threshold) maximizing sl^2/nl + sr^2/nr, which is
    minimizing the children's summed squared error."""
    if not cuts.parts:
        return None
    scores = []
    for part in cuts.parts:
        sl, sr = part.sides(targets)
        nl = part.left_sizes()
        scores.append(sl * sl / nl + sr * sr / (part.m - nl))
    return cuts.best(scores)[:2]


def _gini_gain(wl, wpl, wr, wpr, total_w, parent) -> float:
    """Weighted Gini decrease of a cut with these side weights."""
    pl = wpl / wl if wl > 0 else 0.0
    pr = wpr / wr if wr > 0 else 0.0
    gini_l = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    gini_r = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    return float(parent - (wl * gini_l + wr * gini_r) / total_w)


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
    split = _gini_split(cuts, data.rows, np.stack([weights, weights * (y == 1)]))
    if split is None:
        return None
    f, thr, sides = split
    return f, thr, _gini_gain(*sides, float(np.sum(weights)), gini_impurity(y, weights))


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
        self.root = self._grow(data, data.rows, None, y, np.stack([weights, weights * (y == 1)]), 0)
        self.fitted = True
        return self

    def _leaf(self, y, weights) -> _Node:
        w1 = float(np.sum(weights[y == 1]))
        w0 = float(np.sum(weights[y == 0]))
        total = w0 + w1
        proba = w1 / total if total > 0 else 0.0
        return _Node(prediction=1 if w1 > w0 else 0, proba=proba)

    def _grow(self, data, rows, block, y, wv, depth) -> _Node:
        node_y = y[rows]
        if depth >= self.max_depth or len(rows) < 2 * self.min_leaf or np.all(node_y == node_y[0]):
            return self._leaf(node_y, wv[0][rows])

        p = data.X.shape[1]
        if self.mtry is not None and self.mtry < p:
            features = sorted(self.rng.choice(p, size=self.mtry, replace=False).tolist())
        else:
            features = None
        cuts = data.cuts(rows, block, self.min_leaf, features)
        split = _gini_split(cuts, rows, wv)
        if split is None:
            return self._leaf(node_y, wv[0][rows])
        f, thr, _ = split
        inherit = features is None and depth + 1 < self.max_depth
        (lrows, lblock), (rrows, rblock) = data.partition(
            rows, cuts.block if inherit else None, f, thr)
        del cuts  # freed before the subtrees grow: held per level, it slows forest fits
        return _Node(
            feature=f, threshold=thr,
            left=self._grow(data, lrows, lblock, y, wv, depth + 1),
            right=self._grow(data, rrows, rblock, y, wv, depth + 1),
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
