"""CART trees: Gini classification and squared-error regression.

Split search is CART's exhaustive scan over the midpoints of consecutive
distinct feature values (Breiman et al. 1984). A cut is scored by the part of
its criterion that varies with the cut, and the highest score wins:
sl^2/nl + sr^2/nr for squared error, from the left and right target sums and
row counts (the least-squares improvement of Friedman 2001), and
wpl^2/wl + wpr^2/wr for weighted Gini over {0, 1} labels, from the side
weights and positive weights (0 for a side of zero weight).

One grower grows every tree (a classifier, a boosting stage, a stump, a
forest member) from a root of row indices into the fit's matrix, ranked once
per fit: every row, or a bootstrap draw with its repeats in draw order, so no
tree copies its rows. A node is the root's rows that reach it, in root order.

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

A binary column, one with exactly two distinct finite values in the fit's
matrix, has one cut and no place in the blocks. A node scores all the binary
columns it considers from one sum over its rows of the values on each
column's low side, as SPRINT's count matrix does for categorical columns
(Shafer, Agrawal & Mehta 1996); a child of a node that scored every feature
scores only the binary columns that had a cut there, as its rows are a subset
of its parent's. A constant column (one finite value in the fit matrix) has
no cut at any node and is in no block either. Columns with NaNs stay sorted.

Ties between equally good splits resolve to the lowest feature index, then
the lowest threshold, so a fit is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier


class _Nodes:
    """One tree's node lists in preorder, as its grower appends them; right
    indexes this tree's own nodes, and its grower sets it once the left
    subtree is grown."""

    def __init__(self):
        self.feature, self.threshold, self.right, self.value, self.proba = [], [], [], [], []

    def add(self, feature: int = -1, threshold: float = 0.0, value: float = 0.0,
            proba: float = 0.0) -> int:
        """Append a node, a leaf unless given a feature, and return its index."""
        for column, item in zip((self.feature, self.threshold, self.right, self.value, self.proba),
                                (feature, threshold, -1, value, proba)):
            column.append(item)
        return len(self.right) - 1


class TreeTable:
    """Fitted trees as one table of nodes in preorder (the layout of
    scikit-learn's Tree, Pedregosa et al. 2011), stacked as
    geometry.MultiLineArray stacks its members.

    Tree t is nodes tree_start[t]:tree_start[t + 1], its root first. Node i
    splits on column feature[i], or is a leaf where feature[i] is -1. A row
    whose value there is <= threshold[i] goes to node i + 1, the left
    child, next in preorder; any other row (NaN included) goes to right[i].
    A leaf's output is value[i] (and, in a classifier tree, the positive
    weight share proba[i]); a leaf's threshold is 0 and its right -1.
    """

    node_fields: tuple[str, ...] = ("feature", "threshold", "right", "value")
    # arrays of the subclass's fitted state with one entry per tree
    per_tree: tuple[str, ...] = ()

    @property
    def tree_count(self) -> int:
        return len(self.tree_start) - 1

    def _set_table(self, trees) -> None:
        """Stack trees, each a _Nodes or a one-tree table (its right
        indexes its own nodes), in order into this table."""
        sizes = [len(t.feature) for t in trees]
        self.tree_start = np.cumsum([0] + sizes, dtype=np.intp)
        for name in self.node_fields:
            dtype = np.intp if name in ("feature", "right") else float
            setattr(self, name, np.concatenate(
                [np.empty(0, dtype)] + [np.asarray(getattr(t, name), dtype) for t in trees]))
        inner = self.feature >= 0
        self.right[inner] += np.repeat(self.tree_start[:-1], sizes)[inner]

    def _leaves(self, X) -> np.ndarray:
        """(trees x rows) index of the leaf each row of X reaches in each
        tree; every row moves one level down every tree per numpy step."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        node = np.repeat(self.tree_start[:-1], n)
        row = np.tile(np.arange(n), self.tree_count)
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            go_left = X[row[live], self.feature[at]] <= self.threshold[at]
            at = np.where(go_left, at + 1, self.right[at])
            node[live] = at
            live = live[self.feature[at] >= 0]
        return node.reshape(self.tree_count, n)

    def check_state(self, width: int | None = None) -> None:
        """Raise ValueError where the table is not trees in preorder: node
        arrays of unequal shapes, feature, right or tree_start not integers,
        tree offsets that do not rise from 0 to the node count, per_tree
        arrays without one entry per tree, a child not after its node inside
        its tree, or a feature outside a matrix of `width` columns."""
        n = np.size(self.feature)
        if any(np.shape(getattr(self, name)) != (n,) for name in self.node_fields):
            raise ValueError(f"the node arrays {self.node_fields} differ in shape")
        for name in ("feature", "right", "tree_start"):
            array = np.asarray(getattr(self, name))
            if array.size and array.dtype.kind not in "iu":
                raise ValueError(f"{name!r} holds {array.dtype} values, not integers")
        starts = np.asarray(self.tree_start)
        if (starts.ndim != 1 or not starts.size or starts[0] != 0 or starts[-1] != n
                or np.any(np.diff(starts) < 1)):
            raise ValueError(f"tree_start must rise from 0 to the {n} nodes by at least 1 per tree")
        if any(len(getattr(self, name)) != self.tree_count for name in self.per_tree):
            raise ValueError(f"{self.per_tree} must hold one entry for each of {self.tree_count} trees")
        top = np.inf if width is None else width
        bad = self.feature[(self.feature < -1) | (self.feature >= top)]
        if bad.size:
            raise ValueError(f"a node splits on column {bad[0]} of a matrix with {top} columns")
        inner = np.flatnonzero(self.feature >= 0)
        end = starts[np.searchsorted(starts, inner, side="right")]
        right = self.right[inner]
        if np.any((inner + 1 >= end) | (right <= inner + 1) | (right >= end)):
            raise ValueError("a child index is not after its node in the node's tree")


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

    A node is its rows (indices into X in root order, repeats included) plus,
    when its parent scored every feature, what it inherits by partition():
    its share of the parent's sorted block and the parent's binary columns
    with an admissible cut. A node without them stable-sorts the keys of the
    features it scores over its rows, which orders ties by root position as
    a presort of a copy of those rows does. Binary columns (exactly two
    distinct finite values in X) are in no block: each keeps a low-side
    indicator per row and the midpoint of its two values. Constant columns
    (one finite value) are in no block and have no cuts. The root of every
    row has its cuts built once per min_leaf, shared by boosting stages.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.Xt = np.ascontiguousarray(X.T)
        self.keys = rank_keys(X)
        self.rows = np.arange(X.shape[0])  # the root of every row
        lo = np.min(X, axis=0, initial=np.inf)  # NaN in a column makes both NaN
        hi = np.max(X, axis=0, initial=-np.inf)
        finite = np.isfinite(lo) & np.isfinite(hi)
        self.is_binary = is_binary = finite & (lo < hi) & np.all((X == lo) | (X == hi), axis=0)
        self.is_constant = finite & (lo == hi)
        self.low = np.ascontiguousarray((X[:, is_binary] == lo[is_binary]).T)
        # (a + b) / 2 of the two values has the bits of the sorted path's midpoint
        self.mids = (lo[is_binary] + hi[is_binary]) / 2.0
        self._in_block = ~(is_binary | self.is_constant)
        self.sorted = np.flatnonzero(self._in_block)
        self.binary = np.flatnonzero(is_binary)
        self._low_row = np.cumsum(is_binary) - 1  # a binary feature's row of low
        self._go_left = np.zeros(X.shape[0], dtype=bool)
        self._root_cuts: dict[int, _Cuts] = {}

    def cuts(self, rows, inherited, min_leaf: int, features=None) -> "_Cuts":
        """Admissible cuts of `features` (default: all) over the node's rows;
        `inherited` is what the node inherited by partition(), or None."""
        root = features is None and rows is self.rows
        if root and min_leaf in self._root_cuts:
            return self._root_cuts[min_leaf]
        block = None
        if inherited is not None:
            (block, binary), feats = inherited, self.sorted
        elif features is None:
            feats, binary = self.sorted, self.binary
        else:
            feats = np.sort(np.asarray(list(features), dtype=np.intp))
            binary = feats[self.is_binary[feats]]
            feats = feats[self._in_block[feats]]
        if block is None:
            local = np.argsort(self.keys[feats[:, None], rows], axis=1, kind="stable")
            block = rows.take(local)
        low_rows = self._low_row[binary]
        cuts = _Cuts(_SortedCuts(feats, block, self.Xt, min_leaf),
                     _BinaryCuts(binary, self.low[low_rows].take(rows, axis=1),
                                 self.mids[low_rows], rows, min_leaf))
        if root:
            self._root_cuts[min_leaf] = cuts
        return cuts

    def partition(self, rows, inherited, feature, threshold):
        """Children's (rows, inherited). Given the node's inheritance() of
        every feature, each child inherits its share of the block and the
        binary columns; given None, children sort."""
        go_left = self.Xt[feature].take(rows) <= threshold
        left, right = rows[go_left], rows[~go_left]
        if inherited is None:
            return (left, None), (right, None)
        block, binary = inherited
        self._go_left[rows] = go_left
        mask = self._go_left.take(block).ravel()
        p = block.shape[0]
        return ((left, (np.compress(mask, block).reshape(p, left.size), binary)),
                (right, (np.compress(~mask, block).reshape(p, right.size), binary)))


class _Cuts:
    """A node's candidate cuts: those of its sorted block and those of its
    binary columns. parts holds the kinds that have an admissible cut."""

    def __init__(self, sorted_cuts: "_SortedCuts", binary_cuts: "_BinaryCuts"):
        self.sorted, self.binary = sorted_cuts, binary_cuts
        self.block = sorted_cuts.block
        self.parts = [c for c in (sorted_cuts, binary_cuts) if not c.empty]

    def inheritance(self):
        """What this node's children inherit by _Rows.partition(): its
        sorted block and its binary columns with an admissible cut."""
        return self.block, self.binary.feats

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
            # None when every cut of the slab is admissible
            self.admissible = None if n_ok == self.ok.size else np.flatnonzero(self.ok)
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
            if self.admissible is None:
                k = int(np.argmax(scores))
            else:
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
    out = np.multiply(num, num, out=np.empty(den.shape))
    positive = den > 0
    np.divide(out, den, out=out, where=positive)
    np.copyto(out, 0.0, where=~positive)
    return out


def _gini_split(cuts: _Cuts, rows, wv):
    """(feature, threshold, (wl, wpl, wr, wpr) at the cut) maximizing
    wpl^2/wl + wpr^2/wr, which is maximizing the weighted Gini decrease;
    wv stacks the weights and the positive-class weights (2 x n)."""
    if not cuts.parts:
        return None
    total_w = float(np.sum(wv[0][rows]))
    sides, scores = [], []
    for part in cuts.parts:
        (wl, wpl), right = part.sides(wv)
        # right[0], the right side's weight by the cumulative sum, is unused: wr is total_w - wl
        wr, wpr = np.subtract(total_w, wl, out=right[0]), right[1]
        sides.append((wl, wpl, wr, wpr))
        score = _squares_over(wpl, wl)
        score += _squares_over(wpr, wr)
        scores.append(score)
    f, thr, part, k = cuts.best(scores)
    return f, thr, tuple(a.flat[k] for a in sides[part])


def _sse_split(cuts: _Cuts, targets):
    """(feature, threshold) maximizing sl^2/nl + sr^2/nr, which is
    minimizing the children's summed squared error."""
    if not cuts.parts:
        return None
    scores = []
    for part in cuts.parts:
        sl, sr = part.sides(targets)  # arrays of this part alone, so scored in place
        nl = part.left_sizes()
        np.multiply(sl, sl, out=sl)
        sl /= nl
        np.multiply(sr, sr, out=sr)
        sr /= part.m - nl
        sl += sr
        scores.append(sl)
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


class _Grower(TreeTable):
    """A one-tree table grown by CART; with mtry set, each node draws mtry features by rng."""

    mtry: int | None = None

    def _grow(self, data: _Rows, root, targets, split, leaf) -> np.ndarray:
        """Grow this tree over rows `root` of data.X; returns their leaf values
        (an array over data.X's rows). A node is a leaf at max_depth, under 2
        min_leaf rows, where its targets are all equal, or where split(cuts,
        rows) finds no cut; leaf(rows) gives a leaf's (value, proba)."""
        nodes = _Nodes()
        fitted = np.empty(data.X.shape[0])
        p = data.X.shape[1]
        # nodes to grow, each (rows, inherited, depth, the index of the node it
        # is the right child of or -1); taking left children first is preorder
        stack = [(root, None, 0, -1)]
        while stack:
            rows, inherited, depth, parent = stack.pop()
            if parent >= 0:
                nodes.right[parent] = len(nodes.feature)
            best = features = None
            if depth < self.max_depth and len(rows) >= 2 * self.min_leaf and np.ptp(targets[rows]) != 0:
                if self.mtry is not None and self.mtry < p:
                    features = sorted(self.rng.choice(p, size=self.mtry, replace=False).tolist())
                cuts = data.cuts(rows, inherited, self.min_leaf, features)
                best = split(cuts, rows)
            if best is None:
                value, proba = leaf(rows)
                fitted[rows] = value
                nodes.add(value=value, proba=proba)
                continue
            f, thr = best[:2]
            inherit = features is None and depth + 1 < self.max_depth
            left, right = data.partition(rows, cuts.inheritance() if inherit else None, f, thr)
            del cuts  # freed before the children grow, not held to the next split
            at = nodes.add(f, thr)
            stack += [(*right, depth + 1, at), (*left, depth + 1, -1)]
        self._set_table([nodes])
        return fitted


class DecisionTreeClassifier(_Grower, Classifier):
    """Binary CART with Gini impurity and optional per-split feature draws.

    sample_weight support makes the same tree serve as the AdaBoost weak
    learner; rng+mtry make it the random-forest member. It is a one-tree
    table whose leaves hold the majority class as value and the positive
    weight share as proba.
    """

    kind = "TREE"
    node_fields = TreeTable.node_fields + ("proba",)
    fitted_state = node_fields + ("tree_start",)

    def __init__(self, max_depth: int = 6, min_leaf: int = 2,
                 mtry: int | None = None, rng: np.random.Generator | None = None):
        super().__init__()
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.mtry = mtry
        self.rng = rng

    def fit(self, X, y, sample_weight=None):
        # Pure-label and single-class inputs are legal here: they produce a
        # single leaf, which bootstrap resamples and boosting rely on.
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be n x p with one label per row")
        if sample_weight is None:
            sample_weight = np.full(len(y), 1.0 / len(y))
        data = _Rows(X)
        self._fit_rows(data, data.rows, y, np.asarray(sample_weight, dtype=float))
        self.fitted = True
        return self

    def _fit_rows(self, data: _Rows, root, y, weights) -> np.ndarray:
        """Grow over rows `root` of data.X, given labels and weights over data.X's rows."""
        wv = np.stack([weights, weights * (y == 1)])

        def leaf(rows):
            node_y, node_w = y[rows], weights[rows]
            w1 = float(np.sum(node_w[node_y == 1]))
            w0 = float(np.sum(node_w[node_y == 0]))
            total = w0 + w1
            return 1.0 if w1 > w0 else 0.0, w1 / total if total > 0 else 0.0

        return self._grow(data, root, y, lambda cuts, rows: _gini_split(cuts, rows, wv), leaf)

    def predict_proba(self, X) -> np.ndarray:
        return self.proba[self._leaves(X)[0]]

    def _predict(self, X):
        return self.value[self._leaves(X)[0]].astype(int)

    def hyperparameters(self):
        return {"max_depth": self.max_depth, "min_leaf": self.min_leaf, "mtry": self.mtry}


class RegressionTree(_Grower):
    """Squared-error CART for boosting stages, a one-tree table.

    Splits minimize child SSE; leaf values come from leaf_value(indices),
    which lets gradient boosting install Newton-step outputs.
    """

    def __init__(self, max_depth: int = 3, min_leaf: int = 2):
        self.max_depth = max_depth
        self.min_leaf = min_leaf

    def _fit_rows(self, data: _Rows, root, targets, leaf_value) -> np.ndarray:
        """Grow over rows `root` of data.X, given targets over data.X's rows."""
        return self._grow(data, root, targets, lambda cuts, rows: _sse_split(cuts, targets),
                          lambda rows: (leaf_value(rows), 0.0))

    def predict(self, X) -> np.ndarray:
        return self.value[self._leaves(X)[0]]
