"""CART trees: Gini classification and squared-error regression.

Split search is CART's exhaustive scan over the midpoints of consecutive
distinct feature values (Breiman et al. 1984). Every node lists its
admissible cuts once (_Cuts) and picks one with one search (_Cuts.best),
which sums the tree's row quantities over each cut's two sides; only the
scorer that turns those sums into scores differs between tree kinds, as a
scikit-learn splitter swaps only its criterion (Pedregosa et al. 2011). A
cut is scored by the part of its criterion that varies with the cut, and
the highest score wins: sl^2/nl + sr^2/nr for squared error (_sse_scores,
boosting stages), from the left and right target sums and row counts (the
least-squares improvement of Friedman 2001), and wpl^2/wl + wpr^2/wr for
weighted Gini over {0, 1} labels (_gini_scores, AdaBoost stumps), from the
side weights and positive weights (0 for a side of zero weight).

A tree fitted without weights (every forest member, and a CART given no
sample_weight) weighs each row 1, a bootstrap repeat once more, so its side
weights are integer counts: _count_scores scores a cut from them as one
quotient of exact integers. Cuts whose exact scores tie then tie bit for
bit, and the rule below decides them.

One grower grows every tree (a classifier, a boosting stage, a stump, a
forest member) from a root of row indices into the fit's matrix, ranked once
per fit: every row, or a bootstrap draw with its repeats in draw order, so no
tree copies its rows. A node is the root's rows that reach it, in root order.

A node scores the cuts of most features in one numpy pass over cumulative
sums along a sorted block, whose rows hold the node's rows in the stable
sort order of one feature each. Each fit ranks X, which must be finite, once
into dense integer keys that order rows exactly as their floats do (ties
and -0.0 == 0.0 included); a cut is admissible where the keys on its two
sides differ, so only the winning cut's two floats are read, for its
midpoint. A node whose parent scored every feature inherits its block by a
stable partition of the parent's, in O(p m) for m rows (the presorted
attribute lists of SLIQ; Mehta, Agrawal & Rissanen 1996). Every other node
(the root, and each node of a forest tree that draws mtry < p features)
stable-sorts the keys it scores over its own rows (_Rows.sort), so it pays
only for what it scores. Boosted ensembles share one ranking, and the
root's cuts, across all their stages.

A binary column, one with exactly two distinct values in the fit's matrix,
has one cut and no place in the blocks. A node scores all the binary
columns it considers from one sum over its rows of the values on each
column's low side, as SPRINT's count matrix does for categorical columns
(Shafer, Agrawal & Mehta 1996); a child of a node that scored every feature
scores only the binary columns that had a cut there, as its rows are a subset
of its parent's. A constant column (one value in the fit matrix) has no cut
at any node and is in no block either.

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

    X must be finite: a cut between two NaNs, or next to an infinity, would
    get a threshold that sends every row to one side. A node is its rows
    (indices into X in root order, repeats included) plus, when its parent
    scored every feature, what it inherits by partition(): its share of the
    parent's sorted block and the parent's binary columns with an admissible
    cut. A node without them stable-sorts the keys of the features it scores
    over its rows, which orders ties by root position as a presort of a copy
    of those rows does. Binary columns (exactly two distinct values in X) are
    in no block: each keeps a low-side indicator per row and the midpoint of
    its two values. Constant columns (one value) are in no block and have no
    cuts. The root of every row has its cuts built once per min_leaf, shared
    by boosting stages.
    """

    def __init__(self, X: np.ndarray):
        finite = np.isfinite(X).all(axis=0)
        if not finite.all():
            raise ValueError(f"column {np.flatnonzero(~finite)[0]} of X holds a value that "
                             "is not finite; a tree splits finite values only")
        self.X = X
        self.Xt = np.ascontiguousarray(X.T)
        self.keys = rank_keys(X)
        self.rows = np.arange(X.shape[0])  # the root of every row
        lo = np.min(X, axis=0, initial=np.inf)
        hi = np.max(X, axis=0, initial=-np.inf)
        self.is_binary = is_binary = (lo < hi) & np.all((X == lo) | (X == hi), axis=0)
        self.is_constant = lo == hi
        self.low = np.ascontiguousarray((X[:, is_binary] == lo[is_binary]).T)
        # (a + b) / 2 of the two values has the bits of the sorted path's midpoint
        self.mids = (lo[is_binary] + hi[is_binary]) / 2.0
        self._in_block = ~(is_binary | self.is_constant)
        self.sorted = np.flatnonzero(self._in_block)
        self.binary = np.flatnonzero(is_binary)
        self._low_row = np.cumsum(is_binary) - 1  # a binary feature's row of low
        self._go_left = np.zeros(X.shape[0], dtype=bool)
        self._root_cuts: dict[int, _Cuts] = {}

    def node(self, rows, inherited, features):
        """(block features, binary features, block, keys) a node scores: what
        it inherited (keys None), or `features` (None: all) split into the
        two kinds, with the block and its keys sorted by sort()."""
        if inherited is not None:
            block, binary = inherited
            return self.sorted, binary, block, None
        if features is None:
            feats, binary = self.sorted, self.binary
        else:
            feats = np.sort(np.asarray(features, dtype=np.intp))
            feats, binary = feats[self._in_block[feats]], feats[self.is_binary[feats]]
        return (feats, binary) + self.sort(rows, feats)

    def sort(self, rows, feats):
        """(block, keys), feats x rows.size: row r of the block holds `rows`
        in the stable sort order of feature feats[r]'s keys, and row r of
        keys their keys in that order. Each key is packed above its
        position, so the codes are distinct and one value sort of them is
        stable."""
        n, b = self.keys.shape[1], rows.size.bit_length()
        code = self.keys.take(rows + (feats * n)[:, None]).astype(
            np.uint32 if n << b <= 2**32 else np.uint64)
        code <<= b
        code |= np.arange(rows.size, dtype=code.dtype)
        code.sort(axis=1)
        return rows.take(code & ((1 << b) - 1)), code >> b

    def cuts(self, rows, inherited, min_leaf: int, features=None) -> "_Cuts":
        """Admissible cuts of `features` (default: all) over the node's rows;
        `inherited` is what the node inherited by partition(), or None."""
        root = features is None and rows is self.rows
        if root and min_leaf in self._root_cuts:
            return self._root_cuts[min_leaf]
        feats, binary, block, keys = self.node(rows, inherited, features)
        if keys is None:
            keys = self.keys.take(block + (feats * self.keys.shape[1])[:, None])
        cuts = _Cuts(self, rows, feats, block, keys, binary, min_leaf)
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
    """A node's admissible cuts: those of its sorted block and the one cut
    of each of its binary columns, each leaving min_leaf rows on a side.

    Row r of the block is feature feats[r]'s rows (`rows`, the node's rows
    in root order) in sorted order, and keys their rank keys. A cut after
    sorted position j, lo <= j < hi, puts j + 1 rows on the left and is
    admissible (ok) where the keys on its two sides differ. binary holds the
    binary columns whose cut is admissible, low[r] marks the node's rows on
    binary[r]'s low side and nl[r] counts them. Thresholds are midpoints: a
    block cut's of the two floats of Xt beside it, read for the winning cut
    only, and a binary column's in mids.
    """

    def __init__(self, data: _Rows, rows, feats, block, keys, binary, min_leaf: int):
        self.rows, self.feats, self.block = rows, feats, block
        # data's arrays, not data: it caches root cuts, and a cycle would keep
        # a fit's _Rows alive until the cycle collector runs
        self.Xt, self.mids, self.low_row = data.Xt, data.mids, data._low_row
        self.m = m = rows.size
        ml = max(min_leaf, 1)
        self.lo, self.hi = lo, hi = ml - 1, m - ml  # admissible last-left positions
        self.ok = keys[:, lo:hi] != keys[:, lo + 1:hi + 1] if feats.size and lo < hi else None
        self.binary = binary if lo < hi else binary[:0]
        if self.binary.size:
            low = data.low[self.low_row[binary]].take(rows, axis=1)
            nl = low.sum(axis=1)
            keep = (nl >= ml) & (nl <= hi)
            self.binary, self.low, self.nl = binary[keep], low[keep], nl[keep]

    def inheritance(self):
        """What this node's children inherit by _Rows.partition(): its
        sorted block and its binary columns with an admissible cut."""
        return self.block, self.binary

    def best(self, values, score):
        """(feature, threshold) of the first best admissible cut in (feature,
        threshold) order, or None where no cut is admissible.

        values (n, or q x n) are quantities over the fit's rows. Each cut's
        score is score(nl, left, m, node, total): left holds the values'
        sums over its left rows and total their sums over all m rows in the
        same order (the last of a cumulative sum along the block, or the
        node's sum for a binary column), nl its left-side sizes, and node
        the sums of values over the node's rows in root order (np.sum).
        Binary columns are summed one C-ordered row of the m values times
        the low side's indicator each, not by a BLAS product, so their bits
        do not depend on the BLAS thread count.
        """
        m, lo, hi = self.m, self.lo, self.hi
        node = values.take(self.rows, axis=-1)
        sums = node.sum(axis=-1)
        best = None
        if self.ok is not None:
            cs = values.take(self.block, axis=-1).cumsum(axis=-1, dtype=float)
            nl = np.arange(lo + 1, hi + 1, dtype=float)
            k = _first_best(score(nl, cs[..., lo:hi], m, sums, cs[..., -1:]), self.ok)
            if k is not None:
                r, j = divmod(k[0], hi - lo)
                f, at = self.feats[r], self.block[r, lo + j:lo + j + 2]
                best = (k[1], f, (self.Xt[f, at[0]] + self.Xt[f, at[1]]) / 2.0)
        if self.binary.size:
            left = np.multiply(self.low, node[..., None, :], order="C").sum(axis=-1)
            scores = score(self.nl, left, m, sums, sums[..., None])
            k = int(scores.argmax())
            f = self.binary[k]
            if best is None or scores[k] > best[0] or (scores[k] == best[0] and f < best[1]):
                return int(f), float(self.mids[self.low_row[f]])
        return None if best is None else (int(best[1]), float(best[2]))


def _first_best(scores, ok):
    """(k, score) of the first highest of scores (flat index k) where ok
    holds, or None where it holds nowhere. The first maximum of all scores
    is it when admissible; else masking by multiplication finds it unless
    the masked maximum is not a positive admissible score (a NaN, an
    infinity times 0, or no positive score)."""
    k = int(scores.argmax())
    if ok.flat[k] and scores.flat[k] > 0:
        return k, scores.flat[k]
    scores *= ok
    k = int(scores.argmax())
    if scores.flat[k] > 0 and ok.flat[k]:
        return k, scores.flat[k]
    admissible = np.flatnonzero(ok)
    if not admissible.size:
        return None
    k = int(admissible[scores.take(admissible).argmax()])
    return k, scores.flat[k]


def _count_scores(nl, npl, m: int, positives, total=None):
    """npl^2/nl + npr^2/nr for side sizes nl and nr = m - nl with positive
    counts npl and npr = positives - npl, as one quotient
    (m npl^2 - 2 positives nl npl + positives^2 nl) / (nl nr). Given whole
    numbers (Python ints, or integer or float arrays), every term is exact
    (below 2^53 for m < 2^17) and only the division rounds: equal exact
    scores get equal bits, and the order of two unequal ones is never
    reversed. As a _Cuts.best scorer of a boolean positive indicator,
    positives is the node's count; total is unused."""
    score = npl * m
    score -= 2 * positives * nl
    score *= npl
    score += positives * positives * nl
    return score / (nl * (m - nl))


def _squares_over(num, den):
    """num^2 / den, and 0 where den is not positive (a side of zero weight)."""
    out = np.multiply(num, num, out=np.empty(den.shape))
    positive = den > 0
    np.divide(out, den, out=out, where=positive)
    np.copyto(out, 0.0, where=~positive)
    return out


def _gini_scores(nl, left, m: int, node, total):
    """wpl^2/wl + wpr^2/wr, which orders cuts as the weighted Gini decrease
    does, of the weights and positive-class weights (2 x n): the right
    weight wr is the node's weight less wl, and wpr the positive total less
    wpl."""
    (wl, wpl), wpr = left, total[1] - left[1]
    score = _squares_over(wpl, wl)
    score += _squares_over(wpr, node[0] - wl)
    return score


def _sse_scores(nl, left, m: int, node, total):
    """sl^2/nl + sr^2/nr of the targets, which orders cuts as the children's
    summed squared error does (least when highest)."""
    sr = total - left
    score = np.multiply(left, left)
    score /= nl
    np.multiply(sr, sr, out=sr)
    sr /= m - nl
    score += sr
    return score


class _Grower(TreeTable):
    """A one-tree table grown by CART; with mtry set, each node draws mtry features by rng."""

    mtry: int | None = None

    def _grow(self, data: _Rows, root, targets, values, score, leaf) -> np.ndarray:
        """Grow this tree over rows `root` of data.X; returns their leaf values
        (an array over data.X's rows). A node is a leaf at max_depth, under 2
        min_leaf rows, where its targets are all equal, or where its _Cuts
        has no admissible cut; else it splits at the cut best(values, score)
        picks. leaf(rows) gives a leaf's (value, proba)."""
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
                    features = self.rng.choice(p, size=self.mtry, replace=False)
                cuts = data.cuts(rows, inherited, self.min_leaf, features)
                best = cuts.best(values, score)
            if best is None:
                value, proba = leaf(rows)
                fitted[rows] = value
                nodes.add(value=value, proba=proba)
                continue
            f, thr = best
            inherit = features is None and depth + 1 < self.max_depth
            left, right = data.partition(rows, cuts.inheritance() if inherit else None, f, thr)
            del cuts  # freed before the children grow, not held to the next split
            at = nodes.add(f, thr)
            stack += [(*right, depth + 1, at), (*left, depth + 1, -1)]
        self._set_table([nodes])
        return fitted


class DecisionTreeClassifier(_Grower, Classifier):
    """Binary CART with Gini impurity and optional per-split feature draws.

    Without sample_weight every row weighs 1, so every node statistic is an
    integer count and _count_scores scores cuts exactly (a random-forest
    member counts its bootstrap repeats this way; rng+mtry make it one).
    With sample_weight it is the AdaBoost weak learner, scored by
    _gini_scores. It is a one-tree table whose leaves hold the majority class
    as value and the positive weight share as proba.
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
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float)
        data = _Rows(X)
        self._fit_rows(data, data.rows, y, sample_weight)
        self.fitted = True
        return self

    def _fit_rows(self, data: _Rows, root, y, weights) -> np.ndarray:
        """Grow over rows `root` of data.X, given labels over data.X's rows
        and their weights, or None to count each row once."""
        if weights is None:
            positive = y == 1

            def leaf(rows):
                k = int(np.count_nonzero(positive.take(rows)))
                return 1.0 if 2 * k > rows.size else 0.0, k / rows.size if rows.size else 0.0

            return self._grow(data, root, y, positive, _count_scores, leaf)

        wv = np.stack([weights, weights * (y == 1)])

        def leaf(rows):
            node_y, node_w = y[rows], weights[rows]
            w1 = float(np.sum(node_w[node_y == 1]))
            w0 = float(np.sum(node_w[node_y == 0]))
            total = w0 + w1
            return 1.0 if w1 > w0 else 0.0, w1 / total if total > 0 else 0.0

        return self._grow(data, root, y, wv, _gini_scores, leaf)

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
        return self._grow(data, root, targets, targets, _sse_scores,
                          lambda rows: (leaf_value(rows), 0.0))

    def predict(self, X) -> np.ndarray:
        return self.value[self._leaves(X)[0]]
