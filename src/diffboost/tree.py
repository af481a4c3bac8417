"""Single CART regression tree with best-first (leaf-wise) growth.

Splits minimize sum of squared error via exact greedy search over every
distinct value boundary (no histogram binning).  Rows with a missing value at
the split feature are tried on both sides during search; the gain-maximizing
side is frozen into the node as its default direction, so prediction never
needs imputation.  Categorical features split on category sets, scanned in
mean-target order.

Two batched scans search each leaf: the block search over numeric columns
without missing cells, and ``_best_cut``, which owns the missing-value policy,
over numeric columns with missing cells and categorical columns.  Both numeric
searches read one presorted leaf layout, sorted once at the root.

Missing markers: NaN in any column; additionally any negative code in a
categorical column (the reserved "unseen category" encoding) routes like a
missing value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "TreeParams",
    "DecisionTree",
    "fit_tree",
    "predict_tree",
    "apply_tree",
    "gain_importance",
    "replace_leaf_values",
    "NUMERIC",
    "CATEGORICAL",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Splits must beat this fraction of the node SSE; guards against splits that
# only exist because of float rounding in centered prefix sums.
_MIN_GAIN_REL = 1e-12


@dataclass(frozen=True)
class TreeParams:
    num_leaves: int = 101
    min_samples_leaf: int = 20
    learning_rate: float = 1.0
    max_categorical_cardinality: int = 256

    def __post_init__(self):
        if self.num_leaves < 2:
            raise ValueError("num_leaves must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")


@dataclass(frozen=True)
class DecisionTree:
    """Flat node table; node 0 is the root, leaves have ``feature == -1``.

    Numeric rule: go left iff value <= threshold.  Categorical rule: go left
    iff code is in ``left_categories[node]``.  Missing/unknown values follow
    ``default_left``.  Leaf values already include the learning-rate factor.
    """

    feature: np.ndarray          # int32, -1 for leaves
    threshold: np.ndarray        # float64, NaN for leaves and categorical nodes
    left_categories: tuple       # per node: sorted int64 codes, or None
    default_left: np.ndarray     # bool
    children_left: np.ndarray    # int32, -1 for leaves
    children_right: np.ndarray   # int32, -1 for leaves
    value: np.ndarray            # float64, NaN for internal nodes
    split_gain: np.ndarray       # float64, SSE reduction of each split (0 at leaves)
    n_features: int

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())


# ---------------------------------------------------------------------------
# fitting

def _presort(X, columns):
    """{column: row ids in ascending value order, missing cells last} (stable)."""
    return {int(f): np.argsort(X[:, f], kind="stable").astype(np.int64) for f in columns}


class _OpenLeaf:
    """Working state for a not-yet-finalized leaf during growth.

    Every numeric column is one row of three (q, n) matrices aligned
    position-by-position: row ids, feature values, and targets, each in that
    column's ascending value order with missing cells last.  Columns without
    a missing cell anywhere in the fit come first, then the columns with
    missing cells, whose counts of present cells are ``n_present``.  Keeping
    values resident avoids random gathers in the hot split search; partitions
    are order-preserving boolean compresses.
    """

    __slots__ = ("node_id", "rows", "idx", "xv", "yv", "n_present", "best")

    def __init__(self, node_id, rows, idx, xv, yv, n_present):
        self.node_id = node_id
        self.rows = rows
        self.idx = idx                          # (q, n) int64 row ids
        self.xv = xv                            # (q, n) float64 sorted values
        self.yv = yv                            # (q, n) float64 targets in that order
        self.n_present = n_present              # int64 per column with missing cells, or None
        self.best = None                        # (gain, feature, thr, cats, default_left)


def _goes_left(col, thr, cats, default_left):
    """Which values of ``col`` a node sends left; fitting and prediction share it.

    Numeric nodes send ``value <= thr`` left.  Categorical nodes look each code
    up in a boolean table of ``cats``; codes past the table's last slot are
    never left.  Missing values (NaN, or a negative code) follow
    ``default_left``.
    """
    if cats is None:
        miss = np.isnan(col)
        with np.errstate(invalid="ignore"):
            left = col <= thr
    else:
        miss = np.isnan(col) | (col < 0)
        top = int(cats.max()) + 1 if cats.size else 0
        lut = np.zeros(top + 1, dtype=bool)
        lut[cats] = True
        left = lut[np.where(miss | (col > top), top, col).astype(np.int64)]
    left[miss] = default_left
    return left


def _midpoint(a, b):
    """Threshold between sorted values a < b; the midpoint unless it rounds onto b."""
    thr = 0.5 * (a + b)
    return a if thr >= b else thr


def _best_cut(n, msl, min_gain, n_l, s_l, dead, ix, n_miss, sum_miss, alone_ok):
    """Best cut of a leaf's ``n`` rows over a batch of columns whose present
    rows stand in ordered positions.  Cut ``i`` of column ``j`` leaves
    ``i + 1`` positions left, holding ``n_l[j, i]`` present rows whose centred
    targets sum to ``s_l[j, i]``, unless ``dead[j, i]``.  The column's
    ``n_miss[j]`` missing rows (summing to ``sum_miss[j]``; None: no missing
    row in the leaf) go left or right of each cut, or, where ``alone_ok``,
    alone on the left (0 positions; alone on the right is the same partition
    and loses the tie).  Each side needs ``msl`` rows; the gain is
    ``s*s/n_l + s*s/n_r``.

    Returns (column, gain, positions left, missing left) of the best cut if
    its gain beats ``min_gain``, else None.  Tie order: gain, then lower
    column, then fewer positions left, then missing-left.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        def scan(n_l, s_l):
            # each column's best cut: (gain, positions left); argmax keeps the first
            n_r = n - n_l
            sq = s_l * s_l
            gain = sq / n_l + sq / n_r
            gain[dead | (n_l < msl) | (n_r < msl)] = -np.inf
            i = gain.argmax(axis=1)
            return gain[ix, i], i + 1

        if sum_miss is None:                         # missing-left and -right coincide
            g_left, p_left = scan(n_l, s_l)
            g_col = g_left
        else:
            g_left, p_left = scan(n_l + n_miss[:, None], s_l + sum_miss[:, None])
            g_right, p_right = scan(n_l, s_l)
            n_rest = n - n_miss
            g_alone = np.where(alone_ok & (n_miss >= msl) & (n_rest >= msl),
                               sum_miss * sum_miss / n_miss + sum_miss * sum_miss / n_rest,
                               -np.inf)
            g_col = np.maximum(np.maximum(g_left, g_right), g_alone)
    j = int(np.argmax(g_col))
    if not g_col[j] > min_gain:
        return None
    cands = [(g_left[j], p_left[j], True)]
    if sum_miss is not None:
        cands += [(g_right[j], p_right[j], False), (g_alone[j], 0, True)]
    g, pos, miss_left = max(cands, key=lambda c: (c[0], -c[1], c[2]))
    return j, float(g), int(pos), miss_left


class _Fit:
    """Shared fitting state.

    Two searches, each over a batch of columns at once.  Numeric columns
    without any missing cell (the "block") use uncentred prefix sums and a
    table of reciprocals.  Numeric columns containing missing cells (centred
    prefix sums) and categorical columns (one offset ``bincount``) feed
    ``_best_cut``.  Both numeric searches read one leaf layout (see
    ``_OpenLeaf``).
    """

    def __init__(self, X, y, kinds, params):
        self.X = X
        self.y = y
        self.is_cat = np.asarray([k == CATEGORICAL for k in kinds])
        self.params = params
        self.n, self.p = X.shape
        has_nan = np.isnan(X).any(axis=0)
        self.complete = ~self.is_cat & ~has_nan
        self.block_features = np.flatnonzero(self.complete)
        self.sparse_features = np.flatnonzero(~self.is_cat & has_nan)
        self.num_features = np.concatenate([self.block_features, self.sparse_features])
        self.cat_features = np.flatnonzero(self.is_cat)
        self.mask = np.empty(self.n, dtype=bool)
        # reusable scratch for the block split search; sized once at the root
        q = max(len(self.block_features), 1)
        self.k1 = np.arange(1.0, self.n + 1.0)
        if len(self.block_features):
            self.recip = 1.0 / self.k1       # recip[m - 1] = 1/m, for every leaf's gain weights
        self.cs_scratch = np.empty((q, self.n))
        self.gain_scratch = np.empty((q, self.n))
        self.valid_scratch = np.empty((q, self.n), dtype=bool)
        self.sparse_ix = np.arange(len(self.sparse_features))
        if len(self.cat_features):
            self._encode_categorical()

    def open_leaf(self, node_id, rows, idx, xv, yv):
        """Wrap a leaf's layout, counting the present cells of each column
        with missing cells (its NaNs sit at the end of its row)."""
        n_present = None
        if len(self.sparse_features):
            n_present = rows.shape[0] - np.isnan(xv[len(self.block_features):]).sum(axis=1)
        return _OpenLeaf(node_id, rows, idx, xv, yv, n_present)

    def _encode_categorical(self):
        """Code every categorical cell once, offset so that column j owns bins
        ``j*w .. j*w + w - 1`` of a single ``bincount``, with ``w = k + 2``.

        A column's ``w`` bins are ``k`` code bins, then one for missing cells
        (NaN or a negative code), then one for codes at or above
        ``max_categorical_cardinality``; a node holding such a code does not
        split on that column.
        """
        c = len(self.cat_features)
        raw = self.X[:, self.cat_features]
        miss = np.isnan(raw) | (raw < 0)
        over = ~miss & (raw >= self.params.max_categorical_cardinality)
        k = max(int(np.max(raw, where=~(miss | over), initial=-1.0)) + 1, 2)
        raw[miss] = k
        raw[over] = k + 1
        offsets = (k + 2) * np.arange(c)
        raw += offsets
        self.cat_codes = raw.astype(np.intp)
        self.cat_k = k
        self.cat_miss_bins = offsets + k
        self.cat_ix = np.arange(c)
        self.cat_cuts = np.arange(k - 1)

    def _best_in_block(self, leaf, n, mean, msl, min_gain):
        """One vectorized pass over all complete numeric features; the best
        cut (ties to the lower feature) if its gain beats ``min_gain``."""
        lo, hi = msl, n - msl                  # legal left-side sizes
        q = len(self.block_features)
        if lo > hi:
            return None
        xv = leaf.xv[:q]
        cs = np.cumsum(leaf.yv[:q], axis=1, out=self.cs_scratch[:q, :n])
        cs -= mean * self.k1[:n]               # prefix sums of centered targets
        s = cs[:, lo - 1:hi]
        gain = np.multiply(s, s, out=self.gain_scratch[:q, :hi - lo + 1])
        # 1/k + 1/(n-k) for left sizes k = lo..hi
        gain *= self.recip[lo - 1:hi] + self.recip[n - hi - 1:n - lo][::-1]
        bad = np.less_equal(xv[:, lo:hi + 1], xv[:, lo - 1:hi],
                            out=self.valid_scratch[:q, :hi - lo + 1])
        gain[bad] = -np.inf
        j = np.argmax(gain, axis=1)
        g_best = gain[np.arange(q), j]
        f_loc = int(np.argmax(g_best))
        g = float(g_best[f_loc])
        if not g > min_gain:
            return None
        k = int(j[f_loc]) + lo
        thr = _midpoint(float(xv[f_loc, k - 1]), float(xv[f_loc, k]))
        return (g, int(self.block_features[f_loc]), thr, None, True)

    def _best_with_missing(self, leaf, n, mean, msl, min_gain):
        """``_best_cut`` over the numeric columns with missing cells: positions
        are present values in ascending order, a cut's threshold is the
        midpoint, and missing rows alone on the left cut at -inf."""
        q = len(self.block_features)
        xv, n_present = leaf.xv[q:], leaf.n_present
        n_miss = n - n_present
        cs = np.cumsum(leaf.yv[q:] - mean, axis=1)   # centred prefix sums, missing rows last
        # centred sums over the whole leaf are zero; a column without present
        # cells in the leaf has no candidate, whatever its sum reads
        sum_miss = np.where(n_miss > 0, -cs[self.sparse_ix, n_present - 1], 0.0)
        dead = ~(xv[:, 1:] > xv[:, :-1])             # also past the present values (NaN)
        best = _best_cut(n, msl, min_gain, self.k1[:n - 1], cs[:, :-1], dead, self.sparse_ix,
                         n_miss, sum_miss, True)
        if best is None:
            return None
        j, g, pos, miss_left = best
        thr = _midpoint(xv[j, pos - 1], xv[j, pos]) if pos else -np.inf
        return (g, int(self.sparse_features[j]), float(thr), None, miss_left)

    def _best_categorical(self, leaf, n, mean, msl, min_gain):
        """``_best_cut`` over the categorical columns: positions are present
        categories by mean target (ties by code), a left set is a prefix, and
        a column holding a code at or above the cardinality cap has no cut."""
        c, k = len(self.cat_features), self.cat_k
        yc = self.y[leaf.rows] - mean
        # only the root holds every row, in order
        leaf_codes = self.cat_codes if n == self.n else self.cat_codes[leaf.rows]
        flat = leaf_codes.ravel()
        cnt = np.bincount(flat, minlength=c * (k + 2)).reshape(c, k + 2)
        ysum = np.bincount(flat, weights=np.repeat(yc, c),
                           minlength=c * (k + 2)).reshape(c, k + 2)
        n_miss = cnt[:, k]
        usable = cnt[:, k + 1] == 0
        cnt, ysum = cnt[:, :k], ysum[:, :k]

        # absent categories sort last; the stable sort breaks mean ties by code
        present = cnt > 0
        means = np.full((c, k), np.inf)
        np.divide(ysum, cnt, out=means, where=present)
        order = np.argsort(means, axis=1, kind="stable")
        cum_n = np.cumsum(cnt[self.cat_ix[:, None], order], axis=1)[:, :-1]
        cum_s = np.cumsum(ysum[self.cat_ix[:, None], order], axis=1)[:, :-1]
        g_count = present.sum(axis=1)
        dead = (self.cat_cuts >= (g_count - 1)[:, None]) | ~usable[:, None]
        sum_miss = None
        if n_miss.any():
            sum_miss = np.zeros(c)
            for j in np.flatnonzero(n_miss):
                # np.sum rounds pairwise, unlike the missing bin's running sum
                sum_miss[j] = yc[leaf_codes[:, j] == self.cat_miss_bins[j]].sum()
        best = _best_cut(n, msl, min_gain, cum_n, cum_s, dead, self.cat_ix,
                         n_miss, sum_miss, usable)
        if best is None:
            return None
        j, g, pos, miss_left = best
        cats = np.sort(order[j, :pos]).astype(np.int64)
        return (g, int(self.cat_features[j]), np.nan, cats, miss_left)

    def evaluate(self, leaf: _OpenLeaf):
        """Find the best split of ``leaf`` and cache it on the leaf."""
        n = leaf.rows.shape[0]
        msl = self.params.min_samples_leaf
        # summed in the first complete column's order, else in row order
        y_leaf = leaf.yv[0] if len(self.block_features) else self.y[leaf.rows]
        if n < 2 * msl or y_leaf.min() == y_leaf.max():
            leaf.best = None
            return
        mean = float(y_leaf.sum() / n)          # y_leaf.mean() bit for bit, with less overhead
        sse = float(y_leaf @ y_leaf) - n * mean * mean
        min_gain = _MIN_GAIN_REL * max(sse, 0.0)

        cands = []
        if len(self.block_features):
            cands.append(self._best_in_block(leaf, n, mean, msl, min_gain))
        if len(self.sparse_features):
            cands.append(self._best_with_missing(leaf, n, mean, msl, min_gain))
        if len(self.cat_features):
            cands.append(self._best_categorical(leaf, n, mean, msl, min_gain))
        # across features: higher gain, then the lower feature
        leaf.best = max((c for c in cands if c is not None),
                        key=lambda c: (c[0], -c[1]), default=None)

    def split(self, leaf: _OpenLeaf, node_left: int, node_right: int):
        """Partition ``leaf`` by its cached best split into two open leaves."""
        gain, f, thr, cats, default_left = leaf.best

        if cats is None and self.complete[f]:
            # a cut on a complete column is a prefix of that column's order,
            # whose layout row is its rank among the complete columns
            j = int(self.complete[:f].sum())
            k = int(np.searchsorted(leaf.xv[j], thr, side="right"))
            rows_left = leaf.idx[j, :k].copy()
            rows_right = leaf.idx[j, k:].copy()
            self.mask[rows_left] = True
            self.mask[rows_right] = False
        else:
            go_left = _goes_left(self.X[leaf.rows, f], thr, cats, default_left)
            self.mask[leaf.rows] = go_left
            rows_left = leaf.rows[go_left]
            rows_right = leaf.rows[~go_left]

        q = leaf.idx.shape[0]
        if not q:                               # no numeric column: the empty layout is never read
            return [_OpenLeaf(node_left, rows_left, leaf.idx, leaf.xv, leaf.yv, None),
                    _OpenLeaf(node_right, rows_right, leaf.idx, leaf.xv, leaf.yv, None)]
        keep = self.mask[leaf.idx]
        children = []
        for node_id, rows, sel in ((node_left, rows_left, keep), (node_right, rows_right, ~keep)):
            m = rows.shape[0]
            children.append(self.open_leaf(node_id, rows, leaf.idx[sel].reshape(q, m),
                                           leaf.xv[sel].reshape(q, m),
                                           leaf.yv[sel].reshape(q, m)))
        return children


def fit_tree(
    features: np.ndarray,
    targets: np.ndarray,
    feature_kinds: Sequence[str],
    params: TreeParams = TreeParams(),
    presorted: Optional[dict] = None,
) -> DecisionTree:
    """Grow a regression tree by repeatedly splitting the highest-gain leaf.

    Args:
        features: (n, p) float array; NaN marks missing, categorical columns
            hold non-negative integer codes (negative codes route as missing).
        targets: (n,) finite float array.
        feature_kinds: per-column ``NUMERIC`` or ``CATEGORICAL``.
        params: growth limits; leaf values are scaled by ``params.learning_rate``.
        presorted: optional {feature: row ids sorted ascending by value with
            missing last} to skip the root argsort of static columns.

    Ties between equal-gain splits resolve to the lower feature index, then
    the lower threshold (smaller category group), then default-left.
    """
    X = np.ascontiguousarray(features, dtype=np.float64)
    y = np.ascontiguousarray(targets, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be 2-D")
    n, p = X.shape
    if n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    if y.shape != (n,):
        raise ValueError(f"targets shape {y.shape} does not match {n} rows")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    if len(feature_kinds) != p:
        raise ValueError(f"feature_kinds has {len(feature_kinds)} entries for {p} columns")

    ctx = _Fit(X, y, feature_kinds, params)
    orders = dict(presorted or {})
    orders.update(_presort(X, [f for f in ctx.num_features if f not in orders]))
    root_idx = np.array([orders[f] for f in ctx.num_features], dtype=np.int64).reshape(-1, n)
    root = ctx.open_leaf(0, np.arange(n, dtype=np.int64), root_idx,
                         X[root_idx, ctx.num_features[:, None]], y[root_idx])

    # node table, sized for the most nodes the tree can have: every leaf holds a row
    size = 2 * min(params.num_leaves, n) - 1
    feature = np.full(size, -1, dtype=np.int32)
    threshold = np.full(size, np.nan)
    left_categories = [None] * size
    default_left = np.ones(size, dtype=bool)
    children_left = np.full(size, -1, dtype=np.int32)
    children_right = np.full(size, -1, dtype=np.int32)
    value = np.full(size, np.nan)
    split_gain = np.zeros(size)
    n_nodes = 1

    ctx.evaluate(root)
    open_leaves = [root]
    while len(open_leaves) < params.num_leaves:
        pick, pick_gain = None, 0.0
        for i, leaf in enumerate(open_leaves):
            if leaf.best is not None and (pick is None or leaf.best[0] > pick_gain):
                pick, pick_gain = i, leaf.best[0]
        if pick is None:
            break
        leaf = open_leaves.pop(pick)
        node = leaf.node_id
        (split_gain[node], feature[node], threshold[node], left_categories[node],
         default_left[node]) = leaf.best
        children_left[node], children_right[node] = n_nodes, n_nodes + 1
        for child in ctx.split(leaf, n_nodes, n_nodes + 1):
            ctx.evaluate(child)
            open_leaves.append(child)
        n_nodes += 2

    lr = params.learning_rate
    for leaf in open_leaves:
        value[leaf.node_id] = float(y[leaf.rows].mean()) * lr
    if np.isinf(value).any():                  # internal nodes hold NaN
        raise ValueError(f"a leaf value overflows at learning rate {lr!r}")

    # copies, so that a kept tree holds no view of the preallocated table
    return DecisionTree(
        feature=feature[:n_nodes].copy(),
        threshold=threshold[:n_nodes].copy(),
        left_categories=tuple(left_categories[:n_nodes]),
        default_left=default_left[:n_nodes].copy(),
        children_left=children_left[:n_nodes].copy(),
        children_right=children_right[:n_nodes].copy(),
        value=value[:n_nodes].copy(),
        split_gain=split_gain[:n_nodes].copy(),
        n_features=p,
    )


# ---------------------------------------------------------------------------
# prediction

def apply_tree(tree: DecisionTree, rows: np.ndarray) -> np.ndarray:
    """Return the leaf node id reached by each row."""
    X = np.asarray(rows, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != tree.n_features:
        raise ValueError(f"expected {tree.n_features} columns, got {X.shape[1]}")
    m = X.shape[0]
    out = np.zeros(m, dtype=np.int64)
    stack = [(0, np.arange(m, dtype=np.int64))]
    while stack:
        nid, ridx = stack.pop()
        if tree.feature[nid] < 0:
            out[ridx] = nid
            continue
        go_left = _goes_left(X[ridx, tree.feature[nid]], tree.threshold[nid],
                             tree.left_categories[nid], tree.default_left[nid])
        stack.append((tree.children_left[nid], ridx[go_left]))
        stack.append((tree.children_right[nid], ridx[~go_left]))
    return out[0] if single else out


def predict_tree(tree: DecisionTree, rows: np.ndarray):
    """Predict a scalar for one row (1-D input) or a vector for a batch (2-D)."""
    leaf = apply_tree(tree, rows)
    return tree.value[leaf]


def _predict_replicated(tree: DecisionTree, base: np.ndarray, col: int,
                        values: np.ndarray, group: np.ndarray) -> np.ndarray:
    """``predict_tree(tree, rows)`` for the rows ``base[group]`` with column
    ``col`` set to ``values``, bit for bit, without building those rows.

    ``col`` must be numeric in ``tree``.  A node on ``col`` sends ``v`` left
    iff ``v <= thr``, so a value's route through the tree is fixed by its
    rank: the number of the tree's distinct thresholds ``Θ`` on ``col`` that
    lie strictly below it, with NaN ranked ``|Θ| + 1``.  Only the (group,
    rank) pairs that occur are routed, each as one probe row holding a value
    of that rank (``Θ[r]``, then ``+inf``, then NaN), so there are never more
    probe rows than values.
    """
    # one value of each rank; +inf as a last cut ranks NaN, which sorts after it
    rank_value = np.append(np.unique(tree.threshold[tree.feature == col]), (np.inf, np.nan))
    k = rank_value.size
    slot = np.searchsorted(rank_value[:-1], values, side="left")
    slot += group * k
    used = np.zeros(base.shape[0] * k, dtype=bool)
    used[slot] = True
    pairs = np.flatnonzero(used)
    probe = base[pairs // k]
    probe[:, col] = rank_value[pairs % k]
    leaf_value = np.empty(used.shape[0])
    leaf_value[pairs] = predict_tree(tree, probe)
    return leaf_value[slot]


def gain_importance(tree: DecisionTree) -> np.ndarray:
    """Per-feature total SSE reduction summed over the tree's splits."""
    internal = tree.feature >= 0
    return np.bincount(tree.feature[internal], weights=tree.split_gain[internal],
                       minlength=tree.n_features)


def replace_leaf_values(tree: DecisionTree, new_values: np.ndarray) -> DecisionTree:
    """Return a copy of ``tree`` whose leaf values are taken from ``new_values``.

    ``new_values`` is indexed by node id; entries at internal nodes are ignored.
    """
    value = np.where(tree.feature < 0, np.asarray(new_values, dtype=np.float64), np.nan)
    return replace(tree, value=value)
