"""Single CART regression tree with best-first (leaf-wise) growth.

Splits minimize sum of squared error via exact greedy search over every
distinct value boundary (no histogram binning).  Rows with a missing value at
the split feature are tried on both sides during search; the gain-maximizing
side is frozen into the node as its default direction, so prediction never
needs imputation.  Categorical features split on category sets, scanned in
mean-target order.

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
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")


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

class _OpenLeaf:
    """Working state for a not-yet-finalized leaf during growth.

    For "block" features (numeric, no missing cells anywhere) the leaf keeps
    three (q, n) matrices aligned position-by-position: row ids, feature
    values, and targets, each in per-feature ascending value order.  Keeping
    values resident avoids random gathers in the hot split search; partitions
    are order-preserving boolean compresses.
    """

    __slots__ = ("node_id", "rows", "idx", "xv", "yv", "sparse_sorted", "n_present", "best")

    def __init__(self, node_id, rows, idx, xv, yv, sparse_sorted, n_present):
        self.node_id = node_id
        self.rows = rows
        self.idx = idx                          # (q, n) int64 row ids or None
        self.xv = xv                            # (q, n) float64 sorted values or None
        self.yv = yv                            # (q, n) float64 targets in that order or None
        # numeric features with missing cells: {feature: rows sorted, missing last}
        self.sparse_sorted = sparse_sorted
        self.n_present = n_present              # {feature: count of non-missing}
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


def _better_numeric(cand, best):
    """Order: higher gain, then lower threshold, then default-left."""
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    if cand[1] != best[1]:
        return cand[1] < best[1]
    return cand[2] and not best[2]


def _best_numeric(xs, csum, n_miss, sum_miss, n, msl):
    """Best cut of one numeric feature given values/centered-sums in sorted order.

    Returns (gain, threshold, default_left) or None.  ``xs`` holds the present
    values ascending, ``csum`` their centered-target prefix sums.  Candidate k
    means "k present rows left"; the cuts isolating the missing rows on one
    side are included when missing rows exist.
    """
    n_present = xs.shape[0]
    best = None

    if n_present >= 2:
        k = np.arange(1, n_present)
        valid = xs[1:] > xs[:-1]
        sum_left = csum[:-1]
        variants = (True,) if n_miss == 0 else (True, False)
        for miss_left in variants:
            n_l = k + (n_miss if miss_left else 0)
            s_l = sum_left + (sum_miss if miss_left else 0.0)
            n_r = n - n_l
            ok = valid & (n_l >= msl) & (n_r >= msl)
            if not ok.any():
                continue
            gain = np.where(ok, s_l * s_l / n_l + s_l * s_l / n_r, -np.inf)
            i = int(np.argmax(gain))
            g = float(gain[i])
            if g <= 0:
                continue
            thr: float = 0.5 * (xs[i] + xs[i + 1])
            if thr >= xs[i + 1]:        # midpoint rounded up onto the right value
                thr = float(xs[i])
            if _better_numeric((g, thr, miss_left), best):
                best = (g, thr, miss_left)

    # missing rows isolated on one side
    if 0 < n_miss and n_miss >= msl and n - n_miss >= msl and n_present > 0:
        g = sum_miss * sum_miss / n_miss + sum_miss * sum_miss / (n - n_miss)
        if g > 0:
            for thr, miss_left in ((-np.inf, True), (float(xs[-1]), False)):
                if _better_numeric((g, thr, miss_left), best):
                    best = (g, thr, miss_left)
    return best


class _Fit:
    """Shared fitting state.

    Numeric columns without any missing cell form a "block" evaluated with one
    set of 2-D array passes per node; numeric columns containing missing cells
    take a per-feature path; categorical columns are searched together with
    one offset ``bincount`` per node.
    """

    def __init__(self, X, y, kinds, params):
        self.X = X
        self.y = y
        self.is_cat = np.asarray([k == CATEGORICAL for k in kinds])
        self.params = params
        self.n, self.p = X.shape
        has_nan = np.isnan(X).any(axis=0)
        self.block_features = np.flatnonzero(~self.is_cat & ~has_nan)
        self.sparse_features = np.flatnonzero(~self.is_cat & has_nan)
        self.cat_features = np.flatnonzero(self.is_cat)
        self.block_pos = {int(f): j for j, f in enumerate(self.block_features)}
        self.buf = np.empty(self.n)          # centered targets, addressed by row id
        self.mask = np.empty(self.n, dtype=bool)
        # reusable scratch for the block split search; sized once at the root
        q = max(len(self.block_features), 1)
        self.k1 = np.arange(1.0, self.n + 1.0)
        if len(self.block_features):
            self.recip = 1.0 / self.k1       # recip[m - 1] = 1/m, for every leaf's gain weights
        self.cs_scratch = np.empty((q, self.n))
        self.gain_scratch = np.empty((q, self.n))
        self.valid_scratch = np.empty((q, self.n), dtype=bool)
        if len(self.cat_features):
            self._encode_categorical()

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
        self.cat_ix = np.arange(c)[:, None]
        self.cat_cuts = np.arange(k - 1)

    def _best_in_block(self, leaf, n, mean, msl):
        """One vectorized pass over all complete numeric features."""
        lo, hi = msl, n - msl                  # legal left-side sizes
        if lo > hi or leaf.idx is None:
            return None
        q = leaf.idx.shape[0]
        cs = np.cumsum(leaf.yv, axis=1, out=self.cs_scratch[:q, :n])
        cs -= mean * self.k1[:n]               # prefix sums of centered targets
        s = cs[:, lo - 1:hi]
        gain = np.multiply(s, s, out=self.gain_scratch[:q, :hi - lo + 1])
        # 1/k + 1/(n-k) for left sizes k = lo..hi
        gain *= self.recip[lo - 1:hi] + self.recip[n - hi - 1:n - lo][::-1]
        bad = np.less_equal(leaf.xv[:, lo:hi + 1], leaf.xv[:, lo - 1:hi],
                            out=self.valid_scratch[:q, :hi - lo + 1])
        gain[bad] = -np.inf
        j = np.argmax(gain, axis=1)
        g_best = gain[np.arange(q), j]
        f_loc = int(np.argmax(g_best))
        g = float(g_best[f_loc])
        if not np.isfinite(g) or g <= 0:
            return None
        k = int(j[f_loc]) + lo
        a, b = float(leaf.xv[f_loc, k - 1]), float(leaf.xv[f_loc, k])
        thr = 0.5 * (a + b)
        if thr >= b:
            thr = a
        return (g, int(self.block_features[f_loc]), thr, None, True)

    def _best_categorical(self, rows, yc, n, msl, min_gain):
        """Best category-set cut over all categorical columns at once.

        Per column, categories are ordered by mean target (ties by code) and
        every prefix of that order is a candidate left set, with the missing
        rows on either side; the missing rows alone on one side are two more
        candidates.  Returns (gain, feature, nan, cats, default_left) for the
        best column (ties to the lower feature) if its gain beats
        ``min_gain``, else None.
        """
        c, k = len(self.cat_features), self.cat_k
        # only the root holds every row, in order
        leaf_codes = self.cat_codes if n == self.n else self.cat_codes[rows]
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
        cum_n = np.cumsum(cnt[self.cat_ix, order], axis=1)[:, :-1]
        cum_s = np.cumsum(ysum[self.cat_ix, order], axis=1)[:, :-1]
        g_count = present.sum(axis=1)
        dead = (self.cat_cuts >= (g_count - 1)[:, None]) | ~usable[:, None]

        def scan(n_l, s_l, miss_left):
            # each column's best prefix cut: (gain, left set size, missing left)
            n_r = n - n_l
            sq = s_l * s_l
            gain = sq / n_l + sq / n_r
            gain[dead | (n_l < msl) | (n_r < msl)] = -np.inf
            return gain.max(axis=1), gain.argmax(axis=1) + 1, miss_left

        with np.errstate(divide="ignore", invalid="ignore"):
            if not n_miss.any():
                cands = [scan(cum_n, cum_s, True)]
            else:
                sum_miss = np.zeros(c)
                for j in np.flatnonzero(n_miss):
                    # np.sum rounds pairwise, unlike the missing bin's running sum
                    sum_miss[j] = yc[leaf_codes[:, j] == self.cat_miss_bins[j]].sum()
                alone = usable & (n_miss >= msl) & (n - n_miss >= msl)
                g_alone = np.where(alone, sum_miss * sum_miss / n_miss
                                   + sum_miss * sum_miss / (n - n_miss), -np.inf)
                cands = [scan(cum_n + n_miss[:, None], cum_s + sum_miss[:, None], True),
                         scan(cum_n, cum_s, False),
                         (g_alone, np.zeros_like(g_count), True), (g_alone, g_count, False)]
        g_col = np.max([g for g, _, _ in cands], axis=0)
        j = int(np.argmax(g_col))
        if not g_col[j] > min_gain:
            return None
        # within the column: higher gain, then fewer left categories, then
        # missing-left (no two candidates tie on all three)
        g, n_left, miss_left = max(((float(g[j]), int(n_l[j]), ml) for g, n_l, ml in cands),
                                   key=lambda r: (r[0], -r[1], r[2]))
        cats = np.sort(order[j, :n_left]).astype(np.int64)
        return (g, int(self.cat_features[j]), np.nan, cats, miss_left)

    def evaluate(self, leaf: _OpenLeaf):
        """Find the best split of ``leaf`` and cache it on the leaf."""
        n = leaf.rows.shape[0]
        msl = self.params.min_samples_leaf
        y_leaf = leaf.yv[0] if leaf.yv is not None else self.y[leaf.rows]
        if n < 2 * msl or y_leaf.min() == y_leaf.max():
            leaf.best = None
            return
        mean = float(y_leaf.sum() / n)          # y_leaf.mean() bit for bit, with less overhead
        sse = float(y_leaf @ y_leaf) - n * mean * mean
        min_gain = _MIN_GAIN_REL * max(sse, 0.0)

        best = self._best_in_block(leaf, n, mean, msl)
        if best is not None and best[0] <= min_gain:
            best = None

        if len(self.sparse_features) or len(self.cat_features):
            yc = (y_leaf if leaf.yv is None else self.y[leaf.rows]) - mean

        if len(self.sparse_features):
            self.buf[leaf.rows] = yc
            for f in self.sparse_features:
                idx = leaf.sparse_sorted[f]
                n_present = leaf.n_present[f]
                xs = self.X[idx[:n_present], f]
                csum = np.cumsum(self.buf[idx[:n_present]])
                n_miss = n - n_present
                # centered sums over the whole leaf are zero
                sum_miss = -float(csum[-1]) if (n_miss and n_present) else \
                    (float(yc.sum()) if n_miss else 0.0)
                r = _best_numeric(xs, csum, n_miss, sum_miss, n, msl)
                if r is not None and r[0] > min_gain:
                    cand = (r[0], int(f), r[1], None, r[2])
                    if best is None or _better_split(cand, best):
                        best = cand

        if len(self.cat_features):
            cand = self._best_categorical(leaf.rows, yc, n, msl, min_gain)
            if cand is not None and (best is None or _better_split(cand, best)):
                best = cand
        leaf.best = best

    def split(self, leaf: _OpenLeaf, node_left: int, node_right: int):
        """Partition ``leaf`` by its cached best split into two open leaves."""
        gain, f, thr, cats, default_left = leaf.best
        block_pos = self.block_pos.get(f)

        if cats is None and block_pos is not None:
            # a block cut is a prefix of that feature's sort order
            k = int(np.searchsorted(leaf.xv[block_pos], thr, side="right"))
            rows_left = leaf.idx[block_pos, :k].copy()
            rows_right = leaf.idx[block_pos, k:].copy()
            self.mask[rows_left] = True
            self.mask[rows_right] = False
        else:
            go_left = _goes_left(self.X[leaf.rows, f], thr, cats, default_left)
            self.mask[leaf.rows] = go_left
            rows_left = leaf.rows[go_left]
            rows_right = leaf.rows[~go_left]

        n_l, n_r = rows_left.shape[0], rows_right.shape[0]
        if leaf.idx is not None:
            keep = self.mask[leaf.idx]
            q = leaf.idx.shape[0]
            idx_l = leaf.idx[keep].reshape(q, n_l)
            idx_r = leaf.idx[~keep].reshape(q, n_r)
            xv_l = leaf.xv[keep].reshape(q, n_l)
            xv_r = leaf.xv[~keep].reshape(q, n_r)
            yv_l = leaf.yv[keep].reshape(q, n_l)
            yv_r = leaf.yv[~keep].reshape(q, n_r)
        else:
            idx_l = idx_r = xv_l = xv_r = yv_l = yv_r = None

        sorted_l, sorted_r = {}, {}
        present_l, present_r = {}, {}
        for g, idx in leaf.sparse_sorted.items():
            keep = self.mask[idx]
            sorted_l[g] = idx[keep]
            sorted_r[g] = idx[~keep]
            old_np = leaf.n_present[g]
            np_l = int(keep[:old_np].sum())
            present_l[g] = np_l
            present_r[g] = old_np - np_l

        return (
            _OpenLeaf(node_left, rows_left, idx_l, xv_l, yv_l, sorted_l, present_l),
            _OpenLeaf(node_right, rows_right, idx_r, xv_r, yv_r, sorted_r, present_r),
        )


def _better_split(cand, best):
    """Tie order across features: gain desc, feature asc, threshold asc."""
    if cand[0] != best[0]:
        return cand[0] > best[0]
    if cand[1] != best[1]:
        return cand[1] < best[1]
    ct, bt = cand[2], best[2]
    if not (np.isnan(ct) or np.isnan(bt)) and ct != bt:
        return ct < bt
    return False


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

    def _order(f):
        if presorted is not None and f in presorted:
            return np.asarray(presorted[f], dtype=np.int64)
        return np.argsort(X[:, f], kind="stable").astype(np.int64)

    if len(ctx.block_features):
        q = len(ctx.block_features)
        root_idx = np.empty((q, n), dtype=np.int64)
        root_xv = np.empty((q, n))
        root_yv = np.empty((q, n))
        for j, f in enumerate(ctx.block_features):
            root_idx[j] = _order(f)
            root_xv[j] = X[root_idx[j], f]
            root_yv[j] = y[root_idx[j]]
    else:
        root_idx = root_xv = root_yv = None
    root_sorted = {}
    root_present = {}
    for f in ctx.sparse_features:
        root_sorted[f] = _order(f)
        root_present[f] = n - int(np.isnan(X[:, f]).sum())

    nodes_feature = [-1]
    nodes_threshold = [np.nan]
    nodes_cats = [None]
    nodes_default_left = [True]
    nodes_left = [-1]
    nodes_right = [-1]
    nodes_value = [np.nan]
    nodes_gain = [0.0]

    root = _OpenLeaf(0, np.arange(n, dtype=np.int64), root_idx, root_xv, root_yv,
                     root_sorted, root_present)
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
        gain, f, thr, cats, default_left = leaf.best

        left_id = len(nodes_feature)
        right_id = left_id + 1
        nodes_feature[leaf.node_id] = f
        nodes_threshold[leaf.node_id] = thr
        nodes_cats[leaf.node_id] = cats
        nodes_default_left[leaf.node_id] = default_left
        nodes_left[leaf.node_id] = left_id
        nodes_right[leaf.node_id] = right_id
        nodes_value[leaf.node_id] = np.nan
        nodes_gain[leaf.node_id] = gain
        for _ in range(2):
            nodes_feature.append(-1)
            nodes_threshold.append(np.nan)
            nodes_cats.append(None)
            nodes_default_left.append(True)
            nodes_left.append(-1)
            nodes_right.append(-1)
            nodes_value.append(np.nan)
            nodes_gain.append(0.0)

        for child in ctx.split(leaf, left_id, right_id):
            ctx.evaluate(child)
            open_leaves.append(child)

    lr = params.learning_rate
    for leaf in open_leaves:
        nodes_value[leaf.node_id] = float(y[leaf.rows].mean()) * lr

    return DecisionTree(
        feature=np.asarray(nodes_feature, dtype=np.int32),
        threshold=np.asarray(nodes_threshold, dtype=np.float64),
        left_categories=tuple(nodes_cats),
        default_left=np.asarray(nodes_default_left, dtype=bool),
        children_left=np.asarray(nodes_left, dtype=np.int32),
        children_right=np.asarray(nodes_right, dtype=np.int32),
        value=np.asarray(nodes_value, dtype=np.float64),
        split_gain=np.asarray(nodes_gain, dtype=np.float64),
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
