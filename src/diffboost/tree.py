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
searches read one presorted leaf layout, sorted once at the root.  Each leaf
also carries its targets and its category bins in row order, and a split
leaves its two children's back to back, so the categorical search takes both
children as one batch of numpy calls; each child's sums are still added in
its own row order, so the tree is the same bit for bit as with one search per
child.  The children of the split that fills the leaf budget are not
searched at all.

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
    A model file stores each array as it is here (see ``model_io``).

    Numeric rule: go left iff value <= threshold.  Categorical rule (nodes
    with ``is_categorical``): go left iff code is in the node's set, its
    ``cat_len`` sorted codes, which follow the earlier nodes' sets in
    ``cat_values``.  Missing/unknown values follow ``default_left``.  Leaf
    values already include the learning-rate factor.
    """

    feature: np.ndarray          # int32, -1 for leaves
    threshold: np.ndarray        # float64, NaN for leaves and categorical nodes
    is_categorical: np.ndarray   # bool, True at nodes with a category set
    cat_len: np.ndarray          # int64, codes in each node's set; 0 without one
    cat_values: np.ndarray       # int64, every set's codes, end to end
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

    A leaf carries its rows' targets ``y`` and, with categorical columns, its
    rows' category bins ``codes`` (see ``_Fit._encode_categorical``), both in
    ``rows`` order.  ``rows``, ``y`` and ``codes`` are one range of the fit's
    buffers of each, and a split partitions its leaf's range in place, the
    left child's rows first; after a cut on a complete numeric column, whose
    children come out in that column's order, the bins are gathered again.
    So siblings lie back to back, and ``_Fit.evaluate`` searches both at
    once.  A leaf's bins are shifted by ``slot`` times the bins of one leaf,
    0 for a left child and 1 for a right one, so that one ``bincount`` over
    both siblings counts them apart.

    Every numeric column is one row of three (q, n) matrices aligned
    position-by-position: row ids, feature values, and targets, each in that
    column's ascending value order with missing cells last.  Columns without
    a missing cell anywhere in the fit come first, then the columns with
    missing cells, whose counts of present cells are ``n_present``.  Keeping
    values resident avoids random gathers in the hot split search; partitions
    are order-preserving boolean compresses.
    """

    __slots__ = ("node_id", "rows", "y", "codes", "slot", "idx", "xv", "yv", "n_present",
                 "best")

    def __init__(self, node_id, rows, y, codes, slot, idx, xv, yv, n_present):
        self.node_id = node_id
        self.rows = rows
        self.y = y                              # (n,) float64 targets in ``rows`` order
        self.codes = codes                      # (n, c) intp category bins, or None
        self.slot = slot                        # 0 or 1: the bins' shift, in leaves
        self.idx = idx                          # (q, n) int64 row ids
        self.xv = xv                            # (q, n) float64 sorted values
        self.yv = yv                            # (q, n) float64 targets in that order
        self.n_present = n_present              # int64 per column with missing cells, or None
        self.best = None                        # (gain, feature, thr, cats, default_left)


def _goes_left(col, thr, default_left, lut=None, row=0):
    """Which values of ``col`` their nodes send left; ``apply_tree``, the
    forest walk and fitting's cuts on numeric columns with missing cells all
    route with it.

    ``thr``, ``default_left`` and ``row`` give each value's node: one node's
    scalars, or one entry per value.  Numeric nodes (no ``lut``) send
    ``value <= thr`` left.  Categorical nodes send code ``c`` left iff
    ``lut[row, c]``, in a table from ``_category_table`` whose last column is
    False, so codes past that column are never left.  Missing values (NaN, or
    a negative code at a categorical node) follow ``default_left``.
    """
    if lut is None:
        miss = np.isnan(col)
        with np.errstate(invalid="ignore"):
            left = col <= thr
    else:
        miss = np.isnan(col) | (col < 0)
        width = lut.shape[-1]
        code = np.where(miss, 0, np.minimum(col, width - 1)).astype(np.intp)
        code += row * width
        left = lut.take(code)
    if isinstance(default_left, np.ndarray):    # one per value; a scalar's store is cheaper
        np.copyto(left, default_left, where=miss)
    else:
        left[miss] = default_left
    return left


def _category_table(lengths, codes):
    """(len(lengths), w) boolean table whose row i marks set i, the sets'
    codes lying end to end in ``codes`` with ``lengths[i]`` in set i; ``w`` is
    two past the largest code, so the last column is False in every row."""
    lut = np.zeros((len(lengths), int(codes.max()) + 2 if codes.size else 1), dtype=bool)
    lut[np.repeat(np.arange(len(lengths)), lengths), codes] = True
    return lut


def _midpoint(a, b):
    """Threshold between sorted values a < b; the midpoint unless it rounds onto b."""
    thr = 0.5 * (a + b)
    return a if thr >= b else thr


def _best_cut(n, msl, min_gain, n_l, s_l, dead, n_miss, sum_miss, alone_ok):
    """Best cut of each leaf of a batch over a batch of columns whose present
    rows stand in ordered positions.  A row of the (r, cuts) arrays is one
    (leaf, column) pair, leaf by leaf, with the same columns for every leaf;
    the pair's leaf holds ``n[r, 0]`` rows (one number for a batch of one)
    and its cut needs a gain above ``min_gain[leaf]``.  Cut ``i`` of row ``r``
    leaves ``i + 1`` positions left, holding ``n_l[r, i]`` present rows whose
    centred targets sum to ``s_l[r, i]``, unless ``dead[r, i]`` (None: no
    dead cut).  The row's ``n_miss[r]`` missing rows (summing to
    ``sum_miss[r]``; None: no missing row in the batch) go left or right of
    each cut, or, where ``alone_ok``, alone on the left (0 positions; alone on
    the right is the same partition and loses the tie).  Each side needs
    ``msl`` rows; the gain is ``s*s/n_l + s*s/n_r``.

    Returns, per leaf, (column, gain, positions left, missing left) of its
    best cut if that beats its ``min_gain``, else None.  Tie order: gain,
    then lower column, then fewer positions left, then missing-left.
    """
    n_leaves = len(min_gain)
    cuts = s_l.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        def scan(n_l, s_l, miss_left):
            # each leaf's best as [gain, column, positions left, missing left];
            # argmax over the flattened (column, cut) array keeps the lower
            # column, then fewer positions
            n_r = n - n_l
            sq = s_l * s_l
            gain = sq / n_l
            gain += sq / n_r
            bad = (n_l < msl) | (n_r < msl)
            if dead is not None:
                bad = bad | dead
            gain[bad] = -np.inf
            gain = gain.reshape(n_leaves, -1)
            return [[float(gain[b, i]), i // cuts, i % cuts + 1, miss_left]
                    for b, i in enumerate(gain.argmax(axis=1).tolist())]

        if sum_miss is None:                         # missing-left and -right coincide
            best = scan(n_l, s_l, True)
        else:
            n_miss, sum_miss = n_miss[:, None], sum_miss[:, None]
            n_rest = n - n_miss
            g_alone = np.where(alone_ok & (n_miss >= msl) & (n_rest >= msl),
                               sum_miss * sum_miss / n_miss + sum_miss * sum_miss / n_rest,
                               -np.inf).reshape(n_leaves, -1)
            best = scan(n_l + n_miss, s_l + sum_miss, True)
            for b, right, g, j in zip(best, scan(n_l, s_l, False), g_alone.max(axis=1).tolist(),
                                      g_alone.argmax(axis=1).tolist()):
                for cand in (right, [g, j, 0, True]):
                    if (cand[0], -cand[1], -cand[2]) > (b[0], -b[1], -b[2]):
                        b[:] = cand
    return [(j, g, pos, miss_left) if g > floor else None
            for (g, j, pos, miss_left), floor in zip(best, min_gain)]


class _Fit:
    """Shared fitting state.

    Two searches, each over a batch of columns at once.  Numeric columns
    without any missing cell (the "block") use uncentred prefix sums and a
    table of reciprocals.  Numeric columns containing missing cells (centred
    prefix sums) and categorical columns (one offset ``bincount``) feed
    ``_best_cut``.  Both numeric searches read one leaf layout (see
    ``_OpenLeaf``), one leaf at a time; the categorical search takes both
    children of a split as one batch.
    """

    def __init__(self, X, kinds, params):
        self.X = X
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
        # a complete column's row in the leaf layout, a categorical column's in the bins
        self.layout_row = np.cumsum(self.complete) - 1
        self.cat_col = np.cumsum(self.is_cat) - 1
        self.cat_bins = None
        if len(self.cat_features):
            self._encode_categorical()

    def open_leaf(self, node_id, rows, y, codes, slot, idx, xv, yv):
        """Wrap a leaf's data, counting the present cells of each column
        with missing cells (its NaNs sit at the end of its row)."""
        n_present = None
        if len(self.sparse_features):
            n_present = rows.shape[0] - np.isnan(xv[len(self.block_features):]).sum(axis=1)
        return _OpenLeaf(node_id, rows, y, codes, slot, idx, xv, yv, n_present)

    def _encode_categorical(self):
        """Code every categorical cell once, offset so that column j owns bins
        ``j*w .. j*w + w - 1`` of a single ``bincount``, with ``w = k + 2``.

        A column's ``w`` bins are ``k`` code bins, then one for missing cells
        (NaN or a negative code), then one for codes at or above
        ``max_categorical_cardinality``; a node holding such a code does not
        split on that column.  A leaf in slot 1 (see ``_OpenLeaf``) holds its
        rows' bins shifted by the ``c*w`` bins of one leaf.
        """
        c = len(self.cat_features)
        raw = self.X.take(self.cat_features, axis=1)   # C order: a leaf gathers whole rows
        miss = np.isnan(raw) | (raw < 0)
        over = ~miss & (raw >= self.params.max_categorical_cardinality)
        k = max(int(np.max(raw, where=~(miss | over), initial=-1.0)) + 1, 2)
        raw[miss] = k
        raw[over] = k + 1
        offsets = (k + 2) * np.arange(c)
        raw += offsets
        self.cat_bins = raw.astype(np.intp)
        self.cat_k = k
        self.cat_width = c * (k + 2)
        self.cat_miss_bins = offsets + k
        self.cat_rows = np.arange(2 * c)[:, None]
        self.cat_cuts = np.arange(k - 1)

    def _best_in_block(self, leaf, n, mean, msl, min_gain):
        """One vectorized pass over all complete numeric features; the best
        cut (ties to the lower feature) if its gain beats ``min_gain``."""
        lo, hi = msl, n - msl                  # legal left-side sizes
        q = len(self.block_features)
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
        best, = _best_cut(n, msl, [min_gain], self.k1[:n - 1], cs[:, :-1], dead,
                          n_miss, sum_miss, True)
        if best is None:
            return None
        j, g, pos, miss_left = best
        thr = _midpoint(xv[j, pos - 1], xv[j, pos]) if pos else -np.inf
        return (g, int(self.sparse_features[j]), float(thr), None, miss_left)

    def _best_categorical(self, batch, y, codes, msl):
        """``_best_cut`` over the categorical columns of a batch of leaves,
        ``(leaf, mean, min_gain)`` triples whose rows lie back to back in
        ``y`` and ``codes``, in slot order: positions are present categories
        by mean target (ties by code), a left set is a prefix, and a column
        holding a code at or above the cardinality cap has no cut.  One best
        split (or None) per leaf.

        Each statistic is one ``bincount`` over the whole batch, which adds
        each bin's weights in input order, so every leaf's sums are those of
        a batch of one, bit for bit."""
        c, k = len(self.cat_features), self.cat_k
        ns = np.array([leaf.rows.shape[0] for leaf, _, _ in batch])
        yc = y - np.array([mean for _, mean, _ in batch]).repeat(ns)
        flat = codes.ravel()
        # the batch's bins: its first slot's, and the next slot's for a pair
        first = batch[0][0].slot * self.cat_width
        bins = slice(first, first + len(batch) * self.cat_width)
        cnt = np.bincount(flat, minlength=2 * self.cat_width)[bins].reshape(-1, k + 2)
        ysum = np.bincount(flat, weights=yc.repeat(c),
                           minlength=2 * self.cat_width)[bins].reshape(-1, k + 2)
        n_miss = cnt[:, k]
        usable = cnt[:, k + 1] == 0
        cnt, ysum = cnt[:, :k], ysum[:, :k]

        # absent categories sort last; the stable sort breaks mean ties by code
        present = cnt > 0
        means = np.full(cnt.shape, np.inf)
        np.divide(ysum, cnt, out=means, where=present)
        order = means.argsort(axis=1, kind="stable")
        rix = self.cat_rows[:cnt.shape[0]]
        cum_n = cnt[rix, order].cumsum(axis=1)[:, :-1]
        cum_s = ysum[rix, order].cumsum(axis=1)[:, :-1]
        # a cut past the present categories leaves only missing rows right
        # (alone's mirror image), or no row at all
        dead = sum_miss = None
        if n_miss.any():
            dead = self.cat_cuts >= (present.sum(axis=1) - 1)[:, None]
            sum_miss = np.zeros(cnt.shape[0])
            starts = np.cumsum(ns) - ns
            for i in np.flatnonzero(n_miss).tolist():
                b, j = divmod(i, c)
                part = slice(starts[b], starts[b] + ns[b])
                miss_bin = self.cat_miss_bins[j] + first + b * self.cat_width
                # np.sum rounds pairwise, unlike the missing bin's running sum
                sum_miss[i] = yc[part][codes[part, j] == miss_bin].sum()
        if not usable.all():
            dead = ~usable[:, None] if dead is None else dead | ~usable[:, None]
        found = _best_cut(ns.repeat(c)[:, None], msl, [floor for _, _, floor in batch],
                          cum_n, cum_s, dead, n_miss, sum_miss, usable[:, None])
        out = []
        for b, best in enumerate(found):
            if best is not None:
                j, g, pos, miss_left = best
                best = (g, int(self.cat_features[j]), np.nan,
                        np.sort(order[b * c + j, :pos]).astype(np.int64), miss_left)
            out.append(best)
        return out

    def evaluate(self, leaves, y, codes):
        """Find the best split of each leaf in ``leaves`` and cache it on the
        leaf.  ``leaves`` is the root, or the two children of a split, whose
        targets and category bins lie back to back in ``y`` and ``codes``."""
        msl = self.params.min_samples_leaf
        batch, cands = [], []
        for leaf in leaves:
            leaf.best = None
            n = leaf.rows.shape[0]
            # summed in the first complete column's order, else in row order
            y_leaf = leaf.yv[0] if len(self.block_features) else leaf.y
            if n < 2 * msl or y_leaf.min() == y_leaf.max():
                continue
            mean = float(y_leaf.sum() / n)          # y_leaf.mean() bit for bit, with less overhead
            sse = float(np.einsum("i,i->", y_leaf, y_leaf)) - n * mean * mean   # no BLAS threads
            min_gain = _MIN_GAIN_REL * max(sse, 0.0)
            found = []
            if len(self.block_features):
                found.append(self._best_in_block(leaf, n, mean, msl, min_gain))
            if len(self.sparse_features):
                found.append(self._best_with_missing(leaf, n, mean, msl, min_gain))
            batch.append((leaf, mean, min_gain))
            cands.append(found)
        if len(self.cat_features) and batch:
            if len(batch) < len(leaves):            # one sibling is not searched
                y, codes = batch[0][0].y, batch[0][0].codes
            for found, best in zip(cands, self._best_categorical(batch, y, codes, msl)):
                found.append(best)
        for (leaf, _, _), found in zip(batch, cands):
            # across features: higher gain, then the lower feature
            leaf.best = max((c for c in found if c is not None),
                            key=lambda c: (c[0], -c[1]), default=None)

    def split(self, leaf: _OpenLeaf, node_left: int, node_right: int):
        """Partition ``leaf`` by its cached best split into two open leaves.

        The children's rows, targets and category bins take the leaf's place
        in the fit's buffers, the left child's first.  Returns the children,
        then the leaf's targets and bins, which now hold theirs back to back,
        as ``evaluate`` takes them."""
        gain, f, thr, cats, default_left = leaf.best
        n = leaf.rows.shape[0]
        rows, y, codes = leaf.rows, leaf.y, leaf.codes
        if cats is None and self.complete[f]:
            # a cut on a complete column is a prefix of that column's order;
            # the children come out in that order, so their bins are gathered again
            j = self.layout_row[f]
            m = int(np.searchsorted(leaf.xv[j], thr, side="right"))
            rows[:] = leaf.idx[j]
            y[:] = leaf.yv[j]
            self.mask[rows[:m]] = True
            self.mask[rows[m:]] = False
            if codes is not None:
                # every row id is in range: "clip" only spares take's buffered copy
                self.cat_bins.take(rows, axis=0, out=codes, mode="clip")
                codes[m:] += self.cat_width
        else:
            if cats is None:
                go_left = _goes_left(self.X[rows, f], thr, default_left)
            else:
                # one lookup over the leaf's bins of the column: its set, and
                # its missing bin if missing goes left (no over-cap bin occurs)
                col = self.cat_col[f]
                lut = np.zeros(2 * self.cat_width, dtype=bool)
                first = leaf.slot * self.cat_width + col * (self.cat_k + 2)
                lut[first + cats] = True
                lut[first + self.cat_k] = default_left
                go_left = lut.take(codes[:, col])
            self.mask[rows] = go_left
            m = int(np.count_nonzero(go_left))
            # the rows that go left, then those that go right, each in their order
            perm = (~go_left).argsort(kind="stable")
            rows[:] = rows.take(perm)
            y[:] = y.take(perm)
            if codes is not None:
                codes[:] = codes.take(perm, axis=0)
                if leaf.slot:
                    codes[:m] -= self.cat_width
                else:
                    codes[m:] += self.cat_width

        q = leaf.idx.shape[0]
        keep = self.mask[leaf.idx] if q else None
        children = []
        # the left child takes slot 0 and the right child slot 1
        for slot, node_id, part in ((0, node_left, slice(0, m)), (1, node_right, slice(m, n))):
            layout = (leaf.idx, leaf.xv, leaf.yv)          # no numeric column: never read
            if q:
                sel = keep if slot == 0 else ~keep
                size = part.stop - part.start
                layout = (leaf.idx[sel].reshape(q, size), leaf.xv[sel].reshape(q, size),
                          leaf.yv[sel].reshape(q, size))
            children.append(self.open_leaf(node_id, rows[part], y[part],
                                           None if codes is None else codes[part], slot,
                                           *layout))
        return children, y, codes


def fit_tree(
    features: np.ndarray,
    targets: np.ndarray,
    feature_kinds: Sequence[str],
    params: TreeParams = TreeParams(),
    presorted: Optional[dict] = None,
    leaf_out: Optional[np.ndarray] = None,
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
        leaf_out: optional (n,) integer array, filled with the node id of
            the leaf each training row ended in: ``apply_tree(tree, features)``
            without routing the rows again.  An output only; the tree is the
            same with or without it.

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
    if leaf_out is not None and leaf_out.shape != (n,):
        raise ValueError(f"leaf_out shape {leaf_out.shape} does not match {n} rows")

    ctx = _Fit(X, feature_kinds, params)
    orders = dict(presorted or {})
    orders.update(_presort(X, [f for f in ctx.num_features if f not in orders]))
    root_idx = np.array([orders[f] for f in ctx.num_features], dtype=np.int64).reshape(-1, n)
    # the fit's buffers of rows, targets and bins, which every split permutes in place
    codes = None if ctx.cat_bins is None else ctx.cat_bins.copy()
    root = ctx.open_leaf(0, np.arange(n, dtype=np.int64), y.copy(), codes, 0, root_idx,
                         X[root_idx, ctx.num_features[:, None]], y[root_idx])

    # node table, sized for the most nodes the tree can have: every leaf holds a row
    size = 2 * min(params.num_leaves, n) - 1
    feature = np.full(size, -1, dtype=np.int32)
    threshold = np.full(size, np.nan)
    cat_sets = [None] * size                   # per node: its left set's codes, or None
    default_left = np.ones(size, dtype=bool)
    children_left = np.full(size, -1, dtype=np.int32)
    children_right = np.full(size, -1, dtype=np.int32)
    value = np.full(size, np.nan)
    split_gain = np.zeros(size)
    n_nodes = 1

    ctx.evaluate([root], root.y, codes)
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
        (split_gain[node], feature[node], threshold[node], cat_sets[node],
         default_left[node]) = leaf.best
        children_left[node], children_right[node] = n_nodes, n_nodes + 1
        children, y_pair, codes_pair = ctx.split(leaf, n_nodes, n_nodes + 1)
        open_leaves += children
        n_nodes += 2
        # the split that fills the leaf budget ends growth: no pick reads its children
        if len(open_leaves) < params.num_leaves:
            ctx.evaluate(children, y_pair, codes_pair)

    lr = params.learning_rate
    for leaf in open_leaves:
        value[leaf.node_id] = float(leaf.y.mean()) * lr
        if leaf_out is not None:
            leaf_out[leaf.rows] = leaf.node_id
    if np.isinf(value).any():                  # internal nodes hold NaN
        raise ValueError(f"a leaf value overflows at learning rate {lr!r}")

    sets = cat_sets[:n_nodes]
    # copies, so that a kept tree holds no view of the preallocated table
    return DecisionTree(
        feature=feature[:n_nodes].copy(),
        threshold=threshold[:n_nodes].copy(),
        is_categorical=np.array([c is not None for c in sets]),
        cat_len=np.array([0 if c is None else c.size for c in sets], dtype=np.int64),
        cat_values=np.concatenate([c for c in sets if c is not None]
                                  + [np.empty(0, dtype=np.int64)]),
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
    """Return the leaf node id reached by each row of the 2-D ``rows``."""
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise ValueError(f"expected rows of {tree.n_features} columns, got shape {X.shape}")
    m = X.shape[0]
    out = np.zeros(m, dtype=np.int64)
    is_cat = tree.is_categorical
    lut = _category_table(tree.cat_len[is_cat], tree.cat_values)
    lut_row = np.cumsum(is_cat) - 1                # a categorical node's row of ``lut``
    stack = [(0, np.arange(m, dtype=np.int64))]
    while stack:
        nid, ridx = stack.pop()
        if tree.feature[nid] < 0:
            out[ridx] = nid
            continue
        go_left = _goes_left(X[ridx, tree.feature[nid]], tree.threshold[nid],
                             tree.default_left[nid], lut if is_cat[nid] else None,
                             lut_row[nid])
        stack.append((tree.children_left[nid], ridx[go_left]))
        stack.append((tree.children_right[nid], ridx[~go_left]))
    return out


def predict_tree(tree: DecisionTree, rows: np.ndarray) -> np.ndarray:
    """The leaf value reached by each row of the 2-D ``rows``."""
    return tree.value[apply_tree(tree, rows)]


# (tree, row) pairs routed together by ``_walk_forest``: trees x block rows
_WALK_PAIRS = 16384


def _walk_forest(trees: Sequence[DecisionTree], rows: np.ndarray):
    """Yield ``(start, values)`` for successive blocks of the 2-D ``rows``:
    ``values[t, i]`` is ``predict_tree(trees[t], rows[start + i])``, bit for bit.

    The trees are flattened into one node table on each call, with child ids
    offset into it, each leaf its own child and one row of a shared category
    table per categorical node.  Every (tree, row) pair of a block then walks
    down one level per step, a few numpy calls per level of the deepest tree
    instead of a few per node of every tree.  A block holds about
    ``_WALK_PAIRS`` pairs.  A level drops the pairs that reached a leaf once
    they are at least half of those left; until then they step in place.
    """
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected 2-D rows, got shape {X.shape}")
    m = X.shape[0]
    n_trees = len(trees)
    if not n_trees:
        yield 0, np.empty((0, m))
        return
    p = trees[0].n_features
    if X.shape[1] != p:
        raise ValueError(f"expected {p} columns, got {X.shape[1]}")

    sizes = np.array([t.n_nodes for t in trees])
    starts = np.cumsum(sizes) - sizes

    def joined(field):
        return np.concatenate([getattr(t, field) for t in trees])

    feature = joined("feature").astype(np.intp)
    threshold = joined("threshold")
    default_left = joined("default_left")
    value = joined("value")
    # node i's children at 2i (right) and 2i + 1 (left); a leaf is its own child
    leaf = feature < 0
    own = np.arange(leaf.size)
    offset = np.repeat(starts, sizes)
    child = np.empty(2 * leaf.size, dtype=np.intp)
    child[0::2] = np.where(leaf, own, joined("children_right") + offset)
    child[1::2] = np.where(leaf, own, joined("children_left") + offset)
    is_cat = joined("is_categorical")
    lut = _category_table(joined("cat_len")[is_cat], joined("cat_values"))
    lut_row = np.where(is_cat, np.cumsum(is_cat) - 1, -1)

    step = max(_WALK_PAIRS // n_trees, 1)
    for start in range(0, m, step):
        block = np.ascontiguousarray(X[start:start + step])
        b = block.shape[0]
        cells = block.ravel()
        out = np.empty(n_trees * b)
        node = np.repeat(starts, b)                       # pair i: tree i // b, row i % b
        pair = np.arange(n_trees * b)
        cell = np.tile(np.arange(0, b * p, p), n_trees)
        while node.size:
            f = feature.take(node)
            done = f < 0
            # a pair stays at its leaf, so drop the pairs there once they are half
            if 2 * np.count_nonzero(done) >= node.size:
                out[pair[done]] = value.take(node[done])
                keep = ~done
                node, pair, cell, f = node[keep], pair[keep], cell[keep], f[keep]
            x = cells.take(cell + f)                      # a pair at a leaf reads any cell
            thr, dflt = threshold.take(node), default_left.take(node)
            left = _goes_left(x, thr, dflt)
            if len(lut):
                row = lut_row.take(node)
                cat = row >= 0
                left[cat] = _goes_left(x[cat], None, dflt[cat], lut, row[cat])
            node = child.take(2 * node + left)
        yield start, out.reshape(n_trees, b)


# cells of ``_rank``'s grid per cut: most cells hold no cut, few hold two
_CELLS_PER_CUT = 8


def _rank(cuts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(np.append(cuts, np.inf), values, side="left")`` for
    sorted distinct ``cuts`` without NaN: the same integers, without a binary
    search per value.

    ``G = _CELLS_PER_CUT * len(cuts)`` cells of equal width span the cuts,
    with one more cell on each side for everything beyond them.  A value's
    cell ``c(v) = intp(clip((v - cuts[0]) * G / span + 1, 0, G + 1))`` comes
    from ops that are each non-decreasing in ``v``, and the cuts take their
    cells through the same ops.  So a cut in a lower cell than ``v`` lies
    below it and a cut in a higher cell lies above it, and the rank of ``v``
    is the count of cuts in lower cells plus whether the lowest cut in its
    cell or above lies below it.  Only values in a cell holding two or more
    cuts are searched.  NaN values, fewer than two cuts, or a span that is
    not finite (a ``-inf`` cut, or an overflow) leave the whole call to the
    search.
    """
    k = cuts.size
    if k >= 2:
        g = _CELLS_PER_CUT * k
        with np.errstate(over="ignore"):
            span = cuts[-1] - cuts[0]
            scale = g / span
    if k < 2 or not (np.isfinite(span) and np.isfinite(scale)) or np.isnan(values).any():
        return np.searchsorted(np.append(cuts, np.inf), values, side="left")

    def cell(x):
        """Each value's cell, as a float in [0, G + 1]."""
        with np.errstate(over="ignore"):       # a far value overflows to inf, then clips
            f = np.subtract(x, cuts[0])
            f *= scale
        f += 1.0
        return np.clip(f, 0.0, g + 1.0, out=f)

    below = np.searchsorted(cell(cuts).astype(np.intp), np.arange(g + 2), side="left")
    # the lowest cut in each cell or above it; one above a value's cell is above the value
    lowest = np.append(cuts, np.inf)[below]
    f = cell(values)
    c = f.astype(np.intp)
    np.take(lowest, c, out=f, mode="clip")      # in range already; "raise" would copy
    above = f < values
    del f
    rank = below.take(c, mode="clip")
    rank += above
    crowded = np.diff(below, append=k) > 1
    if crowded.any():
        hit = np.flatnonzero(crowded.take(c, mode="clip"))
        rank[hit] = np.searchsorted(cuts, values[hit], side="left")
    return rank


def _predict_replicated(tree: DecisionTree, base: np.ndarray, col: int,
                        values: np.ndarray, group: np.ndarray) -> np.ndarray:
    """``predict_tree(tree, rows)`` for the rows ``base[group]`` with column
    ``col`` set to ``values``, bit for bit, without building those rows.

    ``col`` must be numeric in ``tree``.  A node on ``col`` sends ``v`` left
    iff ``v <= thr``, so a value's route through the tree is fixed by its
    rank: the number of the tree's distinct thresholds ``Θ`` on ``col`` that
    lie strictly below it, with NaN ranked ``|Θ| + 1``.  ``_rank`` finds it
    with a table lookup in a grid over ``Θ``, not a binary search per value.
    Only the (group, rank) pairs that occur are routed, each as one probe row
    holding a value of that rank (``Θ[r]``, then ``+inf``, then NaN), so
    there are never more probe rows than values.
    """
    cuts = np.unique(tree.threshold[tree.feature == col])
    # one value of each rank; +inf as a last cut ranks NaN, which sorts after it
    rank_value = np.append(cuts, (np.inf, np.nan))
    k = rank_value.size
    slot = _rank(cuts, values)
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
