"""Independent brute-force references used by the test suite.

Everything here is deliberately slow and dumb: direct SSE computations,
exhaustive enumeration and a row-by-row CSV reader, sharing no code with the
library's split search or its CSV reader.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from diffboost.tree import CATEGORICAL


def _sse(y):
    if y.shape[0] == 0:
        return 0.0
    return float(((y - y.mean()) ** 2).sum())


def _gain_for_mask(y, left_mask, msl):
    n_l = int(left_mask.sum())
    n_r = y.shape[0] - n_l
    if n_l < msl or n_r < msl or n_l == 0 or n_r == 0:
        return None
    return _sse(y) - _sse(y[left_mask]) - _sse(y[~left_mask])


def brute_force_root_gain(X, y, kinds, msl):
    """Max SSE reduction over every (feature, rule, default-direction) candidate.

    Numeric rules are thresholds between consecutive distinct present values
    plus the two cuts that isolate missing rows; categorical rules are the
    prefixes of the mean-target category ordering.  Returns 0.0 when no legal
    split exists.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    best = 0.0
    for f in range(p):
        col = X[:, f]
        is_cat = kinds[f] == CATEGORICAL
        miss = np.isnan(col) | (is_cat & (col < 0))
        present = col[~miss]
        if present.shape[0] == 0:
            continue
        rules = []
        if is_cat:
            codes = present.astype(np.int64)
            uniq = np.unique(codes)
            means = np.array([y[~miss][codes == c].mean() for c in uniq])
            order = uniq[np.lexsort((uniq, means))]
            for g in range(1, len(order)):
                left = set(order[:g].tolist())
                rules.append(("cat", left))
            if miss.any():
                rules.append(("cat", set()))
                rules.append(("cat", set(order.tolist())))
        else:
            vals = np.unique(present)
            for a, b in zip(vals[:-1], vals[1:]):
                thr = 0.5 * (a + b)
                if thr >= b:
                    thr = a
                rules.append(("num", thr))
            if miss.any():
                rules.append(("num", -np.inf))
                rules.append(("num", float(vals[-1])))
        for kind, payload in rules:
            if kind == "num":
                with np.errstate(invalid="ignore"):
                    base = col <= payload
            else:
                base = np.zeros(n, dtype=bool)
                if payload:
                    base[~miss] = np.isin(present.astype(np.int64), sorted(payload))
            for default_left in (True, False):
                left = base.copy()
                left[miss] = default_left
                g = _gain_for_mask(y, left, msl)
                if g is not None and g > best:
                    best = g
    return best


def random_small_dataset(rng):
    """Random tiny table with categoricals and missing cells, for oracle checks."""
    msl = int(rng.choice([1, 2, 5]))
    n = int(rng.integers(max(8, 2 * msl), 51))
    p = int(rng.integers(1, 4))
    kinds = [CATEGORICAL if rng.random() < 0.4 else "numeric" for _ in range(p)]
    X = np.empty((n, p))
    for f in range(p):
        if kinds[f] == CATEGORICAL:
            X[:, f] = rng.integers(0, rng.integers(2, 7), size=n).astype(float)
        elif rng.random() < 0.5:
            X[:, f] = rng.choice([0.0, 1.0, 2.5, 7.0], size=n)   # heavy ties
        else:
            X[:, f] = rng.normal(size=n)
        miss_rate = float(rng.choice([0.0, 0.2, 0.4]))
        if miss_rate > 0:
            X[rng.random(n) < miss_rate, f] = np.nan
    if rng.random() < 0.3:
        y = rng.integers(0, 3, size=n).astype(float)
    else:
        y = rng.normal(size=n)
    return X, y, kinds, msl


# ---------------------------------------------------------------------------
# whole-tree oracle

_TIE = 1e-9          # gains this close (relative) may order either way in floating point


@dataclass(frozen=True)
class RefSplit:
    """One growth step of ``reference_tree``: leaf ``node`` splits and its
    children take the next two node ids, left first.

    ``tied`` marks a step where rounding could make ``fit_tree`` choose
    otherwise: another split of the leaf, or another leaf's best split,
    comes within ``_TIE`` of ``gain``, or so does a split that a different
    order of equal-mean categories gives.  The gain of a tied step lies in
    ``[gain, gain_high]`` up to that tolerance."""

    node: int
    feature: int
    threshold: float          # NaN at a categorical split
    cats: Optional[tuple]     # sorted codes of a categorical split's left set
    default_left: bool
    gain: float
    tied: bool
    gain_high: float


def _leaf_candidates(X, y, rows, kinds, msl, cap):
    """Every legal split of the leaf holding ``rows``, as
    ``(gain, feature, positions left, missing left, threshold, cats, documented)``
    with exact rational gains.  ``documented`` is False for the extra
    category sets that a different order of equal-mean categories gives."""
    yl = [int(v) for v in y[rows]]
    n, total = len(yl), sum(yl)
    sse = Fraction(sum(v * v for v in yl)) - Fraction(total * total, n)
    floor = Fraction(1e-12) * sse
    out = []

    def add(f, left, positions, miss, threshold, cats, documented):
        # ``left``: which of the leaf's present rows go left; ``miss``: the missing rows
        for miss_left in ((True, False) if miss.any() else (True,)):
            go = left | miss if miss_left else left & ~miss
            n_l = int(go.sum())
            if n_l < msl or n - n_l < msl:
                continue
            s_l = sum(v for v, g in zip(yl, go) if g)
            gain = (Fraction(s_l * s_l, n_l) + Fraction((total - s_l) ** 2, n - n_l)
                    - Fraction(total * total, n))
            if gain > floor:
                out.append((gain, f, positions, miss_left, threshold, cats, documented))

    for f, kind in enumerate(kinds):
        col = X[rows, f]
        if kind == CATEGORICAL:
            miss = np.isnan(col) | (col < 0)
            if (~miss & (col >= cap)).any():
                continue                            # a code over the cap: no split on f
            code = np.where(miss, -1, col).astype(np.int64)
            by_code = {}
            for c, v in zip(code.tolist(), yl):
                if c >= 0:
                    by_code.setdefault(c, []).append(v)
            mean = {c: Fraction(sum(vs), len(vs)) for c, vs in by_code.items()}
            order = sorted(mean, key=lambda c: (mean[c], c))
            for k in range(1, len(order)):
                # the k-th code's equal-mean group: floating-point means may
                # order it any way, so any of its codes may end the prefix
                group = [c for c in order if mean[c] == mean[order[k - 1]]]
                start = order.index(group[0])
                fixed = set(order[:start])
                for part in itertools.combinations(group, k - start):
                    left_set = sorted(fixed | set(part))
                    add(f, np.isin(code, left_set) & ~miss, k, miss, np.nan, tuple(left_set),
                        list(part) == order[start:k])
            if miss.any() and (~miss).any():
                add(f, np.zeros(n, dtype=bool), 0, miss, np.nan, (), True)
        else:
            miss = np.isnan(col)
            vals = np.unique(col[~miss])
            for i in range(len(vals) - 1):
                a, b = float(vals[i]), float(vals[i + 1])
                thr = 0.5 * (a + b)
                thr = a if thr >= b else thr
                add(f, ~miss & (np.nan_to_num(col, nan=np.inf) <= a), i + 1, miss, thr, None,
                    True)
            if miss.any() and (~miss).any():
                add(f, np.zeros(n, dtype=bool), 0, miss, -np.inf, None, True)
    return out


def reference_tree(X, y, kinds, params):
    """Grow a regression tree best-first by brute force, as ``fit_tree``
    documents it, sharing no code with it: ``(steps, values)``, the
    ``RefSplit`` growth steps in order and ``{leaf node id: value}``.

    ``y`` must hold integers, so that every gain is an exact rational.  At
    each step every open leaf's splits are enumerated (numeric cuts between
    distinct present values, with missing rows on either side or alone on the
    left at threshold -inf; categorical prefixes of the categories in mean
    order, ties by code, with missing rows likewise; no split on a column
    holding a code at or above the cap).  A leaf's best split is the highest
    gain, then the lower feature, then fewer positions left, then
    missing-left; the first open leaf with the highest best gain splits,
    children joining the end of the open list, until ``num_leaves`` leaves or
    no split beats ``1e-12`` of its leaf's SSE.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    msl, cap = params.min_samples_leaf, params.max_categorical_cardinality

    def best_of(rows):
        cands = _leaf_candidates(X, y, rows, kinds, msl, cap)
        documented = [c for c in cands if c[6]]
        if not documented:
            return None
        best = max(documented, key=lambda c: (c[0], -c[1], -c[2], c[3]))
        tied = any(c[0] >= best[0] * (1 - _TIE) for c in cands if c is not best)
        return best, tied, max(c[0] for c in cands)

    open_leaves = [(0, np.arange(len(y)))]
    found = {0: best_of(open_leaves[0][1])}
    steps, n_nodes = [], 1
    while len(open_leaves) < params.num_leaves:
        live = [i for i, (node, _) in enumerate(open_leaves) if found[node] is not None]
        if not live:
            break
        pick = max(live, key=lambda i: (found[open_leaves[i][0]][0][0], -i))
        node, rows = open_leaves.pop(pick)
        (gain, f, _, miss_left, thr, cats, _), tied, high = found[node]
        rivals = [found[other][2] for other, _ in open_leaves if found[other] is not None]
        tied = tied or any(h >= gain * (1 - _TIE) for h in rivals)
        high = max([high] + rivals)
        steps.append(RefSplit(node, f, thr, cats, miss_left, float(gain), tied, float(high)))

        col = X[rows, f]
        if kinds[f] == CATEGORICAL:
            miss = np.isnan(col) | (col < 0)
            go = np.isin(np.where(miss, -1, col).astype(np.int64), list(cats))
        else:
            miss = np.isnan(col)
            go = np.nan_to_num(col, nan=np.inf) <= thr
        go = np.where(miss, miss_left, go)
        for child, part in ((n_nodes, rows[go]), (n_nodes + 1, rows[~go])):
            open_leaves.append((child, part))
            found[child] = best_of(part)
        n_nodes += 2

    values = {node: float(y[rows].mean()) * params.learning_rate for node, rows in open_leaves}
    return steps, values


# ---------------------------------------------------------------------------
# CSV reader oracle

class CsvRejected(Exception):
    """The reference CSV reader found the file malformed."""


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _reference_sidecar(path, header):
    """{name: (kind, categories or None)} from ``path``, {} when it is absent.
    Lines are ``key=value`` split at the first ``=``; blank lines are skipped
    and a later key wins.  Columns ``column.0``, ``column.1``, ... run until a
    name is missing, and categories likewise, which must be distinct.  A file
    that is not UTF-8 is refused."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return {}
    except UnicodeDecodeError as exc:
        raise CsvRejected(str(exc)) from None
    fields = {}
    for line in text.splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            fields[key] = value
    if "response" in fields and fields["response"] not in header:
        raise CsvRejected("sidecar response not in header")
    out = {}
    for j in itertools.count():
        name = fields.get(f"column.{j}.name")
        if name is None:
            return out
        kind = fields.get(f"column.{j}.kind")
        if name not in header or kind not in ("numeric", CATEGORICAL):
            raise CsvRejected(f"sidecar column {j}")
        cats = None
        if kind == CATEGORICAL:
            cats = []
            while f"column.{j}.category.{len(cats)}" in fields:
                cats.append(fields[f"column.{j}.category.{len(cats)}"])
            if len(set(cats)) < len(cats):
                raise CsvRejected(f"sidecar column {j} repeats a category")
        out[name] = (kind, cats)


def reference_load_csv(path, response=None):
    """``load_csv``'s documented rules, read row by row: ``(response name,
    [(name, kind, categories or None)], X, y)``, or ``CsvRejected``.

    The file is UTF-8 CSV: a header of distinct names, at least one data row,
    every row as wide as the header.  The response is the last column unless
    named.  Cells ``""`` and ``NA`` are missing.  A feature is numeric when
    its ``<path>.schema`` sidecar says so, or, with no sidecar entry, when
    every present cell is a Python ``float()``; its present cells must then be
    finite numbers.  Otherwise it is categorical: codes index the sidecar's
    categories (-1 for an unlisted cell) or, with no
    sidecar entry, the present cells in first-appearance order.  Every
    response cell must be a finite number.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise CsvRejected(str(exc)) from None
    if len(rows) < 2 or not rows[0]:
        raise CsvRejected("no header or no data rows")
    header, body = rows[0], rows[1:]
    if len(set(header)) < len(header) or any(len(row) != len(header) for row in body):
        raise CsvRejected("duplicate names or ragged rows")
    response = header[-1] if response is None else response
    if response not in header:
        raise CsvRejected("response not in header")
    sidecar = _reference_sidecar(path.with_name(path.name + ".schema"), header)

    columns, X = [], [[] for _ in body]
    for name in header:
        if name == response:
            continue
        cells = [row[header.index(name)] for row in body]
        present = [c for c in cells if c not in ("", "NA")]
        if name in sidecar:
            kind, cats = sidecar[name]
        elif all(_number(c) is not None for c in present):
            kind, cats = "numeric", None
        else:
            kind, cats = CATEGORICAL, list(dict.fromkeys(present))
        if kind == "numeric":
            if any(_number(c) is None or math.isinf(_number(c)) for c in present):
                raise CsvRejected(f"column {name!r} holds a cell that is no finite number")
        for row_out, c in zip(X, cells):
            if c in ("", "NA"):
                row_out.append(math.nan)
            elif kind == "numeric":
                row_out.append(float(c))
            else:
                row_out.append(float(max((k for k, d in enumerate(cats) if d == c), default=-1)))
        columns.append((name, kind, None if cats is None else tuple(cats)))

    y = [_number(row[header.index(response)]) for row in body]
    if any(v is None or not math.isfinite(v) for v in y):
        raise CsvRejected("response cell that is no finite number")
    return response, columns, np.array(X).reshape(len(body), len(columns)), np.array(y)
