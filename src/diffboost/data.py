"""Tabular dataset handling: typed columns, CSV round-trips, splits, masking,
and the synthetic generators used throughout the test and demo protocols.

A Dataset stores features as one float64 matrix.  Missing cells are NaN (a
first-class cell state, never a sentinel number).  Categorical cells hold
dictionary codes; the dictionary preserves first-appearance order, and code -1
is reserved for categories unseen at encoding time.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .tree import CATEGORICAL, NUMERIC

__all__ = [
    "Column", "Dataset", "SplitSpec", "DataError",
    "load_csv", "save_csv", "make_split", "mcar_mask",
    "toy_generate", "clf_toy_generate", "reencode", "check_names",
    "TOY_SEGMENT_NOISE", "toy_a_segment_mean", "toy_b_boxes",
]


MISSING_SENTINEL = "NA"          # written for a missing cell; read as missing, like ""
DELIMITER = ","
_MISSING_CELLS = ("", MISSING_SENTINEL)


class DataError(ValueError):
    """Malformed or inconsistent tabular data."""


def check_names(columns, response_name) -> None:
    """Raise :class:`DataError` when a name repeats among the columns and the
    response, which name matching (:func:`reencode`) could not tell apart."""
    counts = Counter([c.name for c in columns] + [response_name])
    repeated = [name for name, k in counts.items() if k > 1]
    if repeated:
        raise DataError(f"a repeated name among the columns and the response: {repeated[0]!r}")


@dataclass(frozen=True)
class Column:
    name: str
    kind: str                                   # NUMERIC or CATEGORICAL
    categories: Optional[tuple] = None          # dictionary, first-appearance order

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if (self.kind == CATEGORICAL) != (self.categories is not None):
            raise DataError(f"column {self.name!r}: categories iff categorical")
        if self.categories is not None and len(set(self.categories)) < len(self.categories):
            raise DataError(f"column {self.name!r}: a category is repeated")


@dataclass(frozen=True)
class Dataset:
    name: str
    columns: tuple                              # of Column
    X: np.ndarray                               # (n, p) float64, NaN = missing
    y: np.ndarray                               # (n,) float64
    response_name: str = "y"

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise DataError("feature matrix and response must align")
        if len(self.columns) != self.X.shape[1]:
            raise DataError("column metadata does not match feature count")
        check_names(self.columns, self.response_name)
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def kinds(self) -> list:
        return [c.kind for c in self.columns]

    def subset(self, rows: np.ndarray, name: Optional[str] = None) -> "Dataset":
        return replace(self, name=name or self.name,
                       X=self.X[rows].copy(), y=self.y[rows].copy())


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.9
    fold_seed: int = 0
    fold_index: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction {self.train_fraction!r} must lie in (0, 1)")


# ---------------------------------------------------------------------------
# CSV in/out

def _floats(cells, missing=_MISSING_CELLS):
    """The cells as floats, NaN for a ``missing`` one, and None; or, at the first
    cell that is not a number, the floats before it and its index."""
    out = []
    try:
        for c in cells:
            out.append(math.nan if c in missing else float(c))
    except ValueError:
        return out, len(out)
    return out, None


def load_csv(path, *, response: Optional[str] = None) -> Dataset:
    """Read a UTF-8 CSV with a header row; the last column is the response
    unless ``response`` names another one.  The dataset is named after the
    file stem.

    A column is numeric when every non-missing cell parses as a number (Python
    ``float()`` syntax), else categorical.  Empty cells and ``NA`` are missing.
    A sidecar schema file (``<path>.schema``) written by :func:`save_csv` fixes
    kinds and dictionary order, overriding inference.  A sidecar whose response
    or columns are not all in the header belongs to another table: a
    ``DataError``.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh, delimiter=DELIMITER))
        except (csv.Error, UnicodeDecodeError) as exc:   # e.g. a cell past the size limit
            raise DataError(f"{path}: {exc}") from None
    if not rows or not rows[0]:
        raise DataError(f"{path}: no header row")
    header, raw_rows = rows[0], rows[1:]
    if not raw_rows:
        raise DataError(f"{path}: no data rows")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    width = len(header)
    for i, row in enumerate(raw_rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")

    response_name = response if response is not None else header[-1]
    if response_name not in header:
        raise DataError(f"{path}: response column {response_name!r} not in header")
    sidecar = _read_schema(Path(str(path) + ".schema"), header)

    def cells_of(name):
        j = header.index(name)
        return [row[j] for row in raw_rows]

    X = np.empty((len(raw_rows), width - 1))
    columns = []
    for j, name in enumerate(h for h in header if h != response_name):
        cells = cells_of(name)
        kind, cats = sidecar.get(name, (None, None))
        if kind != CATEGORICAL:
            values, bad = _floats(cells)
            if bad is None or kind == NUMERIC:
                values = np.array(values)
                infinite = np.flatnonzero(np.isinf(values))
                i = infinite[0] if infinite.size else bad
                if i is not None:
                    raise DataError(f"{path}: column {name!r} row {i + 2}: "
                                    f"{cells[i]!r} is not a finite number")
                X[:, j] = values
                columns.append(Column(name, NUMERIC))
                continue
        if cats is None:        # inferred: first-appearance order
            cats = tuple(c for c in dict.fromkeys(cells) if c not in _MISSING_CELLS)
        codes = {c: float(k) for k, c in enumerate(cats)}
        codes.update(dict.fromkeys(_MISSING_CELLS, math.nan))
        X[:, j] = [codes.get(c, -1.0) for c in cells]   # -1: unseen under a fixed dictionary
        columns.append(Column(name, CATEGORICAL, cats))

    cells = cells_of(response_name)
    values, bad = _floats(cells, missing=())
    if bad is not None:
        raise DataError(f"{path}: response {response_name!r} row {bad + 2}: "
                        f"{cells[bad]!r} is not numeric")
    y = np.array(values)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise DataError(f"{path}: response {response_name!r} row {bad[0] + 2}: "
                        f"{cells[bad[0]]!r} is not a finite number")
    return Dataset(name=path.stem, columns=tuple(columns), X=X, y=y,
                   response_name=response_name)


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset as UTF-8 CSV plus a ``<path>.schema`` sidecar fixing
    kinds and dictionary order, so a reload reproduces the dataset exactly but
    for code -1 (a category unseen at encoding), which is written missing.  A
    table that would not reload so (no rows, a non-finite response or infinite
    feature cell, a category ``""`` or ``NA``, a code that is not -1 or a
    category's index, a name or category that the line-based sidecar would
    split) is a ``DataError``, and nothing is written.  A ``Dataset`` holds no
    repeated name."""
    path = Path(path)
    if ds.n_rows == 0:
        raise DataError(f"{path}: cannot save a table with no rows")
    if not np.isfinite(ds.y).all() or np.isinf(ds.X).any():
        raise DataError(f"{path}: cannot save an infinite cell or a response that is not finite")
    lines = [f"response={ds.response_name}"]
    table = []
    for j, (col, x, values) in enumerate(zip(ds.columns, ds.X.T, ds.X.T.astype(float).tolist())):
        lines += [f"column.{j}.name={col.name}", f"column.{j}.kind={col.kind}"]
        if col.kind == CATEGORICAL:
            if (set(_MISSING_CELLS) & set(col.categories) or not np.isin(
                    x[~np.isnan(x)], np.arange(-1, len(col.categories))).all()):
                raise DataError(f"{path}: cannot save column {col.name!r}: a category reads "
                                "as missing, or a code is not -1 or a category's index")
            lines += [f"column.{j}.category.{k}={c}" for k, c in enumerate(col.categories)]
            table.append([col.categories[int(v)] if v >= 0 else MISSING_SENTINEL
                          for v in values])
        else:
            table.append([MISSING_SENTINEL if math.isnan(v) else repr(v) for v in values])
    table.append([repr(v) for v in ds.y.astype(float).tolist()])
    for line in lines:
        if "".join(line.splitlines()) != line:
            raise DataError(f"{path}: cannot save {line.partition('=')[2]!r}: "
                            "the .schema sidecar holds one value per line")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=DELIMITER)
        writer.writerow([c.name for c in ds.columns] + [ds.response_name])
        writer.writerows(zip(*table))
    Path(str(path) + ".schema").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_schema(path: Path, header):
    """{column name: (kind, categories or None)} from a sidecar, {} without one.
    Every column it names, the response included, must be in ``header``."""
    if not path.exists():
        return {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    fields = dict(line.partition("=")[::2] for line in text.splitlines() if line.strip())
    response = fields.get("response")
    if response is not None and response not in header:
        raise DataError(f"{path}: response {response!r} is not in the CSV header "
                        "(a schema of another table?)")
    out, j = {}, 0
    while f"column.{j}.name" in fields:
        name = fields[f"column.{j}.name"]
        if name not in header:
            raise DataError(f"{path}: column.{j}.name {name!r} is not in the CSV header "
                            "(a schema of another table?)")
        kind, cats = fields.get(f"column.{j}.kind"), None
        if kind == CATEGORICAL:
            cats = []
            while f"column.{j}.category.{len(cats)}" in fields:
                cats.append(fields[f"column.{j}.category.{len(cats)}"])
            cats = tuple(cats)
        try:
            Column(name, kind, cats)        # a known kind; no repeated category
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        out[name] = (kind, cats)
        j += 1
    return out


def reencode(ds: Dataset, columns: Sequence[Column]) -> np.ndarray:
    """Map a dataset's features onto another schema's encoding.

    Columns are matched by name and kind; categorical cells are translated
    through the target dictionaries, with unseen categories becoming code -1.
    Raises :class:`DataError` naming the first offending column.
    """
    by_name = {c.name: j for j, c in enumerate(ds.columns)}
    out = np.empty((ds.n_rows, len(columns)))
    for j, target in enumerate(columns):
        if target.name not in by_name:
            raise DataError(f"missing column {target.name!r}")
        src_j = by_name[target.name]
        src = ds.columns[src_j]
        if src.kind != target.kind:
            raise DataError(
                f"column {target.name!r} is {src.kind}, expected {target.kind}")
        col = ds.X[:, src_j]
        if target.kind == NUMERIC:
            out[:, j] = col
        else:
            code_map = {c: k for k, c in enumerate(target.categories)}
            trans = np.array([code_map.get(c, -1) for c in src.categories], dtype=float)
            known = ~np.isnan(col) & (col >= 0)
            out[:, j] = np.nan
            out[known, j] = trans[col[known].astype(np.int64)]
            out[~np.isnan(col) & (col < 0), j] = -1.0
    return out


# ---------------------------------------------------------------------------
# splits, masking

def make_split(ds: Dataset, spec: SplitSpec):
    """Deterministic shuffled split; the first ``train_fraction`` rows train."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.fold_seed, spec.fold_index]))
    perm = rng.permutation(ds.n_rows)
    n_train = int(spec.train_fraction * ds.n_rows)
    train = ds.subset(perm[:n_train], name=f"{ds.name}/train{spec.fold_index}")
    test = ds.subset(perm[n_train:], name=f"{ds.name}/test{spec.fold_index}")
    return train, test


def mcar_mask(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Set each feature cell to missing independently with probability ``rate``.
    The response is never masked."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate {rate!r} must lie in [0, 1)")
    if rate == 0.0:
        return ds
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    X = ds.X.copy()
    X[rng.random(X.shape) < rate] = np.nan
    return replace(ds, X=X)


# ---------------------------------------------------------------------------
# synthetic generators

TOY_SEGMENT_NOISE = 0.3
_TOY_A_OFFSETS = (0.0, 4.0, -4.0)
_TOY_B_BOXES = (((0.0, 1.0), (3.0, 4.0)),
                ((5.0, 6.0), (8.0, 9.0)),
                ((-4.0, -3.0), (-1.0, 0.0)))
_CLF_NOISY_FRACTION = 0.5         # share of clf_toy_generate's rows in the noisy region


def toy_a_segment_mean(u):
    """Noise-free regression surface of toy task a."""
    u = np.asarray(u, dtype=float)
    seg = np.clip(np.floor(u).astype(int), 0, 2)
    return 0.5 * u + np.asarray(_TOY_A_OFFSETS)[seg]


def toy_b_boxes(sub: int):
    """The two uniform response boxes of subinterval ``sub`` in tasks b/c."""
    return _TOY_B_BOXES[sub]


def toy_generate(task: str, n: int, seed: int) -> Dataset:
    """Synthetic regression tasks with distinct conditional-distribution shapes.

    a: three disjoint linear segments plus Gaussian noise, with two noisy
       near-copies of the driving covariate (so cells can go missing without
       destroying the signal);
    b: three covariate subintervals, each with a bimodal (two uniform boxes)
       response;  c: task b's generator at one fifth of the rows;
    d: sine / constant / quadratic segments plus Gaussian noise;
    e: linear trend with noise scale growing linearly in the covariate.
    """
    if n < 1:
        raise ValueError(f"n {n} must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, ord(task[0])]))
    if task == "a":
        u = rng.uniform(0.0, 3.0, size=n)
        y = toy_a_segment_mean(u) + rng.normal(scale=TOY_SEGMENT_NOISE, size=n)
        X = np.column_stack([
            u,
            u + rng.normal(scale=0.01, size=n),
            u + rng.normal(scale=0.01, size=n),
        ])
        cols = tuple(Column(f"x{j}", NUMERIC) for j in range(3))
        return Dataset("toy_a", cols, X, y)
    if task in ("b", "c"):
        m = n if task == "b" else max(1, n // 5)
        u = rng.uniform(0.0, 3.0, size=m)
        sub = np.clip(np.floor(u).astype(int), 0, 2)
        pick_high = rng.random(m) < 0.5
        lo_box = np.array([_TOY_B_BOXES[s][0] for s in sub])
        hi_box = np.array([_TOY_B_BOXES[s][1] for s in sub])
        box = np.where(pick_high[:, None], hi_box, lo_box)
        y = rng.uniform(box[:, 0], box[:, 1])
        return Dataset(f"toy_{task}", (Column("x0", NUMERIC),), u[:, None], y)
    if task == "d":
        u = rng.uniform(0.0, 3.0, size=n)
        seg = np.clip(np.floor(u).astype(int), 0, 2)
        base = np.where(seg == 0, 2.0 * np.sin(2.0 * np.pi * u),
                        np.where(seg == 1, 4.0, 6.0 + 3.0 * (u - 2.0) ** 2))
        y = base + rng.normal(scale=0.25, size=n)
        return Dataset("toy_d", (Column("x0", NUMERIC),), u[:, None], y)
    if task == "e":
        u = rng.uniform(0.0, 2.0, size=n)
        y = 1.0 + 2.0 * u + (0.1 + 0.5 * u) * rng.normal(size=n)
        return Dataset("toy_e", (Column("x0", NUMERIC),), u[:, None], y)
    raise DataError(f"unknown toy task {task!r}")


def clf_toy_generate(n: int, seed: int, *, noisy_error: float = 0.25,
                     positive_rate: float = 0.5) -> Dataset:
    """Binary task with a separable clean region and a noisy region of known
    accuracy ceiling.

    Rows with ``x0 < 1`` lie in the clean region, where the informative
    feature ``x1`` encodes the label exactly.  In the noisy region ``x1``
    encodes a label flipped with probability ``noisy_error``, so the best
    attainable accuracy there is ``1 - noisy_error``.
    """
    if n < 2:
        raise ValueError(f"n {n} must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    noisy = rng.random(n) < _CLF_NOISY_FRACTION
    x0 = rng.uniform(0.0, 1.0, size=n) + noisy
    y = (rng.random(n) < positive_rate).astype(float)
    flipped = np.where(noisy & (rng.random(n) < noisy_error), 1.0 - y, y)
    x1 = flipped + rng.uniform(0.0, 0.4, size=n)
    X = np.column_stack([x0, x1])
    cols = (Column("x0", NUMERIC), Column("x1", NUMERIC))
    return Dataset("clf_toy", cols, X, y, response_name="label")
