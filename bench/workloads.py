"""The benchmark's workloads: what one set-up and one repetition do, and the
checks every repetition's outputs must pass.

Each workload calls the library through module attributes looked up at call
time (``db.train_dbt``, ``cli.main``), so that a tracer installed between
repetitions sees the calls.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import diffboost as db
import diffboost.cli as cli
from diffboost import streams

import inputs


@dataclass
class RepResult:
    """What one repetition measured and produced."""
    sample_s: float                  # the sampling call, or the whole CLI command
    score_s: float                   # scoring, including reading the CLI's CSV back
    n_samples: int                   # M * S
    quality: dict                    # rmse, nll, qice on the held-out rows
    digest: str                      # sha256 of the sample matrix
    train_s: float = 0.0             # 0 when training happens in set-up
    model: object = None             # the trained model, for the fingerprint
    csv_lines: int = 0
    problems: list = field(default_factory=list)

    @property
    def fold_s(self) -> float:
        return self.train_s + self.sample_s + self.score_s


def _score(truth, samples) -> dict:
    return {"rmse": db.rmse(truth, samples), "nll": db.nll(truth, samples),
            "qice": db.qice(truth, samples)}


def check_outputs(samples, m: int, s: int, quality: dict) -> list:
    """Problems with a sample matrix and its quality metrics; empty if none."""
    problems = []
    if samples.shape != (m, s):
        problems.append(f"samples have shape {samples.shape}, expected {(m, s)}")
    if not np.isfinite(samples).all():
        problems.append("samples are not all finite")
    for name, value in quality.items():
        if not np.isfinite(value):
            problems.append(f"{name} is not finite: {value!r}")
    return problems


def _digest(samples) -> str:
    return hashlib.sha256(np.ascontiguousarray(samples, dtype="<f8").tobytes()).hexdigest()


def _config(shape: dict, seed: int) -> db.DbtConfig:
    return db.DbtConfig(
        T=shape["T"], n_noise=shape["n_noise"], seed=seed,
        tree_params=db.TreeParams(num_leaves=shape["num_leaves"],
                                  min_samples_leaf=shape["min_samples_leaf"]))


@dataclass
class FoldState:
    folds: list                      # of (train, held-out, held-out batches)
    config: db.DbtConfig
    s_count: int
    seed: int
    problems: list


def _via_csv(ds: db.Dataset, path: Path, problems: list) -> db.Dataset:
    """The dataset as ``load_csv`` reads it back from ``save_csv``'s file."""
    db.save_csv(ds, path)
    loaded = db.load_csv(path)
    if not (loaded.columns == ds.columns and np.array_equal(loaded.X, ds.X, equal_nan=True)
            and np.array_equal(loaded.y, ds.y)):
        problems.append(f"{path.name} does not read back as written")
    return loaded


class FoldWorkload:
    """Folds of train, sample the held-out rows, score.

    Set-up makes ``shape["folds"]`` independent (train, held-out) table pairs
    and writes each table to CSV and reads it back with ``load_csv``, as a
    fold that starts from data files does.  Repetition ``i`` runs fold
    ``i mod folds``.  Sampling goes in batches of ``shape["batch"]`` held-out
    rows, which bounds the memory of one sampling call.
    """

    def __init__(self, name, make_inputs, trainer, sampler, shapes):
        self.name = name
        self._make_inputs = make_inputs
        self._trainer = trainer
        self._sampler = sampler
        self.shapes = shapes

    def setup(self, seed: int, shape: dict, workdir: Path) -> FoldState:
        problems, folds = [], []
        for k in range(shape["folds"]):
            train, held = self._make_inputs(seed, k, shape["n_train"], shape["n_held"])
            held = _via_csv(held, workdir / f"held{k}.csv", problems)
            batches = [held.subset(np.arange(lo, min(lo + shape["batch"], held.n_rows)))
                       for lo in range(0, held.n_rows, shape["batch"])]
            folds.append((_via_csv(train, workdir / f"train{k}.csv", problems), held, batches))
        return FoldState(folds, _config(shape, seed), shape["samples"], seed, problems)

    def rep(self, st: FoldState, fold: int) -> RepResult:
        train, held, batches = st.folds[fold % len(st.folds)]
        rng = streams.stream(st.seed, streams.DOMAIN_SAMPLING, fold)
        t0 = perf_counter()
        model = getattr(db, self._trainer)(train, st.config)
        t1 = perf_counter()
        sampler = getattr(db, self._sampler)
        samples = np.concatenate([sampler(model, b, st.s_count, rng) for b in batches])
        t2 = perf_counter()
        quality = _score(held.y, samples)
        t3 = perf_counter()
        return RepResult(
            train_s=t1 - t0, sample_s=t2 - t1, score_s=t3 - t2,
            n_samples=samples.size, quality=quality, digest=_digest(samples),
            model=model,
            problems=check_outputs(samples, held.n_rows, st.s_count, quality))

    def fingerprint(self, st: FoldState, first: RepResult, workdir: Path):
        """(sha256, byte count) of the saved model of ``first``, fold 0's."""
        path = workdir / "model.dbtm"
        db.save_model(first.model, path)
        raw = path.read_bytes()
        return hashlib.sha256(raw).hexdigest(), len(raw)


@dataclass
class CliState:
    model_path: Path
    data_path: Path
    out_path: Path
    truth: np.ndarray
    s_count: int
    seed: int
    train_s: float
    model_sha256: str
    model_bytes: int


def read_samples_csv(path: Path, m: int, s: int):
    """(samples, line count, problems) of a ``diffboost sample`` regression CSV."""
    text = path.read_text()
    lines = text.count("\n")
    problems = []
    header, _, body = text.partition("\n")
    if header != "row,sample,value":
        problems.append(f"unexpected CSV header {header!r}")
    if lines != 1 + m * s:
        problems.append(f"CSV has {lines} lines, expected {1 + m * s}")
    table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if table.shape != (m * s, 3):
        problems.append(f"CSV body has shape {table.shape}, expected {(m * s, 3)}")
        return np.full((m, s), np.nan), lines, problems
    if not (np.array_equal(table[:, 0], np.repeat(np.arange(m), s))
            and np.array_equal(table[:, 1], np.tile(np.arange(s), m))):
        problems.append("CSV rows are not in (row, sample) order")
    return table[:, 2].reshape(m, s), lines, problems


class CliWorkload:
    """``diffboost sample`` run in-process over a model trained in set-up.

    The model and the held-out table are the same for every run: they come
    from the fixed ``TABLE_SEED``, and the workload seed is the command's
    ``--seed``.  Toy task ``a`` with missing cells has a heavy tail of rows
    whose three covariate copies are all missing, so a fresh held-out table
    per seed moves RMSE and NLL by more than any bound a regression check
    could use.  There is one fold: every repetition runs the same command.
    """

    name = "sample_cli"
    TABLE_SEED = 0

    def __init__(self, shapes):
        self.shapes = shapes

    def setup(self, seed: int, shape: dict, workdir: Path) -> CliState:
        train, held = inputs.toy_a_mcar(self.TABLE_SEED, shape["n_train"],
                                        shape["n_held"], shape["mcar_rate"])
        data_path = workdir / "held.csv"
        db.save_csv(held, data_path)
        t0 = perf_counter()
        model = db.train_dbt(train, _config(shape, self.TABLE_SEED))
        train_s = perf_counter() - t0
        model_path = workdir / "model.dbtm"
        db.save_model(model, model_path)
        raw = model_path.read_bytes()
        return CliState(model_path, data_path, workdir / "samples.csv",
                        np.array(held.y), shape["samples"], seed, train_s,
                        hashlib.sha256(raw).hexdigest(), len(raw))

    def rep(self, st: CliState, fold: int) -> RepResult:
        argv = ["sample", "--model", str(st.model_path), "--data", str(st.data_path),
                "--samples", str(st.s_count), "--seed", str(st.seed),
                "--out", str(st.out_path)]
        t0 = perf_counter()
        code = cli.main(argv)
        t1 = perf_counter()
        m = st.truth.shape[0]
        problems = [] if code == 0 else [f"diffboost sample exited {code}"]
        samples, lines, csv_problems = read_samples_csv(st.out_path, m, st.s_count)
        problems += csv_problems
        quality = _score(st.truth, samples) if not problems else {}
        t2 = perf_counter()
        problems += check_outputs(samples, m, st.s_count, quality)
        return RepResult(sample_s=t1 - t0, score_s=t2 - t1, n_samples=m * st.s_count,
                         quality=quality, digest=_digest(samples), csv_lines=lines,
                         problems=problems)

    def fingerprint(self, st: CliState, first: RepResult, workdir: Path):
        return st.model_sha256, st.model_bytes


# Shapes: "full" is what the benchmark measures, "tiny" the smoke mode's.
WORKLOADS = {
    "fold_numeric_dbt": FoldWorkload(
        "fold_numeric_dbt", inputs.numeric_fold, "train_dbt", "sample_dbt",
        {"full": dict(folds=10, n_train=455, n_held=2000, batch=250, T=6, n_noise=100,
                      num_leaves=101, min_samples_leaf=20, samples=400),
         "tiny": dict(folds=2, n_train=60, n_held=20, batch=15, T=3, n_noise=3,
                      num_leaves=7, min_samples_leaf=5, samples=10)}),
    "fold_categorical_card_t": FoldWorkload(
        "fold_categorical_card_t", inputs.categorical_fold, "train_card_t",
        "sample_card_t",
        {"full": dict(folds=10, n_train=1500, n_held=1000, batch=500, T=6, n_noise=50,
                      num_leaves=63, min_samples_leaf=20, samples=200),
         "tiny": dict(folds=2, n_train=80, n_held=20, batch=15, T=3, n_noise=3,
                      num_leaves=7, min_samples_leaf=5, samples=10)}),
    "sample_cli": CliWorkload(
        {"full": dict(folds=1, n_train=2000, n_held=1000, mcar_rate=0.2, T=50, n_noise=2,
                      num_leaves=101, min_samples_leaf=20, samples=400),
         "tiny": dict(folds=1, n_train=100, n_held=20, mcar_rate=0.2, T=3, n_noise=2,
                      num_leaves=7, min_samples_leaf=5, samples=10)}),
}
