"""Command-line entry point.

Subcommands: ``train``, ``sample``, ``eval`` (score one saved model), ``cv``
(retrain and score across folds), ``importance``, ``schedule``, ``toy``.
Training settings come from defaults, then an optional flat ``key=value``
config file, then explicit flags, in that order; every command echoes its
effective configuration to stderr before doing work.  Logs go to stderr, data
products to stdout or files.  Exit codes: 0 success, 1 usage error (a size
that does not fit in memory among them), 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import streams
from .boosting import LOGISTIC, SQUARED, MeanEstimatorConfig
from .data import (
    DataError,
    SplitSpec,
    clf_toy_generate,
    load_csv,
    make_split,
    mcar_mask,
    save_csv,
    toy_generate,
)
from .dbt import (BINARY, CARD_T, DBT, PRIOR_MEAN_ESTIMATOR, PRIOR_ZERO, REGRESSION,
                  DbtConfig, classify, sample, train_card_t, train_dbt)
from .metrics import (
    deferral_report,
    format_mean_std,
    nll,
    paired_t_test,
    piw,
    qice,
    rmse,
)
from .model_io import ModelFormatError, load_model, save_model
from .schedule import build_linear_schedule, coefficient_table
from .tree import TreeParams, gain_importance


class _Setting(NamedTuple):
    type: type
    default: object
    choices: tuple = ()


_DBT, _MEAN = DbtConfig(), MeanEstimatorConfig()

# The training settings of ``train`` and ``cv``.  Each key is both a flag
# (with ``--``) and a config-file key; the defaults are the library's.
_SETTINGS = {
    "model-kind": _Setting(str, DBT, (DBT, CARD_T)),
    "task": _Setting(str, _DBT.task, (REGRESSION, BINARY)),
    "timesteps": _Setting(int, _DBT.T),
    "n-noise": _Setting(int, _DBT.n_noise),
    "num-leaves": _Setting(int, _DBT.tree_params.num_leaves),
    "min-samples-leaf": _Setting(int, _DBT.tree_params.min_samples_leaf),
    "learning-rate": _Setting(float, _DBT.tree_params.learning_rate),
    "beta-start": _Setting(float, _DBT.beta_start),
    "beta-end": _Setting(float, _DBT.beta_end),
    "prior-mean": _Setting(str, _DBT.prior_mean_mode, (PRIOR_MEAN_ESTIMATOR, PRIOR_ZERO)),
    "prototype-epsilon": _Setting(float, _DBT.prototype_epsilon),
    "mean-trees": _Setting(int, _MEAN.n_trees),
    "mean-leaves": _Setting(int, _MEAN.tree_params.num_leaves),
    "mean-shrinkage": _Setting(float, _MEAN.shrinkage),
    "mcar-rate": _Setting(float, 0.0),
    "seed": _Setting(int, _DBT.seed),
}


def _read_config_file(path):
    """Settings from a flat ``key=value`` file, each value checked like its flag."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in _SETTINGS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        kind, _, choices = _SETTINGS[key]
        try:
            out[key] = kind(text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: {key}: invalid {kind.__name__} value: "
                            f"{text!r}") from None
        if choices and out[key] not in choices:
            raise DataError(f"{path}:{lineno}: {key}: invalid choice: {text!r} "
                            f"(choose from {', '.join(choices)})")
    return out


def _effective_config(args):
    """defaults <- config file <- explicit flags, every value typed and checked."""
    cfg = {k: s.default for k, s in _SETTINGS.items()}
    if args.config:
        cfg.update(_read_config_file(args.config))
    for k in cfg:
        v = getattr(args, k.replace("-", "_"))
        if v is not None:
            cfg[k] = v
    return cfg


def _echo_config(cmd, cfg):
    body = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    print(f"[{cmd}] config: {body}", file=sys.stderr)


def _build_configs(cfg):
    leaf = cfg["min-samples-leaf"]
    dbt_cfg = DbtConfig(
        T=cfg["timesteps"], n_noise=cfg["n-noise"],
        tree_params=TreeParams(num_leaves=cfg["num-leaves"], min_samples_leaf=leaf,
                               learning_rate=cfg["learning-rate"]),
        beta_start=cfg["beta-start"], beta_end=cfg["beta-end"],
        prior_mean_mode=cfg["prior-mean"], task=cfg["task"],
        prototype_epsilon=cfg["prototype-epsilon"], seed=cfg["seed"])
    mean_cfg = MeanEstimatorConfig(
        n_trees=cfg["mean-trees"], shrinkage=cfg["mean-shrinkage"],
        tree_params=TreeParams(num_leaves=cfg["mean-leaves"], min_samples_leaf=leaf),
        loss=LOGISTIC if cfg["task"] == BINARY else SQUARED)
    return dbt_cfg, mean_cfg


def _training_data(args, cfg):
    """The ``--data`` table with the configured share of feature cells missing."""
    data = load_csv(args.data, response=args.response)
    return mcar_mask(data, cfg["mcar-rate"], cfg["seed"])


def _train_one(train_ds, model_kind, dbt_cfg, mean_cfg):
    trainer = train_card_t if model_kind == CARD_T else train_dbt
    return trainer(train_ds, dbt_cfg, mean_cfg)


def _sample_model(model, rows, s_count, seed):
    return sample(model, rows, s_count, streams.stream(seed, streams.DOMAIN_SAMPLING))


@contextlib.contextmanager
def _out_stream(path):
    """Yield the file at ``path``, opened for writing and closed afterwards,
    or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(args) -> int:
    cfg = _effective_config(args)
    _echo_config("train", cfg)
    data = _training_data(args, cfg)
    dbt_cfg, mean_cfg = _build_configs(cfg)
    model = _train_one(data, cfg["model-kind"], dbt_cfg, mean_cfg)
    for i, mse in enumerate(model.train_log):
        print(f"[train] t={dbt_cfg.T - i} mse={mse:.6g}", file=sys.stderr)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.out)
    print(f"[train] wrote {args.out}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    cfg = {"model": args.model, "data": args.data, "samples": args.samples,
           "seed": args.seed}
    _echo_config("sample", cfg)
    model = load_model(args.model)
    data = load_csv(args.data, response=args.response)
    out = _sample_model(model, data, args.samples, args.seed)
    if model.config.task == BINARY:
        header, columns = "row,sample,logit,probability\n", (out, 1.0 / (1.0 + np.exp(-out)))
    else:
        header, columns = "row,sample,value\n", (out,)
    # a line is ``j`` ",s," v_1 "," ... v_k "\n"; only ``j`` and the values change per row
    n_samples, width = out.shape[1], 2 * len(columns) + 2
    parts = [","] * (width * n_samples)
    parts[1::width] = [f",{s}," for s in range(n_samples)]
    parts[width - 1::width] = ["\n"] * n_samples
    with _out_stream(args.out) as fh:
        fh.write(header)
        for j in range(out.shape[0]):
            parts[::width] = [str(j)] * n_samples
            for i, c in enumerate(columns):
                # repr of a list of Python floats spells each one as repr does: it round-trips
                parts[2 + 2 * i::width] = repr(c[j].tolist())[1:-1].split(", ")
            fh.write("".join(parts))             # one write per response row
    return 0


def _eval_regression(truth, samples, bins):
    return {"rmse": rmse(truth, samples), "nll": nll(truth, samples),
            "qice": qice(truth, samples, bins)}


def _check_samples(task, s_count, bins):
    """Reject a sample count the task's metrics cannot score, before any work."""
    if s_count < (max(2, bins) if task == REGRESSION else 2):
        bins_rule = f" and at least --qice-bins ({bins})" if task == REGRESSION else ""
        raise _UsageError(f"--samples {s_count}: {task} metrics need at least 2 "
                          f"samples per row{bins_rule}")


def _run_fold(packed):
    """Train/evaluate one fold; module-level so process pools can pickle it."""
    (data, spec, model_kind, dbt_cfg, mean_cfg, s_count, seed, bins) = packed
    train_ds, test_ds = make_split(data, spec)
    model = _train_one(train_ds, model_kind, dbt_cfg, mean_cfg)
    samples = _sample_model(model, test_ds, s_count, seed + spec.fold_index)
    return _eval_regression(test_ds.y, samples, bins)


def cmd_eval(args) -> int:
    if args.qice_bins < 1:
        raise _UsageError("--qice-bins must be >= 1")
    for flag, values in (("threshold", [args.threshold]), ("alpha", args.alpha or [])):
        bad = [v for v in values if v is not None and not 0.0 < v < 1.0]
        if bad:
            raise _UsageError(f"--{flag} {bad[0]!r} must lie in (0, 1)")
    model = load_model(args.model)
    task = model.config.task
    s_count = (10 if task == BINARY else 100) if args.samples is None else args.samples
    if task == REGRESSION and (args.threshold is not None or args.alpha):
        flag = "--threshold" if args.threshold is not None else "--alpha"
        raise _UsageError(f"{flag} is a binary-model flag; {args.model} is a regression model")
    _check_samples(task, s_count, args.qice_bins)
    seed = model.config.seed if args.seed is None else args.seed
    _echo_config("eval", {"model": args.model, "data": args.data, "samples": s_count,
                          "seed": seed})
    data = load_csv(args.data, response=args.response)
    if task == BINARY and not np.isin(data.y, (0.0, 1.0)).all():
        raise DataError(f"{args.data}: response column {data.response_name!r} holds a "
                        f"label other than 0 or 1, which a binary model cannot score")
    samples = _sample_model(model, data, s_count, seed)
    with _out_stream(args.out) as fh:
        if task == BINARY:
            thr = model.train_positive_rate if args.threshold is None else args.threshold
            labels, probs = classify(samples, threshold=thr)
            tt = {a: paired_t_test(probs, a).reject for a in args.alpha or [0.05, 0.005]}
            report = deferral_report(data.y.astype(int), labels, piw(samples), tt)
            print(f"[eval] vote threshold: {thr}", file=sys.stderr)
            fh.write(report.to_csv() if args.csv else report.to_text() + "\n")
        else:
            vals = _eval_regression(data.y, samples, args.qice_bins)
            if args.csv:
                fh.write("metric,value\n")
            for k, v in vals.items():
                fh.write(f"{k},{float(v)!r}\n" if args.csv else f"{k}: {v:.6g}\n")
    return 0


def cmd_cv(args) -> int:
    if args.qice_bins < 1:
        raise _UsageError("--qice-bins must be >= 1")
    cfg = _effective_config(args)
    _echo_config("cv", {**cfg, "samples": args.samples, "folds": args.folds})
    if args.folds < 1 or args.threads is not None and args.threads < 1:
        raise _UsageError("--folds and --threads must be >= 1")
    _check_samples(cfg["task"], args.samples, args.qice_bins)
    if cfg["task"] != REGRESSION:
        raise _UsageError("cv currently evaluates regression metrics")
    data = _training_data(args, cfg)
    if args.folds > data.n_rows:
        raise _UsageError(f"--folds {args.folds} is more than the {data.n_rows} rows "
                          f"of {args.data}")
    dbt_cfg, mean_cfg = _build_configs(cfg)
    seed = cfg["seed"]
    jobs = [(data, SplitSpec(train_fraction=args.train_fraction, fold_seed=seed,
                             fold_index=i),
             cfg["model-kind"], dbt_cfg, mean_cfg, args.samples, seed, args.qice_bins)
            for i in range(args.folds)]
    cpus = os.cpu_count() or 1
    workers = min(args.threads or cpus, args.folds, cpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_fold, jobs))
    else:
        results = [_run_fold(j) for j in jobs]
    with _out_stream(args.out) as fh:
        fh.write("metric,mean,std,folds,summary\n")
        for key in ("rmse", "nll", "qice"):
            vals = np.array([r[key] for r in results])
            std = vals.std(ddof=1) if len(vals) > 1 else float("nan")
            fh.write(f"{key},{float(vals.mean())!r},{float(std)!r},{len(vals)},"
                     f"{format_mean_std(vals)}\n")
    return 0


def cmd_importance(args) -> int:
    cfg = {"model": args.model, "timesteps": args.timesteps}
    _echo_config("importance", cfg)
    model = load_model(args.model)
    T = model.config.T
    if args.timesteps:
        ts = [int(x) for x in args.timesteps.split(",")]
    else:
        ts = sorted({max(1, round(f * T)) for f in (1.0, 0.8, 0.6, 0.4, 0.2)} | {1},
                    reverse=True)
    for t in ts:                          # before the output file is opened
        if not 1 <= t <= T:
            raise DataError(f"timestep {t} outside 1..{T}")
    names = ["noisy_response"] + [c.name for c in model.columns] + ["mean_estimate"]
    with _out_stream(args.out) as fh:
        fh.write("timestep,feature_index,feature_name,gain\n")
        for t in ts:
            gains = gain_importance(model.step_trees[t - 1])
            order = np.argsort(-gains, kind="stable")
            for f in order:
                fh.write(f"{t},{f},{names[f]},{float(gains[f])!r}\n")
    return 0


def cmd_schedule(args) -> int:
    cfg = {"timesteps": args.timesteps, "beta-start": args.beta_start,
           "beta-end": args.beta_end}
    _echo_config("schedule", cfg)
    sched = build_linear_schedule(args.timesteps, args.beta_start, args.beta_end)
    tab = coefficient_table(sched)
    with _out_stream(args.out) as fh:
        fh.write("t,gamma0,gamma1,gamma2,tilde_beta\n")
        for row in tab:
            fh.write(f"{int(row[0])},{float(row[1])!r},{float(row[2])!r},{float(row[3])!r},{float(row[4])!r}\n")
    return 0


def cmd_toy(args) -> int:
    cfg = {"task": args.task, "n": args.n, "seed": args.seed}
    _echo_config("toy", cfg)
    if args.task == "clf":
        ds = clf_toy_generate(args.n, args.seed)
    else:
        ds = toy_generate(args.task, args.n, args.seed)
    save_csv(ds, args.out)
    print(f"[toy] wrote {args.out} ({ds.n_rows} rows)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):    # no prefixes: cv --model is not --model-kind
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):           # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _add_train_flags(p):
    p.add_argument("--config", help="flat key=value config file of training settings")
    for key, setting in _SETTINGS.items():
        p.add_argument(f"--{key}", type=setting.type, choices=setting.choices or None)


def _add_scoring_flags(p, samples_default):
    p.add_argument("--data", required=True)
    p.add_argument("--response", help="response column name (default: last)")
    p.add_argument("--samples", type=int, default=samples_default)
    p.add_argument("--qice-bins", type=int, default=10)
    p.add_argument("--out")


def build_parser():
    top = _Parser(prog="diffboost", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write a model file")
    _add_train_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--response", help="response column name (default: last)")
    p.add_argument("--out", default="model.dbtm", help="model file path (default: %(default)s)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate response samples as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--response", help="response column name (default: last)")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="score one saved model on a table")
    p.add_argument("--model", required=True)
    _add_scoring_flags(p, samples_default=None)
    p.add_argument("--seed", type=int, help="sampling seed (default: the model's)")
    p.add_argument("--alpha", type=float, action="append",
                   help="t-test significance level (repeatable)")
    p.add_argument("--threshold", type=float, help="vote threshold override")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="retrain and score a model across folds")
    _add_train_flags(p)
    _add_scoring_flags(p, samples_default=100)
    p.add_argument("--folds", type=int, required=True, help="retrain across this many folds")
    p.add_argument("--train-fraction", type=float, default=SplitSpec.train_fraction,
                   help="share of the rows each fold trains on (default: %(default)s)")
    p.add_argument("--threads", type=int, help="worker processes (default: the CPU count)")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("importance", help="per-timestep feature gains as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--timesteps", help="comma-separated timesteps")
    p.add_argument("--out")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("schedule", help="posterior-coefficient table as CSV")
    p.add_argument("--timesteps", type=int, default=_DBT.T)
    p.add_argument("--beta-start", type=float, default=_DBT.beta_start)
    p.add_argument("--beta-end", type=float, default=_DBT.beta_end)
    p.add_argument("--out")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("toy", help="write a synthetic dataset as CSV")
    p.add_argument("--task", required=True, choices=["a", "b", "c", "d", "e", "clf"])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_toy)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ModelFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:            # a size flag asked for more than there is
        print(f"error: not enough memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1
    except Exception as exc:              # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
