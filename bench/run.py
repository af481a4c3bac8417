"""diffboost benchmark: seeded workloads through the public API and the CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fold_categorical_card_t --seed 1 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` and ``bench/README.md``):

* ``fold_numeric_dbt``: ``train_dbt`` + ``sample_dbt`` + scoring on a
  Boston-shaped numeric table;
* ``fold_categorical_card_t``: ``train_card_t`` + ``sample_card_t`` + scoring
  on the four-column categorical surrogate;
* ``sample_cli``: ``diffboost sample`` in-process over a model trained in
  set-up, writing the sample CSV, which is read back and scored.

A run sets its workload up several times (``setup_s`` is the median), then
repeats the workload until ``--seconds`` have passed and reports medians.
Every repetition's outputs are checked; a failed check or an exception counts
in ``failed``.  With ``--trace 1`` every other repetition runs with the span
tracer of ``tracing.py`` installed and the run reports per-layer figures
instead of the end-to-end ones.  ``--tiny`` selects small shapes for the
smoke tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, model fingerprint, every repetition) goes to
``bench/.out/<workload>-seed<seed>-trace<0|1>[-tiny].json``, and a traced
run's spans to a ``.spans.jsonl`` file beside it.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: this numpy's OpenBLAS would otherwise
# start one thread per core (up to 64), and the benchmark runs one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

SETUPS = {"fold_numeric_dbt": 5, "fold_categorical_card_t": 5, "sample_cli": 5}

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "fold_s": "s", "samples_per_s": "1/s",
    "rmse": "response_units", "nll": "nats", "qice": "%", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "tree.fit_s": "s", "tree.fit_calls": "count", "tree.fit_rows": "count",
    "tree.fit_ms_p50": "ms", "tree.fit_ms_p80": "ms", "tree.leaves": "count",
    "tree.predict_s": "s", "tree.predict_calls": "count", "tree.predict_rows": "count",
    "tree.predict_ms_p50": "ms", "tree.predict_ms_p95": "ms",
    "tree.predict_rows_per_s": "1/s",
    "boosting.fit_s": "s", "boosting.tree_fit_s": "s", "boosting.trees": "count",
    "boosting.predict_s": "s",
    "schedule.build_s": "s", "schedule.forward_s": "s", "schedule.posterior_mean_s": "s",
    "schedule.posterior_sample_s": "s", "schedule.y0_from_noise_s": "s",
    "schedule.calls": "count",
    "dbt.train_self_s": "s", "dbt.sample_self_s": "s",
    "card_t.train_self_s": "s", "card_t.sample_self_s": "s",
    "model_io.save_s": "s", "model_io.load_s": "s", "model_io.file_bytes": "bytes",
    "data.load_csv_s": "s", "data.reencode_s": "s",
    "cli.sample_self_s": "s", "cli.csv_lines": "count",
    "metrics.score_s": "s",
    "tree.errors": "count", "boosting.errors": "count", "schedule.errors": "count",
    "dbt.errors": "count", "card_t.errors": "count", "model_io.errors": "count",
    "data.errors": "count", "cli.errors": "count", "metrics.errors": "count",
    "trace.spans": "count", "trace.layers_s": "s", "trace.untraced_s": "s",
    "trace.traced_s": "s", "trace.overhead_s": "s", "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}


def import_library():
    """Import ``diffboost`` from this checkout's ``src``, or exit with an error."""
    if not (SRC / "diffboost" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {SRC / 'diffboost'}")
    sys.path.insert(0, str(SRC))
    import diffboost
    if SRC.resolve() not in Path(diffboost.__file__).resolve().parents:
        sys.exit(f"error: diffboost imported from {diffboost.__file__}, not {SRC}")
    return diffboost


def _openblas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    rev = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "diffboost").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": _openblas_threads(),
        "machine": platform.machine(),
    }


@dataclass
class Rep:
    result: object                   # workloads.RepResult
    wall: float
    traced: bool
    label: str
    fold: int


class Run:
    """One benchmark run: set-ups, timed repetitions, checks and counts."""

    def __init__(self, workload, shape, seed, workdir, tracer):
        self.workload = workload
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list = []

    def op(self, label, fn, traced=False):
        """Run one operation; returns (result, seconds), result None on failure."""
        self.attempted += 1
        if traced:
            self.tracer.phase = label
            self.tracer.install()
        t0 = perf_counter()
        try:
            result = fn()
        except Exception:
            traceback.print_exc()
            self.failures.append(f"{label}: {traceback.format_exc(limit=1).strip()}")
            return None, perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.phase = None
        seconds = perf_counter() - t0
        problems = getattr(result, "problems", [])
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return result, seconds

    def setups(self, count):
        """Set the workload up ``count`` times; returns (last state, times)."""
        states, times = [], []
        for i in range(count):
            state, seconds = self.op(
                f"setup{i}", lambda: self.workload.setup(self.seed, self.shape, self.workdir),
                traced=self.tracer is not None)
            if state is not None:
                states.append(state)
                times.append(seconds)
        shas = {getattr(st, "model_sha256", None) for st in states}
        if len(shas) > 1:
            self.failures.append("set-ups trained different models")
            self.attempted += 1
        return (states[-1] if states else None), times

    def repetitions(self, state, seconds, folds):
        """Repeat the workload until ``seconds`` have passed and every fold ran.

        Untraced, repetition ``i`` runs fold ``i mod folds``.  Traced, each
        fold runs twice in a row, first untraced, then with the tracer
        installed, so that the two timings compare the same work.
        """
        reps = []
        start = perf_counter()
        i = 0
        while True:
            traced = self.tracer is not None and i % 2 == 1
            fold = (i // 2 if self.tracer is not None else i) % folds
            label = f"rep{i}"
            result, wall = self.op(label, lambda: self.workload.rep(state, fold), traced)
            if result is not None:
                reps.append(Rep(result, wall, traced, label, fold))
            i += 1
            enough = i >= (2 if self.tracer is not None else folds)
            if enough and perf_counter() - start >= seconds:
                return reps

    def check_repeatable(self, reps):
        """Every run of a fold must reproduce that fold's first samples exactly."""
        first = {}
        for rep in reps:
            if rep.fold not in first:
                first[rep.fold] = rep.result.digest
                continue
            self.attempted += 1
            if rep.result.digest != first[rep.fold]:
                self.failures.append(f"{rep.label} sampled fold {rep.fold} differently")


def end_to_end(state, setup_times, reps) -> dict:
    """End-to-end figures: medians over repetitions, and quality as the
    median over folds.

    A fold's NLL can be astronomically large: when every sample of a held-out
    row lands on one leaf, the row's sample std is 0 and NLL floors it at
    1e-6.  The median keeps one such fold from swamping the figure; the
    record keeps every fold's values.
    """
    results = [rep.result for rep in reps]
    sample_s = median([r.sample_s for r in results])
    score_s = median([r.score_s for r in results])
    train_s = getattr(state, "train_s", None)
    if train_s is None:
        train_s = median([r.train_s for r in results])
        fold_s = median([r.fold_s for r in results])
    else:
        fold_s = train_s + sample_s + score_s
    firsts = {}
    for rep in reps:
        if rep.result.quality:                   # empty when the CLI's CSV is unreadable
            firsts.setdefault(rep.fold, rep.result)
    quality = {name: median([r.quality[name] for r in firsts.values()]) if firsts
               else float("nan") for name in ("rmse", "nll", "qice")}
    return {
        "setup_s": median(setup_times),
        "train_s": train_s,
        "fold_s": fold_s,
        "samples_per_s": median([r.n_samples / r.sample_s for r in results]),
        **quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracing, tracer, reps, model_bytes) -> dict:
    """Per-layer figures from the traced repetitions, and the tracing overhead
    measured against the untraced run of the same folds."""
    traced = [rep for rep in reps if rep.traced]
    untraced = [rep.wall for rep in reps if not rep.traced]
    if not traced or not untraced:
        raise RuntimeError("no traced or no untraced repetition succeeded")
    out = tracing.layer_metrics(tracer.spans, [rep.label for rep in traced])
    untraced_s = median(untraced)
    traced_s = median([rep.wall for rep in traced])
    out.update({
        "model_io.file_bytes": float(model_bytes),
        "cli.csv_lines": median([rep.result.csv_lines for rep in traced]),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.unattributed_s": traced_s - out["trace.layers_s"],
    })
    return out


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small shapes, for the smoke tests")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    import_library()
    import tracing
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    shape = workload.shapes["tiny" if args.tiny else "full"]
    env = environment()
    tracer = tracing.Tracer() if args.trace else None

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = Run(workload, shape, args.seed, workdir, tracer)
        state, setup_times = run.setups(SETUPS[args.workload])
        if state is None:
            print("error: every set-up failed", file=sys.stderr)
            return 1
        reps = run.repetitions(state, args.seconds, shape["folds"])
        if not reps:
            print("error: every repetition failed", file=sys.stderr)
            return 1
        run.check_repeatable(reps)
        sha, model_bytes = None, 0
        fp, _ = run.op("fingerprint",
                        lambda: workload.fingerprint(state, reps[0].result, workdir),
                        traced=tracer is not None)
        if fp is not None:
            sha, model_bytes = fp
        if tracer is None:
            values, units = end_to_end(state, setup_times, reps), END_TO_END_UNITS
        else:
            values, units = per_layer(tracing, tracer, reps, model_bytes), PER_LAYER_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' * args.tiny}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    failed = len(run.failures)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "shape": shape,
        "environment": env, "model_sha256": sha,
        "setups": setup_times, "repetitions": [
            {"fold": rep.fold, "wall_s": rep.wall, "traced": rep.traced,
             "train_s": rep.result.train_s, "sample_s": rep.result.sample_s,
             "score_s": rep.result.score_s, "quality": rep.result.quality,
             "digest": rep.result.digest}
            for rep in reps],
        "failures": run.failures, "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{len(setup_times)} set-ups, model_sha256 {sha}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for line in run.failures:
        print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
