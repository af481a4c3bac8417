"""Tests of the benchmark itself, on tiny shapes.

Run from the repository root with ``python -m pytest bench``.  They check
that every metric ``BENCHMARK.json`` names is emitted with its unit, that the
tracer finds and restores every binding, and that the benchmark refuses to
run without the library sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def run_bench(workload, trace, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == named
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name


def test_quality_repeats_for_a_seed_and_follows_it():
    def quality(seed):
        metrics = result_of(run_bench("fold_numeric_dbt", 0, seed=seed))["metrics"]
        return [metrics[k]["value"] for k in ("rmse", "nll", "qice")]

    assert quality(5) == quality(5)
    assert quality(5) != quality(6)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench("sample_cli", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_replaces_every_binding_and_restores_it():
    import diffboost
    import diffboost.dbt
    import diffboost.tree
    original = diffboost.tree.fit_tree
    tracer = tracing.Tracer()
    counts = tracer.install()
    try:
        # bound in tree, dbt, card_t, boosting and the package namespace
        assert counts["tree.fit_tree"] >= 5
        assert diffboost.dbt.fit_tree is diffboost.tree.fit_tree is diffboost.fit_tree
        assert diffboost.dbt.fit_tree is not original
    finally:
        tracer.uninstall()
    assert diffboost.dbt.fit_tree is original and diffboost.fit_tree is original


def test_tracer_fails_loudly_for_a_missing_function():
    with pytest.raises(tracing.TracingError, match="fit_forest"):
        tracing.Tracer(targets=(("tree", "tree", "fit_forest"),))


def test_layer_self_times_add_up_to_the_root_span():
    import diffboost as db
    from inputs import numeric_fold
    train, _ = numeric_fold(1, 0, 40, 10)
    config = db.DbtConfig(T=3, n_noise=2, seed=1,
                          tree_params=db.TreeParams(num_leaves=5, min_samples_leaf=3))
    tracer = tracing.Tracer()
    tracer.phase = "rep0"
    tracer.install()
    try:
        model = db.train_dbt(train, config)
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in roots] == ["dbt.train_dbt"]
    figures = tracing.layer_metrics(tracer.spans, ["rep0"])
    assert figures["trace.layers_s"] == pytest.approx(roots[0].duration, rel=1e-9)
    assert figures["tree.fit_calls"] == config.T + db.MeanEstimatorConfig().n_trees
    assert figures["tree.leaves"] == (
        sum(t.n_leaves for t in model.step_trees)
        + sum(t.n_leaves for t in model.mean_est.trees))
