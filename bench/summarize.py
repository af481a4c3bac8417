"""Summarize benchmark records: per workload and metric, the median and the
quartiles over every seed that ran, and the quartile spread as a share of the
median.

Usage, from the root of a checkout, after runs of ``bench/run.py``::

    python3 bench/summarize.py                      # print the summary
    python3 bench/summarize.py --out bench/baseline.json

It reads the records ``bench/run.py`` leaves in ``bench/.out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / ".out"


def summarize(records) -> dict:
    """{"environment": …, "workloads": {workload: {trace: {metric: figures}}}}"""
    values: dict = {}
    env = None
    for rec in records:
        if rec["tiny"]:
            continue
        env = env or rec["environment"]
        by_metric = values.setdefault(rec["workload"], {}).setdefault(f"trace{rec['trace']}", {})
        for name, m in rec["metrics"].items():
            by_metric.setdefault(name, (m["unit"], {}))[1][rec["seed"]] = m["value"]
    summary: dict = {}
    for workload, traces in sorted(values.items()):
        for trace, metrics in sorted(traces.items()):
            out = summary.setdefault(workload, {}).setdefault(trace, {})
            for name, (unit, by_seed) in metrics.items():
                vals = [by_seed[s] for s in sorted(by_seed)]
                med = statistics.median(vals)
                fig = {"unit": unit, "n": len(vals), "median": med}
                if len(vals) >= 2:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    fig.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
                out[name] = fig
    return {"environment": env, "workloads": summary}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args(argv)
    records = [json.loads(path.read_text()) for path in sorted(OUT.glob("*.json"))]
    if not records:
        print(f"no records in {OUT}", file=sys.stderr)
        return 1
    summary = summarize(records)
    for workload, traces in summary["workloads"].items():
        for trace, metrics in traces.items():
            print(f"{workload} ({trace})")
            for name, fig in metrics.items():
                spread = fig.get("spread")
                spread = "" if spread is None else f"  spread {spread:.4f}"
                print(f"  {name:28s} {fig['median']:14.6g} {fig['unit']:14s} n={fig['n']}{spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
