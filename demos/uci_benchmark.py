"""Benchmark protocol on the two fetched regression datasets.

Runs the standard multi-fold protocol (90%/10% splits, retrain per fold) at
the full-scale settings: T=1000 timesteps, 100 noise replicates per row, 101
leaves per tree.  Metrics are summarized as mean ± std across folds.  Expect
hours, not minutes, at the default 20 folds; use --folds 2 for a smoke run.

Needs data/uci/boston.csv and data/uci/wine.csv from demos/fetch_uci.py.

    python demos/uci_benchmark.py --dataset boston [--folds 20] [--threads 2]
"""

import argparse
import sys
from pathlib import Path

from diffboost.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dataset", choices=["boston", "wine"], required=True)
    ap.add_argument("--data-dir", default="data/uci")
    ap.add_argument("--folds", type=int, default=20)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--model-kind", choices=["dbt", "card_t"], default="dbt")
    ap.add_argument("--samples", type=int, default=100)
    args = ap.parse_args()

    path = Path(args.data_dir) / f"{args.dataset}.csv"
    if not path.exists():
        sys.exit(f"{path} not found; run demos/fetch_uci.py first")

    rc = cli_main([
        "cv", "--data", str(path),
        "--folds", str(args.folds),
        "--threads", str(args.threads),
        "--samples", str(args.samples),
        "--model-kind", args.model_kind,
        "--timesteps", "1000", "--n-noise", "100", "--num-leaves", "101",
        "--seed", "0",
    ])
    sys.exit(rc)


if __name__ == "__main__":
    main()
