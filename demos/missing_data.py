"""Robustness to missing covariate cells, without imputation.

Masks 10% of all covariate cells completely at random, retrains, and compares
held-out RMSE against the complete-data run.  Trees route missing values by
each split's learned default direction, so no imputation step exists anywhere
in the pipeline.

    python demos/missing_data.py [--rate 0.1]
"""

import argparse

import numpy as np

from diffboost import streams
from diffboost.data import mcar_mask, toy_generate
from diffboost.dbt import DbtConfig, sample, train_dbt
from diffboost.metrics import rmse
from diffboost.tree import TreeParams


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rate", type=float, default=0.1)
    args = ap.parse_args()

    train = toy_generate("a", 2000, seed=7)
    held = toy_generate("a", 500, seed=77)
    cfg = DbtConfig(T=200, n_noise=50,
                    tree_params=TreeParams(num_leaves=31, min_samples_leaf=20),
                    seed=7)

    print("training on complete data...")
    complete = train_dbt(train, cfg)
    masked_train = mcar_mask(train, args.rate, seed=7)
    frac = np.isnan(masked_train.X).mean()
    print(f"training with {frac * 100:.1f}% of cells masked...")
    masked = train_dbt(masked_train, cfg)

    s_c = sample(complete, held, 100, streams.stream(7, 4))
    s_m = sample(masked, held, 100, streams.stream(7, 4))
    r_c, r_m = rmse(held.y, s_c), rmse(held.y, s_m)
    print(f"\nheld-out RMSE: complete {r_c:.3f}  masked {r_m:.3f}  "
          f"({(r_m / r_c - 1) * 100:+.1f}%)")
    print("generator noise floor is 0.30; the task carries two noisy copies of"
          " the covariate, so most masked rows still have a usable signal")


if __name__ == "__main__":
    main()
