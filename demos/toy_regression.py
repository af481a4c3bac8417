"""Walk through the synthetic regression tasks.

Trains the sequential per-timestep model on each toy task, generates response
samples at a grid of covariate values, and prints how the generated
conditional distributions line up with the known generators: segment means
and central intervals for the unimodal tasks, mode occupancy for the bimodal
ones, and spread growth for the heteroscedastic one.

    python demos/toy_regression.py [--timesteps 200] [--n 2000]
"""

import argparse

import numpy as np

from diffboost import streams
from diffboost.data import toy_a_segment_mean, toy_b_boxes, toy_generate
from diffboost.dbt import DbtConfig, sample, train_dbt
from diffboost.tree import TreeParams


def run_task_a(T, n, seed=7):
    print("\n== task a: disjoint linear segments, Gaussian noise ==")
    train = toy_generate("a", n, seed)
    cfg = DbtConfig(T=T, n_noise=50,
                    tree_params=TreeParams(num_leaves=31, min_samples_leaf=20),
                    seed=seed)
    model = train_dbt(train, cfg)
    probes = np.array([0.5, 0.95, 1.05, 1.5, 2.5])
    s = sample(model, np.column_stack([probes] * 3), 800, streams.stream(seed, 1))
    print("    x   true mean   sampled mean   [2.5%, 97.5%] of samples")
    for u, row in zip(probes, s):
        lo, hi = np.percentile(row, [2.5, 97.5])
        print(f"  {u:4.2f}  {toy_a_segment_mean(u):9.3f}   {row.mean():12.3f}"
              f"   [{lo:6.3f}, {hi:6.3f}]")
    print("  note the jump across x = 1: no samples bridge the two bands")


def run_task_b(T, n, seed=7):
    print("\n== tasks b/c: bimodal response boxes per covariate subinterval ==")
    train = toy_generate("b", n, seed)
    cfg = DbtConfig(T=T, n_noise=50,
                    tree_params=TreeParams(num_leaves=63, min_samples_leaf=20),
                    seed=seed)
    model = train_dbt(train, cfg)
    for sub in range(3):
        probes = (sub + np.linspace(0.1, 0.9, 9))[:, None]
        s = sample(model, probes, 400, streams.stream(seed, 2))
        lo_box, hi_box = toy_b_boxes(sub)
        mid = 0.5 * (lo_box[1] + hi_box[0])
        f_lo = (s < mid).mean()
        print(f"  subinterval {sub}: boxes {lo_box} / {hi_box}  ->  "
              f"low-mode share {f_lo:.2f}, high-mode share {1 - f_lo:.2f}")
    small = toy_generate("c", n, seed)
    print(f"  task c reuses the generator at one fifth the data: {small.n_rows} rows")


def run_task_e(T, n, seed=7):
    print("\n== task e: noise scale grows linearly in the covariate ==")
    train = toy_generate("e", n, seed)
    cfg = DbtConfig(T=T, n_noise=50,
                    tree_params=TreeParams(num_leaves=31, min_samples_leaf=20),
                    seed=seed)
    model = train_dbt(train, cfg)
    probes = np.array([0.1, 0.7, 1.3, 1.9])[:, None]
    s = sample(model, probes, 800, streams.stream(seed, 3))
    print("    x   sampled std   generator std")
    for u, row in zip(probes[:, 0], s):
        print(f"  {u:4.2f}  {row.std():10.3f}   {0.1 + 0.5 * u:12.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--timesteps", type=int, default=200)
    ap.add_argument("--n", type=int, default=2000)
    args = ap.parse_args()
    run_task_a(args.timesteps, args.n)
    run_task_b(args.timesteps, args.n)
    run_task_e(args.timesteps, args.n)


if __name__ == "__main__":
    main()
