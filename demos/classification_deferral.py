"""Binary classification with per-instance confidence and deferral.

Trains the generative classifier on a two-region task (one separable region,
one with an irreducible 25% error rate), generates a handful of logit samples
per test row, and prints the full confidence report: accuracy by predicted
class, accuracy across interval-width bins, t-test outcomes at two
significance levels, and the blended accuracy if low-confidence predictions
were deferred to a reviewer performing at the confident-subset level.

    python demos/classification_deferral.py
"""

import argparse

import numpy as np

from diffboost import streams
from diffboost.data import clf_toy_generate
from diffboost.dbt import BINARY, DbtConfig, classify, sample, train_dbt
from diffboost.metrics import deferral_report, paired_t_test, piw
from diffboost.tree import TreeParams


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--timesteps", type=int, default=120)
    args = ap.parse_args()

    train = clf_toy_generate(args.n, seed=8, noisy_error=0.25)
    test = clf_toy_generate(args.n // 2, seed=88, noisy_error=0.25)
    cfg = DbtConfig(T=args.timesteps, n_noise=25,
                    tree_params=TreeParams(num_leaves=63, min_samples_leaf=20),
                    task=BINARY, seed=8)
    print(f"training on {train.n_rows} rows "
          f"(clean region is x0 < 1; noisy region tops out at 75% accuracy)")
    model = train_dbt(train, cfg)

    logits = sample(model, test, args.samples, streams.stream(8, 1))
    labels, probs = classify(logits, threshold=model.train_positive_rate)
    ttests = {a: paired_t_test(probs, a).reject for a in (0.05, 0.005)}
    report = deferral_report(test.y.astype(int), labels, piw(logits), ttests)
    print()
    print(report.to_text())

    clean = test.X[:, 0] < 1.0
    acc = labels == test.y.astype(int)
    print(f"\nregion split: clean-region accuracy {acc[clean].mean() * 100:.1f}%, "
          f"noisy-region accuracy {acc[~clean].mean() * 100:.1f}% "
          f"(ceiling 75%)")
    reject = ttests[0.05]
    print(f"t-tests reject for {reject.mean() * 100:.1f}% of instances; "
          f"{np.mean(~reject[~clean]) * 100:.1f}% of noisy-region rows fail to "
          "reject and would be deferred")


if __name__ == "__main__":
    main()
