"""The benchmark fold-runner behind acceptance criteria 11/12, exercised on a
synthetic stand-in so its plumbing is verified even when the real downloads
are absent."""

import numpy as np

from diffboost.data import Column, Dataset, save_csv
from diffboost.dbt import DbtConfig
from diffboost.tree import NUMERIC, TreeParams

import test_acceptance as acceptance


def test_fold_runner_on_synthetic_table(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 3))
    y = 2.0 * X[:, 0] - X[:, 1] + rng.normal(scale=0.5, size=120)
    ds = Dataset("fake", tuple(Column(f"x{j}", NUMERIC) for j in range(3)), X, y)
    save_csv(ds, tmp_path / "boston.csv")
    (tmp_path / "boston.csv.schema").unlink()      # a downloaded table has no sidecar

    tiny = DbtConfig(T=6, n_noise=4,
                     tree_params=TreeParams(num_leaves=7, min_samples_leaf=4), seed=0)
    rmses, qices = acceptance._run_uci("boston", "boston.csv", folds=2,
                                       config=tiny, s_count=20, data_dir=tmp_path)
    assert rmses.shape == (2,) and qices.shape == (2,)
    assert np.isfinite(rmses).all() and np.isfinite(qices).all()
    assert (rmses > 0).all()

    # repeat run is deterministic fold for fold
    r2, q2 = acceptance._run_uci("boston", "boston.csv", folds=2,
                                 config=tiny, s_count=20, data_dir=tmp_path)
    assert np.array_equal(rmses, r2) and np.array_equal(qices, q2)
