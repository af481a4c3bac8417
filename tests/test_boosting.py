import numpy as np
import pytest

from diffboost.boosting import (
    LOGISTIC,
    MeanEstimatorConfig,
    fit_mean_estimator,
    predict_mean,
)
from diffboost.tree import NUMERIC, TreeParams, predict_tree


def step_xy(n=200, hi=1.0):
    x = (np.arange(n) / n)[:, None]
    return x, np.where(x[:, 0] >= 0.5, hi, 0.0)


SMALL_TREES = TreeParams(num_leaves=8, min_samples_leaf=5)


def test_constant_targets():
    X = np.linspace(0, 1, 60)[:, None]
    est = fit_mean_estimator(X, np.full(60, 4.2), [NUMERIC],
                             MeanEstimatorConfig(n_trees=5, tree_params=SMALL_TREES))
    assert est.base_score == pytest.approx(4.2)
    for t in est.trees:
        assert t.n_leaves == 1 and abs(t.value[0]) < 1e-12
    assert predict_mean(est, X[:3]) == pytest.approx([4.2] * 3)


def test_logistic_balanced_base_score():
    X, y = step_xy()
    est = fit_mean_estimator(X, (y > 0).astype(float), [NUMERIC],
                             MeanEstimatorConfig(n_trees=0, loss=LOGISTIC))
    assert est.base_score == pytest.approx(0.0)
    assert predict_mean(est, X[:2]) == pytest.approx([0.5, 0.5])


def test_squared_step_converges_geometrically():
    X, y = step_xy()
    cfg = MeanEstimatorConfig(n_trees=100, tree_params=SMALL_TREES, shrinkage=0.05)
    est = fit_mean_estimator(X, y, [NUMERIC], cfg)
    got = np.sqrt(np.mean((predict_mean(est, X) - y) ** 2))
    # separable data: each stage shrinks residuals by exactly (1 - shrinkage)
    oracle = 0.5 * 0.95 ** 100
    assert got == pytest.approx(oracle, rel=1e-6)

    deep = fit_mean_estimator(X, y, [NUMERIC],
                              MeanEstimatorConfig(n_trees=150, tree_params=SMALL_TREES,
                                                  shrinkage=0.05))
    rmse = np.sqrt(np.mean((predict_mean(deep, X) - y) ** 2))
    assert rmse < 1e-3
    assert predict_mean(deep, np.array([0.9])) == pytest.approx(1.0, abs=1e-3)


def test_squared_loss_non_increasing_per_stage():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 3))
    y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(scale=0.3, size=300)
    cfg = MeanEstimatorConfig(n_trees=40, tree_params=SMALL_TREES, shrinkage=0.1)
    est = fit_mean_estimator(X, y, [NUMERIC] * 3, cfg)
    raw = np.full(300, est.base_score)
    losses = [np.mean((y - raw) ** 2)]
    for tree in est.trees:
        raw = raw + est.shrinkage * predict_tree(tree, X)
        losses.append(np.mean((y - raw) ** 2))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_logistic_loss_non_increasing_per_stage():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 2))
    y = (X[:, 0] + 0.5 * rng.normal(size=400) > 0).astype(float)
    cfg = MeanEstimatorConfig(n_trees=40, tree_params=SMALL_TREES, shrinkage=0.1,
                              loss=LOGISTIC)
    est = fit_mean_estimator(X, y, [NUMERIC] * 2, cfg)

    def bce(raw):
        p = 1 / (1 + np.exp(-raw))
        return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

    raw = np.full(400, est.base_score)
    losses = [bce(raw)]
    for tree in est.trees:
        raw = raw + est.shrinkage * predict_tree(tree, X)
        losses.append(bce(raw))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    probs = predict_mean(est, X)
    assert ((probs > 0) & (probs < 1)).all()


def test_logistic_single_class_error():
    X, _ = step_xy()
    with pytest.raises(ValueError, match="both classes"):
        fit_mean_estimator(X, np.ones(200), [NUMERIC],
                           MeanEstimatorConfig(loss=LOGISTIC))
    with pytest.raises(ValueError, match="0/1"):
        fit_mean_estimator(X, np.full(200, 0.3), [NUMERIC],
                           MeanEstimatorConfig(loss=LOGISTIC))


def test_missing_rows_predictable():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 2))
    X[rng.random((300, 2)) < 0.2] = np.nan
    y = np.where(np.isnan(X[:, 0]), 3.0, X[:, 0])
    cfg = MeanEstimatorConfig(n_trees=30, tree_params=SMALL_TREES, shrinkage=0.3)
    est = fit_mean_estimator(X, y, [NUMERIC] * 2, cfg)
    pred = predict_mean(est, np.array([[np.nan, np.nan]]))
    assert np.isfinite(pred).all()


def test_config_validation():
    with pytest.raises(ValueError):
        MeanEstimatorConfig(shrinkage=0.0)
    with pytest.raises(ValueError):
        MeanEstimatorConfig(loss="huber")


def test_malformed_design_is_a_value_error():
    with pytest.raises(ValueError):
        fit_mean_estimator(np.zeros(5), np.zeros(5), [NUMERIC])
    with pytest.raises(ValueError):
        fit_mean_estimator(np.zeros((5, 2)), np.zeros(5), [NUMERIC])
