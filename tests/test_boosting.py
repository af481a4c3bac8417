from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffboost import tree as tree_module
from diffboost.boosting import (
    LOGISTIC,
    SQUARED,
    MeanEstimatorConfig,
    fit_mean_estimator,
    predict_mean,
)
from diffboost.tree import CATEGORICAL, NUMERIC, TreeParams, _walk_forest, predict_tree


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
    assert predict_mean(deep, np.array([[0.9]])) == pytest.approx([1.0], abs=1e-3)


def test_squared_loss_non_increasing_per_stage():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 3))
    y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(scale=0.3, size=300)
    cfg = MeanEstimatorConfig(n_trees=40, tree_params=SMALL_TREES, shrinkage=0.1)
    est = fit_mean_estimator(X, y, [NUMERIC] * 3, cfg)
    raw = np.full(300, est.base_score)
    losses = [np.mean((y - raw) ** 2)]
    for tree in est.trees:
        raw = raw + est.config.shrinkage * predict_tree(tree, X)
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
        raw = raw + est.config.shrinkage * predict_tree(tree, X)
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


def mixed_forest(seed, n, n_num, n_cat, n_trees, loss, cap):
    """A small ensemble on numeric columns with NaN cells and categorical
    columns with NaN cells, -1 codes and codes at and above the cap ``cap``."""
    rng = np.random.default_rng(seed)
    cols, kinds = [rng.normal(size=n)], [NUMERIC]
    for _ in range(n_num):
        col = rng.normal(size=n).round(1)
        col[rng.random(n) < 0.2] = np.nan
        cols.append(col)
        kinds.append(NUMERIC)
    for _ in range(n_cat):
        col = rng.integers(-1, cap, n).astype(float)           # -1: unknown code
        col[rng.random(n) < 0.15] = np.nan
        over = rng.random(n) < 0.03                  # rare: a leaf holding one never splits here
        col[over] = rng.integers(cap, cap + 3, int(over.sum()))
        cols.append(col)
        kinds.append(CATEGORICAL)
    X = np.column_stack(cols)
    signal = np.zeros(n)
    for col, kind in zip(cols, kinds):                         # a per-code effect, -1 included
        effect = rng.normal(size=cap + 4) if kind == CATEGORICAL else None
        signal += effect[np.nan_to_num(col).astype(int) + 1] if kind == CATEGORICAL \
            else rng.normal() * np.nan_to_num(col)
    if loss == LOGISTIC:
        y = (signal + rng.normal(size=n) > np.median(signal)).astype(float)
        y[:2] = (0.0, 1.0)                                     # both classes
    else:
        y = signal + rng.normal(scale=0.5, size=n)
    params = TreeParams(num_leaves=int(rng.integers(2, 9)),
                        min_samples_leaf=int(rng.integers(1, 8)), max_categorical_cardinality=cap)
    fitted = np.empty(n)
    est = fit_mean_estimator(X, y, kinds, MeanEstimatorConfig(
        n_trees=n_trees, tree_params=params, shrinkage=float(rng.uniform(0.05, 0.9)), loss=loss),
        fitted_out=fitted)
    # the fit's own values for its training rows are prediction's, bit for bit
    assert np.array_equal(fitted, predict_mean(est, X))
    return X, est


def query_rows(rng, X, m, cap):
    """``m`` rows drawn from ``X`` with extra NaN cells, and in the categorical
    columns -1, the cap, codes past it and codes no tree has seen."""
    rows = X[rng.integers(0, X.shape[0], m)] if X.shape[0] else X[:0]
    rows = rows.copy()
    rows[rng.random(rows.shape) < 0.1] = np.nan
    cat = rng.random(rows.shape) < 0.1
    rows[cat] = rng.choice([-1.0, -5.0, float(cap), cap + 1.0, 10.0 ** 6], size=int(cat.sum()))
    return rows


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 120), n_num=st.integers(0, 2),
       n_cat=st.integers(0, 2), n_trees=st.integers(0, 6),
       loss=st.sampled_from([SQUARED, LOGISTIC]), cap=st.integers(2, 8),
       m=st.integers(0, 40), block_rows=st.sampled_from([1, 7, None]))
def test_forest_walk_matches_the_per_tree_loop(seed, n, n_num, n_cat, n_trees, loss, cap,
                                               m, block_rows):
    X, est = mixed_forest(seed, n, n_num, n_cat, n_trees, loss, cap)
    rows = query_rows(np.random.default_rng(seed + 1), X, m, cap)
    if m == 0:
        rows = rows[:0]
    per_tree = np.array([predict_tree(t, rows) for t in est.trees]).reshape(n_trees, m)
    raw = np.full(m, est.base_score)
    for values in per_tree:
        raw = raw + est.config.shrinkage * values
    want = 1.0 / (1.0 + np.exp(-raw)) if loss == LOGISTIC else raw
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(tree_module, "_WALK_PAIRS", max(n_trees, 1) * block_rows)
        blocks = list(_walk_forest(est.trees, rows))
        got = predict_mean(est, rows)
    walked = np.concatenate([v for _, v in blocks], axis=1) if blocks else np.empty((n_trees, 0))
    widths = [v.shape[1] for _, v in blocks]
    assert [start for start, _ in blocks] == [sum(widths[:i]) for i in range(len(blocks))]
    assert np.array_equal(walked, per_tree)
    assert np.array_equal(got, want)


def test_forest_walk_covers_single_leaf_and_categorical_trees():
    # the property test above relies on these shapes occurring among its forests
    seen = set()
    for seed in range(30):
        _, est = mixed_forest(seed, (12, 60)[seed % 3 > 0], 1, 2, 4,
                              (SQUARED, LOGISTIC)[seed % 2], 4)
        for t in est.trees:
            seen.add(("single_leaf", t.n_leaves == 1))
            seen.add(("categorical", bool(t.is_categorical.any())))
            seen.add(("numeric", bool(((t.feature >= 0) & ~np.isnan(t.threshold)).any())))
    assert {("single_leaf", True), ("single_leaf", False), ("categorical", True),
            ("numeric", True)} <= seen


def test_forest_walk_checks_the_column_count():
    X, est = mixed_forest(3, 60, 1, 1, 3, SQUARED, 4)
    with pytest.raises(ValueError, match="columns"):
        predict_mean(est, X[:, :2])
    # rows are 2-D only, with or without trees to walk
    for forest in (est, replace(est, trees=())):
        for rows in (X[0], X[None], 0.0):
            with pytest.raises(ValueError, match="2-D"):
                predict_mean(forest, rows)
