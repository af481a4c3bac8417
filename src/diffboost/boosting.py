"""Gradient-boosted conditional mean / probability estimator.

Stagewise boosting of the package's own regression trees: each stage fits the
negative gradient of the loss at the current raw predictions.  Squared loss
gives plain residual fitting; logistic loss refits each tree's leaves with a
one-step Newton estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tree import (
    NUMERIC,
    TreeParams,
    _presort,
    apply_tree,
    fit_tree,
    predict_tree,
    replace_leaf_values,
)

__all__ = ["MeanEstimatorConfig", "MeanEstimator", "fit_mean_estimator", "predict_mean"]

SQUARED = "squared"
LOGISTIC = "logistic"

_HESSIAN_FLOOR = 1e-6


@dataclass(frozen=True)
class MeanEstimatorConfig:
    n_trees: int = 100
    tree_params: TreeParams = field(
        default_factory=lambda: TreeParams(num_leaves=31, min_samples_leaf=20))
    shrinkage: float = 0.05
    loss: str = SQUARED

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError("n_trees must be >= 0")
        if not 0 < self.shrinkage < np.inf:
            raise ValueError("shrinkage must be finite and > 0")
        if self.loss not in (SQUARED, LOGISTIC):
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass(frozen=True)
class MeanEstimator:
    base_score: float
    trees: tuple                 # DecisionTree per boosting stage
    shrinkage: float
    loss: str

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def fit_mean_estimator(
    X: np.ndarray,
    y: np.ndarray,
    feature_kinds: Sequence[str],
    config: MeanEstimatorConfig = MeanEstimatorConfig(),
) -> MeanEstimator:
    """Fit a boosted ensemble estimating E[y|x] (squared) or P(y=1|x) (logistic).

    For logistic loss, targets must be 0/1 with both classes present; the base
    score is the log-odds of the positive rate and leaf values use Sum(g)/Sum(h)
    with the hessian sum floored to avoid blow-ups in pure leaves.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(feature_kinds) != X.shape[1]:
        raise ValueError("X must be 2-D with one feature kind per column")

    if config.loss == LOGISTIC:
        classes = np.unique(y)
        if not np.isin(classes, (0.0, 1.0)).all():
            raise ValueError("logistic loss requires 0/1 targets")
        if classes.shape[0] < 2:
            raise ValueError("logistic loss requires both classes present")
        rate = float(y.mean())
        base = float(np.log(rate / (1.0 - rate)))
    else:
        base = float(y.mean())

    # every stage's tree sees the same columns, so sort them once
    presorted = _presort(X, [j for j, kind in enumerate(feature_kinds) if kind == NUMERIC])
    raw = np.full(y.shape[0], base)
    trees = []
    for _ in range(config.n_trees):
        if config.loss == LOGISTIC:
            p = _sigmoid(raw)
            grad = y - p
            hess = p * (1.0 - p)
            tree = fit_tree(X, grad, feature_kinds, config.tree_params, presorted=presorted)
            leaves = apply_tree(tree, X)
            num = np.bincount(leaves, weights=grad, minlength=tree.n_nodes)
            den = np.bincount(leaves, weights=hess, minlength=tree.n_nodes)
            tree = replace_leaf_values(tree, num / np.maximum(den, _HESSIAN_FLOOR))
            raw = raw + config.shrinkage * tree.value[leaves]
        else:
            tree = fit_tree(X, y - raw, feature_kinds, config.tree_params, presorted=presorted)
            raw = raw + config.shrinkage * predict_tree(tree, X)
        trees.append(tree)

    return MeanEstimator(base_score=base, trees=tuple(trees),
                         shrinkage=config.shrinkage, loss=config.loss)


def predict_mean(est: MeanEstimator, rows: np.ndarray) -> np.ndarray:
    """Predicted mean (squared loss) or positive-class probability (logistic)."""
    rows = np.asarray(rows, dtype=np.float64)
    single = rows.ndim == 1
    if single:
        rows = rows[None, :]
    raw = np.full(rows.shape[0], est.base_score)
    for tree in est.trees:
        raw = raw + est.shrinkage * predict_tree(tree, rows)
    out = _sigmoid(raw) if est.loss == LOGISTIC else raw
    return out[0] if single else out
