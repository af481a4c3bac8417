"""Gradient-boosted conditional mean / probability estimator.

Stagewise boosting of the package's own regression trees: each stage fits the
negative gradient of the loss at the current raw predictions.  Squared loss
gives plain residual fitting; logistic loss refits each tree's leaves with a
one-step Newton estimate.  A fit never routes its own training rows: each
stage's ``fit_tree`` reports the leaf every row ended in (``leaf_out``), and
the raw predictions and Newton sums are read off those leaves.

Prediction walks the whole forest at once (``tree._walk_forest``: every
(tree, row) pair of a block of rows steps down one level at a time through
one flattened node table) and then adds the trees' leaf values to the base
score one tree at a time, in tree order, so the result is bit for bit the
per-tree loop's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .tree import (
    NUMERIC,
    TreeParams,
    _presort,
    _walk_forest,
    fit_tree,
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
    config: MeanEstimatorConfig  # the fit's settings; predictions read shrinkage and loss


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def fit_mean_estimator(
    X: np.ndarray,
    y: np.ndarray,
    feature_kinds: Sequence[str],
    config: MeanEstimatorConfig = MeanEstimatorConfig(),
    fitted_out: Optional[np.ndarray] = None,
) -> MeanEstimator:
    """Fit a boosted ensemble estimating E[y|x] (squared) or P(y=1|x) (logistic).

    For logistic loss, targets must be 0/1 with both classes present; the base
    score is the log-odds of the positive rate and leaf values use Sum(g)/Sum(h)
    with the hessian sum floored to avoid blow-ups in pure leaves.

    ``fitted_out``: optional (n,) float array, filled with
    ``predict_mean(estimator, X)`` bit for bit, without routing the rows
    again.  An output only; the estimator is the same with or without it.
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
    leaves = np.empty(y.shape[0], dtype=np.intp)   # each training row's leaf in the stage's tree
    trees = []
    for _ in range(config.n_trees):
        if config.loss == LOGISTIC:
            p = _sigmoid(raw)
            grad = y - p
            hess = p * (1.0 - p)
            tree = fit_tree(X, grad, feature_kinds, config.tree_params, presorted=presorted,
                            leaf_out=leaves)
            num = np.bincount(leaves, weights=grad, minlength=tree.n_nodes)
            den = np.bincount(leaves, weights=hess, minlength=tree.n_nodes)
            tree = replace_leaf_values(tree, num / np.maximum(den, _HESSIAN_FLOOR))
        else:
            tree = fit_tree(X, y - raw, feature_kinds, config.tree_params, presorted=presorted,
                            leaf_out=leaves)
        raw = raw + config.shrinkage * tree.value[leaves]
        trees.append(tree)
    if fitted_out is not None:
        fitted_out[:] = _sigmoid(raw) if config.loss == LOGISTIC else raw

    return MeanEstimator(base_score=base, trees=tuple(trees), config=config)


def predict_mean(est: MeanEstimator, rows: np.ndarray) -> np.ndarray:
    """Predicted mean (squared loss) or positive-class probability (logistic).

    Bit for bit ``raw = base_score``, then ``raw = raw + shrinkage *
    predict_tree(tree, rows)`` for each tree in order: ``tree._walk_forest``
    routes every tree of a block of rows at once, and a running sum down the
    tree axis of ``base_score, shrinkage * v_1, shrinkage * v_2, ...`` makes
    those same float additions in the same order.
    """
    rows = np.asarray(rows, dtype=np.float64)
    raw = np.empty(rows.shape[:1])          # _walk_forest refuses rows that are not 2-D
    for start, values in _walk_forest(est.trees, rows):
        terms = np.empty((values.shape[0] + 1, values.shape[1]))
        terms[0] = est.base_score
        np.multiply(est.config.shrinkage, values, out=terms[1:])
        np.add.accumulate(terms, axis=0, out=terms)
        raw[start:start + values.shape[1]] = terms[-1]
    return _sigmoid(raw) if est.config.loss == LOGISTIC else raw
