"""Per-timestep diffusion trees: the sequential model and its CARD-T ablation.

One regression tree per timestep reads (noisy response, covariates,
mean-estimate).  A model's ``kind`` says what the trees learn and where
their noisy inputs come from in training:

* ``"dbt"`` (sequential): each tree predicts the clean response.  Training
  walks timesteps from T down to 1, and the tree at t trains on the output of
  the sampler's own reverse step through the tree fitted at t+1, so the
  training-time computation graph matches the sampling-time one.
* ``"card_t"`` (the independent baseline, :func:`train_card_t`): each tree
  predicts the forward-process noise of an independent forward draw at its
  own timestep, so timesteps share no state.

Both kinds share one trainer loop, one schedule source (the config's T and
betas) and one sampler, :func:`sample`: a prior draw, then one reverse step
per timestep, which estimates the clean response and draws the next noisy
value from the tractable posterior.  The S draws of a held-out row share
every tree input but the noisy response, and a tree routes that value by its
rank among the tree's thresholds on it, so each step routes a step tree once
per (held-out row, rank) pair that occurs rather than once per draw
(:func:`diffboost.tree._predict_replicated`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import streams
from .boosting import (
    LOGISTIC,
    SQUARED,
    MeanEstimator,
    MeanEstimatorConfig,
    fit_mean_estimator,
    predict_mean,
)
from .data import Dataset, check_names, reencode
from .schedule import (
    NoiseSchedule,
    build_linear_schedule,
    forward_sample,
    posterior_mean,
    posterior_sample,
    y0_from_noise,
)
from .tree import NUMERIC, TreeParams, _predict_replicated, _presort, fit_tree

__all__ = [
    "DbtConfig", "DbtModel", "train_dbt", "train_card_t", "sample", "sample_dbt", "sample_card_t",
    "encode_prototypes", "classify",
    "REGRESSION", "BINARY", "PRIOR_MEAN_ESTIMATOR", "PRIOR_ZERO",
    "DBT", "CARD_T",
]

REGRESSION = "regression"
BINARY = "binary"
PRIOR_MEAN_ESTIMATOR = "mean_estimator"
PRIOR_ZERO = "zero"
DBT = "dbt"
CARD_T = "card_t"


@dataclass(frozen=True)
class DbtConfig:
    T: int = 1000
    n_noise: int = 100
    tree_params: TreeParams = field(default_factory=TreeParams)
    beta_start: float = 1e-4
    beta_end: float = 0.02
    prior_mean_mode: str = PRIOR_MEAN_ESTIMATOR
    task: str = REGRESSION
    prototype_epsilon: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.T < 2:
            raise ValueError("T must be >= 2")
        if self.n_noise < 1:
            raise ValueError("n_noise must be >= 1")
        if not 0.0 < self.prototype_epsilon < 0.5:
            raise ValueError("prototype_epsilon must lie in (0, 0.5)")
        if self.prior_mean_mode not in (PRIOR_MEAN_ESTIMATOR, PRIOR_ZERO):
            raise ValueError(f"unknown prior_mean_mode {self.prior_mean_mode!r}")
        if self.task not in (REGRESSION, BINARY):
            raise ValueError(f"unknown task {self.task!r}")

    @functools.cached_property
    def schedule(self) -> NoiseSchedule:
        """The linear schedule of (T, beta_start, beta_end), built on first use."""
        return build_linear_schedule(self.T, self.beta_start, self.beta_end)


@dataclass(frozen=True)
class DbtModel:
    """Trained model: mean estimator + one tree per timestep on ``config.schedule``.

    ``step_trees[t - 1]`` is the tree for timestep t; each tree consumes the
    concatenated input (noisy response, covariates, mean-estimate), so its
    schema is the feature count plus two, with the noisy response first and
    the mean-estimate last.  ``kind`` is ``"dbt"`` when the trees predict the
    clean response and ``"card_t"`` when they predict the forward noise.
    ``train_log`` holds per-timestep training MSE against each tree's target,
    in the order t = T down to 1.
    """
    mean_est: MeanEstimator
    step_trees: tuple
    config: DbtConfig
    columns: tuple                       # of Column; feature schema at training
    response_name: str
    target_standardization: Optional[tuple] = None   # (mean, std), regression only
    train_positive_rate: Optional[float] = None      # classification only
    train_log: tuple = ()
    kind: str = DBT

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if len(self.step_trees) != self.config.T:
            raise ValueError("need exactly one tree per timestep")
        check_names(self.columns, self.response_name)
        # the task fixes which of the standardization and the positive rate a model holds
        std, rate = self.target_standardization, self.train_positive_rate
        if self.config.task == REGRESSION and (rate is not None or std is None or len(std) != 2
                                               or not np.isfinite(std).all() or std[1] <= 0):
            raise ValueError("a regression model needs a finite (mean, std > 0) "
                             "standardization and no positive rate")
        if self.config.task == BINARY and (std is not None or rate is None or not 0 < rate < 1
                                           or self.mean_est.config.loss != LOGISTIC):
            raise ValueError("a binary model needs a positive rate in (0, 1), no "
                             "standardization and a logistic mean estimator")


def encode_prototypes(labels, epsilon: float) -> np.ndarray:
    """Map 0/1 labels to symmetric logit-scale prototypes.

    Label c becomes logit(c * (1 - 2*epsilon) + epsilon), i.e. labels 0 and 1
    turn into -logit(1 - epsilon) and +logit(1 - epsilon).
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    labels = np.asarray(labels, dtype=float)
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    # logit(1-eps) computed once keeps the two prototypes exact negations
    proto = np.log((1.0 - epsilon) / epsilon)
    return np.where(labels == 1.0, proto, -proto)


def classify(samples: np.ndarray, threshold: float = 0.5):
    """Majority-vote class prediction from logit samples.

    Returns (labels, probabilities): per-sample probabilities are the sigmoid
    of the logits; each sample votes via ``p >= threshold``; the per-row label
    is the majority, with exact ties resolved to 1 when the row's mean
    probability clears the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    logits = np.asarray(samples, dtype=float)
    if logits.ndim != 2:
        raise ValueError("sample matrix must be 2-D")
    p = 1.0 / (1.0 + np.exp(-logits))
    votes = (p >= threshold).sum(axis=1)
    s = logits.shape[1]
    labels = np.where(votes * 2 > s, 1, 0)
    tie = votes * 2 == s
    labels[tie] = (p[tie].mean(axis=1) >= threshold).astype(int)
    return labels, p


class _TrainingSetup:
    """Replicated design shared by both kinds of trainer."""

    def __init__(self, train: Dataset, config: DbtConfig,
                 mean_config: Optional[MeanEstimatorConfig]):
        if train.n_rows == 0:
            raise ValueError("training dataset is empty")
        if mean_config is None:
            loss = LOGISTIC if config.task == BINARY else SQUARED
            mean_config = MeanEstimatorConfig(loss=loss)

        X = train.X
        if config.task == BINARY:
            if mean_config.loss != LOGISTIC:
                raise ValueError("binary task requires a logistic mean estimator")
            y0 = encode_prototypes(train.y, config.prototype_epsilon)
            self.standardization = None
            self.positive_rate = float(train.y.mean())
            mean_target = train.y
        else:
            m = float(train.y.mean())
            s = max(float(train.y.std()), 1e-8)
            y0 = (train.y - m) / s
            self.standardization = (m, s)
            self.positive_rate = None
            mean_target = y0

        fphi = np.empty(train.n_rows)
        self.mean_est = fit_mean_estimator(X, mean_target, train.kinds(), mean_config,
                                           fitted_out=fphi)
        self.base, mu = _tree_inputs(X, fphi, config.prior_mean_mode)
        reps = self.n_noise = config.n_noise
        self.m = train.n_rows * reps
        self.kinds_z = [NUMERIC] + train.kinds() + [NUMERIC]
        self.Z = np.tile(self.base, (reps, 1))
        self.y0_rep = np.tile(y0, reps)
        self.mu_rep = np.tile(mu, reps)
        # static numeric columns keep the same order for every timestep's tree
        self.presorted = _presort(self.Z, [j for j, kind in enumerate(self.kinds_z)
                                           if j > 0 and kind == NUMERIC])

    @functools.cached_property
    def group(self):
        """The training row behind each row of ``Z``, for routing through ``base``."""
        return np.tile(np.arange(self.base.shape[0]), self.n_noise)


def _tree_inputs(X, fphi, prior_mean_mode):
    """``(base, mu)``: step-tree input rows (column 0 left for the noisy response,
    then ``X``, then ``fphi``) and the chain's prior mean, ``fphi`` or zero."""
    base = np.empty((X.shape[0], X.shape[1] + 2))
    base[:, 1:-1] = X
    base[:, -1] = fphi
    mu = fphi if prior_mean_mode == PRIOR_MEAN_ESTIMATOR else np.zeros_like(fphi)
    return base, mu


def _reverse_step(sched, tree, base, group, y, mu_rep, t, rng, predicts_noise):
    """One reverse step through ``tree`` from the noisy values ``y`` at t of
    the rows ``base[group]``: the clean-response estimate at t and, for t > 1,
    a posterior draw at t-1 (else None)."""
    pred = _predict_replicated(tree, base, 0, y, group)
    # a noise prediction gives the clean response by inverting the forward draw
    y0_hat = y0_from_noise(sched, y, pred, mu_rep, t) if predicts_noise else pred
    if t == 1:
        return y0_hat, None
    return y0_hat, posterior_sample(sched, posterior_mean(sched, y, y0_hat, mu_rep, t), t, rng)


def _dbt_step(setup, sched, trees, t, eps, rng):
    """Below T, a forward draw at t+1 and one reverse step through the tree
    fitted at t+1, as sampling takes it; the target is the clean response."""
    if t == sched.T:
        setup.Z[:, 0] = setup.mu_rep + eps
    else:
        y_next = forward_sample(sched, setup.y0_rep, setup.mu_rep, t + 1, eps)
        setup.Z[:, 0] = _reverse_step(sched, trees[t + 1], setup.base, setup.group, y_next,
                                      setup.mu_rep, t + 1, rng, predicts_noise=False)[1]
    return setup.y0_rep


def _card_t_step(setup, sched, trees, t, eps, rng):
    """Draw the forward process at t itself; the target is its noise."""
    setup.Z[:, 0] = forward_sample(sched, setup.y0_rep, setup.mu_rep, t, eps)
    return eps


class _Kind(NamedTuple):
    """Everything that sets one kind of model apart from the other."""
    train_domain: int       # stream domain of the per-timestep training noise
    step: Callable          # fills the noisy-input column, returns the target
    predicts_noise: bool    # trees predict the forward noise, not the clean response


_KINDS = {
    DBT: _Kind(streams.DOMAIN_DBT_TRAIN, _dbt_step, predicts_noise=False),
    CARD_T: _Kind(streams.DOMAIN_CARD_T_TRAIN, _card_t_step, predicts_noise=True),
}


def _training_mse(tree, leaf, target, config):
    """MSE of ``tree`` on its training rows; ``leaf`` holds each row's leaf
    from ``fit_tree`` unless the learning rate is 1."""
    # exact when the leaf learning rate is 1: leaves are means, so the fitted
    # SSE equals the root SSE minus the accumulated split gains
    if config.tree_params.learning_rate == 1.0:
        root_sse = float(((target - target.mean()) ** 2).sum())
        return max(root_sse - float(tree.split_gain.sum()), 0.0) / target.shape[0]
    with np.errstate(over="ignore"):         # _train rejects a non-finite MSE
        return float(((target - tree.value[leaf]) ** 2).mean())


def _train(train: Dataset, config: DbtConfig,
           mean_config: Optional[MeanEstimatorConfig], kind: str) -> DbtModel:
    """Fit the mean estimator, then one tree per timestep from T down to 1.

    Every training row is replicated ``config.n_noise`` times.  Each timestep
    draws fresh noise from a stream keyed by (seed, kind, t); the kind's step
    hook turns it into the noisy-input column and names the tree's target.
    """
    sched = config.schedule
    domain, step, _ = _KINDS[kind]
    setup = _TrainingSetup(train, config, mean_config)

    trees: list = [None] * (config.T + 1)
    log = []
    # each training row's leaf; only the MSE at a learning rate other than 1 reads it
    leaf = None if config.tree_params.learning_rate == 1.0 else np.empty(setup.m, dtype=np.intp)
    for t in range(config.T, 0, -1):
        rng = streams.stream(config.seed, domain, t)
        eps = rng.standard_normal(setup.m)
        target = step(setup, sched, trees, t, eps, rng)
        trees[t] = fit_tree(setup.Z, target, setup.kinds_z, config.tree_params,
                            presorted=setup.presorted, leaf_out=leaf)
        log.append(_training_mse(trees[t], leaf, target, config))
        if not np.isfinite(log[-1]):
            raise ValueError(f"the training MSE at t={t} is not finite ({log[-1]!r})")

    return DbtModel(
        mean_est=setup.mean_est, step_trees=tuple(trees[1:]), config=config,
        columns=tuple(train.columns), response_name=train.response_name,
        target_standardization=setup.standardization,
        train_positive_rate=setup.positive_rate,
        train_log=tuple(log), kind=kind,
    )


def train_dbt(train: Dataset, config: DbtConfig = DbtConfig(),
              mean_config: Optional[MeanEstimatorConfig] = None) -> DbtModel:
    """Fit a ``"dbt"`` model: one clean-response tree per timestep, T down to 1.

    At t = T the tree's noisy input column is a prior draw.  Below T, it is a
    fresh forward draw at t+1 taken through the sampler's reverse step with
    the just-fitted tree for t+1.
    """
    return _train(train, config, mean_config, DBT)


def train_card_t(train: Dataset, config: DbtConfig = DbtConfig(),
                 mean_config: Optional[MeanEstimatorConfig] = None) -> DbtModel:
    """Fit a ``"card_t"`` model on (noisy response -> forward noise) pairs.

    Each timestep draws its own noise from a stream keyed by (seed, t) and
    reads no other timestep's tree, so nothing couples the timesteps.
    """
    return _train(train, config, mean_config, CARD_T)


def _encode_rows(model, rows) -> np.ndarray:
    if isinstance(rows, Dataset):
        return reencode(rows, model.columns)
    X = np.asarray(rows, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.columns):
        raise ValueError(f"expected {len(model.columns)} feature columns")
    return X


def _reverse_chain(model, X, s_count, rng):
    """``s_count`` clean-response draws per row of ``X``: a prior draw at T,
    then one :func:`_reverse_step` per timestep down to 1, the step that also
    makes each ``"dbt"`` tree's training inputs from its predecessor's output.
    """
    sched = model.config.schedule
    m = X.shape[0]
    base, mu = _tree_inputs(X, predict_mean(model.mean_est, X), model.config.prior_mean_mode)
    group = np.repeat(np.arange(m), s_count)
    mu_rep = mu[group]
    predicts_noise = _KINDS[model.kind].predicts_noise

    y = mu_rep + rng.standard_normal(m * s_count)
    for t in range(sched.T, 0, -1):
        y0_hat, y = _reverse_step(sched, model.step_trees[t - 1], base, group, y, mu_rep,
                                  t, rng, predicts_noise)
    return y0_hat.reshape(m, s_count)


def sample(model: DbtModel, rows, s_count: int,
           rng: np.random.Generator) -> np.ndarray:
    """Generate ``s_count`` response samples per row; returns an (M, S) matrix.

    Works for either kind of model.  Regression outputs are mapped back to
    original response units.  For the binary task the outputs are logits (see
    :func:`classify`).
    """
    if s_count < 1:
        raise ValueError("s_count must be >= 1")
    out = _reverse_chain(model, _encode_rows(model, rows), s_count, rng)
    if model.target_standardization is not None:
        m, s = model.target_standardization
        out = out * s + m
    if not np.isfinite(out).all():
        raise ValueError("the samples are not all finite")
    return out


def _sample_kind(kind, model, rows, s_count, rng):
    if model.kind != kind:
        raise ValueError(f"expected a {kind!r} model, got a {model.kind!r} one")
    return sample(model, rows, s_count, rng)


def sample_dbt(model: DbtModel, rows, s_count: int,
               rng: np.random.Generator) -> np.ndarray:
    """:func:`sample` for a ``"dbt"`` model; other kinds raise ``ValueError``."""
    return _sample_kind(DBT, model, rows, s_count, rng)


def sample_card_t(model: DbtModel, rows, s_count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """:func:`sample` for a ``"card_t"`` model; other kinds raise ``ValueError``."""
    return _sample_kind(CARD_T, model, rows, s_count, rng)
