"""Independently-trained per-timestep baseline (the CARD-T ablation).

A ``"card_t"`` model has the same schedule, tree settings and input layout
as the sequential one, but each timestep's tree is fitted in isolation to
predict the forward-process noise draw instead of the clean response.
Timesteps share no state, so training order is irrelevant, and the reverse
chain recovers the clean response from the predicted noise by inverting the
forward reparameterization.  The trainer loop and the sampler are the shared
ones in :mod:`diffboost.dbt`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .boosting import MeanEstimatorConfig
from .data import Dataset
from .dbt import CARD_T, DbtConfig, DbtModel, _sample_kind, _train
from .schedule import NoiseSchedule

__all__ = ["train_card_t", "sample_card_t"]


def train_card_t(train: Dataset, config: DbtConfig = DbtConfig(),
                 mean_config: Optional[MeanEstimatorConfig] = None,
                 schedule: Optional[NoiseSchedule] = None,
                 timestep_order: Optional[Sequence[int]] = None) -> DbtModel:
    """Fit a ``"card_t"`` model on (noisy response -> forward noise) pairs.

    Each timestep draws its own noise from a stream keyed by (seed, t), so any
    ``timestep_order`` (default T down to 1) produces a bit-identical model;
    the parameter exists because nothing couples the timesteps.
    """
    return _train(train, config, mean_config, schedule, CARD_T, timestep_order)


def sample_card_t(model: DbtModel, rows, s_count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """:func:`diffboost.dbt.sample` for a ``"card_t"`` model; other kinds
    raise ``ValueError``."""
    return _sample_kind(CARD_T, model, rows, s_count, rng)
