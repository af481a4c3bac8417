"""Derivation of independent, reproducible random streams from one base seed."""

from __future__ import annotations

import numpy as np

# Domain tags keep streams for different purposes statistically independent
# even when they share a timestep index.
DOMAIN_DBT_TRAIN = 1
DOMAIN_CARD_T_TRAIN = 2
DOMAIN_SAMPLING = 3


def stream(base_seed: int, *tags: int) -> np.random.Generator:
    """Return a Generator keyed by (base_seed, *tags).

    Equal keys always give identical streams; distinct keys give streams that
    are independent for all practical purposes (SeedSequence entropy mixing).
    """
    return np.random.default_rng(np.random.SeedSequence([int(base_seed), *map(int, tags)]))
