"""Seeded workload inputs for the benchmark.

Every generator takes the workload seed and nothing else that varies, so the
same seed always gives byte-identical inputs.  Sub-seeds for the individual
tables come from :func:`subseed`, keyed by a fixed tag per table.
"""

from __future__ import annotations

import numpy as np

import diffboost as db

# columns of the Boston housing table, in its usual order (MEDV is the response)
BOSTON_COLUMNS = ("crim", "zn", "indus", "chas", "nox", "rm", "age", "dis",
                  "rad", "tax", "ptratio", "b", "lstat")

_TAG_BOSTON = 1
_TAG_CATEGORICAL_TRAIN = 2
_TAG_CATEGORICAL_HELD = 3
_TAG_TOY_TRAIN = 4
_TAG_TOY_HELD = 5
_TAG_MCAR_TRAIN = 6
_TAG_MCAR_HELD = 7


def subseed(seed: int, tag: int, fold: int = 0) -> int:
    """A 32-bit seed derived from (workload seed, table tag, fold)."""
    return int(np.random.SeedSequence([int(seed), int(tag), int(fold)]).generate_state(1)[0])


def boston_like(n: int, seed: int) -> db.Dataset:
    """A synthetic table of the Boston housing shape: 13 complete numeric
    columns and a censored price response.

    A latent neighbourhood score ``z ~ N(0, 1)`` drives most columns, so they
    are correlated as in the real table, and each column is rounded to the
    real table's precision, so the exact split search meets ties::

        crim    = exp(N(-1 + 1.2 z, 1))                       3 decimals
        zn      = 0 w.p. 0.73, else 12.5 * U{1..8}
        indus   = clip(11 + 5 z + N(0, 3), 0.5, 28)           2 decimals
        chas    = Bernoulli(0.07)
        nox     = clip(0.55 + 0.08 z + N(0, 0.04), 0.38, 0.88) 3 decimals
        rm      = 6.3 - 0.3 z + N(0, 0.6)                     3 decimals
        age     = clip(68 + 20 z + N(0, 15), 3, 100)          1 decimal
        dis     = exp(N(1.2 - 0.4 z, 0.3))                    4 decimals
        rad     = 24 if z + N(0, 0.5) > 1, else U{1..8}
        tax     = round(400 + 120 z + N(0, 50))
        ptratio = clip(18.5 + 1.5 z + N(0, 1.5), 12.6, 22)    1 decimal
        b       = clip(396.9 - |N(0, 90)|, 0.3, 396.9)        2 decimals
        lstat   = clip(12.6 + 6 z + N(0, 3), 1.7, 38)         2 decimals

        medv = clip(22.5 + 4.5 (rm - 6.3) - 0.45 (lstat - 12.6)
                    - 1.2 log1p(crim) - 0.8 (ptratio - 18.5) + 3 chas
                    + (2 + 1.5 |z|) N(0, 1), 5, 50)            1 decimal

    The response noise grows with ``|z|`` so that the conditional
    distribution, not only its mean, depends on the covariates.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    crim = np.round(np.exp(rng.normal(-1.0 + 1.2 * z, 1.0)), 3)
    zn = np.where(rng.random(n) < 0.73, 0.0, 12.5 * rng.integers(1, 9, size=n))
    indus = np.round(np.clip(11.0 + 5.0 * z + rng.normal(0.0, 3.0, n), 0.5, 28.0), 2)
    chas = (rng.random(n) < 0.07).astype(float)
    nox = np.round(np.clip(0.55 + 0.08 * z + rng.normal(0.0, 0.04, n), 0.38, 0.88), 3)
    rm = np.round(6.3 - 0.3 * z + rng.normal(0.0, 0.6, n), 3)
    age = np.round(np.clip(68.0 + 20.0 * z + rng.normal(0.0, 15.0, n), 3.0, 100.0), 1)
    dis = np.round(np.exp(rng.normal(1.2 - 0.4 * z, 0.3)), 4)
    rad = np.where(z + rng.normal(0.0, 0.5, n) > 1.0, 24.0,
                   rng.integers(1, 9, size=n).astype(float))
    tax = np.round(400.0 + 120.0 * z + rng.normal(0.0, 50.0, n))
    ptratio = np.round(np.clip(18.5 + 1.5 * z + rng.normal(0.0, 1.5, n), 12.6, 22.0), 1)
    b = np.round(np.clip(396.9 - np.abs(rng.normal(0.0, 90.0, n)), 0.3, 396.9), 2)
    lstat = np.round(np.clip(12.6 + 6.0 * z + rng.normal(0.0, 3.0, n), 1.7, 38.0), 2)
    medv = (22.5 + 4.5 * (rm - 6.3) - 0.45 * (lstat - 12.6) - 1.2 * np.log1p(crim)
            - 0.8 * (ptratio - 18.5) + 3.0 * chas
            + (2.0 + 1.5 * np.abs(z)) * rng.standard_normal(n))
    medv = np.round(np.clip(medv, 5.0, 50.0), 1)
    X = np.column_stack([crim, zn, indus, chas, nox, rm, age, dis, rad, tax,
                         ptratio, b, lstat])
    cols = tuple(db.Column(name, db.NUMERIC) for name in BOSTON_COLUMNS)
    return db.Dataset("boston_like", cols, X, medv, response_name="medv")


def categorical_surrogate(n: int, seed: int) -> db.Dataset:
    """Four categorical columns of 12 levels; the response depends on the
    first two through one fixed ground-truth function plus N(0, 0.3^2) noise.

    A copy of the surrogate the CARD-T test suite uses, kept here so that the
    benchmark does not import test code.
    """
    k = 12
    effects = np.random.default_rng(12345)       # one fixed ground-truth function
    effect0 = effects.normal(scale=2.0, size=k)
    effect1 = effects.normal(scale=1.0, size=k)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, k, size=(n, 4)).astype(float)
    y = effect0[codes[:, 0].astype(int)] + effect1[codes[:, 1].astype(int)] \
        + rng.normal(scale=0.3, size=n)
    cats = tuple(str(i) for i in range(k))
    cols = tuple(db.Column(f"c{j}", db.CATEGORICAL, cats) for j in range(4))
    return db.Dataset("cat_surrogate", cols, codes, y)


def numeric_fold(seed: int, fold: int, n_train: int, n_held: int):
    """(train, held-out) Boston-shaped tables drawn from one seeded table."""
    ds = boston_like(n_train + n_held, subseed(seed, _TAG_BOSTON, fold))
    return (ds.subset(np.arange(n_train), name="boston_like/train"),
            ds.subset(np.arange(n_train, n_train + n_held), name="boston_like/held"))


def categorical_fold(seed: int, fold: int, n_train: int, n_held: int):
    """(train, held-out) categorical surrogate tables with independent seeds."""
    return (categorical_surrogate(n_train, subseed(seed, _TAG_CATEGORICAL_TRAIN, fold)),
            categorical_surrogate(n_held, subseed(seed, _TAG_CATEGORICAL_HELD, fold)))


def toy_a_mcar(seed: int, n_train: int, n_held: int, rate: float):
    """(train, held-out) toy task ``a`` tables with MCAR feature cells, made
    through the library's own ``toy_generate`` and ``mcar_mask``."""
    train = db.mcar_mask(db.toy_generate("a", n_train, subseed(seed, _TAG_TOY_TRAIN)),
                         rate, subseed(seed, _TAG_MCAR_TRAIN))
    held = db.mcar_mask(db.toy_generate("a", n_held, subseed(seed, _TAG_TOY_HELD)),
                        rate, subseed(seed, _TAG_MCAR_HELD))
    return train, held
