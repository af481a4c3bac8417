"""Closed-form quantities of the Gaussian noising process.

Everything here is pure arithmetic on a fixed noise schedule: the forward
(noise-adding) sampling distribution, the tractable posterior used during
reverse-time generation, the clean-response reconstruction from a predicted
noise term, and the noise/score conversion.

Index convention: schedule arrays are 1-indexed by timestep t in {1..T};
slot 0 is unused so code reads like the math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseSchedule",
    "build_linear_schedule",
    "forward_sample",
    "posterior_mean",
    "posterior_sample",
    "y0_from_noise",
    "noise_to_score",
    "coefficient_table",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep constants of a noising process with T steps.

    ``beta`` is the stepwise noise variance, ``alpha_bar`` the running
    product of ``1 - beta``.  ``tilde_beta`` is the posterior variance and
    ``gamma0/1/2`` the posterior-mean weights on the clean response, the
    current noisy response, and the prior mean; they sum to one at every
    t >= 2.  All arrays have length T+1 with slot 0 unused (NaN) so that
    ``beta[t]`` means the t-th step.
    """

    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    one_minus_alpha_bar: np.ndarray
    tilde_beta: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray

    def __post_init__(self):
        for name in ("beta", "alpha_bar", "one_minus_alpha_bar",
                     "tilde_beta", "gamma0", "gamma1", "gamma2"):
            arr = getattr(self, name)
            if arr.shape != (self.T + 1,):
                raise ValueError(f"{name} must have shape ({self.T + 1},), got {arr.shape}")
            arr.setflags(write=False)

    def _check_t(self, t: int, lowest: int = 1) -> None:
        if not lowest <= t <= self.T:
            raise ValueError(f"timestep {t} outside [{lowest}, {self.T}]")


def build_linear_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Build the schedule with beta interpolated linearly from start to end inclusive.

    Requires T >= 2 and 0 < beta_start <= beta_end < 1, and a schedule whose
    ``alpha_bar[T]``, ``gamma0[2..T]`` and ``tilde_beta[2..T]`` stay finite and
    positive (a long chain of large betas underflows ``alpha_bar`` to zero,
    which the clean-response reconstruction divides by).
    """
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")

    beta = np.full(T + 1, np.nan)
    beta[1:] = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    alpha_bar = np.full(T + 1, np.nan)
    alpha_bar[1:] = np.cumprod(alpha[1:])

    # 1 - alpha_bar by the recurrence v_t = v_{t-1} + beta_t (1 - v_{t-1});
    # avoids cancellation at small t where alpha_bar ~= 1.
    omab = np.full(T + 1, np.nan)
    omab[1] = beta[1]
    for t in range(2, T + 1):
        omab[t] = omab[t - 1] + beta[t] * (1.0 - omab[t - 1])

    tilde_beta = np.full(T + 1, np.nan)
    tilde_beta[1] = 0.0
    tilde_beta[2:] = omab[1:T] / omab[2:] * beta[2:]

    # Posterior-mean coefficients, written exactly as defined (gamma2 is not
    # derived from the other two, so the sum-to-one identity is a live check).
    sqrt_ab = np.sqrt(alpha_bar)
    sqrt_a = np.sqrt(alpha)
    gamma0 = np.full(T + 1, np.nan)
    gamma1 = np.full(T + 1, np.nan)
    gamma2 = np.full(T + 1, np.nan)
    ts = np.arange(2, T + 1)
    gamma0[2:] = beta[ts] * sqrt_ab[ts - 1] / omab[ts]
    gamma1[2:] = omab[ts - 1] * sqrt_a[ts] / omab[ts]
    gamma2[2:] = 1.0 + (sqrt_ab[ts] - 1.0) * (sqrt_a[ts] + sqrt_ab[ts - 1]) / omab[ts]

    for name, used in (("alpha_bar[T]", alpha_bar[T:]), ("gamma0", gamma0[2:]),
                       ("tilde_beta", tilde_beta[2:])):
        if not (np.isfinite(used).all() and (used > 0).all()):
            raise ValueError(
                f"schedule T={T}, beta=({beta_start}, {beta_end}) underflows: "
                f"{name} is not finite and positive")

    return NoiseSchedule(
        T=T, beta=beta, alpha_bar=alpha_bar,
        one_minus_alpha_bar=omab, tilde_beta=tilde_beta,
        gamma0=gamma0, gamma1=gamma1, gamma2=gamma2,
    )


def forward_sample(sched: NoiseSchedule, y0, mu_T, t: int, eps):
    """Noisy response at step t: sqrt(ab_t) y0 + (1 - sqrt(ab_t)) mu_T + sqrt(1 - ab_t) eps."""
    sched._check_t(t)
    sab = np.sqrt(sched.alpha_bar[t])
    return sab * np.asarray(y0) + (1.0 - sab) * np.asarray(mu_T) \
        + np.sqrt(sched.one_minus_alpha_bar[t]) * np.asarray(eps)


def posterior_mean(sched: NoiseSchedule, y_t, y0_hat, mu_T, t: int):
    """Mean of the step-(t-1) posterior given the step-t value and a clean estimate.

    ``t`` is the source timestep (t in {2..T}); the returned vector is the
    Gaussian mean for the value at t-1.
    """
    sched._check_t(t, lowest=2)
    return (sched.gamma0[t] * np.asarray(y0_hat)
            + sched.gamma1[t] * np.asarray(y_t)
            + sched.gamma2[t] * np.asarray(mu_T))


def posterior_sample(sched: NoiseSchedule, mean, t: int, rng: np.random.Generator):
    """Draw the step-(t-1) value: Gaussian around ``mean`` with variance tilde_beta[t]."""
    sched._check_t(t, lowest=2)
    mean = np.asarray(mean, dtype=float)
    return mean + np.sqrt(sched.tilde_beta[t]) * rng.standard_normal(mean.shape)


def y0_from_noise(sched: NoiseSchedule, y_t, eps_hat, mu_T, t: int):
    """Reconstruct the clean response from a noisy value and a predicted noise term."""
    sched._check_t(t)
    sab = np.sqrt(sched.alpha_bar[t])
    return (np.asarray(y_t) - (1.0 - sab) * np.asarray(mu_T)
            - np.sqrt(sched.one_minus_alpha_bar[t]) * np.asarray(eps_hat)) / sab


def noise_to_score(sched: NoiseSchedule, eps, t: int):
    """Convert a noise vector into the gradient of the forward log-density: -eps / sqrt(1 - ab_t)."""
    sched._check_t(t)
    return -np.asarray(eps) / np.sqrt(sched.one_minus_alpha_bar[t])


def coefficient_table(sched: NoiseSchedule) -> np.ndarray:
    """Rows (t, gamma0, gamma1, gamma2, tilde_beta) for t from T down to 2, in sampling order."""
    ts = np.arange(sched.T, 1, -1)
    return np.column_stack([
        ts.astype(float),
        sched.gamma0[ts],
        sched.gamma1[ts],
        sched.gamma2[ts],
        sched.tilde_beta[ts],
    ])
