import numpy as np
import pytest

from diffboost.schedule import (
    build_linear_schedule,
    coefficient_table,
    forward_sample,
    noise_to_score,
    posterior_mean,
    posterior_sample,
    y0_from_noise,
)

# Frozen oracle values, computed once with exact rational arithmetic on the
# float64 beta grid (see tests/test_schedule.py history / fractions-based script):
#   alpha_bar[1000] for the default schedule, and alpha_bar[10].
AB_1000 = 4.035829765375683e-05
AB_10 = 0.9981052047858346
Y0_RECON_ORACLE = 0.4872134607123764   # y0_from_noise(y_t=0.5, eps=0.3, mu=0.2, t=10)


@pytest.fixture(scope="module")
def sched():
    return build_linear_schedule(1000, 1e-4, 0.02)


def test_beta_endpoints(sched):
    assert sched.beta[1] == 1e-4
    assert sched.beta[1000] == 0.02
    assert np.all(np.diff(sched.beta[1:]) >= 0)


def test_alpha_bar_first_and_last(sched):
    assert sched.alpha_bar[1] == pytest.approx(0.9999, abs=1e-15)
    assert abs(sched.alpha_bar[1000] - AB_1000) < 1e-7
    assert abs(sched.alpha_bar[1000] - AB_1000) < 1e-15  # cumprod vs exact product


def test_alpha_bar_strictly_decreasing(sched):
    ab = sched.alpha_bar[1:]
    assert np.all(np.diff(ab) < 0)
    assert np.all((ab > 0) & (ab < 1))


def test_gamma_affine_combination(sched):
    t = np.arange(2, 1001)
    s = sched.gamma0[t] + sched.gamma1[t] + sched.gamma2[t]
    assert np.abs(s - 1.0).max() < 1e-12


def test_tilde_beta_matches_naive_formula(sched):
    t = np.arange(2, 1001)
    naive = (1 - sched.alpha_bar[t - 1]) / (1 - sched.alpha_bar[t]) * sched.beta[t]
    assert np.allclose(sched.tilde_beta[t], naive, rtol=1e-9)
    assert np.all(sched.tilde_beta[t] > 0)


def test_invalid_ranges_rejected():
    with pytest.raises(ValueError):
        build_linear_schedule(1, 1e-4, 0.02)
    with pytest.raises(ValueError):
        build_linear_schedule(10, 0.0, 0.02)
    with pytest.raises(ValueError):
        build_linear_schedule(10, 0.03, 0.02)
    with pytest.raises(ValueError):
        build_linear_schedule(10, 0.1, 1.0)


def test_underflowing_schedule_rejected():
    # 1000 steps rising to beta=0.999 drive alpha_bar[T] to exactly 0.0
    with pytest.raises(ValueError, match="underflows"):
        build_linear_schedule(1000, 1e-4, 0.999)
    near_one = np.nextafter(1.0, 0.0)
    with pytest.raises(ValueError, match="underflows"):
        build_linear_schedule(30, near_one, near_one)
    assert build_linear_schedule(10, 1e-4, 0.999).alpha_bar[10] > 0


def test_forward_sample_zero_noise_is_mean(sched):
    y0 = np.array([0.3, -1.2])
    mu = np.array([1.0, 1.0])
    for t in (1, 17, 1000):
        got = forward_sample(sched, y0, mu, t, np.zeros(2))
        sab = np.sqrt(sched.alpha_bar[t])
        assert np.allclose(got, sab * y0 + (1 - sab) * mu, atol=1e-15)


def test_forward_sample_terminal_value(sched):
    got = forward_sample(sched, 1.0, 0.0, 1000, 0.0)
    assert got == pytest.approx(np.sqrt(AB_1000), abs=1e-12)
    assert got == pytest.approx(0.00636, abs=1e-4)


def test_forward_then_invert_recovers_y0(sched):
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = int(rng.integers(1, 1001))
        y0 = rng.normal(scale=3)
        mu = rng.normal()
        eps = rng.normal()
        y_t = forward_sample(sched, y0, mu, t, eps)
        back = y0_from_noise(sched, y_t, eps, mu, t)
        assert abs(back - y0) < 1e-10


def test_y0_from_noise_special_cases(sched):
    assert y0_from_noise(sched, 0.7, 0.0, 0.0, 5) == pytest.approx(
        0.7 / np.sqrt(sched.alpha_bar[5]), abs=1e-15)
    assert y0_from_noise(sched, 0.5, 0.3, 0.2, 10) == pytest.approx(
        Y0_RECON_ORACLE, abs=1e-12)


def test_posterior_mean_fixed_point(sched):
    for t in (2, 400, 1000):
        c = -2.7
        assert posterior_mean(sched, c, c, c, t) == pytest.approx(c, rel=1e-12)


def test_posterior_mean_terminal_coefficients(sched):
    assert abs(sched.gamma1[1000] - 1.0) < 0.02
    assert abs(sched.gamma0[1000]) < 0.02
    assert abs(sched.gamma2[1000]) < 0.02


def test_posterior_mean_rejects_t1(sched):
    with pytest.raises(ValueError):
        posterior_mean(sched, 0.0, 0.0, 0.0, 1)


def test_posterior_sample_moments(sched):
    rng = np.random.default_rng(11)
    t = 500
    draws = posterior_sample(sched, np.full(100_000, 1.5), t, rng)
    tb = sched.tilde_beta[t]
    se_mean = np.sqrt(tb / draws.size)
    se_var = tb * np.sqrt(2.0 / (draws.size - 1))
    assert abs(draws.mean() - 1.5) < 3 * se_mean
    assert abs(draws.var(ddof=1) - tb) < 3 * se_var


def test_noise_to_score_zero(sched):
    assert noise_to_score(sched, 0.0, 3) == 0.0


def test_noise_to_score_definitional_identity(sched):
    rng = np.random.default_rng(3)
    eps = rng.normal(size=8)
    for t in (1, 250, 1000):
        s = noise_to_score(sched, eps, t)
        assert np.allclose(-np.sqrt(sched.one_minus_alpha_bar[t]) * s, eps, rtol=1e-14)


def test_noise_to_score_matches_finite_differences(sched):
    # d/dy log N(y; m, s^2) at y = m + s*eps, via central differences h=1e-5.
    rng = np.random.default_rng(19)
    h = 1e-5
    checked = 0
    while checked < 100:
        t = int(rng.integers(1, 1001))
        y0 = rng.normal(scale=2)
        mu = rng.normal()
        eps = rng.normal()
        if abs(eps) < 0.05:
            continue
        var = sched.one_minus_alpha_bar[t]
        m = np.sqrt(sched.alpha_bar[t]) * y0 + (1 - np.sqrt(sched.alpha_bar[t])) * mu
        y_t = forward_sample(sched, y0, mu, t, eps)

        def logq(y):
            return -0.5 * (y - m) ** 2 / var - 0.5 * np.log(2 * np.pi * var)

        fd = (logq(y_t + h) - logq(y_t - h)) / (2 * h)
        score = noise_to_score(sched, eps, t)
        assert abs(fd - score) <= 1e-5 * abs(score)
        checked += 1


def test_coefficient_table_order_and_claims(sched):
    tab = coefficient_table(sched)
    assert tab.shape == (999, 5)
    assert tab[0, 0] == 1000 and tab[-1, 0] == 2
    g0, g1, g2 = tab[:, 1], tab[:, 2], tab[:, 3]
    assert g2.max() < 0.02
    ts = tab[:, 0].astype(int)
    assert np.all(g1[ts >= 100] > 0.9)
    assert sched.gamma0[2] > sched.gamma0[500]
