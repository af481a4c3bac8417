import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffboost.metrics import (
    deferral_report,
    format_mean_std,
    nll,
    paired_t_test,
    piw,
    qice,
    rmse,
)


def test_rmse_hand_cases():
    truth = np.array([1.0, -2.0, 0.5])
    samples = np.tile(truth[:, None], (1, 7))
    assert rmse(truth, samples) == 0.0
    assert rmse(np.zeros(2), np.array([[1.0], [-1.0]])) == pytest.approx(1.0)


def test_rmse_gaussian_floor():
    rng = np.random.default_rng(0)
    m = rng.normal(size=3000)
    truth = m + rng.normal(size=3000)            # conditional noise sigma = 1
    samples = m[:, None] + rng.normal(size=(3000, 1000))
    assert rmse(truth, samples) == pytest.approx(1.0, rel=0.05)


def test_nll_closed_forms():
    a = 1.0 / np.sqrt(2.0)                        # sample std (ddof=1) exactly 1
    row = np.array([[-a, a]])
    base = 0.5 * np.log(2.0 * np.pi)
    assert nll(np.array([0.0]), row) == pytest.approx(base)
    assert nll(np.array([2.0]), row) == pytest.approx(base + 2.0)


def test_nll_matches_gaussian_entropy():
    # a perfectly specified unit-variance model scores the Gaussian entropy
    rng = np.random.default_rng(1)
    centers = rng.normal(scale=3.0, size=4000)
    truth = centers + rng.normal(size=4000)
    samples = centers[:, None] + rng.normal(size=(4000, 400))
    assert nll(truth, samples) == pytest.approx(0.5 * np.log(2 * np.pi) + 0.5, abs=0.05)


def test_nll_degenerate_sigma_floored():
    val = nll(np.array([1.0]), np.array([[1.0, 1.0, 1.0]]))
    assert np.isfinite(val)


def test_qice_extreme_is_18_percent():
    rng = np.random.default_rng(2)
    samples = rng.uniform(1.0, 2.0, size=(500, 50))
    truth = np.zeros(500)                         # below every sample
    assert qice(truth, samples, n_bins=10) == pytest.approx(18.0, abs=1e-12)


def test_qice_perfect_coverage_near_zero():
    rng = np.random.default_rng(3)
    mu = rng.normal(size=20000)
    truth = mu + rng.normal(size=20000)
    samples = mu[:, None] + rng.normal(size=(20000, 200))
    assert qice(truth, samples) < 1.5


def test_qice_median_two_bins():
    # truth sits at the per-row sample median, nudged alternately to the two
    # sides (an exact tie is a boundary case; the half/half split is the point)
    rng = np.random.default_rng(4)
    samples = rng.uniform(size=(1000, 101))
    med = np.median(samples, axis=1)
    truth = med + np.where(np.arange(1000) % 2 == 0, 1e-9, -1e-9)
    assert qice(truth, samples, n_bins=2) == pytest.approx(0.0, abs=1e-12)


def test_qice_upper_bound():
    rng = np.random.default_rng(5)
    for n_bins in (2, 5, 10):
        samples = rng.normal(size=(50, 40))
        truth = rng.normal(size=50) * 100        # mostly in extreme bins
        val = qice(truth, samples, n_bins=n_bins)
        assert 0.0 <= val <= 2 * (n_bins - 1) / n_bins**2 * 100 + 1e-9


@pytest.mark.parametrize("n_bins", [0, -3])
def test_qice_rejects_fewer_than_one_bin(n_bins):
    with pytest.raises(ValueError, match="n_bins must be >= 1"):
        qice(np.zeros(4), np.zeros((4, 5)), n_bins=n_bins)


def test_piw_hand_cases():
    assert np.allclose(piw(np.full((3, 9), 2.0)), 0.0)
    grid = np.arange(101, dtype=float)[None, :]
    assert piw(grid)[0] == pytest.approx(95.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
def test_piw_affine_property(scale, shift):
    rng = np.random.default_rng(6)
    s = rng.normal(size=(4, 50))
    base = piw(s)
    assert np.allclose(piw(scale * s + shift), scale * base, rtol=1e-9, atol=1e-9)


def test_t_test_hand_cases():
    res = paired_t_test(np.full((1, 10), 0.5))
    assert not res.reject[0] and res.p_value[0] == 1.0

    res = paired_t_test(np.full((1, 10), 0.9))
    assert res.reject[0] and res.p_value[0] == 0.0 and np.isinf(res.t_stat[0])

    row = np.array([[0.52, 0.48, 0.51, 0.49, 0.50]])
    res = paired_t_test(row, alpha=0.05)
    assert res.t_stat[0] == pytest.approx(0.0, abs=1e-12)
    assert not res.reject[0]


def test_t_test_matches_scipy_reference():
    from scipy import stats
    rng = np.random.default_rng(7)
    p1 = rng.uniform(0.2, 0.8, size=(20, 12))
    res = paired_t_test(p1)
    ref = stats.ttest_rel(p1, 1 - p1, axis=1)
    assert np.allclose(res.t_stat, ref.statistic)
    assert np.allclose(res.p_value, ref.pvalue)


def test_t_test_order_invariance():
    rng = np.random.default_rng(8)
    p1 = rng.uniform(size=(5, 16))
    shuffled = p1[:, rng.permutation(16)]
    a = paired_t_test(p1)
    b = paired_t_test(shuffled)
    assert np.array_equal(a.reject, b.reject)


def _table_fixture():
    """Class/outcome cell counts taken from the reference deferral run at
    alpha=0.05: per-class rejected-subset accuracies lift the blend to 76.68%
    from a 69.58% overall."""
    cells = [
        # (pred class, rejected, n, n_correct)
        (0, True, 335, 241),
        (0, False, 427, 263),
        (1, True, 372, 309),
        (1, False, 194, 111),
    ]
    lp, lt, rej = [], [], []
    for c, r, n, k in cells:
        for i in range(n):
            lp.append(c)
            lt.append(c if i < k else 1 - c)
            rej.append(r)
    lp = np.array(lp)
    lt = np.array(lt)
    rej = np.array(rej)
    return lt, lp, rej


def test_deferral_blending_reproduces_reference_numbers():
    lt, lp, rej = _table_fixture()
    piws = np.zeros(lt.shape[0])
    rep = deferral_report(lt, lp, piws, {0.05: rej})
    assert rep.overall_accuracy == pytest.approx(0.6958, abs=2e-4)
    cell = rep.by_ttest[0.05]
    assert cell["n_reject"] == 707 and cell["n_fail"] == 621
    assert cell["accuracy_reject"] == pytest.approx(0.7779, abs=2e-4)
    assert cell["accuracy_fail"] == pytest.approx(0.6023, abs=2e-4)
    assert rep.blended_accuracy[0.05] == pytest.approx(0.7668, abs=2e-4)
    assert rep.blended_accuracy[0.05] > rep.overall_accuracy


def test_deferral_all_correct():
    n = 40
    lt = np.tile([0, 1], n // 2)
    rep = deferral_report(lt, lt, np.linspace(0, 1, n),
                          {0.05: np.ones(n, dtype=bool)})
    for r in rep.by_class:
        assert r["accuracy"] == 1.0
    assert rep.by_ttest[0.05]["accuracy_reject"] == 1.0
    assert rep.by_ttest[0.05]["n_fail"] == 0
    assert np.isnan(rep.by_ttest[0.05]["accuracy_fail"])


def test_deferral_single_row():
    rep = deferral_report(np.array([1]), np.array([1]), np.array([0.5]),
                          {0.05: np.array([True])})
    assert rep.by_class[1]["n"] == 1
    assert rep.by_class[0]["n"] == 0
    assert np.isnan(rep.by_class[0]["accuracy"])


def test_deferral_piw_binning_quartiles():
    rng = np.random.default_rng(9)
    n = 400
    w = rng.normal(size=n)                        # > 16 distinct values
    lt = rng.integers(0, 2, n)
    rep = deferral_report(lt, lt, w, {})
    assert len(rep.piw_bins) == 4
    assert sum(r["n"] for r in rep.piw_bins) == n


def test_deferral_text_and_csv_render():
    lt, lp, rej = _table_fixture()
    rep = deferral_report(lt, lp, np.zeros(lt.shape[0]), {0.05: rej})
    text = rep.to_text()
    assert "blended deferral accuracy" in text
    csv_out = rep.to_csv()
    assert csv_out.startswith("table,key,field,value")
    assert "np.float64" not in csv_out


def test_permutation_equivariance_over_rows():
    rng = np.random.default_rng(10)
    truth = rng.normal(size=60)
    samples = rng.normal(size=(60, 30))
    perm = rng.permutation(60)
    assert rmse(truth, samples) == pytest.approx(rmse(truth[perm], samples[perm]))
    assert nll(truth, samples) == pytest.approx(nll(truth[perm], samples[perm]))
    assert qice(truth, samples) == pytest.approx(qice(truth[perm], samples[perm]))


def test_format_mean_std():
    assert format_mean_std([2.731, 2.629, 2.842]) == "2.73 ± 0.11"
    assert format_mean_std([8.81]) == "8.81 ± NA"


@pytest.mark.parametrize("metric", [rmse, nll, qice], ids=["rmse", "nll", "qice"])
@pytest.mark.parametrize("truth", [np.zeros(1), np.zeros(49), np.zeros(51), np.zeros((50, 1)),
                                   np.float64(0.0)],
                         ids=["one", "short", "long", "column", "scalar"])
def test_truth_of_the_wrong_shape_is_rejected(metric, truth):
    samples = np.random.default_rng(0).normal(size=(50, 20))
    with pytest.raises(ValueError, match="truth"):
        metric(truth, samples)


@pytest.mark.parametrize("metric", [rmse, nll, qice], ids=["rmse", "nll", "qice"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_truth_is_rejected(metric, bad):
    samples = np.random.default_rng(0).normal(size=(50, 20))
    truth = np.zeros(50)
    truth[7] = bad
    with pytest.raises(ValueError, match="finite"):
        metric(truth, samples)
