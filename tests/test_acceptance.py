"""Release gate: every acceptance criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The two real-dataset benchmarks (criteria 11 and 12) need the UCI
files fetched by ``demos/fetch_uci.py``; without network access they skip with
an explicit message rather than fabricating data.

Heavy fixtures are shared: the task-a models serve criteria 5, 6 and 9.
"""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from diffboost import streams
from diffboost.boosting import MeanEstimatorConfig
from diffboost.card_t import sample_card_t, train_card_t
from diffboost.data import (
    SplitSpec,
    TOY_SEGMENT_NOISE,
    clf_toy_generate,
    load_csv,
    make_split,
    mcar_mask,
    toy_a_segment_mean,
    toy_b_boxes,
    toy_generate,
)
from diffboost.dbt import (
    BINARY,
    DbtConfig,
    _TrainingSetup,
    classify,
    sample_dbt,
    train_dbt,
)
from diffboost.metrics import deferral_report, nll, paired_t_test, piw, qice, rmse
from diffboost.model_io import load_model, save_model
from diffboost.schedule import build_linear_schedule, forward_sample, posterior_mean
from diffboost.tree import TreeParams, fit_tree, predict_tree

from oracles import brute_force_root_gain, random_small_dataset

pytestmark = pytest.mark.acceptance

# exact product of (1 - beta_t) for the default schedule, frozen from an
# independent rational-arithmetic computation
AB_1000 = 4.035829765375683e-05

SEED = 7
TASK_A_CFG = DbtConfig(T=200, n_noise=50,
                       tree_params=TreeParams(num_leaves=31, min_samples_leaf=20),
                       seed=SEED)


def _report(n, msg):
    print(f"\n[criterion {n:02d}] PASS - {msg}")


# ---------------------------------------------------------------------------
# shared heavy artifacts

@pytest.fixture(scope="module")
def task_a_train():
    return toy_generate("a", 2000, seed=SEED)


@pytest.fixture(scope="module")
def task_a_held():
    return toy_generate("a", 500, seed=SEED + 70)


@pytest.fixture(scope="module")
def task_a_model(task_a_train):
    return train_dbt(task_a_train, TASK_A_CFG)


@pytest.fixture(scope="module")
def task_a_card_t(task_a_train):
    return train_card_t(task_a_train, TASK_A_CFG)


# ---------------------------------------------------------------------------
# property criteria

def test_criterion_01_schedule_identities():
    sched = build_linear_schedule(1000, 1e-4, 0.02)
    t = np.arange(2, 1001)
    gap = np.abs(sched.gamma0[t] + sched.gamma1[t] + sched.gamma2[t] - 1.0).max()
    assert gap < 1e-12
    assert np.all(np.diff(sched.alpha_bar[1:]) < 0)
    assert abs(sched.alpha_bar[1000] - AB_1000) < 1e-7
    _report(1, f"gamma sum gap {gap:.2e}, alpha_bar[T] matches to {abs(sched.alpha_bar[1000]-AB_1000):.1e}")


def test_criterion_02_score_identity():
    from diffboost.schedule import noise_to_score
    sched = build_linear_schedule(1000, 1e-4, 0.02)
    rng = np.random.default_rng(19)
    h = 1e-5
    worst = 0.0
    checked = 0
    while checked < 100:
        t = int(rng.integers(1, 1001))
        y0, mu, eps = rng.normal(scale=2), rng.normal(), rng.normal()
        if abs(eps) < 0.05:
            continue
        var = sched.one_minus_alpha_bar[t]
        m = np.sqrt(sched.alpha_bar[t]) * y0 + (1 - np.sqrt(sched.alpha_bar[t])) * mu
        y_t = forward_sample(sched, y0, mu, t, eps)

        def logq(y):
            return -0.5 * (y - m) ** 2 / var - 0.5 * np.log(2 * np.pi * var)

        fd = (logq(y_t + h) - logq(y_t - h)) / (2 * h)
        score = noise_to_score(sched, eps, t)
        rel = abs(fd - score) / abs(score)
        worst = max(worst, rel)
        assert rel <= 1e-5
        checked += 1
    _report(2, f"100 finite-difference score checks, worst relative error {worst:.2e}")


def test_criterion_03_tree_split_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        X, y, kinds, msl = random_small_dataset(rng)
        tree = fit_tree(X, y, kinds, TreeParams(num_leaves=2, min_samples_leaf=msl))
        oracle = brute_force_root_gain(X, y, kinds, msl)
        if tree.n_leaves == 1:
            base = ((y - y.mean()) ** 2).sum()
            assert oracle <= 1e-9 * max(base, 1.0)
        else:
            assert tree.split_gain[0] == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        checked += 1
    _report(3, f"{checked} random small datasets match the brute-force split oracle")


def test_criterion_04_training_dependency_structure():
    ds = toy_generate("a", 200, seed=3)
    cfg = DbtConfig(T=20, n_noise=10,
                    tree_params=TreeParams(num_leaves=15, min_samples_leaf=8), seed=13)

    # sequential dependency: a perturbed predecessor changes the fitted tree
    model = train_dbt(ds, cfg)
    setup = _TrainingSetup(ds, cfg, None)
    sched = model.config.schedule
    t = 10

    def fit_step(prev_tree):
        rng = streams.stream(cfg.seed, streams.DOMAIN_DBT_TRAIN, t)
        eps = rng.standard_normal(setup.m)
        y_next = forward_sample(sched, setup.y0_rep, setup.mu_rep, t + 1, eps)
        setup.Z[:, 0] = y_next
        y0_hat = predict_tree(prev_tree, setup.Z)
        mean = posterior_mean(sched, y_next, y0_hat, setup.mu_rep, t + 1)
        setup.Z[:, 0] = mean + np.sqrt(sched.tilde_beta[t + 1]) \
            * rng.standard_normal(setup.m)
        return fit_tree(setup.Z, setup.y0_rep, setup.kinds_z, cfg.tree_params,
                        presorted=setup.presorted)

    replayed = fit_step(model.step_trees[t])
    stored = model.step_trees[t - 1]
    assert np.array_equal(replayed.threshold, stored.threshold, equal_nan=True)
    const_tree = fit_tree(np.zeros((20, setup.Z.shape[1])), np.zeros(20),
                          setup.kinds_z, TreeParams(min_samples_leaf=1))
    perturbed = fit_step(const_tree)
    assert (not np.array_equal(perturbed.feature, stored.feature)
            or not np.array_equal(perturbed.threshold, stored.threshold, equal_nan=True)
            or not np.array_equal(perturbed.value, stored.value, equal_nan=True))

    # order independence of the per-timestep baseline: visited in a shuffled
    # order, each tree refitted alone from its own timestep's noise stream is
    # the stored tree, so no tree depends on the timesteps trained before it
    card_t = train_card_t(ds, cfg)
    order = np.random.default_rng(5).permutation(np.arange(1, cfg.T + 1)).tolist()
    for t in order:
        eps = streams.stream(cfg.seed, streams.DOMAIN_CARD_T_TRAIN, t).standard_normal(setup.m)
        setup.Z[:, 0] = forward_sample(sched, setup.y0_rep, setup.mu_rep, t, eps)
        refit = fit_tree(setup.Z, eps, setup.kinds_z, cfg.tree_params, presorted=setup.presorted)
        stored = card_t.step_trees[t - 1]
        for f in dataclasses.fields(stored):
            assert np.array_equal(getattr(refit, f.name), getattr(stored, f.name),
                                  equal_nan=True), (t, f.name)
    _report(4, "sequential dependency present; every baseline tree refits alone, "
               "in shuffled order")


def test_criterion_05_toy_recovery(task_a_model, task_a_held):
    # unimodal task: probe means, held-out coverage, and the NLL property
    probes_u = np.concatenate([np.linspace(0.1, 0.9, 7), np.linspace(1.1, 1.9, 7),
                               np.linspace(2.1, 2.9, 6)])
    P = np.column_stack([probes_u] * 3)
    s = sample_dbt(task_a_model, P, 400, streams.stream(SEED, 1))
    probe_err = np.abs(s.mean(axis=1) - toy_a_segment_mean(probes_u))
    assert probe_err.max() < 0.15

    hs = sample_dbt(task_a_model, task_a_held, 200, streams.stream(SEED, 2))
    q = qice(task_a_held.y, hs)
    assert q < 5.0
    analytic = 0.5 * np.log(2 * np.pi * TOY_SEGMENT_NOISE ** 2) + 0.5
    got_nll = nll(task_a_held.y, hs)
    assert abs(got_nll - analytic) < 0.3

    # bimodal task: both modes populated in every covariate subinterval
    train_b = toy_generate("b", 2000, seed=SEED)
    cfg_b = DbtConfig(T=200, n_noise=50,
                      tree_params=TreeParams(num_leaves=63, min_samples_leaf=20),
                      seed=SEED)
    model_b = train_dbt(train_b, cfg_b)
    fracs = []
    for sub in range(3):
        probes = (sub + np.linspace(0.1, 0.9, 9))[:, None]
        sb = sample_dbt(model_b, probes, 400, streams.stream(SEED, 5))
        lo_box, hi_box = toy_b_boxes(sub)
        mid = 0.5 * (lo_box[1] + hi_box[0])
        f_lo = float((sb < mid).mean())
        fracs.append(f_lo)
        assert 0.30 <= f_lo <= 0.70
    _report(5, f"probe err max {probe_err.max():.3f} (<0.15), QICE {q:.2f}% (<5%), "
               f"NLL {got_nll:.3f} (analytic {analytic:.3f} ± 0.3), "
               f"task-b low-mode fractions {np.round(fracs, 2).tolist()}")


def test_criterion_06_junction_disjointness(task_a_model, task_a_card_t):
    probes_u = np.array([0.98, 0.995, 1.005, 1.02])
    P = np.column_stack([probes_u] * 3)
    s_dbt = sample_dbt(task_a_model, P, 1500, streams.stream(SEED, 3))
    s_ct = sample_card_t(task_a_card_t, P, 1500, streams.stream(SEED, 3))
    # bands at the junction: segment means 0.5 and 4.5, +/- 1.96 sigma
    gap_lo = 0.5 * 1.02 + 1.96 * TOY_SEGMENT_NOISE
    gap_hi = 0.5 * 0.98 + 4.0 - 1.96 * TOY_SEGMENT_NOISE
    f_dbt = float(((s_dbt > gap_lo) & (s_dbt < gap_hi)).mean())
    f_ct = float(((s_ct > gap_lo) & (s_ct < gap_hi)).mean())
    assert f_dbt <= f_ct
    _report(6, f"between-band sample fraction: sequential {f_dbt:.4f} <= independent {f_ct:.4f}")


def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(2)
    samples = rng.uniform(1.0, 2.0, size=(500, 50))
    assert qice(np.zeros(500), samples, n_bins=10) == pytest.approx(18.0, abs=1e-12)

    grid = np.arange(101, dtype=float)[None, :]
    assert piw(grid)[0] == pytest.approx(95.0, abs=1e-12)

    res = paired_t_test(np.full((1, 10), 0.5))
    assert not res.reject[0]
    res = paired_t_test(np.full((1, 10), 0.9))
    assert res.reject[0]
    res = paired_t_test(np.array([[0.52, 0.48, 0.51, 0.49, 0.50]]), alpha=0.05)
    assert res.t_stat[0] == pytest.approx(0.0, abs=1e-12) and not res.reject[0]
    _report(7, "QICE extreme 18.0%, PIW grid 95.0, t-test hand cases")


def test_criterion_08_deferral_property():
    train = clf_toy_generate(4000, seed=8, noisy_error=0.25)
    test = clf_toy_generate(2000, seed=88, noisy_error=0.25)
    cfg = DbtConfig(T=120, n_noise=25,
                    tree_params=TreeParams(num_leaves=63, min_samples_leaf=20),
                    task=BINARY, seed=8)
    model = train_dbt(train, cfg)
    logits = sample_dbt(model, test, 10, streams.stream(8, 1))
    labels, probs = classify(logits, threshold=model.train_positive_rate)
    tt = paired_t_test(probs, alpha=0.05)
    rep = deferral_report(test.y.astype(int), labels, piw(logits), {0.05: tt.reject})
    cell = rep.by_ttest[0.05]
    gap = cell["accuracy_reject"] - cell["accuracy_fail"]
    assert gap >= 0.05
    assert rep.blended_accuracy[0.05] > rep.overall_accuracy
    _report(8, f"reject-vs-fail accuracy gap {gap * 100:.1f}pp (>=5), "
               f"blended {rep.blended_accuracy[0.05] * 100:.2f}% > "
               f"raw {rep.overall_accuracy * 100:.2f}%")


def test_criterion_09_mcar_robustness(task_a_train, task_a_held, task_a_model):
    masked = mcar_mask(task_a_train, 0.10, seed=SEED)
    assert np.isnan(masked.X).mean() == pytest.approx(0.10, abs=0.01)
    model_m = train_dbt(masked, TASK_A_CFG)
    s_c = sample_dbt(task_a_model, task_a_held, 100, streams.stream(SEED, 4))
    s_m = sample_dbt(model_m, task_a_held, 100, streams.stream(SEED, 4))
    r_c = rmse(task_a_held.y, s_c)
    r_m = rmse(task_a_held.y, s_m)
    assert r_m < 1.5 * r_c
    _report(9, f"RMSE complete {r_c:.3f}, 10% MCAR {r_m:.3f} "
               f"({(r_m / r_c - 1) * 100:+.1f}% < +50%)")


def test_criterion_10_determinism_and_round_trip(tmp_path):
    ds = toy_generate("a", 200, seed=4)
    cfg = DbtConfig(T=10, n_noise=6,
                    tree_params=TreeParams(num_leaves=15, min_samples_leaf=8), seed=5)
    p1, p2 = tmp_path / "r1.dbtm", tmp_path / "r2.dbtm"
    save_model(train_dbt(ds, cfg), p1)
    save_model(train_dbt(ds, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()

    model = load_model(p1)
    probe = ds.X[:10]
    a = sample_dbt(model, probe, 5, streams.stream(6, 6))
    b = sample_dbt(load_model(p1), probe, 5, streams.stream(6, 6))
    assert np.array_equal(a, b)
    c = sample_dbt(model, probe, 5, streams.stream(6, 6))
    assert np.array_equal(a, c)
    _report(10, "byte-identical retrain; save/load preserves sampled values exactly")


# ---------------------------------------------------------------------------
# real-dataset benchmarks (external downloads; see demos/fetch_uci.py)

UCI_DIR = Path(os.environ.get("DIFFBOOST_UCI_DIR",
                              Path(__file__).resolve().parent.parent / "data" / "uci"))
BENCHMARK_CONFIG = DbtConfig(T=1000, n_noise=100,
                         tree_params=TreeParams(num_leaves=101, min_samples_leaf=20),
                         seed=0)


def _uci_fold(args):
    """One benchmark fold; module-level and argument-driven so process pools
    can run it."""
    path, fold_index, config, s_count = args
    data = load_csv(path)
    train, test = make_split(data, SplitSpec(train_fraction=0.9,
                                             fold_seed=config.seed,
                                             fold_index=fold_index))
    model = train_dbt(train, config, MeanEstimatorConfig())
    samples = sample_dbt(model, test, s_count,
                         streams.stream(config.seed, 1000 + fold_index))
    return rmse(test.y, samples), qice(test.y, samples)


def _run_uci(name, csv_name, folds, config=BENCHMARK_CONFIG, s_count=100, data_dir=None):
    path = (data_dir or UCI_DIR) / csv_name
    if not path.exists():
        pytest.skip(f"{name} data not present at {path}; run demos/fetch_uci.py "
                    "(needs network access) and re-run")
    from concurrent.futures import ProcessPoolExecutor
    jobs = [(str(path), i, config, s_count) for i in range(folds)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_uci_fold, jobs))
    return np.array([r[0] for r in results]), np.array([r[1] for r in results])


def test_criterion_11_uci_boston():
    rmses, qices = _run_uci("boston", "boston.csv", folds=20)
    mean_rmse, mean_qice = rmses.mean(), qices.mean()
    assert 2.1 <= mean_rmse <= 3.5
    assert mean_qice < 8.0
    _report(11, f"Boston 20-fold mean RMSE {mean_rmse:.2f} in [2.1, 3.5], "
                f"mean QICE {mean_qice:.2f}% < 8%")


def test_criterion_12_uci_wine():
    rmses, _ = _run_uci("wine", "wine.csv", folds=20)
    mean_rmse = rmses.mean()
    assert 0.55 <= mean_rmse <= 0.70
    _report(12, f"Wine 20-fold mean RMSE {mean_rmse:.3f} in [0.55, 0.70]")


def test_criterion_13_schedule_curve_claims(capsys):
    from diffboost.cli import main
    assert main(["schedule"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,gamma0,gamma1,gamma2,tilde_beta"
    rows = {int(l.split(",")[0]): [float(v) for v in l.split(",")[1:]]
            for l in lines[1:]}
    g0 = {t: r[0] for t, r in rows.items()}
    g1 = {t: r[1] for t, r in rows.items()}
    g2 = {t: r[2] for t, r in rows.items()}
    assert max(g2.values()) < 0.02
    assert all(g1[t] > 0.9 for t in rows if t >= 100)
    assert g0[2] > 10 * g0[500]
    _report(13, f"gamma2 max {max(g2.values()):.4f} < 0.02; gamma1 > 0.9 for t >= 100; "
                f"gamma0(2)/gamma0(500) = {g0[2] / g0[500]:.0f}x")
