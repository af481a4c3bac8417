import dataclasses

import numpy as np
import pytest

from diffboost import streams
from diffboost.data import Column, Dataset, toy_generate
from diffboost.dbt import (
    BINARY,
    DbtConfig,
    _TrainingSetup,
    classify,
    encode_prototypes,
    sample_dbt,
    train_dbt,
)
from diffboost.schedule import forward_sample, posterior_mean
from diffboost.tree import NUMERIC, TreeParams, fit_tree, predict_tree

PROTO = 4.59511985013459       # logit(0.99), computed independently

FAST_TREES = TreeParams(num_leaves=15, min_samples_leaf=8)


def tiny_config(**kw):
    base = dict(T=8, n_noise=6, tree_params=FAST_TREES, seed=11)
    base.update(kw)
    return DbtConfig(**base)


def numeric_dataset(X, y, name="d"):
    cols = tuple(Column(f"x{j}", NUMERIC) for j in range(X.shape[1]))
    return Dataset(name, cols, X, y)


def step_dataset(n=600, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=n)
    y = np.where(x < 0.5, 0.0, 3.0) + rng.normal(scale=0.1, size=n)
    return numeric_dataset(x[:, None], y, "step")


def test_config_validation():
    with pytest.raises(ValueError):
        DbtConfig(T=1)
    with pytest.raises(ValueError):
        DbtConfig(n_noise=0)
    with pytest.raises(ValueError):
        DbtConfig(prototype_epsilon=0.5)
    with pytest.raises(ValueError):
        DbtConfig(prior_mean_mode="fphi")
    with pytest.raises(ValueError):
        DbtConfig(task="multiclass")


def test_encode_prototypes():
    got = encode_prototypes(np.array([0.0, 1.0]), epsilon=0.01)
    assert got == pytest.approx([-PROTO, PROTO], abs=1e-12)
    assert got[0] == -got[1]                       # symmetric about 0
    near_half = encode_prototypes(np.array([0.0, 1.0]), epsilon=0.4999)
    assert np.abs(near_half).max() < 1e-3          # prototypes collapse
    with pytest.raises(ValueError):
        encode_prototypes(np.array([0.0, 2.0]), epsilon=0.01)
    with pytest.raises(ValueError):
        encode_prototypes(np.array([0.0, 1.0]), epsilon=0.7)


def test_classify_rules():
    labels, p = classify(np.full((2, 4), 10.0))
    assert labels.tolist() == [1, 1]
    assert np.allclose(p, 1.0, atol=1e-4)

    logits = np.array([[-2, -2, -2, -2, -2, -2, 2, 2, 2, 2.0]])  # 6 of 10 vote 0
    labels, _ = classify(logits)
    assert labels[0] == 0

    # exact tie: mean probability against the threshold decides
    tie = np.array([[-1.0, 1.0]])
    assert classify(tie, threshold=0.5)[0][0] == 1      # mean p = 0.5 >= 0.5
    assert classify(tie, threshold=0.51)[0][0] == 0

    # imbalanced threshold honored: p ~= 0.3 votes positive at threshold 0.2
    mild = np.full((1, 10), np.log(0.3 / 0.7))
    assert classify(mild, threshold=0.2)[0][0] == 1
    assert classify(mild, threshold=0.5)[0][0] == 0


def test_constant_target_collapse():
    rng = np.random.default_rng(1)
    ds = numeric_dataset(rng.uniform(size=(120, 2)), np.full(120, 2.5))
    model = train_dbt(ds, tiny_config())
    samples = sample_dbt(model, ds.X[:5], 20, streams.stream(0, 0))
    assert np.abs(samples - 2.5).max() < 1e-9


def test_replication_design():
    ds = toy_generate("a", 150, seed=2)
    cfg = tiny_config(n_noise=7)
    setup = _TrainingSetup(ds, cfg, None)
    assert setup.Z.shape == (150 * 7, ds.X.shape[1] + 2)
    assert setup.kinds_z[0] == NUMERIC and setup.kinds_z[-1] == NUMERIC
    assert len(setup.kinds_z) == ds.X.shape[1] + 2


def test_train_log_and_tree_schema():
    ds = toy_generate("a", 150, seed=3)
    cfg = tiny_config()
    model = train_dbt(ds, cfg)
    assert len(model.train_log) == cfg.T
    assert all(m >= 0 for m in model.train_log)
    assert all(t.n_features == ds.X.shape[1] + 2 for t in model.step_trees)


def test_step_function_recovery_and_interval():
    # Interval tolerances follow the closed-form linear-Gaussian envelope of
    # the sampler: at T=100 and a conditional-noise-to-response-spread ratio of
    # 0.067 the chain can express at most ~77% of the true conditional spread,
    # so the generated central band is asserted against that ceiling rather
    # than the raw generator band.
    ds = step_dataset()
    cfg = DbtConfig(T=100, n_noise=50,
                    tree_params=TreeParams(num_leaves=31, min_samples_leaf=20), seed=4)
    model = train_dbt(ds, cfg)
    probes = np.array([[0.9], [0.1]])
    samples = sample_dbt(model, probes, 1000, streams.stream(4, 1))
    assert samples[0].mean() == pytest.approx(3.0, abs=0.1)
    assert samples[1].mean() == pytest.approx(0.0, abs=0.1)
    assert 0.055 <= samples[0].std() <= 0.115
    lo, hi = np.percentile(samples[0], [2.5, 97.5])
    assert 2.78 <= lo <= 2.95
    assert 3.05 <= hi <= 3.22

    # held-out distribution match
    held = step_dataset(400, seed=99)
    from diffboost.metrics import qice
    out = sample_dbt(model, held.X, 100, streams.stream(4, 2))
    assert qice(held.y, out) < 6.0


def test_sampling_determinism_and_shape():
    ds = toy_generate("a", 200, seed=5)
    model = train_dbt(ds, tiny_config())
    probe = ds.X[:7]
    s1 = sample_dbt(model, probe, 3, streams.stream(9, 9))
    s2 = sample_dbt(model, probe, 3, streams.stream(9, 9))
    assert s1.shape == (7, 3)
    assert np.isfinite(s1).all()
    assert np.array_equal(s1, s2)


def test_sampling_ignores_response():
    ds = toy_generate("a", 200, seed=6)
    model = train_dbt(ds, tiny_config())
    test_a = dataclasses.replace(ds, y=ds.y.copy())
    test_b = dataclasses.replace(ds, y=np.full(ds.n_rows, 1e6))
    sa = sample_dbt(model, test_a, 2, streams.stream(1, 2))
    sb = sample_dbt(model, test_b, 2, streams.stream(1, 2))
    assert np.array_equal(sa, sb)


def test_schema_mismatch_rejected():
    ds = toy_generate("a", 120, seed=7)
    model = train_dbt(ds, tiny_config())
    from diffboost.data import DataError
    bad = numeric_dataset(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(DataError):
        sample_dbt(model, bad, 1, streams.stream(0, 1))
    with pytest.raises(ValueError):
        sample_dbt(model, np.zeros((3, 9)), 1, streams.stream(0, 1))


def test_destandardization_equivariance_under_scaling():
    # scaling targets by a power of two keeps every standardization step exact,
    # so the two runs share one diffusion trajectory bit for bit
    ds = toy_generate("a", 250, seed=9)
    scaled = dataclasses.replace(ds, y=ds.y * 4.0)
    cfg = tiny_config()
    m1 = train_dbt(ds, cfg)
    m2 = train_dbt(scaled, cfg)
    probe = ds.X[:6]
    s1 = sample_dbt(m1, probe, 4, streams.stream(3, 3))
    s2 = sample_dbt(m2, probe, 4, streams.stream(3, 3))
    assert np.array_equal(s2, 4.0 * s1)


def test_sequential_dependency_between_adjacent_trees():
    ds = toy_generate("a", 250, seed=10)
    cfg = tiny_config(seed=13)
    model = train_dbt(ds, cfg)
    sched = model.config.schedule
    setup = _TrainingSetup(ds, cfg, None)
    t = 4

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

    # replaying the step with the true predecessor reproduces the stored tree
    replayed = fit_step(model.step_trees[t])       # step_trees[t] is timestep t+1
    stored = model.step_trees[t - 1]
    assert np.array_equal(replayed.threshold, stored.threshold, equal_nan=True)
    assert np.array_equal(replayed.value, stored.value, equal_nan=True)

    # a constant-output stand-in at t+1 changes what the tree at t learns
    const_tree = fit_tree(np.zeros((20, setup.Z.shape[1])), np.zeros(20),
                          setup.kinds_z, TreeParams(min_samples_leaf=1))
    perturbed = fit_step(const_tree)
    assert (not np.array_equal(perturbed.feature, stored.feature)
            or not np.array_equal(perturbed.threshold, stored.threshold, equal_nan=True)
            or not np.array_equal(perturbed.value, stored.value, equal_nan=True))


def test_binary_task_end_to_end():
    from diffboost.data import clf_toy_generate
    train = clf_toy_generate(1200, seed=11)
    cfg = DbtConfig(T=25, n_noise=20,
                    tree_params=TreeParams(num_leaves=31, min_samples_leaf=20),
                    task=BINARY, seed=12)
    model = train_dbt(train, cfg)
    assert model.target_standardization is None
    assert model.train_positive_rate == pytest.approx(train.y.mean())
    test = clf_toy_generate(400, seed=13)
    logits = sample_dbt(model, test, 10, streams.stream(2, 2))
    labels, probs = classify(logits, threshold=model.train_positive_rate)
    assert ((probs > 0) & (probs < 1)).all()
    acc = (labels == test.y.astype(int)).mean()
    assert acc > 0.7


def test_binary_rejects_non_binary_labels():
    rng = np.random.default_rng(14)
    y = (rng.uniform(size=100) < 0.5).astype(float)
    y[37] = 0.5                                    # one label that is neither 0 nor 1
    ds = numeric_dataset(rng.uniform(size=(100, 1)), y)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        train_dbt(ds, tiny_config(task=BINARY))


def test_importance_shifts_from_mean_estimate_to_noisy_input():
    from diffboost.tree import gain_importance
    train = toy_generate("a", 800, seed=7)
    cfg = DbtConfig(T=60, n_noise=25,
                    tree_params=TreeParams(num_leaves=31, min_samples_leaf=20), seed=7)
    model = train_dbt(train, cfg)
    fphi_col = train.X.shape[1] + 1
    mid = gain_importance(model.step_trees[30 - 1])
    assert int(np.argmax(mid)) == fphi_col           # mean estimate guides mid-chain
    final = gain_importance(model.step_trees[0])
    assert int(np.argmax(final)) == 0                # noisy input decides at the end


def test_zero_prior_mode():
    ds = toy_generate("a", 200, seed=15)
    model = train_dbt(ds, tiny_config(prior_mean_mode="zero"))
    s = sample_dbt(model, ds.X[:4], 3, streams.stream(5, 5))
    assert np.isfinite(s).all()
