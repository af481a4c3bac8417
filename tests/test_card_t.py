import numpy as np
import pytest

from diffboost import streams
from diffboost.card_t import sample_card_t, train_card_t
from diffboost.data import Column, Dataset, toy_generate
from diffboost.dbt import DbtConfig, _reverse_chain, sample, sample_dbt, train_dbt
from diffboost.metrics import nll
from diffboost.schedule import y0_from_noise
from diffboost.tree import CATEGORICAL, NUMERIC, TreeParams

FAST_TREES = TreeParams(num_leaves=15, min_samples_leaf=8)


def tiny_config(**kw):
    base = dict(T=8, n_noise=6, tree_params=FAST_TREES, seed=21)
    base.update(kw)
    return DbtConfig(**base)


def constant_dataset(n=150, c=2.5, seed=0):
    rng = np.random.default_rng(seed)
    cols = (Column("x0", NUMERIC), Column("x1", NUMERIC))
    return Dataset("const", cols, rng.uniform(size=(n, 2)), np.full(n, c))


def test_timestep_order_is_irrelevant(tmp_path):
    from diffboost.model_io import save_model
    ds = toy_generate("a", 200, seed=1)
    cfg = tiny_config()
    rng = np.random.default_rng(5)
    order = rng.permutation(np.arange(1, cfg.T + 1)).tolist()
    m1 = train_card_t(ds, cfg)
    m2 = train_card_t(ds, cfg, timestep_order=order)
    p1, p2 = tmp_path / "a.dbtm", tmp_path / "b.dbtm"
    save_model(m1, p1)
    save_model(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()

    with pytest.raises(ValueError, match="permutation"):
        train_card_t(ds, cfg, timestep_order=[1, 1, 2])


def test_constant_dataset_noise_is_learnable():
    ds = constant_dataset()
    cfg = tiny_config(tree_params=TreeParams(num_leaves=31, min_samples_leaf=5))
    model = train_card_t(ds, cfg)
    # the noise is exactly recoverable from the noisy input, so training MSE
    # sits well below the prior variance of 1
    assert len(model.train_log) == cfg.T
    assert max(model.train_log) < 1.0
    samples = sample_card_t(model, ds.X[:5], 50, streams.stream(1, 1))
    spread = max(float(samples.std()), 0.05)
    assert np.abs(samples - 2.5).max() <= 5 * spread


def test_oracle_noise_predictor_reproduces_true_chain():
    # on the constant dataset the ideal noise predictor is analytic; feeding it
    # through the sampling chain must return the constant exactly
    ds = constant_dataset()
    cfg = tiny_config()
    model = train_card_t(ds, cfg)
    sched = model.schedule

    def oracle_y0(y, pred, mu_rep, t):
        eps_hat = (y - mu_rep * (1 - np.sqrt(sched.alpha_bar[t]))) \
            / np.sqrt(sched.one_minus_alpha_bar[t])
        return y0_from_noise(sched, y, eps_hat, mu_rep, t)

    out = _reverse_chain(model, ds.X[:8], 40, streams.stream(2, 2), oracle_y0)
    m, s = model.target_standardization
    assert np.abs(out * s + m - 2.5).max() < 1e-9


def test_sampling_determinism():
    ds = toy_generate("a", 150, seed=2)
    model = train_card_t(ds, tiny_config())
    probe = ds.X[:4]
    s1 = sample_card_t(model, probe, 5, streams.stream(7, 7))
    s2 = sample_card_t(model, probe, 5, streams.stream(7, 7))
    assert np.array_equal(s1, s2)
    assert s1.shape == (4, 5)


def test_input_layout_matches_sequential_variant():
    ds = toy_generate("a", 150, seed=3)
    model = train_card_t(ds, tiny_config())
    assert all(t.n_features == ds.n_features + 2 for t in model.step_trees)
    assert model.kind == "card_t"


def test_samplers_reject_the_other_kind():
    ds = toy_generate("a", 120, seed=4)
    cfg = tiny_config(T=3)
    dbt, card_t = train_dbt(ds, cfg), train_card_t(ds, cfg)
    probe = ds.X[:4]
    with pytest.raises(ValueError, match="got a 'card_t'"):
        sample_dbt(card_t, probe, 2, streams.stream(1, 1))
    with pytest.raises(ValueError, match="got a 'dbt'"):
        sample_card_t(dbt, probe, 2, streams.stream(1, 1))
    # the kind-specific samplers are the generic one restricted to their kind
    for model, kind_sampler in ((dbt, sample_dbt), (card_t, sample_card_t)):
        assert np.array_equal(sample(model, probe, 2, streams.stream(1, 1)),
                              kind_sampler(model, probe, 2, streams.stream(1, 1)))


def _categorical_surrogate(n, seed):
    k = 12
    effects = np.random.default_rng(12345)       # one fixed ground-truth function
    effect0 = effects.normal(scale=2.0, size=k)
    effect1 = effects.normal(scale=1.0, size=k)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, k, size=(n, 4)).astype(float)
    y = effect0[codes[:, 0].astype(int)] + effect1[codes[:, 1].astype(int)] \
        + rng.normal(scale=0.3, size=n)
    cats = tuple(str(i) for i in range(k))
    cols = tuple(Column(f"c{j}", CATEGORICAL, cats) for j in range(4))
    return Dataset("cat_surrogate", cols, codes, y)


@pytest.mark.slow
def test_sequential_training_beats_independent_on_categorical_task():
    # the sequential advantage needs the full-length chain: at short T the
    # independent baseline is better calibrated, while at T=1000 the sequential
    # model wins NLL decisively (measured here: ~0.65 vs ~1.41)
    train = _categorical_surrogate(1500, seed=4)
    test = _categorical_surrogate(500, seed=5)
    cfg = DbtConfig(T=1000, n_noise=50,
                    tree_params=TreeParams(num_leaves=63, min_samples_leaf=20), seed=6)
    seq = train_dbt(train, cfg)
    ind = train_card_t(train, cfg)
    s_seq = sample_dbt(seq, test, 100, streams.stream(8, 8))
    s_ind = sample_card_t(ind, test, 100, streams.stream(8, 8))
    assert nll(test.y, s_seq) < nll(test.y, s_ind)
