import hashlib

import numpy as np
import pytest

from diffboost import streams
from diffboost.boosting import MeanEstimatorConfig
from diffboost.card_t import sample_card_t, train_card_t
from diffboost.data import Column, Dataset, clf_toy_generate, toy_generate
from diffboost.dbt import BINARY, DbtConfig, sample_dbt, train_dbt
from diffboost.model_io import FORMAT_VERSION, MAGIC, ModelFormatError, load_model, save_model
from diffboost.tree import CATEGORICAL, TreeParams

FAST = TreeParams(num_leaves=15, min_samples_leaf=8)


def mixed_dataset(n=180, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.normal(size=n), rng.integers(0, 4, n).astype(float)])
    X[rng.random(n) < 0.1, 0] = np.nan
    cols = (Column("num", "numeric"), Column("cat", CATEGORICAL, ("a", "b", "c", "d")))
    y = np.where(np.isnan(X[:, 0]), 1.5, X[:, 0]) + X[:, 1]
    return Dataset("mixed", cols, X, y)


def test_round_trip_predictions_dbt(tmp_path):
    ds = mixed_dataset()
    model = train_dbt(ds, DbtConfig(T=9, n_noise=5, tree_params=FAST, seed=1))
    path = tmp_path / "m.dbtm"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "dbt"
    assert back.columns == model.columns
    assert back.config == model.config
    assert back.target_standardization == model.target_standardization
    assert back.train_log == model.train_log
    probe = ds.X[:10]
    a = sample_dbt(model, probe, 4, streams.stream(2, 2))
    b = sample_dbt(back, probe, 4, streams.stream(2, 2))
    assert np.array_equal(a, b)


def test_round_trip_predictions_card_t(tmp_path):
    ds = mixed_dataset(seed=1)
    model = train_card_t(ds, DbtConfig(T=7, n_noise=5, tree_params=FAST, seed=2))
    path = tmp_path / "c.dbtm"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "card_t"
    a = sample_card_t(model, ds.X[:6], 3, streams.stream(4, 4))
    b = sample_card_t(back, ds.X[:6], 3, streams.stream(4, 4))
    assert np.array_equal(a, b)


def test_round_trip_binary_model(tmp_path):
    train = clf_toy_generate(400, seed=3)
    model = train_dbt(train, DbtConfig(T=8, n_noise=6, tree_params=FAST,
                                       task=BINARY, seed=3))
    path = tmp_path / "b.dbtm"
    save_model(model, path)
    back = load_model(path)
    assert back.train_positive_rate == model.train_positive_rate
    assert back.target_standardization is None
    a = sample_dbt(model, train, 3, streams.stream(5, 5))
    b = sample_dbt(back, train, 3, streams.stream(5, 5))
    assert np.array_equal(a, b)


# SHA-256 of one tiny saved model of each kind.  A refactor must leave these
# bytes alone; only a deliberate change to training or to the file format
# (with a new FORMAT_VERSION) may update them.
GOLDEN_SHA256 = {
    "dbt": "c8e714df51c15b0e830937c66bfab7f3ea157dc2ae778c761d0f082008413ebc",
    "card_t": "3d520c7dc59ce6643365e3ce32aabacd818b625c4224654a108e1a1756d2b9e3",
}


@pytest.mark.parametrize("kind,trainer", [("dbt", train_dbt), ("card_t", train_card_t)])
def test_golden_file_bytes(tmp_path, kind, trainer):
    tiny = TreeParams(num_leaves=4, min_samples_leaf=3)
    model = trainer(mixed_dataset(n=40, seed=11),
                    DbtConfig(T=4, n_noise=3, tree_params=tiny, seed=5),
                    MeanEstimatorConfig(n_trees=3, tree_params=tiny))
    path = tmp_path / f"{kind}.dbtm"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[kind]


def test_save_is_deterministic(tmp_path):
    ds = toy_generate("a", 150, seed=4)
    cfg = DbtConfig(T=6, n_noise=4, tree_params=FAST, seed=4)
    p1, p2 = tmp_path / "a.dbtm", tmp_path / "b.dbtm"
    save_model(train_dbt(ds, cfg), p1)
    save_model(train_dbt(ds, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.dbtm"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ModelFormatError, match="bad magic"):
        load_model(p)
    p.write_bytes(b"\x01")
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_truncated_file_rejected(tmp_path):
    ds = toy_generate("a", 120, seed=7)
    model = train_dbt(ds, DbtConfig(T=5, n_noise=4, tree_params=FAST, seed=7))
    p = tmp_path / "t.dbtm"
    save_model(model, p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 3])
    with pytest.raises(ModelFormatError, match="corrupt"):
        load_model(p)


def test_version_mismatch_rejected(tmp_path):
    ds = toy_generate("a", 120, seed=5)
    model = train_dbt(ds, DbtConfig(T=5, n_noise=4, tree_params=FAST, seed=5))
    p = tmp_path / "v.dbtm"
    save_model(model, p)
    raw = bytearray(p.read_bytes())
    raw[4:8] = np.uint32(FORMAT_VERSION + 1).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(p)


def test_magic_prefix(tmp_path):
    ds = toy_generate("a", 120, seed=6)
    model = train_dbt(ds, DbtConfig(T=5, n_noise=4, tree_params=FAST, seed=6))
    p = tmp_path / "m.dbtm"
    save_model(model, p)
    assert p.read_bytes()[:4] == MAGIC
