import contextlib
import hashlib
import json
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diffboost import dbt, streams
from diffboost.boosting import MeanEstimatorConfig
from diffboost.card_t import sample_card_t, train_card_t
from diffboost.cli import main
from diffboost.data import (Column, Dataset, clf_toy_generate, mcar_mask, save_csv,
                            toy_generate)
from diffboost.dbt import BINARY, DbtConfig, sample, sample_dbt, train_dbt
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
    "card_t_categorical": "14c5acefdabc33376a1415b86062e0bb7a6badaa60069e9392755e3c0a3c115c",
    "dbt_mcar": "8287e1c5ed397f30aed4fd12de8decd2d5f70b0bad4f647a0300f265204a98df",
    "cli_card_t": "990fad27b116570f9faa62ea54a5cacdb43f6aa14431267f7fbdec5fa651f47e",
}


def golden_tiny(trainer):
    tiny = TreeParams(num_leaves=4, min_samples_leaf=3)
    return trainer(mixed_dataset(n=40, seed=11),
                   DbtConfig(T=4, n_noise=3, tree_params=tiny, seed=5),
                   MeanEstimatorConfig(n_trees=3, tree_params=tiny))


@pytest.mark.parametrize("kind,trainer", [("dbt", train_dbt), ("card_t", train_card_t)])
def test_golden_file_bytes(tmp_path, kind, trainer):
    model = golden_tiny(trainer)
    path = tmp_path / f"{kind}.dbtm"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[kind]


def categorical_dataset(n=300, seed=13):
    """4 categorical columns of 12 levels with ~10% missing cells and some
    negative (unknown) codes in the last column."""
    rng = np.random.default_rng(seed)
    k = 12
    codes = rng.integers(0, k, size=(n, 4)).astype(float)
    y = rng.normal(size=k)[codes[:, 0].astype(int)] + 0.5 * codes[:, 1] \
        + rng.normal(scale=0.3, size=n)
    codes[rng.random((n, 4)) < 0.1] = np.nan
    codes[rng.random(n) < 0.05, 3] = -1.0
    cats = tuple(str(i) for i in range(k))
    cols = tuple(Column(f"c{j}", CATEGORICAL, cats) for j in range(4))
    return Dataset("cat_missing", cols, codes, y)


def golden_categorical():
    return train_card_t(categorical_dataset(),
                        DbtConfig(T=3, n_noise=4, seed=7,
                                  tree_params=TreeParams(num_leaves=15, min_samples_leaf=5)),
                        MeanEstimatorConfig(n_trees=4, tree_params=TreeParams(
                            num_leaves=31, min_samples_leaf=5)))


def test_golden_file_bytes_categorical(tmp_path):
    model = golden_categorical()
    path = tmp_path / "card_t_categorical.dbtm"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN_SHA256["card_t_categorical"]


def golden_mcar():
    # every feature column has missing cells, and 31-leaf trees split on them often
    deep = TreeParams(num_leaves=31, min_samples_leaf=3, learning_rate=0.5)
    return train_dbt(mcar_mask(toy_generate("a", 200, seed=17), 0.2, seed=17),
                     DbtConfig(T=4, n_noise=3, tree_params=deep, seed=9),
                     MeanEstimatorConfig(n_trees=3, tree_params=deep))


def test_golden_file_bytes_missing_cells(tmp_path):
    model = golden_mcar()
    path = tmp_path / "dbt_mcar.dbtm"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256["dbt_mcar"]


def test_golden_file_bytes_cli(tmp_path):
    # every training setting but ``task`` off its default, some from a config
    # file and some from flags, with the flags overriding two file values
    data = tmp_path / "a.csv"
    save_csv(toy_generate("a", 120, seed=21), data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# golden run\nmodel-kind=card_t\ntimesteps=9\nn-noise=3\n"
                   "num-leaves=7\nbeta-start=0.0002\nbeta-end = 0.05\n"
                   "prior-mean=zero\nmean-trees=3\nmean-leaves=5\nseed=4\n")
    path = tmp_path / "cli_card_t.dbtm"
    assert main(["train", "--data", str(data), "--config", str(cfg), "--out", str(path),
                 "--timesteps", "5", "--min-samples-leaf", "6", "--learning-rate", "0.7",
                 "--prototype-epsilon", "0.02", "--mean-shrinkage", "0.2",
                 "--mcar-rate", "0.15", "--seed", "8"]) == 0
    model = load_model(path)
    assert (model.kind, model.config.T, model.config.seed) == ("card_t", 5, 8)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256["cli_card_t"]


# SHA-256 of the (M, S) float64 matrix that ``sample`` draws from a golden
# model with a fixed stream.  A change to the sampler must leave these alone.
GOLDEN_SAMPLE_SHA256 = {
    "dbt": "66c47fdf3a6044de04f5af5c9edc5cb53d1f3d7cc6415d1a85ede24485307b4b",
    "card_t": "4e07097415e7402fe0bc6b1c71cca05c228fef68368a422129d8c28dafd69a93",
    "card_t_categorical": "d074cdc44cede6b7306e8de985afefa86d0f9d583d88004b3a2aff737a838ca9",
    "dbt_mcar": "15257e0853da1ca1caa09e6b90522b578ccf6fe5a79c14ba93df095e0cc979e8",
    "binary": "2b0326cb03bdfc40fd6baa94e852307b5c03e2a3c19e9a3c69cf93b9cec931d9",
}


def golden_binary():
    return train_dbt(clf_toy_generate(300, seed=23),
                     DbtConfig(T=6, n_noise=4, tree_params=FAST, task=BINARY, seed=6))


GOLDEN_SAMPLE_CASES = {     # name: (model, held-out rows)
    "dbt": (lambda: golden_tiny(train_dbt), lambda: mixed_dataset(n=30, seed=12)),
    "card_t": (lambda: golden_tiny(train_card_t), lambda: mixed_dataset(n=30, seed=12)),
    "card_t_categorical": (golden_categorical, lambda: categorical_dataset(n=40, seed=14)),
    "dbt_mcar": (golden_mcar, lambda: mcar_mask(toy_generate("a", 40, seed=18), 0.2, seed=18)),
    "binary": (golden_binary, lambda: clf_toy_generate(30, seed=24)),
}


@pytest.mark.parametrize("name", GOLDEN_SAMPLE_CASES)
def test_golden_sample_bytes(name):
    build, rows = GOLDEN_SAMPLE_CASES[name]
    out = sample(build(), rows(), 25, streams.stream(31, 7))
    assert out.shape[1] == 25 and out.dtype == np.float64
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_SAMPLE_SHA256[name]


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


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _header(raw):
    head_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    return json.loads(raw[16:16 + head_len]), 16 + head_len


def _patch_array(path, name, index, value):
    """Overwrite entry ``index`` of the stored array ``name`` in place."""
    raw = bytearray(path.read_bytes())
    header, blob_start = _header(raw)
    spec = next(a for a in header["arrays"] if a["name"] == name)
    dtype = np.dtype(spec["dtype"])
    assert index < spec["shape"][0]
    at = blob_start + spec["offset"] + index * dtype.itemsize
    raw[at:at + dtype.itemsize] = np.array([value], dtype=dtype).tobytes()
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("name,index,value", [
    ("step.children_left", 0, 0),        # the root's left child is the root
    ("step.children_right", 0, -1),      # an internal node without a right child
    ("step.feature", 0, 99),
    ("mean.feature", 0, -2),
    ("step.tree_offsets", 1, 10**6),
    ("mean.cat_values", 0, -3),
    ("mean.cat_values", 0, 2**40),       # at or above max_categorical_cardinality
    ("step.is_categorical", 0, 1),       # a category set on a numeric split
    ("step.threshold", 0, np.nan),       # prediction would send every present value right
], ids=["child_is_parent", "missing_child", "feature_99", "feature_negative",
        "offset_past_end", "negative_category", "huge_category", "kind_mismatch",
        "nan_threshold"])
def test_corrupt_node_table_is_a_data_error(tmp_path, capsys, name, index, value):
    ds = mixed_dataset(seed=3)
    model = train_dbt(ds, DbtConfig(T=3, n_noise=4, tree_params=FAST, seed=2),
                      MeanEstimatorConfig(n_trees=3, tree_params=FAST))
    # the patched root must be a numeric split for the mutations above to bite
    assert model.step_trees[0].feature[0] >= 0 and not model.step_trees[0].is_categorical[0]
    path = tmp_path / "m.dbtm"
    save_model(model, path)
    _patch_array(path, name, index, value)
    data = tmp_path / "d.csv"
    save_csv(ds, data)
    with time_limit(30):
        with pytest.raises(ModelFormatError, match="corrupt model file"):
            load_model(path)
        assert main(["sample", "--model", str(path), "--data", str(data)]) == 2
    assert "data error" in capsys.readouterr().err


def test_category_set_lengths_whose_sum_wraps_are_rejected(tmp_path):
    model = golden_categorical()
    cat_len = np.concatenate([t.cat_len for t in model.mean_est.trees])
    a, b, c = np.flatnonzero(cat_len)[:3]
    path = tmp_path / "m.dbtm"
    save_model(model, path)
    # two lengths of 2**63 - 1 take 2 off the int64 sum, so the lengths still
    # add up to the stored codes; routing by them would write past its arrays
    _patch_array(path, "mean.cat_len", a, 2**63 - 1)
    _patch_array(path, "mean.cat_len", b, 2**63 - 1)
    _patch_array(path, "mean.cat_len", c, cat_len[a] + cat_len[b] + cat_len[c] + 2)
    with pytest.raises(ModelFormatError, match="category set lengths"):
        load_model(path)


def test_category_code_past_its_column_is_rejected(tmp_path, capsys):
    # a cap of 10**13 lets a code of 10**12 past the cap check; routing by it
    # would build a category table of about 109 TiB
    path = tmp_path / "m.dbtm"
    save_model(golden_categorical(), path)
    raw = path.read_bytes()
    header, blob_start = _header(raw)
    for config in (header["config"], header["mean_config"]):
        config["tree_params"]["max_categorical_cardinality"] = 10**13
    head = json.dumps(header).encode()
    path.write_bytes(raw[:8] + np.uint64(len(head)).tobytes() + head + raw[blob_start:])
    load_model(path)                            # the raised cap alone still loads
    _patch_array(path, "mean.cat_values", 0, 10**12)
    data = tmp_path / "d.csv"
    save_csv(categorical_dataset(n=20, seed=14), data)
    with time_limit(30):
        with pytest.raises(ModelFormatError, match="category code out of range"):
            load_model(path)
        assert main(["sample", "--model", str(path), "--data", str(data)]) == 2
    assert "data error" in capsys.readouterr().err


def test_repeated_category_in_the_schema_is_rejected(tmp_path, capsys):
    path = tmp_path / "m.dbtm"
    save_model(golden_categorical(), path)
    raw = path.read_bytes()
    header, blob_start = _header(raw)
    categories = header["schema"]["columns"][0]["categories"]
    categories[1] = categories[0]
    head = json.dumps(header).encode()
    path.write_bytes(raw[:8] + np.uint64(len(head)).tobytes() + head + raw[blob_start:])
    with pytest.raises(ModelFormatError, match="a category is repeated"):
        load_model(path)
    data = tmp_path / "d.csv"
    save_csv(categorical_dataset(n=20, seed=14), data)
    assert main(["sample", "--model", str(path), "--data", str(data)]) == 2
    assert "data error" in capsys.readouterr().err


def test_underflowing_schedule_in_file_is_rejected(tmp_path):
    tiny = TreeParams(num_leaves=4, min_samples_leaf=3)
    model = train_dbt(mixed_dataset(n=40, seed=11),
                      DbtConfig(T=30, n_noise=2, tree_params=tiny, seed=5),
                      MeanEstimatorConfig(n_trees=2, tree_params=tiny))
    path = tmp_path / "m.dbtm"
    save_model(model, path)
    raw = path.read_bytes()
    header, blob_start = _header(raw)
    near_one = float(np.nextafter(1.0, 0.0))
    for entry in (header["config"], header["schedule"]):
        entry.update(beta_start=near_one, beta_end=near_one)
    head = json.dumps(header).encode()
    path.write_bytes(raw[:8] + np.uint64(len(head)).tobytes() + head + raw[blob_start:])
    with pytest.raises(ModelFormatError, match="underflows"):
        load_model(path)


def test_tree_count_is_checked_before_the_schedule_is_built(tmp_path, monkeypatch):
    path = tmp_path / "m.dbtm"
    save_model(golden_tiny(train_dbt), path)
    raw = path.read_bytes()
    header, blob_start = _header(raw)
    # without the patch below a failing check would build a schedule of 10**9 steps
    header["config"]["T"] = header["schedule"]["T"] = 10**9
    head = json.dumps(header).encode()
    path.write_bytes(raw[:8] + np.uint64(len(head)).tobytes() + head + raw[blob_start:])

    def refuse(*args):
        raise AssertionError("the schedule was built before the tree count was checked")
    monkeypatch.setattr(dbt, "build_linear_schedule", refuse)
    with pytest.raises(ModelFormatError, match="step trees stored"):
        load_model(path)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """name: (bytes of a golden model file, three rows to sample, a path to
    write damaged copies to)."""
    cases = {"dbt": (golden_tiny(train_dbt), mixed_dataset(n=3, seed=12)),
             "card_t_categorical": (golden_categorical(), categorical_dataset(n=3, seed=14))}
    files = {}
    for name, (model, rows) in cases.items():
        path = tmp_path_factory.mktemp("fuzz") / f"{name}.dbtm"
        save_model(model, path)
        files[name] = path.read_bytes(), rows, path
    return files


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["dbt", "card_t_categorical"]), cut=st.booleans(),
       at=st.integers(0, 2**20), bit=st.integers(0, 7))
# byte 595 of the golden DBT file is the "<" of a '"dtype":"<f8"'; bit 4 makes it ","
@example(name="dbt", cut=False, at=595, bit=4)
# byte 2353 is the schedule's T, 4; bit 1 makes it 6 while the config keeps 4
@example(name="dbt", cut=False, at=2353, bit=1)
def test_damaged_model_file_is_rejected_or_samples(fuzz_files, name, cut, at, bit):
    raw, rows, path = fuzz_files[name]
    at %= len(raw)
    path.write_bytes(raw[:at] if cut else raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:])
    with time_limit(30):
        try:
            model = load_model(path)
        except ModelFormatError:
            return
        try:
            sample(model, rows, 5, streams.stream(31, 7))
        except ValueError:
            pass
