import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import diffboost.cli as cli
from diffboost.cli import _SETTINGS, main
from diffboost.data import clf_toy_generate, load_csv, save_csv, toy_generate


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    save_csv(toy_generate("a", 160, seed=1), path)
    return str(path)


@pytest.fixture()
def clf_csv(tmp_path):
    path = tmp_path / "clf.csv"
    save_csv(clf_toy_generate(200, seed=5), path)
    return str(path)


TRAIN_FLAGS = ["--timesteps", "6", "--n-noise", "4", "--num-leaves", "15",
               "--min-samples-leaf", "8", "--mean-trees", "20", "--seed", "3"]


def _train(toy_csv, tmp_path, *extra):
    out = str(tmp_path / "model.dbtm")
    rc = main(["train", "--data", toy_csv, "--out", out, *TRAIN_FLAGS, *extra])
    assert rc == 0
    return out


def test_schedule_csv(capsys):
    assert main(["schedule", "--timesteps", "50"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,gamma0,gamma1,gamma2,tilde_beta"
    assert len(lines) == 50            # header + rows for t = 50..2
    assert lines[1].startswith("50,")
    assert lines[-1].startswith("2,")


def test_python_m_diffboost_runs_the_cli():
    import os
    import subprocess
    import sys
    import diffboost
    # the directory holding the imported package, so the child imports the same one
    root = str(Path(diffboost.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "diffboost", "schedule", "--timesteps", "5"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "t,gamma0,gamma1,gamma2,tilde_beta"


def test_schedule_defaults_match_coefficient_claims(capsys):
    assert main(["schedule"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 999
    g2 = np.array([float(r[3]) for r in rows])
    assert g2.max() < 0.02


def test_toy_then_train_then_sample(toy_csv, tmp_path, capsys):
    model_path = _train(toy_csv, tmp_path)
    err = capsys.readouterr().err
    assert "config:" in err
    assert sum(1 for l in err.splitlines() if " mse=" in l) == 6   # one per timestep

    rc = main(["sample", "--model", model_path, "--data", toy_csv,
               "--samples", "2", "--seed", "7"])
    assert rc == 0
    out1 = capsys.readouterr().out
    lines = out1.strip().splitlines()
    assert lines[0] == "row,sample,value"
    assert len(lines) == 1 + 160 * 2

    main(["sample", "--model", model_path, "--data", toy_csv,
          "--samples", "2", "--seed", "7"])
    assert capsys.readouterr().out == out1          # seeded rerun identical


def test_train_rerun_byte_identical(toy_csv, tmp_path, monkeypatch):
    p1 = _train(toy_csv, tmp_path)
    # without --out, train writes model.dbtm in the working directory
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert main(["train", "--data", toy_csv, *TRAIN_FLAGS]) == 0
    assert open(p1, "rb").read() == (tmp_path / "cwd" / "model.dbtm").read_bytes()


def test_eval_regression_text_and_csv(toy_csv, tmp_path, capsys):
    model_path = _train(toy_csv, tmp_path)
    capsys.readouterr()
    rc = main(["eval", "--model", model_path, "--data", toy_csv,
               "--samples", "20", "--seed", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    for key in ("rmse:", "nll:", "qice:"):
        assert key in text

    rc = main(["eval", "--model", model_path, "--data", toy_csv,
               "--samples", "20", "--seed", "1", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "metric,value"
    assert len(lines) == 4


def test_eval_multi_fold(toy_csv, capsys):
    rc = main(["cv", "--data", toy_csv, "--folds", "2", "--samples", "15",
               "--train-fraction", "0.8", "--threads", "1", *TRAIN_FLAGS])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "metric,mean,std,folds,summary"
    assert len(lines) == 4
    assert all("±" in l for l in lines[1:])


def test_classification_pipeline(tmp_path, capsys):
    from diffboost.data import clf_toy_generate
    data = tmp_path / "clf.csv"
    save_csv(clf_toy_generate(300, seed=2), data)
    model_path = str(tmp_path / "clf.dbtm")
    rc = main(["train", "--data", str(data), "--out", model_path,
               "--task", "binary", *TRAIN_FLAGS])
    assert rc == 0
    capsys.readouterr()

    rc = main(["sample", "--model", model_path, "--data", str(data),
               "--samples", "3", "--seed", "2"])
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "row,sample,logit,probability"

    rc = main(["eval", "--model", model_path, "--data", str(data),
               "--samples", "10", "--alpha", "0.05", "--alpha", "0.005"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "overall accuracy" in text
    assert "blended deferral accuracy" in text


@pytest.mark.parametrize("task", ["regression", "binary"])
def test_sample_csv_reads_back_bit_for_bit(tmp_path, task):
    from diffboost import streams
    from diffboost.data import clf_toy_generate
    from diffboost.dbt import sample
    from diffboost.model_io import load_model
    ds = clf_toy_generate(120, seed=4) if task == "binary" else toy_generate("a", 120, seed=4)
    data, model_path, out = tmp_path / "d.csv", str(tmp_path / "m.dbtm"), tmp_path / "s.csv"
    save_csv(ds, data)
    assert main(["train", "--data", str(data), "--out", model_path, "--task", task,
                 *TRAIN_FLAGS]) == 0
    assert main(["sample", "--model", model_path, "--data", str(data), "--samples", "5",
                 "--seed", "9", "--out", str(out)]) == 0
    draws = sample(load_model(model_path), load_csv(str(data)), 5,
                   streams.stream(9, streams.DOMAIN_SAMPLING))
    lines = out.read_text().splitlines()
    header = "row,sample,logit,probability" if task == "binary" else "row,sample,value"
    assert lines[0] == header
    fields = [line.split(",") for line in lines[1:]]
    assert [(int(f[0]), int(f[1])) for f in fields] == \
        [(j, s) for j in range(draws.shape[0]) for s in range(draws.shape[1])]
    values = np.array([[float(x) for x in f[2:]] for f in fields])
    assert np.array_equal(values[:, 0], draws.ravel())
    if task == "binary":
        assert np.array_equal(values[:, 1], (1.0 / (1.0 + np.exp(-draws))).ravel())


# SHA-256 of the bytes ``diffboost sample`` writes for one fixed model of each
# task.  A change to the CSV writer must leave these alone.
GOLDEN_SAMPLE_CSV_SHA256 = {
    "regression": "7049791c0a1c42dcb24336d8bf34b1bad21f2786087b52cff85d95da847af237",
    "binary": "c2b69f8ad167a6bf98b8c959a4284baedf892af8ff9f60fe359a768238966bdf",
}


@pytest.mark.parametrize("task", ["regression", "binary"])
def test_golden_sample_csv_bytes(tmp_path, task):
    import hashlib
    from diffboost.data import clf_toy_generate
    ds = clf_toy_generate(90, seed=5) if task == "binary" else toy_generate("a", 90, seed=5)
    data, model_path, out = tmp_path / "d.csv", str(tmp_path / "m.dbtm"), tmp_path / "s.csv"
    save_csv(ds, data)
    assert main(["train", "--data", str(data), "--out", model_path, "--task", task,
                 *TRAIN_FLAGS]) == 0
    assert main(["sample", "--model", model_path, "--data", str(data), "--samples", "7",
                 "--seed", "13", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SAMPLE_CSV_SHA256[task]


def test_importance_blocks(toy_csv, tmp_path, capsys):
    model_path = _train(toy_csv, tmp_path)
    capsys.readouterr()
    rc = main(["importance", "--model", model_path, "--timesteps", "6,3,1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "timestep,feature_index,feature_name,gain"
    # 5 features per block (noisy + 3 covariates + mean estimate)
    assert len(lines) == 1 + 3 * 5
    assert {l.split(",")[0] for l in lines[1:]} == {"6", "3", "1"}

    # every timestep is checked before any output is written
    capsys.readouterr()
    assert main(["importance", "--model", model_path, "--timesteps", "2,99"]) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "imp.csv"
    assert main(["importance", "--model", model_path, "--timesteps", "2,99",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_config_file_and_flag_precedence(toy_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("timesteps=5\nn-noise=3\nnum-leaves=15\nmin-samples-leaf=8\n"
                   "mean-trees=10\nseed=9\n")
    out = str(tmp_path / "m.dbtm")
    rc = main(["train", "--data", toy_csv, "--config", str(cfg), "--out", out,
               "--timesteps", "7"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "timesteps=7" in err            # flag overrides file
    assert "n-noise=3" in err              # file overrides default
    from diffboost.model_io import load_model
    assert load_model(out).config.T == 7

    bad = tmp_path / "bad.cfg"
    bad.write_text("not-a-key=1\n")
    assert main(["train", "--data", toy_csv, "--config", str(bad), "--out", out]) == 2


def test_exit_codes(tmp_path, toy_csv):
    assert main(["train"]) == 1                                   # usage
    assert main(["nope"]) == 1                                    # unknown command
    assert main(["train", "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "m.dbtm")]) == 2         # data error
    assert main(["eval", "--data", toy_csv]) == 1                 # needs --model
    assert main(["cv", "--data", toy_csv]) == 1                   # needs --folds
    # a flag value out of its range is a usage error, not a data error
    assert main(["toy", "--task", "a", "--n", "0", "--out", str(tmp_path / "t.csv")]) == 1
    assert main(["train", "--data", toy_csv, "--mcar-rate", "1.5",
                 "--out", str(tmp_path / "m.dbtm")]) == 1
    assert main(["cv", "--data", toy_csv, "--folds", "2", "--train-fraction", "1.5",
                 "--threads", "1"]) == 1
    junk = tmp_path / "junk.dbtm"
    junk.write_bytes(b"JUNKJUNKJUNKJUNK")
    assert main(["sample", "--model", str(junk), "--data", toy_csv]) == 2


def test_underflowing_schedule_is_a_usage_error(toy_csv, tmp_path, capsys):
    rc = main(["train", "--data", toy_csv, "--out", str(tmp_path / "m.dbtm"),
               "--timesteps", "1000", "--beta-end", "0.999"])
    assert rc == 1
    assert "underflows" in capsys.readouterr().err
    assert not (tmp_path / "m.dbtm").exists()


def _rewrite_header(path, edit):
    raw = Path(path).read_bytes()
    head_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    header = json.loads(raw[16:16 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    Path(path).write_bytes(raw[:8] + np.uint64(len(head)).tobytes() + head
                           + raw[16 + head_len:])


@pytest.mark.parametrize("task,edit", [
    pytest.param("regression", lambda h: h.pop("positive_rate"), id="missing_key"),
    pytest.param("regression", lambda h: h["config"]["tree_params"].update(bogus=1),
                 id="unknown_tree_param"),
    pytest.param("regression", lambda h: h["config"].update(T=h["config"]["T"] + 1),
                 id="tree_count_mismatch"),
    pytest.param("regression", lambda h: h["schedule"].update(beta_end=0.05),
                 id="schedule_mismatch"),
    pytest.param("regression", lambda h: h.update(kind="nope"), id="unknown_kind"),
    # numpy parses a comma in a dtype string as a record format and raises SyntaxError
    pytest.param("regression",
                 lambda h: next(a for a in h["arrays"] if a["dtype"] == "<f8").update(dtype=",f8"),
                 id="comma_dtype"),
    pytest.param("regression",
                 lambda h: next(a for a in h["arrays"] if a["dtype"] == "<f8").update(dtype="f8,,"),
                 id="trailing_comma_dtype"),
    # header entries that repeat mean_config must agree with it
    pytest.param("regression", lambda h: h["mean_config"].update(shrinkage=0.5),
                 id="mean_shrinkage_mismatch"),
    pytest.param("regression", lambda h: h["mean_config"].update(n_trees=3),
                 id="mean_tree_count_mismatch"),
    pytest.param("regression", lambda h: h["mean_config"].update(loss="logistic"),
                 id="mean_loss_mismatch"),
    # the task fixes which of standardization and positive_rate a model holds
    pytest.param("regression", lambda h: h.update(standardization=None),
                 id="regression_without_standardization"),
    pytest.param("regression", lambda h: h.update(standardization=[0, -1]),
                 id="negative_std"),
    pytest.param("regression", lambda h: h.update(standardization=[float("nan"), 1]),
                 id="nan_mean"),
    pytest.param("regression", lambda h: h.update(positive_rate=0.5),
                 id="regression_with_positive_rate"),
    pytest.param("binary", lambda h: h.update(standardization=[0, 1]),
                 id="binary_with_standardization"),
    pytest.param("binary", lambda h: h.update(positive_rate=None),
                 id="binary_without_positive_rate"),
    pytest.param("binary", lambda h: h.update(positive_rate=1.0), id="positive_rate_one"),
    pytest.param("binary", lambda h: h.update(positive_rate=0), id="positive_rate_zero"),
    # two columns named x0 would feed the trees the wrong column
    pytest.param("regression", lambda h: h["schema"]["columns"][1].update(name="x0"),
                 id="repeated_column_name"),
    pytest.param("regression", lambda h: h["schema"].update(response="x2"),
                 id="response_named_as_a_column"),
    pytest.param("binary", lambda h: [h[k].update(loss="squared")
                                      for k in ("mean_config", "mean_estimator")],
                 id="binary_squared_mean_loss"),
])
def test_corrupt_model_header_is_a_data_error(toy_csv, clf_csv, tmp_path, capsys, task, edit):
    from diffboost.model_io import ModelFormatError, load_model
    data = clf_csv if task == "binary" else toy_csv
    model_path = _train(data, tmp_path, "--task", task)
    load_model(model_path)                      # the file loads before the edit
    _rewrite_header(model_path, edit)
    with pytest.raises(ModelFormatError, match="corrupt model file"):
        load_model(model_path)
    assert main(["sample", "--model", model_path, "--data", data]) == 2
    assert "data error" in capsys.readouterr().err


def test_toy_command_round_trip(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["toy", "--task", "b", "--n", "120", "--seed", "4",
                 "--out", str(out)]) == 0
    ds = load_csv(out)
    assert ds.n_rows == 120
    assert (tmp_path / "b.csv.schema").exists()


def test_train_with_mcar_rate(toy_csv, tmp_path, capsys):
    out = str(tmp_path / "m.dbtm")
    rc = main(["train", "--data", toy_csv, "--out", out, "--mcar-rate", "0.2",
               *TRAIN_FLAGS])
    assert rc == 0
    assert "mcar-rate=0.2" in capsys.readouterr().err
    from diffboost.model_io import load_model
    assert load_model(out).config.T == 6


def test_eval_multi_fold_card_t(toy_csv, capsys):
    rc = main(["cv", "--data", toy_csv, "--folds", "2", "--samples", "10",
               "--model-kind", "card_t", "--threads", "1", *TRAIN_FLAGS])
    assert rc == 0
    assert "rmse," in capsys.readouterr().out


def test_eval_single_model_card_t(toy_csv, tmp_path, capsys):
    out = str(tmp_path / "ct.dbtm")
    rc = main(["train", "--data", toy_csv, "--out", out,
               "--model-kind", "card_t", *TRAIN_FLAGS])
    assert rc == 0
    capsys.readouterr()
    rc = main(["eval", "--model", out, "--data", toy_csv, "--samples", "15"])
    assert rc == 0
    assert "rmse:" in capsys.readouterr().out


def test_classification_threshold_override(tmp_path, capsys):
    from diffboost.data import clf_toy_generate
    data = tmp_path / "clf.csv"
    save_csv(clf_toy_generate(260, seed=5, positive_rate=0.3), data)
    model_path = str(tmp_path / "clf.dbtm")
    assert main(["train", "--data", str(data), "--out", model_path,
                 "--task", "binary", *TRAIN_FLAGS]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", model_path, "--data", str(data),
               "--samples", "8", "--threshold", "0.6"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "vote threshold: 0.6" in captured.err

    # without the override the stored training positive rate is used
    rc = main(["eval", "--model", model_path, "--data", str(data),
               "--samples", "8"])
    assert rc == 0
    err = capsys.readouterr().err
    from diffboost.model_io import load_model
    rate = load_model(model_path).train_positive_rate
    assert f"vote threshold: {rate}" in err

    # an override outside (0, 1) is refused before any file is read
    for flag, value in (("--threshold", "1.5"), ("--threshold", "0"), ("--threshold", "-2"),
                        ("--alpha", "7"), ("--alpha", "0")):
        for path in (model_path, str(tmp_path / "missing.dbtm")):
            assert main(["eval", "--model", path, "--data", str(data), flag, value]) == 1
            captured = capsys.readouterr()
            assert f"{flag} " in captured.err and "must lie in (0, 1)" in captured.err
            assert captured.out == ""


def test_binary_model_rejects_labels_other_than_0_or_1(toy_csv, tmp_path, capsys):
    from diffboost.data import clf_toy_generate
    data = tmp_path / "clf.csv"
    save_csv(clf_toy_generate(200, seed=5), data)
    model_path = str(tmp_path / "clf.dbtm")
    assert main(["train", "--data", str(data), "--out", model_path,
                 "--task", "binary", *TRAIN_FLAGS]) == 0
    capsys.readouterr()
    # toy a has the binary model's columns x0 and x1, and a real-valued response
    assert main(["eval", "--model", model_path, "--data", toy_csv, "--samples", "4"]) == 2
    captured = capsys.readouterr()
    assert toy_csv in captured.err and "'y'" in captured.err
    assert "other than 0 or 1" in captured.err
    assert captured.out == ""


def _scored(model_path, data_path, s_count, seed):
    from diffboost import streams
    from diffboost.dbt import sample
    from diffboost.metrics import nll, qice, rmse
    from diffboost.model_io import load_model
    data = load_csv(data_path)
    draws = sample(load_model(model_path), data, s_count,
                   streams.stream(seed, streams.DOMAIN_SAMPLING))
    return {"rmse": rmse(data.y, draws), "nll": nll(data.y, draws),
            "qice": qice(data.y, draws, 10)}


def test_eval_model_seed_zero_is_seed_zero(toy_csv, tmp_path, capsys):
    model_path = _train(toy_csv, tmp_path, "--seed", "5")
    capsys.readouterr()
    printed = {}
    for seed in ("0", "5"):
        assert main(["eval", "--model", model_path, "--data", toy_csv, "--samples", "20",
                     "--seed", seed, "--csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        printed[seed] = {k: float(v) for k, v in rows}
    assert printed["0"] == _scored(model_path, toy_csv, 20, 0)
    assert printed["5"] == _scored(model_path, toy_csv, 20, 5)
    assert printed["0"] != printed["5"]


@pytest.mark.parametrize("extra,flag", [
    (["--timesteps", "9"], "--timesteps"),
    (["--mcar-rate", "0.5"], "--mcar-rate"),
    (["--seed", "1", "--model-kind", "card_t"], "--model-kind"),
    (["--config", "run.cfg"], "--config"),
    (["--threads", "64"], "--threads"),                  # fold-only flags
    (["--train-fraction", "0.3"], "--train-fraction"),
    (["--threshold", "0.7"], "--threshold is a binary-model flag"),
    (["--alpha", "0.05"], "--alpha is a binary-model flag"),
], ids=["timesteps", "mcar_rate", "model_kind", "config", "threads", "train_fraction",
        "threshold", "alpha"])
def test_eval_model_rejects_training_settings(toy_csv, tmp_path, capsys, extra, flag):
    model_path = _train(toy_csv, tmp_path)
    (tmp_path / "run.cfg").write_text("seed=2\n")
    capsys.readouterr()
    extra = [str(tmp_path / e) if e == "run.cfg" else e for e in extra]
    assert main(["eval", "--model", model_path, "--data", toy_csv, *extra]) == 1
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,line", [
    ("train", "model-kind=card-t"),
    ("train", "timesteps=ten"),
    ("train", "prior-mean=zeroo"),
    ("train", "num-leaves=1.5"),
    ("cv", "samples=3"),
    ("cv", "folds=2"),
])
def test_bad_config_value_is_a_data_error(toy_csv, tmp_path, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# settings\nn-noise = 3\n{line}\n")
    out = tmp_path / "m.dbtm"
    argv = (["train", "--out", str(out)] if command == "train"
            else ["cv", "--folds", "2", "--threads", "1"])
    assert main([*argv, "--data", toy_csv, "--config", str(cfg), *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    key = line.partition("=")[0]
    assert f"{cfg}:3: " in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("make", [
    lambda p: p.mkdir(),
    lambda p: p.write_bytes(b"seed=\xff\n"),
], ids=["directory", "not_utf8"])
def test_unreadable_config_file_is_a_data_error(toy_csv, tmp_path, capsys, make):
    cfg = tmp_path / "run.cfg"
    make(cfg)
    assert main(["train", "--data", toy_csv, "--config", str(cfg),
                 "--out", str(tmp_path / "m.dbtm")]) == 2
    assert "data error" in capsys.readouterr().err


def test_setting_defaults_are_the_library_defaults():
    from diffboost.boosting import MeanEstimatorConfig
    from diffboost.cli import _build_configs, _effective_config, build_parser
    from diffboost.dbt import DbtConfig
    args = build_parser().parse_args(["train", "--data", "d.csv"])
    assert _build_configs(_effective_config(args)) == (DbtConfig(), MeanEstimatorConfig())


def _typed_value(key):
    kind, _, choices = _SETTINGS[key]
    if choices:
        return st.sampled_from(choices)
    if kind is int:
        return st.one_of(st.integers(-3, 200), st.integers(0, 30).map(lambda k: 10**k),
                         st.integers(-10**30, 10**30)).map(str)
    return st.one_of(st.floats(0, 1), st.floats()).map(repr)


_ANY_VALUE = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e400", "0", "-1", "0.5", "1_000", " 7 "]),
    st.text(max_size=12))
# mostly well-typed lines, so that most files reach the library's own checks
_CONFIG_LINE = st.one_of(
    *[st.sampled_from(list(_SETTINGS)).flatmap(
        lambda k: st.tuples(st.just(k), st.sampled_from(["=", " = "]), _typed_value(k)))] * 4,
    st.tuples(st.sampled_from([*_SETTINGS, "samples", "# seed"]),
              st.sampled_from(["=", ":", ""]), _ANY_VALUE),
).map("".join)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CONFIG_LINE, max_size=6),
       junk=st.one_of(*[st.just("")] * 3,
                      st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)))
def test_fuzzed_config_file_never_exits_3(tmp_path, capsys, lines, junk):
    data, cfg, out = tmp_path / "d.csv", tmp_path / "run.cfg", tmp_path / "m.dbtm"
    if not data.exists():
        save_csv(toy_generate("a", 40, seed=6), data)
    cfg.write_text("\n".join([*lines, junk]), encoding="utf-8")
    rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out),
               "--timesteps", "2", "--n-noise", "1", "--mean-trees", "1"])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), err
    assert "internal error" not in err


def test_leaf_counts_beyond_the_row_count_train(tmp_path):
    # the node table is sized by the rows, not by num_leaves (10**12 leaves would
    # ask for terabytes)
    data, out = tmp_path / "d.csv", tmp_path / "m.dbtm"
    save_csv(toy_generate("a", 40, seed=6), data)
    assert main(["train", "--data", str(data), "--out", str(out), "--timesteps", "2",
                 "--n-noise", "1", "--mean-trees", "1", "--num-leaves", str(10**12),
                 "--mean-leaves", str(10**12), "--min-samples-leaf", "1"]) == 0


@pytest.mark.parametrize("key,value", [("learning-rate", "inf"), ("learning-rate", "1e308"),
                                       ("mean-shrinkage", "inf")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_settings_never_write_non_finite_samples(tmp_path, capsys, key, value,
                                                            source):
    data = tmp_path / "toy.csv"
    save_csv(toy_generate("a", 120, seed=0), data)
    if source == "flag":
        setting = [f"--{key}", value]
    else:
        (tmp_path / "c.cfg").write_text(f"{key}={value}\n")
        setting = ["--config", str(tmp_path / "c.cfg")]
    model = str(tmp_path / "m.dbtm")
    rc = main(["train", "--data", str(data), "--out", model, "--timesteps", "2",
               "--n-noise", "1", "--mean-trees", "1", *setting])
    if rc == 0:                      # finite leaves whose samples overflow
        capsys.readouterr()
        rc = main(["sample", "--model", model, "--data", str(data), "--samples", "2"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == "" and "finite" in err


@pytest.mark.parametrize("csv_text,sidecar", [
    ("x0,y\n" + "7" * 200_000 + ",1\n2,3\n", None),
    ("\n\n\n", None),
    ("x0,y\n1,2\n3,4\n", "column.0.name=x0\n"),
    ("x0,y\n1,2\n3,4\n", "column.0.name=x0\ncolumn.0.kind=bogus\n"),
    ("x0,y\n1,2\n3,4\n", "response=nonexistent\ncolumn.0.name=zz\ncolumn.0.kind=categorical\n"),
    ("x0,y\n1,2\n3,nan\n", None),
    ("x0,y\n1,inf\n3,4\n", None),
    ("x0,y\n1,2\n3,-inf\n", None),
], ids=["oversized_cell", "blank_header", "sidecar_without_kind", "sidecar_unknown_kind",
        "sidecar_of_another_table", "nan_response", "inf_response", "minus_inf_response"])
def test_csv_boundary_is_a_data_error(tmp_path, capsys, csv_text, sidecar):
    data = tmp_path / "d.csv"
    data.write_text(csv_text)
    if sidecar is not None:
        (tmp_path / "d.csv.schema").write_text(sidecar)
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m.dbtm"),
               "--timesteps", "2", "--n-noise", "1", "--mean-trees", "1"])
    assert rc == 2
    assert str(data) in capsys.readouterr().err


_SMALL_FOLD_FLAGS = ["--timesteps", "2", "--n-noise", "1", "--mean-trees", "1",
                     "--num-leaves", "3", "--samples", "10"]


def test_memory_error_without_text_prints_no_dangling_colon(toy_csv, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError()
    monkeypatch.setattr(cli, "make_split", exhausted)
    rc = main(["cv", "--data", toy_csv, "--folds", "2", "--threads", "1", *_SMALL_FOLD_FLAGS])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: not enough memory\n" in err
    assert "not enough memory:" not in err


@pytest.mark.parametrize("extra,flag", [(["--model", "m.dbtm"], "--model"),
                                        (["--threshold", "0.3"], "--threshold"),
                                        (["--alpha", "0.5"], "--alpha"),
                                        (["--csv"], "--csv")])
def test_eval_folds_rejects_single_model_flags(toy_csv, capsys, extra, flag):
    rc = main(["cv", "--data", toy_csv, "--folds", "2", *_SMALL_FOLD_FLAGS, *extra])
    assert rc == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--model", "m.dbtm", "--folds", "2"], "--folds"),
    (["eval", "--model", "m.dbtm", "--timesteps", "9"], "--timesteps"),
    (["eval", "--model", "m.dbtm", "--threads", "2"], "--threads"),
    (["cv", "--folds", "2", "--model", "m.dbtm"], "--model"),     # not --model-kind
    (["cv", "--folds", "2", "--csv"], "--csv"),
    (["cv", "--folds", "2", "--threshold", "0.3"], "--threshold"),
], ids=["eval-folds", "eval-timesteps", "eval-threads", "cv-model", "cv-csv", "cv-threshold"])
def test_a_flag_of_the_other_mode_is_refused_before_any_file_is_read(tmp_path, capsys,
                                                                    monkeypatch, argv, flag):
    for name in ("load_csv", "load_model", "_read_config_file"):
        monkeypatch.setattr(cli, name, _fail_if_called)
    assert main([*argv, "--data", str(tmp_path / "absent.csv")]) == 1
    assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers``, runs in-process."""
    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("threads,folds,workers", [
    (None, 3, 3), (64, 3, 3), (2, 5, 2), (64, 6, 4), (1, 3, None), (0, 3, "error"),
    (-2, 3, "error"), (2, 0, "error")])
def test_eval_folds_workers_are_capped(toy_csv, capsys, monkeypatch, threads, folds, workers):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    _RecordingPool.made.clear()
    extra = [] if threads is None else ["--threads", str(threads)]
    rc = main(["cv", "--data", toy_csv, "--folds", str(folds), *_SMALL_FOLD_FLAGS, *extra])
    if workers == "error":
        assert rc == 1 and "must be >= 1" in capsys.readouterr().err
        assert _RecordingPool.made == []
    else:
        assert rc == 0
        assert _RecordingPool.made == ([] if workers is None else [workers])


@pytest.mark.parametrize("extra,fraction", [([], 0.9), (["--train-fraction", "0.7"], 0.7)],
                         ids=["default", "flag"])
def test_eval_folds_train_fraction(toy_csv, monkeypatch, extra, fraction):
    fractions = []

    def run_fold(job):                   # job[1] is the fold's SplitSpec
        fractions.append(job[1].train_fraction)
        return {"rmse": 1.0, "nll": 1.0, "qice": 1.0}

    monkeypatch.setattr(cli, "_run_fold", run_fold)
    assert main(["cv", "--data", toy_csv, "--folds", "2", "--threads", "1",
                 *_SMALL_FOLD_FLAGS, *extra]) == 0
    assert fractions == [fraction, fraction]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_training_mse_stops_train(tmp_path, capsys, source):
    data = tmp_path / "toy.csv"
    save_csv(toy_generate("a", 120, seed=0), data)
    if source == "flag":
        setting = ["--learning-rate", "1e308"]
    else:
        (tmp_path / "c.cfg").write_text("learning-rate=1e308\n")
        setting = ["--config", str(tmp_path / "c.cfg")]
    model = tmp_path / "m.dbtm"
    rc = main(["train", "--data", str(data), "--out", str(model), "--timesteps", "2",
               "--n-noise", "1", "--mean-trees", "1", *setting])
    assert rc == 1
    assert "training MSE at t=2 is not finite" in capsys.readouterr().err
    assert not model.exists()


def _fail_if_called(*args, **kwargs):
    raise AssertionError("reached despite a bad flag")


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_qice_bins_below_one_is_a_usage_error(toy_csv, tmp_path, capsys, monkeypatch, bins):
    model_path = _train(toy_csv, tmp_path)
    for name in ("load_model", "load_csv", "_train_one"):
        monkeypatch.setattr(cli, name, _fail_if_called)
    capsys.readouterr()
    assert main(["eval", "--model", model_path, "--data", toy_csv, "--qice-bins", bins]) == 1
    assert main(["cv", "--data", toy_csv, "--folds", "2", "--threads", "1",
                 *_SMALL_FOLD_FLAGS, "--qice-bins", bins]) == 1
    err = capsys.readouterr().err
    assert err.count("--qice-bins must be >= 1") == 2 and "internal error" not in err


@pytest.mark.parametrize("task,samples,bins", [
    *[pytest.param("regression", samples, bins, id=f"{samples}-{bins}")
      for samples, bins in [("1", "1"), ("1", "2"), ("5", "10"), ("0", "1"), ("-1", "1")]],
    # a binary model's t-test needs two samples per row, whatever --qice-bins says
    pytest.param("binary", "1", "1", id="binary-1-1"),
])
def test_eval_checks_samples_before_training(toy_csv, clf_csv, tmp_path, capsys, monkeypatch,
                                             task, samples, bins):
    data = clf_csv if task == "binary" else toy_csv
    model_path = _train(data, tmp_path, "--task", task)
    monkeypatch.setattr(cli, "_train_one", _fail_if_called)
    monkeypatch.setattr(cli, "_sample_model", _fail_if_called)
    capsys.readouterr()
    flags = ["--samples", samples, "--qice-bins", bins]
    assert main(["cv", "--data", data, "--folds", "2", "--threads", "1",
                 *_SMALL_FOLD_FLAGS, "--task", task, *flags]) == 1
    assert main(["eval", "--model", model_path, "--data", data, *flags]) == 1
    err = capsys.readouterr().err
    assert err.count(f"--samples {samples}: {task} metrics need") == 2


def test_eval_folds_binary_task_is_a_usage_error(tmp_path, capsys, monkeypatch):
    for name in ("load_csv", "_train_one"):
        monkeypatch.setattr(cli, name, _fail_if_called)
    rc = main(["cv", "--data", str(tmp_path / "absent.csv"), "--folds", "2", "--threads", "1",
               *_SMALL_FOLD_FLAGS, "--task", "binary"])
    assert rc == 1
    assert "error: cv currently evaluates regression metrics" in \
        capsys.readouterr().err


def test_eval_without_model_or_folds_is_a_usage_error(toy_csv, capsys, monkeypatch):
    for name in ("load_csv", "load_model"):
        monkeypatch.setattr(cli, name, _fail_if_called)
    assert main(["eval", "--data", toy_csv]) == 1
    assert "error: the following arguments are required: --model" in capsys.readouterr().err


# the address-space limit of the child process that runs one command
_CHILD_MEMORY = 2 * 1024 ** 3
_LIMITED_MAIN = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({_CHILD_MEMORY}, {_CHILD_MEMORY}))
from diffboost.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_limited(argv):
    """Run one command in a child process under the ``_CHILD_MEMORY`` limit."""
    import os
    import subprocess
    import sys
    import diffboost
    root = str(Path(diffboost.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("command,size", [("sample", 10**12), ("sample", 10**8),
                                          ("train", 10**9), ("toy", 10**12),
                                          ("cv", 10**12)])
def test_oversized_size_flags_are_usage_errors(toy_csv, tmp_path, command, size):
    n = str(size)
    if command == "sample":
        argv = ["sample", "--model", _train(toy_csv, tmp_path), "--data", toy_csv, "--samples", n]
    elif command == "train":
        argv = ["train", "--data", toy_csv, "--out", str(tmp_path / "m.dbtm"), *TRAIN_FLAGS,
                "--n-noise", n]
    elif command == "toy":
        argv = ["toy", "--task", "a", "--n", n, "--out", str(tmp_path / "t.csv")]
    else:                                 # one worker: no process pool starts
        argv = ["cv", "--data", toy_csv, "--folds", "2", "--threads", "1",
                *_SMALL_FOLD_FLAGS, "--samples", n]
    done = _run_limited(argv)
    assert done.returncode == 1, done.stderr
    assert "not enough memory" in done.stderr
    assert "internal error" not in done.stderr


def test_eval_folds_above_row_count_is_a_usage_error(toy_csv):
    done = _run_limited(["cv", "--data", toy_csv, "--folds", "1000000000", "--threads", "1",
                         *_SMALL_FOLD_FLAGS])
    assert done.returncode == 1, done.stderr
    assert "error: --folds 1000000000 is more than the 160 rows of" in done.stderr


def test_readme_command_lines_parse():
    # every ``diffboost ...`` line of the README's command-line examples is one
    # the parser accepts, so a renamed or removed flag cannot linger in the docs
    import re
    import shlex
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", section, flags=re.S | re.M)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line.split("#", 1)[0].split(">", 1)[0])
                for line in lines if line.startswith("diffboost ")]
    assert {argv[1] for argv in commands} >= {"train", "sample", "eval", "cv"}
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
