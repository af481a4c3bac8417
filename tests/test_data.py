import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import diffboost
from diffboost.data import (
    Column,
    DataError,
    Dataset,
    SplitSpec,
    clf_toy_generate,
    load_csv,
    make_split,
    mcar_mask,
    reencode,
    save_csv,
    toy_a_segment_mean,
    toy_b_boxes,
    toy_generate,
    TOY_SEGMENT_NOISE,
)
from diffboost.tree import CATEGORICAL, NUMERIC
from oracles import CsvRejected, reference_load_csv


def test_load_csv_type_inference(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,y\n1.0,x,2.0\n2.5,y,3.0\nNA,x,4.0\n")
    ds = load_csv(p)
    assert ds.columns[0].kind == NUMERIC
    assert ds.columns[1].kind == CATEGORICAL
    assert ds.columns[1].categories == ("x", "y")
    assert np.isnan(ds.X[2, 0])
    assert list(ds.y) == [2.0, 3.0, 4.0]
    assert ds.response_name == "y"

    # numeric cells follow Python's float() syntax; "nan" is a missing cell
    p.write_text("a,h,y\n1_0,0x1,1\n 3,2,2\nnan,3,3\n")
    ds = load_csv(p)
    assert [c.kind for c in ds.columns] == [NUMERIC, CATEGORICAL]
    assert np.array_equal(ds.X[:, 0], [10.0, 3.0, np.nan], equal_nan=True)
    assert ds.columns[1].categories == ("0x1", "2", "3")


def test_load_csv_error_contracts(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(empty)

    ragged = tmp_path / "r.csv"
    ragged.write_text("a,y\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(ragged)

    badresp = tmp_path / "b.csv"
    badresp.write_text("a,y\n1,2\n3,oops\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(badresp)

    # a response cell that is no number anywhere is reported before a non-finite
    # one on an earlier row
    badresp.write_text("a,y\n1, 3\n2,1_0\n3,inf\n4,y\n5,NA\n")
    with pytest.raises(DataError, match="row 5: 'y' is not numeric"):
        load_csv(badresp)


def test_load_csv_response_override(tmp_path):
    p = tmp_path / "o.csv"
    p.write_text("target,a,b\n1.0,2.0,x\n3.0,4.0,y\n")
    ds = load_csv(p, response="target")
    assert ds.response_name == "target"
    assert [c.name for c in ds.columns] == ["a", "b"]
    assert list(ds.y) == [1.0, 3.0]
    with pytest.raises(DataError, match="not in header"):
        load_csv(p, response="nope")


def test_load_csv_rejects_infinite_cells(tmp_path):
    p = tmp_path / "inf.csv"
    for cell in ("inf", "1e400", "-inf"):
        p.write_text(f"a,y\n2.0,1.0\n{cell},3.0\n")
        with pytest.raises(DataError, match=f"row 3: '{cell}' is not a finite number"):
            load_csv(p)


def test_load_csv_sidecar_makes_numeric_looking_column_categorical(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("a,y\n1,0\n2,1\n1,0\n3,1\n")
    (tmp_path / "h.csv.schema").write_text(
        "response=y\ncolumn.0.name=a\ncolumn.0.kind=categorical\n"
        "column.0.category.0=2\ncolumn.0.category.1=1\n")
    ds = load_csv(p)
    assert ds.columns[0].kind == CATEGORICAL
    assert ds.columns[0].categories == ("2", "1")
    assert np.array_equal(ds.X[:, 0], [1.0, 0.0, 1.0, -1.0])    # "3" is not in the sidecar

    # a categorical column listing no categories fixes an empty dictionary
    (tmp_path / "h.csv.schema").write_text(
        "response=y\ncolumn.0.name=a\ncolumn.0.kind=categorical\n")
    ds = load_csv(p)
    assert ds.columns[0].categories == ()
    assert np.array_equal(ds.X[:, 0], [-1.0] * 4)


def test_load_csv_rejects_a_sidecar_of_another_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,y\n1,0\n2,1\n")
    sidecar = tmp_path / "t.csv.schema"
    sidecar.write_text("response=nonexistent\ncolumn.0.name=zz\ncolumn.0.kind=categorical\n")
    with pytest.raises(DataError, match="'nonexistent' is not in the CSV header"):
        load_csv(p)
    sidecar.write_text("response=y\ncolumn.0.name=zz\ncolumn.0.kind=categorical\n")
    with pytest.raises(DataError, match="'zz' is not in the CSV header"):
        load_csv(p)
    # a response other than the sidecar's is legal if the header holds it
    sidecar.write_text("response=y\ncolumn.0.name=a\ncolumn.0.kind=categorical\n")
    ds = load_csv(p, response="a")
    assert ds.response_name == "a" and list(ds.y) == [1.0, 2.0]
    assert [(c.name, c.kind) for c in ds.columns] == [("y", NUMERIC)]


def test_load_csv_refuses_a_sidecar_it_cannot_read(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("c,y\na,1\nb,2\n")
    sidecar = tmp_path / "s.csv.schema"
    sidecar.write_bytes(b"response=y\xff")
    with pytest.raises(DataError, match=r"s\.csv\.schema: 'utf-8' codec can't decode"):
        load_csv(p)
    sidecar.write_text("response=y\ncolumn.0.name=c\ncolumn.0.kind=categorical\n"
                       "column.0.category.0=a\ncolumn.0.category.1=a\n")
    with pytest.raises(DataError, match=r"s\.csv\.schema: column 'c': a category is repeated"):
        load_csv(p)
    sidecar.write_text("response=y\ncolumn.0.name=c\ncolumn.0.kind=bogus\n")
    with pytest.raises(DataError, match=r"s\.csv\.schema: column 'c': unknown kind 'bogus'"):
        load_csv(p)


def test_column_refuses_a_repeated_category():
    with pytest.raises(DataError, match="repeated"):
        Column("c", CATEGORICAL, ("a", "a", "b"))


def test_duplicate_header_rejected(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("a,a,y\n1,2,3\n")
    with pytest.raises(DataError, match="duplicate"):
        load_csv(p)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.normal(size=20), rng.integers(0, 3, 20).astype(float)])
    X[3, 0] = np.nan
    X[5, 1] = np.nan
    cols = (Column("num", NUMERIC), Column("cat", CATEGORICAL, ("b", "a", "c")))
    ds = Dataset("round", cols, X, rng.normal(size=20))
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.columns == ds.columns
    assert np.array_equal(back.X, ds.X, equal_nan=True)
    assert np.array_equal(back.y, ds.y)
    assert back.response_name == ds.response_name


def test_save_csv_golden_bytes(tmp_path):
    # pins the CSV and sidecar bytes: NaN, signed zero, extreme exponents, a
    # -1 code, categories that need CSV quoting, a response not named "y"
    X = np.array([[np.nan, 0.0], [-0.0, np.nan], [1e-300, -1.0], [1e300, 1.0], [0.1, 2.0]])
    cols = (Column("num", NUMERIC), Column("cat", CATEGORICAL, ("a,b", 'say "hi"', "plain")))
    ds = Dataset("golden", cols, X, np.array([1.0, -0.5, 2.0 / 3.0, 1e-7, 3.0]),
                 response_name="target")
    path = tmp_path / "g.csv"
    save_csv(ds, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "8c3a2b061105522eed30ee6a7632c556f1ea052ff3dce6ec017bc0097de9821e"
    assert hashlib.sha256(Path(f"{path}.schema").read_bytes()).hexdigest() == \
        "a5e98d50780c3fe522f0da90102f3299527392669c94cc43a9c5af19fada2f22"


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"],
                         ids=["LF", "CR", "CRLF", "VT", "FF", "FS", "NEL", "LS"])
@pytest.mark.parametrize("where", ["column", "response", "category"])
def test_save_csv_rejects_line_breaks_the_sidecar_would_split(tmp_path, where, brk):
    text = f"p{brk}q"
    cols = (Column(text if where == "column" else "c", CATEGORICAL,
                   (text if where == "category" else "a", "r")),)
    ds = Dataset("t", cols, np.array([[0.0], [1.0]]), np.zeros(2),
                 response_name=text if where == "response" else "y")
    path = tmp_path / "t.csv"
    with pytest.raises(DataError, match="one value per line"):
        save_csv(ds, path)
    assert list(tmp_path.iterdir()) == []


_CAT = (Column("c", CATEGORICAL, ("a", "b", "z")),)


@pytest.mark.parametrize("make,reason", [
    (lambda: Dataset("t", (Column("c", CATEGORICAL, ("NA", "", "b")),),
                     np.array([[0.0], [1.0], [2.0]]), np.zeros(3)),
     "a category reads as missing"),
    (lambda: Dataset("t", _CAT, np.array([[0.0], [3.0]]), np.zeros(2)),
     "not -1 or a category's index"),
    (lambda: Dataset("t", _CAT, np.array([[0.0], [0.5]]), np.zeros(2)),
     "not -1 or a category's index"),
    (lambda: Dataset("t", _CAT, np.array([[0.0], [-2.0]]), np.zeros(2)),
     "not -1 or a category's index"),
    (lambda: Dataset("t", (Column("x", NUMERIC),), np.array([[1.0], [2.0], [np.inf]]),
                     np.zeros(3)), "an infinite cell"),
    (lambda: Dataset("t", (Column("x", NUMERIC),), np.ones((3, 1)),
                     np.array([1.0, 2.0, np.nan])), "a response that is not finite"),
    (lambda: Dataset("t", (Column("x", NUMERIC),), np.ones((2, 1)), np.array([1.0, -np.inf])),
     "a response that is not finite"),
    # a table with a repeated name cannot be built, let alone saved
    (lambda: Dataset("t", (Column("y", NUMERIC),), np.ones((2, 1)), np.zeros(2)),
     "a repeated name"),
    (lambda: Dataset("t", (Column("x", NUMERIC),), np.ones((0, 1)), np.zeros(0)), "no rows"),
], ids=["missing_category", "code_past_the_categories", "fractional_code", "code_below_-1",
        "infinite_feature", "nan_response", "infinite_response", "repeated_name", "no_rows"])
def test_save_csv_refuses_a_table_that_would_not_reload(tmp_path, make, reason):
    with pytest.raises(DataError, match=reason):
        save_csv(make(), tmp_path / "t.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("names,response", [(("a", "a"), "y"), (("a", "y"), "y")])
def test_dataset_refuses_a_repeated_name(names, response):
    # reencode matches columns by name, so two columns named a would read as one
    columns = tuple(Column(n, NUMERIC) for n in names)
    repeated = "a" if names == ("a", "a") else "y"
    with pytest.raises(DataError, match=f"a repeated name .*: '{repeated}'"):
        Dataset("t", columns, np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2),
                response_name=response)


def test_csv_files_are_utf8_whatever_the_locale(tmp_path):
    # under a POSIX locale with UTF-8 mode off, the default text encoding is ASCII
    (tmp_path / "in.csv").write_bytes("x\u00e9,y\ncaf\u00e9,1\nth\u00e9,2\n".encode("utf-8"))
    child = ("import locale, sys; from diffboost.data import load_csv, save_csv; "
             "ds = load_csv(sys.argv[1] + '/in.csv'); save_csv(ds, sys.argv[1] + '/out.csv'); "
             "print(locale.getpreferredencoding(False))")
    env = {**os.environ, "LC_ALL": "POSIX",
           "PYTHONPATH": str(Path(diffboost.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-X", "utf8=0", "-c", child, str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "utf" not in run.stdout.lower()
    assert (tmp_path / "out.csv").read_bytes() == \
        "x\u00e9,y\r\ncaf\u00e9,1.0\r\nth\u00e9,2.0\r\n".encode("utf-8")
    ds = load_csv(tmp_path / "out.csv")
    assert ds.columns == (Column("x\u00e9", CATEGORICAL, ("caf\u00e9", "th\u00e9")),)


def test_make_split_counts_and_determinism():
    ds = toy_generate("a", 506, seed=0)
    spec = SplitSpec(train_fraction=0.9, fold_seed=1, fold_index=3)
    tr1, te1 = make_split(ds, spec)
    tr2, te2 = make_split(ds, spec)
    assert tr1.n_rows == 455 and te1.n_rows == 51
    assert np.array_equal(tr1.X, tr2.X) and np.array_equal(te1.y, te2.y)
    merged = np.sort(np.concatenate([tr1.y, te1.y]))
    assert np.array_equal(merged, np.sort(ds.y))

    other = make_split(ds, SplitSpec(fold_seed=1, fold_index=4))[1]
    assert not np.array_equal(other.y, te1.y)


def test_mcar_mask():
    ds = toy_generate("a", 400, seed=2)
    assert mcar_mask(ds, 0.0, 1) is ds
    masked = mcar_mask(ds, 0.1, seed=3)
    assert np.array_equal(masked.y, ds.y)
    again = mcar_mask(ds, 0.1, seed=3)
    assert np.array_equal(masked.X, again.X, equal_nan=True)

    big = Dataset("big", tuple(Column(f"x{j}", NUMERIC) for j in range(100)),
                  np.zeros((10_000, 100)), np.zeros(10_000))
    frac = np.isnan(mcar_mask(big, 0.1, seed=4).X).mean()
    assert frac == pytest.approx(0.1, abs=0.001)


def test_toy_task_a_properties():
    ds = toy_generate("a", 5000, seed=5)
    assert ds.X.shape[1] == 3
    u = ds.X[:, 0]
    inside = np.abs(ds.y - toy_a_segment_mean(u)) <= 4 * TOY_SEGMENT_NOISE
    assert inside.mean() > 0.999
    assert np.allclose(ds.X[:, 1], u, atol=0.06)                # near-copies


def test_toy_task_b_bimodal_and_c_smaller():
    ds = toy_generate("b", 6000, seed=6)
    u = ds.X[:, 0]
    for sub in range(3):
        lo_box, hi_box = toy_b_boxes(sub)
        sel = (u >= sub) & (u < sub + 1)
        in_lo = (ds.y[sel] >= lo_box[0]) & (ds.y[sel] <= lo_box[1])
        in_hi = (ds.y[sel] >= hi_box[0]) & (ds.y[sel] <= hi_box[1])
        assert (in_lo | in_hi).all()
        assert 0.4 <= in_lo.mean() <= 0.6

    small = toy_generate("c", 6000, seed=6)
    assert small.n_rows == 1200


def test_toy_tasks_d_e():
    d = toy_generate("d", 1000, seed=7)
    assert d.n_rows == 1000 and d.X.shape[1] == 1
    e = toy_generate("e", 4000, seed=8)
    lo = e.y[e.X[:, 0] < 0.2]
    hi = e.y[e.X[:, 0] > 1.8]
    assert hi.std() > 2 * lo.std()                              # heteroscedastic


def test_toy_generators_pure():
    a1 = toy_generate("a", 100, seed=9)
    a2 = toy_generate("a", 100, seed=9)
    assert np.array_equal(a1.X, a2.X) and np.array_equal(a1.y, a2.y)
    with pytest.raises(DataError):
        toy_generate("z", 10, seed=0)


def test_clf_toy_regions():
    ds = clf_toy_generate(40_000, seed=10, noisy_error=0.25)
    clean = ds.X[:, 0] < 1.0
    bayes = (ds.X[:, 1] >= 0.7).astype(float)                   # recovers encoded label
    acc_clean = (bayes[clean] == ds.y[clean]).mean()
    acc_noisy = (bayes[~clean] == ds.y[~clean]).mean()
    assert acc_clean == 1.0
    assert acc_noisy == pytest.approx(0.75, abs=0.01)
    assert ds.y.mean() == pytest.approx(0.5, abs=0.01)


# names and categories that need CSV quoting, read as missing, look like
# numbers or repeat (the pool is small)
_TEXT = st.sampled_from(["a", "b", "x,y", 'q"q', '"', "NA", "", " ", "a=b", "1.5", "caf\u00e9"])
_FLOAT = st.one_of(st.sampled_from([np.nan, -0.0, 5e-324, -2.2250738585072014e-308,
                                    1.7976931348623157e308, -1.7976931348623157e308,
                                    np.inf, -np.inf]),
                   st.floats())


@st.composite
def _dataset_parts(draw):
    """(response name, [(name, kind, categories or None)], X, y) of a table
    whose cells and codes are legal in a ``Dataset``; many cannot be saved."""
    n, p = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    columns, X = [], np.empty((n, p))
    for j in range(p):
        if draw(st.booleans()):
            columns.append((draw(_TEXT), NUMERIC, None))
            X[:, j] = draw(st.lists(_FLOAT, min_size=n, max_size=n))
        else:
            cats = tuple(draw(st.lists(_TEXT, max_size=3)))
            columns.append((draw(_TEXT), CATEGORICAL, cats))
            codes = st.sampled_from([-1.0, np.nan, *map(float, range(len(cats)))])
            X[:, j] = draw(st.lists(codes, min_size=n, max_size=n))
    return draw(_TEXT), columns, X, np.array(draw(st.lists(_FLOAT, min_size=n, max_size=n)))


def _bits(a):
    """An array's shape and bytes, every NaN the same one."""
    a = np.asarray(a, dtype=float)
    return a.shape, np.where(np.isnan(a), np.nan, a).tobytes()


@settings(max_examples=300, deadline=None)
@given(parts=_dataset_parts())
@example(parts=("t", [("num", NUMERIC, None), ("cat", CATEGORICAL, ("a,b", 'q"q', "NA "))],
                np.array([[-0.0, 2.0], [5e-324, -1.0], [np.nan, np.nan]]),
                np.array([1.7976931348623157e308, -0.0, 1.0])))
def test_csv_round_trip_property(tmp_path_factory, parts):
    # save_csv either refuses a table and writes nothing, or writes one that
    # load_csv and the reference reader both read back bit for bit, but for
    # code -1, which is written as a missing cell
    response, columns, X, y = parts
    names = [name for name, _, _ in columns] + [response]
    if len(set(names)) < len(names) or any(
            cats is not None and len(set(cats)) < len(cats) for _, _, cats in columns):
        with pytest.raises(DataError, match="repeated"):
            Dataset("t", tuple(Column(*c) for c in columns), X, y, response_name=response)
        return
    ds = Dataset("t", tuple(Column(*c) for c in columns), X, y, response_name=response)
    refused = (len(y) == 0 or not np.isfinite(y).all() or np.isinf(X).any()
               or any({"", "NA"} & set(c.categories or ()) for c in ds.columns))
    folder = tmp_path_factory.mktemp("rt")
    try:
        save_csv(ds, folder / "d.csv")
    except DataError:
        assert refused and list(folder.iterdir()) == []
        return
    assert not refused
    want = X.copy()
    for j, col in enumerate(ds.columns):
        if col.kind == CATEGORICAL:
            want[want[:, j] == -1.0, j] = np.nan
    back = load_csv(folder / "d.csv")
    assert back.response_name == response and back.columns == ds.columns
    assert _bits(back.X) == _bits(want) and _bits(back.y) == _bits(y)
    ref_response, ref_columns, ref_X, ref_y = reference_load_csv(folder / "d.csv")
    assert ref_response == response
    assert ref_columns == [(c.name, c.kind, c.categories) for c in ds.columns]
    assert _bits(ref_X) == _bits(want) and _bits(ref_y) == _bits(y)


def test_reencode_unknown_category(tmp_path):
    train_cols = (Column("c", CATEGORICAL, ("a", "b")),)
    test_ds = Dataset("t", (Column("c", CATEGORICAL, ("b", "z")),),
                      np.array([[0.0], [1.0], [np.nan]]), np.zeros(3))
    X = reencode(test_ds, train_cols)
    assert X[0, 0] == 1.0          # "b" -> train code 1
    assert X[1, 0] == -1.0         # "z" unseen -> reserved code
    assert np.isnan(X[2, 0])

    with pytest.raises(DataError, match="missing column"):
        reencode(test_ds, (Column("other", NUMERIC),))
    with pytest.raises(DataError, match="is categorical"):
        reencode(test_ds, (Column("c", NUMERIC),))


_CELL = st.one_of(st.sampled_from(["", "NA", "nan", "inf", "-inf", "1e400", "1.5", "-2", "-0.0",
                                   "1_0", " 3", "0x1", "a", "x0", "y", '"', "\r"]),
                  st.text(max_size=3))
_SIDECAR_LINE = st.one_of(
    st.tuples(st.sampled_from(["response", "column.0.name", "column.0.kind", "column.1.name",
                               "column.1.kind", "column.0.category.0", "column.1.category.0",
                               "column.0.category.1"]),
              st.one_of(st.sampled_from([NUMERIC, CATEGORICAL, "bogus", "", "a", "x0", "y"]),
                        st.text(max_size=3))).map("=".join),
    st.text(max_size=5))


_NUMBER_CELL = st.sampled_from(["", "NA", "nan", "1.5", "-2", "-0.0", "1_0", " 3", "1e-300"])
_RESPONSE_CELL = st.sampled_from(["1.5", "-2", "-0.0", "1_0", " 3", "0", "7", "2.5", "1e-300",
                                  "-1e300", "inf", "y"])


@st.composite
def _table(draw):
    """A rectangular table in CSV quoting, one cell pool per column, and a
    sidecar naming some of its columns: most of these load."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.one_of(st.sampled_from(["a", "b", "x0", "y"]), st.text(max_size=2)),
                           min_size=width, max_size=width, unique=True))
    pools = [draw(st.sampled_from([_NUMBER_CELL, _CELL])) for _ in range(width - 1)]
    rows = draw(st.lists(st.tuples(*pools, _RESPONSE_CELL), min_size=1, max_size=5))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    if draw(st.integers(0, 3)) == 0:
        return out.getvalue(), None
    sidecar = [f"response={header[-1]}"]
    for j, name in enumerate(draw(st.lists(st.sampled_from(header[:-1]), min_size=1, unique=True))
                             if width > 1 else []):
        kind = draw(st.sampled_from([NUMERIC, CATEGORICAL]))
        sidecar += [f"column.{j}.name={name}", f"column.{j}.kind={kind}"]
        if kind == CATEGORICAL:
            cells = [row[header.index(name)] for row in rows]
            cats = draw(st.lists(st.sampled_from([*cells, "a", "", "NA"]), max_size=3))
            sidecar += [f"column.{j}.category.{k}={c}" for k, c in enumerate(cats)]
    return out.getvalue(), sidecar + draw(st.lists(_SIDECAR_LINE, max_size=1))


@settings(max_examples=500, deadline=None)
@given(case=st.one_of(st.tuples(st.lists(st.lists(_CELL, max_size=4).map(",".join), max_size=5)
                                .map("\n".join),
                                st.one_of(st.none(), st.lists(_SIDECAR_LINE, max_size=5))),
                      _table()))
def test_fuzzed_csv_and_sidecar_load_or_raise_a_data_error(tmp_path_factory, case):
    # load_csv either raises DataError where the reference reader rejects the
    # file, or returns the reference's kinds, dictionaries and values
    text, sidecar = case
    p = tmp_path_factory.mktemp("fuzz") / "d.csv"
    p.write_text(text, encoding="utf-8")
    if sidecar is not None:
        Path(f"{p}.schema").write_text("\n".join(sidecar), encoding="utf-8")
    try:
        expected = reference_load_csv(p)
    except CsvRejected:
        expected = None
    try:
        ds = load_csv(p)
    except DataError:
        assert expected is None
        return
    assert expected is not None
    response, columns, X, y = expected
    assert ds.response_name == response
    assert [(c.name, c.kind, c.categories) for c in ds.columns] == columns
    assert np.array_equal(ds.X, X, equal_nan=True)
    assert np.array_equal(ds.y, y)
