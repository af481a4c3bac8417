import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diffboost import tree as tree_module
from diffboost.tree import (
    CATEGORICAL,
    NUMERIC,
    TreeParams,
    _predict_replicated,
    _rank,
    apply_tree,
    fit_tree,
    gain_importance,
    predict_tree,
    replace_leaf_values,
)

from oracles import brute_force_root_gain, random_small_dataset, reference_tree


def step_data():
    x = np.arange(100) / 100.0
    y = (x >= 0.5).astype(float)
    return x[:, None], y


def test_constant_targets_single_leaf():
    X = np.linspace(0, 1, 50)[:, None]
    y = np.full(50, 3.25)
    tree = fit_tree(X, y, [NUMERIC], TreeParams(min_samples_leaf=2))
    assert tree.n_leaves == 1
    assert predict_tree(tree, np.array([[0.9]])) == [3.25]


def test_step_function_two_leaves():
    X, y = step_data()
    tree = fit_tree(X, y, [NUMERIC])
    assert tree.n_leaves == 2
    thr = tree.threshold[0]
    assert 0.49 <= thr < 0.51
    assert sorted(tree.value[tree.feature < 0]) == [0.0, 1.0]
    assert np.array_equal(predict_tree(tree, X), y)


def test_learning_rate_scales_leaves():
    X, y = step_data()
    tree = fit_tree(X, y, [NUMERIC], TreeParams(learning_rate=0.5))
    assert sorted(tree.value[tree.feature < 0]) == [0.0, 0.5]


def test_missing_routed_to_informative_side():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(100, 1))
    X[:30, 0] = np.nan
    y = np.zeros(100)
    y[:30] = 5.0
    tree = fit_tree(X, y, [NUMERIC])
    assert predict_tree(tree, np.array([[np.nan], [0.5]])) == pytest.approx([5.0, 0.0])


def test_all_missing_row_deterministic():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 3))
    X[rng.random((200, 3)) < 0.2] = np.nan
    y = X[:, 0].copy()
    y[np.isnan(y)] = 0.0
    tree = fit_tree(X, y, [NUMERIC] * 3, TreeParams(min_samples_leaf=5))
    row = np.array([[np.nan, np.nan, np.nan]])
    first = predict_tree(tree, row)
    assert all(predict_tree(tree, row) == first for _ in range(5))


def test_leaf_cap_respected():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(500, 4))
    y = rng.normal(size=500)
    for cap in (2, 7, 32):
        tree = fit_tree(X, y, [NUMERIC] * 4, TreeParams(num_leaves=cap, min_samples_leaf=1))
        assert 1 <= tree.n_leaves <= cap


def test_sse_never_increases():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = rng.normal(size=(120, 3))
        y = rng.normal(size=120)
        tree = fit_tree(X, y, [NUMERIC] * 3, TreeParams(num_leaves=16, min_samples_leaf=4))
        pred = predict_tree(tree, X)
        sse_tree = ((y - pred) ** 2).sum()
        sse_mean = ((y - y.mean()) ** 2).sum()
        if tree.n_leaves == 1:
            assert sse_tree == pytest.approx(sse_mean)
        else:
            assert sse_tree < sse_mean


def test_root_split_matches_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        X, y, kinds, msl = random_small_dataset(rng)
        params = TreeParams(num_leaves=2, min_samples_leaf=msl)
        tree = fit_tree(X, y, kinds, params)
        oracle = brute_force_root_gain(X, y, kinds, msl)
        if tree.n_leaves == 1:
            base = ((y - y.mean()) ** 2).sum()
            assert oracle <= 1e-9 * max(base, 1.0)
        else:
            assert tree.split_gain[0] == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_deterministic_fit_and_predict():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 3))
    X[rng.random((300, 3)) < 0.1] = np.nan
    y = rng.normal(size=300)
    t1 = fit_tree(X, y, [NUMERIC] * 3, TreeParams(num_leaves=12, min_samples_leaf=5))
    t2 = fit_tree(X, y, [NUMERIC] * 3, TreeParams(num_leaves=12, min_samples_leaf=5))
    assert np.array_equal(t1.feature, t2.feature)
    assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)
    assert np.array_equal(t1.value, t2.value, equal_nan=True)
    probe = rng.normal(size=(50, 3))
    assert np.array_equal(predict_tree(t1, probe), predict_tree(t2, probe))


def test_presorted_gives_identical_tree():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 2))
    y = rng.normal(size=200)
    presorted = {f: np.argsort(X[:, f], kind="stable").astype(np.int64) for f in range(2)}
    t1 = fit_tree(X, y, [NUMERIC] * 2, TreeParams(num_leaves=8, min_samples_leaf=5))
    t2 = fit_tree(X, y, [NUMERIC] * 2, TreeParams(num_leaves=8, min_samples_leaf=5),
                  presorted=presorted)
    assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)
    assert np.array_equal(t1.value, t2.value, equal_nan=True)


def test_categorical_exact_fit_and_code_permutation_invariance():
    rng = np.random.default_rng(6)
    codes = rng.integers(0, 5, size=400).astype(float)
    effect = np.array([0.0, 3.0, -1.0, 7.0, 0.5])
    y = effect[codes.astype(int)] + rng.normal(scale=0.7, size=400)
    X = codes[:, None]
    params = TreeParams(num_leaves=10, min_samples_leaf=10)
    tree = fit_tree(X, y, [CATEGORICAL], params)
    pred = predict_tree(tree, X)

    perm = np.array([3, 0, 4, 1, 2])
    Xp = perm[codes.astype(int)].astype(float)[:, None]
    tree_p = fit_tree(Xp, y, [CATEGORICAL], params)
    pred_p = predict_tree(tree_p, Xp)
    assert np.allclose(pred, pred_p)


def test_unknown_category_routes_like_missing():
    rng = np.random.default_rng(7)
    codes = rng.integers(0, 3, size=300).astype(float)
    y = codes * 2.0 + rng.normal(scale=0.1, size=300)
    tree = fit_tree(codes[:, None], y, [CATEGORICAL], TreeParams(min_samples_leaf=10))
    unseen, missing = predict_tree(tree, np.array([[-1.0], [np.nan]]))
    assert unseen == missing


def test_gain_importance():
    X, y = step_data()
    tree = fit_tree(X, y, [NUMERIC])
    imp = gain_importance(tree)
    assert imp.shape == (1,)
    assert imp[0] > 0

    single = fit_tree(X, np.zeros(100), [NUMERIC])
    assert np.array_equal(gain_importance(single), np.zeros(1))

    rng = np.random.default_rng(8)
    x0 = rng.uniform(size=2000)
    noise_feat = rng.uniform(size=2000)
    y2 = (x0 > 0.5) * 4.0 + rng.normal(scale=0.05, size=2000)
    X2 = np.column_stack([x0, noise_feat])
    t2 = fit_tree(X2, y2, [NUMERIC] * 2, TreeParams(num_leaves=20, min_samples_leaf=20))
    imp2 = gain_importance(t2)
    assert imp2[1] < 0.05 * imp2[0]


def test_apply_and_replace_leaf_values():
    X, y = step_data()
    tree = fit_tree(X, y, [NUMERIC])
    leaves = apply_tree(tree, X)
    assert set(np.unique(leaves)) == {1, 2}
    new_vals = np.zeros(tree.n_nodes)
    new_vals[1], new_vals[2] = 10.0, 20.0
    tree2 = replace_leaf_values(tree, new_vals)
    assert set(np.unique(predict_tree(tree2, X))) == {10.0, 20.0}


def test_error_contracts():
    with pytest.raises(ValueError):
        fit_tree(np.empty((0, 1)), np.empty(0), [NUMERIC])
    with pytest.raises(ValueError):
        fit_tree(np.zeros((5, 1)), np.array([1.0, 2.0, np.inf, 0.0, 1.0]), [NUMERIC])
    with pytest.raises(ValueError):
        fit_tree(np.zeros((5, 2)), np.zeros(5), [NUMERIC])
    stump = fit_tree(np.zeros((5, 1)), np.zeros(5), [NUMERIC])
    for rows in (np.zeros((3, 4)), np.zeros(1), np.zeros((3, 1, 1)), 0.0):
        with pytest.raises(ValueError, match="columns"):
            predict_tree(stump, rows)
        with pytest.raises(ValueError, match="columns"):
            apply_tree(stump, rows)
    with pytest.raises(ValueError, match="leaf_out"):
        fit_tree(np.zeros((5, 1)), np.zeros(5), [NUMERIC], leaf_out=np.empty(4, dtype=np.intp))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 160),
       n_block=st.integers(0, 2), n_sparse=st.integers(0, 2), n_cat=st.integers(0, 3),
       msl=st.integers(1, 6), lr=st.sampled_from([1.0, 0.3]), max_card=st.integers(3, 12))
def test_fit_partition_matches_apply_tree_routing(seed, n, n_block, n_sparse, n_cat,
                                                  msl, lr, max_card):
    rng = np.random.default_rng(seed)
    cols, kinds = [rng.normal(size=n)], [NUMERIC]
    for _ in range(n_block):
        cols.append(rng.normal(size=n).round(1))            # repeated values
        kinds.append(NUMERIC)
    for _ in range(n_sparse):
        col = rng.normal(size=n)
        col[rng.random(n) < 0.3] = np.nan
        cols.append(col)
        kinds.append(NUMERIC)
    for _ in range(n_cat):
        col = rng.integers(-1, 9, n).astype(float)           # -1: unknown code
        col[rng.random(n) < 0.15] = np.nan
        cols.append(col)
        kinds.append(CATEGORICAL)
    perm = rng.permutation(len(cols))
    X = np.column_stack([cols[i] for i in perm])
    kinds = [kinds[i] for i in perm]
    # integer targets: every leaf mean is exact whatever order its rows are summed in
    y = (4 * np.nan_to_num(X).sum(axis=1) + rng.normal(size=n)).round()
    params = TreeParams(num_leaves=12, min_samples_leaf=msl, learning_rate=lr,
                        max_categorical_cardinality=max_card)
    leaf_out = np.full(n, -1, dtype=np.intp)
    tree = fit_tree(X, y, kinds, params, leaf_out=leaf_out)
    leaves = apply_tree(tree, X)
    # the leaf report is the routing, and asking for it changes no byte of the tree
    assert np.array_equal(leaf_out, leaves)
    plain = fit_tree(X, y, kinds, params)
    for name in ("feature", "threshold", "default_left", "children_left", "children_right",
                 "value", "split_gain"):
        assert np.array_equal(getattr(tree, name), getattr(plain, name), equal_nan=True)
    for name in ("is_categorical", "cat_len", "cat_values"):
        assert np.array_equal(getattr(tree, name), getattr(plain, name))
    count = np.bincount(leaves, minlength=tree.n_nodes)
    is_leaf = tree.feature < 0
    # the rows the grower put in each leaf are the rows prediction routes there
    assert np.array_equal(count > 0, is_leaf)
    assert (count[is_leaf] >= min(msl, n)).all()
    leaf_mean = np.bincount(leaves, weights=y, minlength=tree.n_nodes)[is_leaf] / count[is_leaf]
    assert np.array_equal(tree.value[is_leaf], leaf_mean * lr)


@pytest.mark.parametrize("kind,missing", [(CATEGORICAL, True), (NUMERIC, True), (NUMERIC, False)],
                         ids=["categorical", "numeric_missing", "numeric_complete"])
def test_identical_columns_split_on_the_lower_index(kind, missing):
    rng = np.random.default_rng(10)
    codes = rng.integers(0, 6, 400).astype(float)
    y = np.array([0.0, 2.0, -1.0, 3.0, 1.0, 5.0])[codes.astype(int)] \
        + rng.normal(scale=0.1, size=400)
    if missing:
        codes[rng.random(400) < 0.1] = np.nan
    X = np.column_stack([rng.normal(size=400), codes, codes])
    tree = fit_tree(X, y, [NUMERIC, kind, kind], TreeParams(num_leaves=10, min_samples_leaf=5))
    assert tree.feature[0] == 1
    assert 2 not in set(tree.feature)


def test_column_over_cardinality_cap_is_never_split():
    rng = np.random.default_rng(11)
    n = 2000
    big = rng.integers(0, 40, n).astype(float)              # every leaf holds codes >= 16
    small = rng.integers(0, 4, n).astype(float)
    y = rng.normal(scale=3.0, size=40)[big.astype(int)] + 0.5 * small \
        + rng.normal(scale=0.1, size=n)
    X = np.column_stack([big, small])
    kinds = [CATEGORICAL, CATEGORICAL]
    uncapped = fit_tree(X, y, kinds, TreeParams(num_leaves=8, min_samples_leaf=10))
    assert uncapped.feature[0] == 0                          # the stronger column
    capped = fit_tree(X, y, kinds, TreeParams(num_leaves=8, min_samples_leaf=10,
                                              max_categorical_cardinality=16))
    assert 0 not in set(capped.feature)
    assert 1 in set(capped.feature)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 160),
       miss_rate=st.sampled_from([0.0, 0.1, 0.25, 0.4]), shift=st.sampled_from([-3.0, 0.0, 2.0, 9.0]),
       msl=st.integers(1, 9))
def test_numeric_and_categorical_codes_share_the_missing_policy(seed, n, miss_rate, shift, msl):
    # with y rising in the code, the mean-target order of the categories is the
    # code order, so both kinds search the same cuts under the same missing policy
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 6, n).astype(float)
    y = codes + rng.normal(scale=0.3, size=n)
    miss = rng.random(n) < miss_rate
    codes[miss] = np.nan
    y[miss] += shift
    X = codes[:, None]
    params = TreeParams(num_leaves=2, min_samples_leaf=msl)
    num = fit_tree(X, y, [NUMERIC], params)
    cat = fit_tree(X, y, [CATEGORICAL], params)
    assert num.n_leaves == cat.n_leaves
    if num.n_leaves == 2:
        assert num.default_left[0] == cat.default_left[0]
        assert num.split_gain[0] == pytest.approx(cat.split_gain[0], rel=1e-9)
    goes_left = apply_tree(num, X) == num.children_left[0]
    assert np.array_equal(goes_left, apply_tree(cat, X) == cat.children_left[0])


def test_non_finite_learning_rate_or_leaf_value_is_rejected():
    for lr in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError):
            TreeParams(learning_rate=lr)
    X, y = step_data()
    with pytest.raises(ValueError, match="overflows"):
        fit_tree(X, 3.0 * y, [NUMERIC], TreeParams(min_samples_leaf=5, learning_rate=1e308))


def tree_on_noisy_column(rng, shape, n, miss_rate, msl):
    """A tree on (noisy value, numeric, categorical) columns, as a step tree sees
    them: missing rows of column 0 get their own target shift, so missing-alone
    cuts (threshold -inf) and both default directions occur.  ``shape`` is
    ``"split"``, ``"no_col0"`` (column 0 is one constant) or ``"single_leaf"``."""
    x0 = rng.normal(size=n).round(int(rng.integers(0, 3)))   # ties at some roundings
    x0[rng.random(n) < miss_rate] = np.nan
    if shape == "no_col0":
        x0 = np.full(n, 0.25)
    x1 = rng.normal(size=n)
    x1[rng.random(n) < 0.2] = np.nan
    x2 = rng.integers(-1, 5, n).astype(float)                # -1: unknown code
    x2[rng.random(n) < 0.15] = np.nan
    X = np.column_stack([x0, x1, x2])
    y = 2.0 * np.where(np.isnan(x0), rng.normal(scale=3.0), x0) \
        + np.nan_to_num(x2) + rng.normal(scale=0.3, size=n)
    if shape == "single_leaf":
        y = np.full(n, 1.5)
    tree = fit_tree(X, y, [NUMERIC, NUMERIC, CATEGORICAL],
                    TreeParams(num_leaves=10, min_samples_leaf=msl))
    return X, tree


def test_noisy_column_trees_cover_every_routing_case():
    # the cases the property test below relies on all occur within its seeds
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        shape = ("split", "no_col0", "single_leaf")[seed % 3]
        _, tree = tree_on_noisy_column(rng, shape, 120, 0.3, 3)
        on_col0 = tree.feature == 0
        seen.update(("default_left", bool(d)) for d in tree.default_left[on_col0])
        seen.add(("missing_alone", bool(np.isneginf(tree.threshold[on_col0]).any())))
        seen.add(("col0_split", bool(on_col0.any())))
        seen.add(("leaves", min(tree.n_leaves, 2)))
    assert {("default_left", True), ("default_left", False), ("missing_alone", True),
            ("col0_split", True), ("col0_split", False), ("leaves", 1)} <= seen


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["split", "no_col0", "single_leaf"]),
       n=st.integers(12, 120), miss_rate=st.sampled_from([0.0, 0.2, 0.5]),
       msl=st.integers(1, 6), m=st.integers(1, 8), s=st.integers(1, 12),
       tile_order=st.booleans())
def test_replicated_prediction_matches_the_materialized_rows(seed, shape, n, miss_rate, msl,
                                                             m, s, tile_order):
    rng = np.random.default_rng(seed)
    X, tree = tree_on_noisy_column(rng, shape, n, miss_rate, msl)
    thr = np.unique(tree.threshold[tree.feature == 0])
    pool = np.concatenate([thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf),
                           [-np.inf, np.inf, np.nan], rng.normal(size=8)])
    values = rng.choice(pool, size=m * s)
    base = X[rng.integers(0, n, m)].copy()
    base[:, 0] = rng.normal(size=m)                          # overwritten by ``values``
    group = np.tile(np.arange(m), s) if tile_order else np.repeat(np.arange(m), s)
    rows = base[group]
    rows[:, 0] = values
    got = _predict_replicated(tree, base, 0, values, group)
    assert np.array_equal(got, predict_tree(tree, rows))


@st.composite
def cut_sets(draw):
    """Sorted distinct cuts without NaN, 0-80 of them: any floats (huge, tiny,
    infinite, signed zeros), rounded ones that tie, and a run of floats a few
    ulps apart (adjacent bit patterns are adjacent floats)."""
    free = draw(st.lists(st.floats(allow_nan=False), max_size=30))
    rounded = draw(st.lists(st.floats(-3, 3).map(lambda x: round(x, 1)), max_size=30))
    base = draw(st.floats(allow_nan=False, allow_infinity=False))
    steps = draw(st.lists(st.integers(1, 3), max_size=19))
    run = (np.array([base]).view(np.int64) + np.cumsum([0] + steps)).view(np.float64)
    cuts = np.concatenate([free, rounded, run])
    return np.unique(cuts[~np.isnan(cuts)])


@settings(max_examples=400, deadline=None)
@given(cuts=cut_sets(), extra=st.lists(st.floats(allow_nan=False), max_size=20),
       with_nan=st.booleans())
@example(cuts=np.array([-1e308, 1e308]), extra=[0.0], with_nan=False)        # span overflows
@example(cuts=np.array([-8e307, 0.0, 8e307]), extra=[1.7e308, -1.7e308], with_nan=False)
@example(cuts=np.array([0.0, 5e-324]), extra=[], with_nan=False)             # G / span overflows
@example(cuts=np.array([5e-324, 1e-323, 1e-300]), extra=[], with_nan=False)
@example(cuts=np.array([-np.inf, 0.0, 1.0]), extra=[], with_nan=False)       # missing alone
@example(cuts=np.array([0.0, 1.0, np.inf]), extra=[], with_nan=False)
@example(cuts=np.array([-0.0, 1.0]), extra=[0.0, -0.0], with_nan=False)
@example(cuts=np.array([1.0, 2.0, 3.0]), extra=[2.5], with_nan=True)
def test_rank_matches_searchsorted(cuts, extra, with_nan):
    with np.errstate(over="ignore"):            # the float next to the largest is inf
        near = np.concatenate([np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)])
    values = np.concatenate([cuts, near, [np.inf, -np.inf, 0.0, -0.0], extra,
                             [np.nan] * with_nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no overflow warning may escape
        got = _rank(cuts, values)
    assert np.array_equal(got, np.searchsorted(np.append(cuts, np.inf), values, side="left"))


def test_rank_searches_only_values_in_cells_with_several_cuts(monkeypatch):
    # 4 cuts make 32 cells of width 1/16 over [0, 2]; the two adjacent floats
    # at 0 share one, and so do the values 0, 5e-324 and 1e-3
    cuts = np.array([0.0, 5e-324, 1.0, 2.0])
    values = np.array([-1.0, 0.0, 5e-324, 1e-3, 0.5, 1.0, 1.5, 2.0, 3.0, np.inf, -np.inf])
    searched = []
    real = np.searchsorted

    def spy(a, v, side="left"):
        if a.dtype == np.float64:               # not the search that builds the grid
            searched.append(np.array(v))
        return real(a, v, side=side)
    monkeypatch.setattr(np, "searchsorted", spy)
    got = _rank(cuts, values)
    spread = _rank(np.array([0.0, 1.0, 2.0, 3.0]), values)
    monkeypatch.undo()
    assert np.array_equal(got, np.searchsorted(np.append(cuts, np.inf), values, side="left"))
    assert np.array_equal(spread, np.searchsorted([0.0, 1.0, 2.0, 3.0, np.inf], values))
    assert len(searched) == 1 and sorted(searched[0]) == [0.0, 5e-324, 1e-3]


def cat_set(tree, node):
    """The sorted codes of ``node``'s category set."""
    start = int(tree.cat_len[:node].sum())
    return tuple(tree.cat_values[start:start + tree.cat_len[node]].tolist())


def assert_matches_reference(tree, X, y, kinds, params):
    """``tree`` is ``reference_tree``'s, node for node, up to the oracle's
    first tied step, whose gain alone is checked.  Returns (steps compared
    in full, steps)."""
    steps, values = reference_tree(X, y, kinds, params)
    for s, ref in enumerate(steps):
        # node ids follow growth order: step s makes nodes 2s + 1 and 2s + 2
        parents = np.flatnonzero(tree.children_left == 2 * s + 1)
        assert parents.size == 1
        node = int(parents[0])
        gain = tree.split_gain[node]
        if ref.tied:
            assert ref.gain * (1 - 1e-9) <= gain <= ref.gain_high * (1 + 1e-9)
            return s, len(steps)
        assert gain == pytest.approx(ref.gain, rel=1e-9)
        assert (node, tree.feature[node], tree.children_right[node]) == \
            (ref.node, ref.feature, 2 * s + 2)
        assert tree.default_left[node] == ref.default_left
        if ref.cats is None:
            assert not tree.is_categorical[node] and tree.threshold[node] == ref.threshold
        else:
            assert tree.is_categorical[node] and np.isnan(tree.threshold[node])
            assert cat_set(tree, node) == ref.cats
    assert tree.n_nodes == 2 * len(steps) + 1
    leaves = np.flatnonzero(tree.feature < 0)
    assert {int(i): float(tree.value[i]) for i in leaves} == values
    return len(steps), len(steps)


def small_fit(seed, n, columns, num_leaves, msl, cap):
    """A small fit with integer targets: ``columns`` lists "complete",
    "sparse" (numeric with NaN) and "categorical" (with NaN, -1 and codes
    at or above ``cap``) columns."""
    rng = np.random.default_rng(seed)
    cols, kinds = [], []
    for kind in columns:
        if kind == "categorical":
            col = rng.integers(0, min(cap, 6), n).astype(float)
            u = rng.random(n)
            col[u < 0.1] = -1.0
            col[(u >= 0.1) & (u < 0.2)] = np.nan
            col[(u >= 0.2) & (u < 0.25)] = cap + rng.integers(0, 3)
        else:
            col = rng.integers(0, 8, n) / 2 if rng.random() < 0.5 else rng.normal(size=n).round(1)
            if kind == "sparse":
                col[rng.random(n) < 0.25] = np.nan
        cols.append(col)
        kinds.append(CATEGORICAL if kind == "categorical" else NUMERIC)
    signal = sum(rng.integers(-3, 4) * np.nan_to_num(col, nan=float(rng.integers(-3, 4)))
                 for col in cols)
    y = np.round(signal + rng.integers(-4, 5, n))
    params = TreeParams(num_leaves=num_leaves, min_samples_leaf=msl,
                        max_categorical_cardinality=cap)
    return np.column_stack(cols), y, kinds, params


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       columns=st.lists(st.sampled_from(["complete", "sparse", "categorical"]),
                        min_size=1, max_size=4),
       num_leaves=st.integers(2, 12), msl=st.integers(1, 5), cap=st.integers(3, 9))
def test_fit_tree_matches_the_reference_tree(seed, n, columns, num_leaves, msl, cap):
    X, y, kinds, params = small_fit(seed, n, columns, num_leaves, msl, cap)
    assert_matches_reference(fit_tree(X, y, kinds, params), X, y, kinds, params)


def test_reference_comparisons_are_mostly_complete():
    # ties cut a comparison short; on these draws most steps are still checked in full
    full = total = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        columns = rng.choice(["complete", "sparse", "categorical"], size=rng.integers(1, 5))
        X, y, kinds, params = small_fit(seed, int(rng.integers(2, 41)), list(columns),
                                        int(rng.integers(2, 13)), int(rng.integers(1, 6)),
                                        int(rng.integers(3, 10)))
        done, steps = assert_matches_reference(fit_tree(X, y, kinds, params), X, y, kinds,
                                               params)
        full += done
        total += steps
    assert total > 500 and full >= 0.75 * total


def fit_one_leaf_per_search(X, y, kinds, params):
    """``fit_tree`` with every leaf searched as a batch of one."""
    real = tree_module._Fit.evaluate

    def one_at_a_time(self, leaves, y, codes):
        for leaf in leaves:
            real(self, [leaf], leaf.y, leaf.codes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module._Fit, "evaluate", one_at_a_time)
        return fit_tree(X, y, kinds, params)


def assert_same_tree(a, b):
    for name in ("feature", "threshold", "is_categorical", "cat_len", "cat_values",
                 "default_left", "children_left", "children_right", "value", "split_gain"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


def sibling_edge_fit(seed, msl, n_big, small, constant, missing_in_one, over_cap_in_one,
                     side_low, n_cat, sparse, num_leaves):
    """A fit whose column 0 puts the rows of one side in one child of the
    root: that child may be below ``2 * msl``, constant, the only one with
    missing category bins, or the only one with codes over the cap."""
    rng = np.random.default_rng(seed)
    n_side = int(rng.integers(msl, 2 * msl) if small else rng.integers(2 * msl, 30))
    n = n_big + n_side
    side = np.zeros(n, dtype=bool)
    side[rng.permutation(n)[:n_side]] = True
    cap = 6
    cols = [np.where(side == side_low, rng.uniform(0, 1, n), rng.uniform(2, 3, n))]
    for _ in range(n_cat):
        col = rng.integers(0, 5, n).astype(float)
        holes = rng.random(n) < 0.3
        holes &= side if missing_in_one else True
        col[holes] = np.where(rng.random(n) < 0.5, np.nan, -1.0)[holes]
        if over_cap_in_one:
            col[side & (rng.random(n) < 0.3)] = cap + 1
        cols.append(col)
    if sparse:
        col = rng.normal(size=n).round(1)
        col[rng.random(n) < 0.2] = np.nan
        cols.append(col)
    X = np.column_stack(cols)
    kinds = [NUMERIC] + [CATEGORICAL] * n_cat + [NUMERIC] * sparse
    y = 100.0 * side + rng.integers(-3, 4, n) + 2 * np.nan_to_num(X[:, 1])
    if constant:
        y[side] = 100.0
    params = TreeParams(num_leaves=num_leaves, min_samples_leaf=msl,
                        max_categorical_cardinality=cap)
    return X, y, kinds, params


_EDGE_FLAGS = dict(small=st.booleans(), constant=st.booleans(), missing_in_one=st.booleans(),
                   over_cap_in_one=st.booleans(), side_low=st.booleans(),
                   n_cat=st.integers(1, 3), sparse=st.booleans(), num_leaves=st.integers(3, 12))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), msl=st.integers(1, 5), n_big=st.integers(10, 40),
       **_EDGE_FLAGS)
def test_sibling_batch_matches_one_leaf_batches(seed, msl, n_big, **flags):
    X, y, kinds, params = sibling_edge_fit(seed, msl, n_big, **flags)
    # the root splits off the side, whose targets are near 100 (column 0 does
    # it, and another column may do it too)
    stump = fit_tree(X, y, kinds, replace(params, num_leaves=2))
    leaf, side = apply_tree(stump, X), y > 50
    assert stump.n_leaves == 2 and np.array_equal(leaf == leaf[side][0], side)
    assert_same_tree(fit_tree(X, y, kinds, params), fit_one_leaf_per_search(X, y, kinds, params))


def test_sibling_edge_fits_cover_every_batch_edge():
    # the cases the property test above is for all occur within these draws
    seen = set()
    real = tree_module._Fit._best_categorical

    def spy(self, batch, y, codes, msl):
        leaves = [leaf for leaf, _, _ in batch]
        if len(leaves) == 1 and leaves[0].node_id > 0:
            seen.add(("one sibling searched, slot", leaves[0].slot))
        bins = [(leaf.codes - leaf.slot * self.cat_width) % (self.cat_k + 2) for leaf in leaves]
        for name, b in (("missing", self.cat_k), ("over the cap", self.cat_k + 1)):
            held = [bool((leaf_bins == b).any()) for leaf_bins in bins]
            if len(held) == 2:
                seen.add((name, "in one sibling" if held[0] != held[1] else "in both or none"))
        return real(self, batch, y, codes, msl)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module._Fit, "_best_categorical", spy)
        for seed in range(64):
            flags = {name: bool(seed >> i & 1) for i, name in enumerate(
                ["small", "constant", "missing_in_one", "over_cap_in_one", "side_low", "sparse"])}
            fit_tree(*sibling_edge_fit(seed, 1 + seed % 4, 20, n_cat=2, num_leaves=8, **flags))
    assert {("one sibling searched, slot", 0), ("one sibling searched, slot", 1),
            ("missing", "in one sibling"), ("over the cap", "in one sibling")} <= seen


@pytest.mark.parametrize("kinds", [[CATEGORICAL, CATEGORICAL], [NUMERIC, CATEGORICAL],
                                   [NUMERIC, NUMERIC]], ids=["categorical", "mixed", "numeric"])
def test_a_two_leaf_fit_searches_the_root_only(kinds):
    rng = np.random.default_rng(12)
    X = rng.integers(0, 4, size=(60, 2)).astype(float)
    X[rng.random((60, 2)) < 0.1] = np.nan
    y = np.round(5 * np.nan_to_num(X[:, 0], nan=1.5) + rng.integers(-2, 3, 60))
    params = TreeParams(num_leaves=2, min_samples_leaf=3)
    searched = []
    real = tree_module._Fit.evaluate

    def spy(self, leaves, y, codes):
        searched.append([leaf.node_id for leaf in leaves])
        return real(self, leaves, y, codes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module._Fit, "evaluate", spy)
        tree = fit_tree(X, y, kinds, params)
    assert searched == [[0]]                  # the split that fills the budget ends growth
    assert tree.n_leaves == 2
    assert assert_matches_reference(tree, X, y, kinds, params) == (1, 1)
