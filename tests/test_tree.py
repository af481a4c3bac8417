import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffboost.tree import (
    CATEGORICAL,
    NUMERIC,
    TreeParams,
    _predict_replicated,
    apply_tree,
    fit_tree,
    gain_importance,
    predict_tree,
    replace_leaf_values,
)

from oracles import brute_force_root_gain, random_small_dataset


def step_data():
    x = np.arange(100) / 100.0
    y = (x >= 0.5).astype(float)
    return x[:, None], y


def test_constant_targets_single_leaf():
    X = np.linspace(0, 1, 50)[:, None]
    y = np.full(50, 3.25)
    tree = fit_tree(X, y, [NUMERIC], TreeParams(min_samples_leaf=2))
    assert tree.n_leaves == 1
    assert predict_tree(tree, np.array([0.9])) == 3.25


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
    assert predict_tree(tree, np.array([np.nan])) == pytest.approx(5.0)
    assert predict_tree(tree, np.array([0.5])) == pytest.approx(0.0)


def test_all_missing_row_deterministic():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 3))
    X[rng.random((200, 3)) < 0.2] = np.nan
    y = X[:, 0].copy()
    y[np.isnan(y)] = 0.0
    tree = fit_tree(X, y, [NUMERIC] * 3, TreeParams(min_samples_leaf=5))
    row = np.array([np.nan, np.nan, np.nan])
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
    unseen = predict_tree(tree, np.array([-1.0]))
    missing = predict_tree(tree, np.array([np.nan]))
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
    with pytest.raises(ValueError):
        predict_tree(fit_tree(np.zeros((5, 1)), np.zeros(5), [NUMERIC]), np.zeros((3, 4)))


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
    tree = fit_tree(X, y, kinds, params)
    leaves = apply_tree(tree, X)
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
