"""The level-wise grower against a one-node-at-a-time reference, and the
forest's read paths (step tables, out-of-bag averages) against predict."""

import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nof1twin import forest as forest_module
from nof1twin import harness
from nof1twin.arco import SimConfig, simulate_dataset
from nof1twin.cli import DEFAULT_SEED
from nof1twin.core import LAG_QUARTILE, FeatureSpec, SeedSpec, assemble_features
from nof1twin.errors import ConfigError
from nof1twin.forest import _LEAF, FlatForest, build_forest, oob_predictions
from nof1twin.harness import Method, MethodOptions, StudyConfig, default_study_params, replicate
from nof1twin.models import ForestConfig


def _reference_best_split(x_col, y):
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    ys = y[order]
    n = len(ys)
    cut = np.flatnonzero(xs[:-1] < xs[1:])
    if cut.size == 0:
        return -np.inf, 0.0
    csum = np.cumsum(ys)
    total = csum[-1]
    n_left = cut + 1.0
    s_left = csum[cut]
    score = s_left**2 / n_left + (total - s_left) ** 2 / (n - n_left)
    best = int(np.argmax(score))
    gain = score[best] - total * total / n
    i = cut[best]
    mid = (xs[i] + xs[i + 1]) / 2.0
    return float(gain), float(mid if mid < xs[i + 1] else xs[i])


def reference_build_forest(x, y, n_trees, mtry, min_node_size, seed, index_sampler=None):
    """One Python iteration per node, with the grower's midpoint guard.  Nodes
    leave a queue breadth-first (level by level, left to right), and each node
    that can split draws its `permutation(p)[:mtry]` feature subset as it
    leaves, which is the order the determinism contract documents."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    sampler = index_sampler or (lambda k, rng, n_: rng.integers(0, n_, size=n_))
    feature, threshold, left, value = [], [], [], []
    roots = np.empty(n_trees, dtype=np.int32)
    inbag = np.zeros((n_trees, n), dtype=np.int32)
    for k in range(n_trees):
        seq = np.random.SeedSequence(seed.base_seed, spawn_key=seed.path + (k,))
        rng = np.random.Generator(np.random.Philox(seq))
        idx = np.asarray(sampler(k, rng, n), dtype=np.intp)
        np.add.at(inbag[k], idx, 1)
        xb, yb = x[idx], y[idx]

        def new_node():
            for col, v in ((feature, _LEAF), (threshold, 0.0), (left, _LEAF), (value, 0.0)):
                col.append(v)
            return len(feature) - 1

        roots[k] = new_node()
        queue = deque([(roots[k], np.arange(len(idx)))])
        while queue:
            node_id, rows = queue.popleft()
            y_node = yb[rows]
            # a leaf sums its labels in feature-0 order, ties in bootstrap order, with
            # np.add.reduceat as the grower does
            by_x0 = y_node[np.argsort(xb[rows, 0], kind="stable")]
            mean = np.add.reduceat(by_x0, [0])[0] / len(rows)
            if len(rows) <= min_node_size or y_node.min() == y_node.max():
                value[node_id] = float(mean)
                continue
            feats = rng.permutation(p)[:mtry]
            feats.sort()
            best_gain, best_feat, best_thr = 0.0, _LEAF, 0.0
            for f_idx in feats:
                gain, thr = _reference_best_split(xb[rows, f_idx], y_node)
                if gain > best_gain + 1e-12:
                    best_gain, best_feat, best_thr = gain, int(f_idx), thr
            if best_feat == _LEAF:
                value[node_id] = float(mean)
                continue
            mask = xb[rows, best_feat] <= best_thr
            feature[node_id], threshold[node_id] = best_feat, best_thr
            lid, rid = new_node(), new_node()
            left[node_id] = lid
            queue.append((lid, rows[mask]))
            queue.append((rid, rows[~mask]))
    forest = FlatForest(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int32),
        value=np.asarray(value),
        roots=roots,
    )
    return forest, inbag


def _probes(x):
    """Training rows, midpoints between neighbouring values and points outside the range."""
    cols = []
    for col in x.T:
        u = np.unique(col)
        cols.append(np.concatenate([u, (u[:-1] + u[1:]) / 2, [u[0] - 1, u[-1] + 1]]))
    k = max(len(c) for c in cols)
    grid = np.column_stack([np.resize(c, k) for c in cols])
    return np.vstack([x, grid, grid[::-1]])


def _assert_same_forest(x, y, n_trees, mtry, min_node_size, seed, index_sampler=None):
    new, inbag = build_forest(x, y, n_trees, mtry, min_node_size, seed, index_sampler)
    ref, ref_inbag = reference_build_forest(x, y, n_trees, mtry, min_node_size, seed, index_sampler)
    assert np.array_equal(inbag, ref_inbag)
    assert len(new.feature) == len(ref.feature)
    probes = _probes(x)
    assert np.array_equal(new.predict_trees(probes), ref.predict_trees(probes))


@st.composite
def _labelled_rows(draw, p):
    """Rows whose features tie often, zeros of both signs among them, with 0/1
    or real labels.  Real labels make a leaf's value depend on the order in
    which its tied rows are summed.  Samples have more than 16 rows, the size up
    to which numpy's quicksort uses an insertion sort, which keeps ties in order."""
    n = draw(st.integers(20, 60))
    levels = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(st.lists(st.integers(0, levels), min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float)
    x *= draw(st.sampled_from([1.0, 0.1, -3.7]))
    negative = np.array(draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p)))
    x[x == 0] = np.where(negative.reshape(n, p)[x == 0], -0.0, 0.0)
    if draw(st.booleans()):
        y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    else:
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    return x, y


class TestLevelWiseEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.integers(1, 4), node=st.integers(1, 6), seed=st.integers(0, 99))
    def test_all_features_scanned(self, data, p, node, seed):
        x, y = data.draw(_labelled_rows(p))
        _assert_same_forest(x, y, 7, p, node, SeedSpec(seed))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), p=st.integers(2, 5), node=st.integers(1, 6), seed=st.integers(0, 99))
    def test_feature_subsets(self, data, p, node, seed):
        x, y = data.draw(_labelled_rows(p))
        mtry = data.draw(st.integers(1, p - 1))
        _assert_same_forest(x, y, 7, mtry, node, SeedSpec(seed))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), node=st.integers(1, 6), seed=st.integers(0, 99),
           rows=st.sampled_from([None, 0.5, 2.0]))
    def test_single_feature(self, data, node, seed, rows):
        # one feature, so every split falls in the order being re-sorted; bootstraps
        # of n, n/2 and 2n rows
        x, y = data.draw(_labelled_rows(1))
        sampler = rows and (lambda k, rng, n: rng.integers(0, n, size=int(rows * n)))
        _assert_same_forest(x, y, 7, 1, node, SeedSpec(seed), sampler)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), node=st.integers(1, 6), seed=st.integers(0, 99),
           mtry=st.integers(1, 2), at=st.integers(0, 1), twin=st.booleans())
    def test_splits_on_one_feature(self, data, node, seed, mtry, at, twin):
        # a constant column never splits, and with both columns scanned a
        # duplicated one never beats its twin: one feature takes every split,
        # and the other feature's order follows the children of its splits
        x, y = data.draw(_labelled_rows(1))
        x = np.insert(x, at, x[:, 0] if twin else 2.5, axis=1)
        _assert_same_forest(x, y, 7, mtry, node, SeedSpec(seed))


def test_gains_within_the_margin_keep_the_earlier_feature():
    # on this sample two features' best gains differ only by rounding; the
    # later one must beat the earlier by more than 1e-12 to take the split
    x = np.array([[2, 2, 5], [0, 1, 3], [0, 1, 3], [2, 4, 2], [0, 5, 4], [0, 5, 3], [0, 1, 2],
                  [1, 0, 4], [1, 4, 2], [2, 5, 3], [2, 3, 0], [4, 4, 3], [3, 3, 0], [1, 4, 2],
                  [2, 2, 2], [2, 3, 5], [2, 2, 4], [0, 3, 1], [4, 1, 3], [3, 5, 5], [0, 4, 0],
                  [0, 3, 0], [0, 0, 5], [0, 1, 5], [1, 4, 5], [0, 4, 5], [0, 1, 3]], dtype=float)
    y = np.array([1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1,
                  1, 0], dtype=float)
    identity = lambda k, rng, n: np.arange(n)
    new, _ = build_forest(x, y, 1, 3, 1, SeedSpec(0), index_sampler=identity)
    ref, _ = reference_build_forest(x, y, 1, 3, 1, SeedSpec(0), index_sampler=identity)
    assert sorted(new.feature) == sorted(ref.feature)
    assert np.array_equal(new.predict_trees(_probes(x)), ref.predict_trees(_probes(x)))


def test_tree_batches_do_not_change_the_forest(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.integers(0, 5, size=(30, 3)).astype(float)
    y = (rng.random(30) < 0.5).astype(float)
    monkeypatch.setattr(forest_module, "_BATCH_ROWS", 60)  # two or three trees' points per batch
    _assert_same_forest(x, y, 9, 3, 1, SeedSpec(2))
    # feature subsets drawn per batch; tree k's bootstrap has sizes[k % len(sizes)]
    # rows: fewer than n, more, and a short and a long one in the same batch
    n = len(x)
    for sizes in ((n // 2,), (2 * n,), (n // 4, 2 * n)):
        sampler = lambda k, rng, n_, sizes=sizes: rng.integers(0, n_, size=sizes[k % len(sizes)])
        _assert_same_forest(x, y, 9, 2, 1, SeedSpec(2), sampler)
        _assert_same_forest(x, y, 9, 1, 2, SeedSpec(5), sampler)
        _assert_same_forest(x[:, 1:2], y, 9, 1, 1, SeedSpec(7), sampler)  # p = 1: no re-sort


def test_subset_draws_reach_twice_the_distinct_rows():
    # d distinct rows, each three times with non-constant labels and a mean of its
    # own: at min_node_size 1 each tree's d - 1 inner nodes split and its d leaves
    # draw a subset and fail, 2d - 1 draws, the cap (N - 1 = 3d - 1 allows more)
    d = 6
    v = np.repeat(np.arange(d, dtype=float), 3)
    x, y = np.column_stack([v, d - 1 - v]), v + np.tile([0.0, 0.5, 0.25], d)
    identity = lambda k, rng, n: np.arange(n)
    _assert_same_forest(x, y, 3, 1, 1, SeedSpec(4), identity)
    forest, _ = build_forest(x, y, 3, 1, 1, SeedSpec(4), identity)
    assert len(forest.feature) == 3 * (2 * d - 1) and (forest.feature == _LEAF).sum() == 3 * d


def test_a_point_holds_only_its_bagged_labels():
    # rows 0 and 1 share every feature but not their label, and each tree bags row 1
    # three times and row 0 never: their point's labels are all 1.0, so the point is
    # constant, and whether a node holding it draws a feature subset follows from the
    # labels of its copies alone, as in the reference
    rng = np.random.default_rng(0)
    x = rng.integers(0, 3, size=(12, 2)).astype(float)
    x[1] = x[0]
    y = (rng.random(12) < 0.5).astype(float)
    y[:2] = 0.0, 1.0
    sampler = lambda k, rng_, n: np.array([1, 1, 1, *range(2, n)])
    for seed in range(7):
        _assert_same_forest(x, y, 2, 1, 1, SeedSpec(seed), sampler)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.integers(1, 3), node=st.integers(1, 6), seed=st.integers(0, 99))
def test_distinct_rows_grow_one_point_per_position(data, p, node, seed):
    # a column of distinct values makes every row distinct (D = n), so each bootstrap
    # row is its own point, its copies separate points that tie on every feature
    x, y = data.draw(_labelled_rows(p))
    x = np.column_stack([x, np.arange(len(x)) / 4])
    _assert_same_forest(x, y, 7, data.draw(st.integers(1, p + 1)), node, SeedSpec(seed))


@pytest.mark.parametrize("distinct, merged", [(30, False), (29, True), (5, True)])
def test_rows_merge_into_points_only_when_some_repeat(monkeypatch, distinct, merged):
    x = np.column_stack([np.arange(30) % distinct, np.zeros(30)]).astype(float)
    groups, grow = [], forest_module._grow
    monkeypatch.setattr(forest_module, "_grow", lambda *a: groups.append(a[-1]) or grow(*a))
    build_forest(x, np.arange(30.0), 3, 1, 1, SeedSpec(0))
    assert groups and all((g is not None) == merged for g in groups)


@pytest.mark.parametrize("rows", [0.5, 1.0, 2.0])
def test_no_features_grow_one_leaf_per_tree(rows):
    # p = 0: every row is the same point, so each tree is one leaf, the mean of its
    # bootstrap labels summed in bootstrap order
    y = np.random.default_rng(1).normal(size=40)
    sampler = lambda k, rng, n: rng.integers(0, n, size=int(rows * n))
    forest, inbag = build_forest(np.empty((40, 0)), y, 5, 1, 1, SeedSpec(3), sampler)
    assert (forest.feature == _LEAF).all() and len(forest.feature) == 5
    for k, rng in enumerate(SeedSpec(3).children(range(5))):
        boot = sampler(k, rng, 40)
        assert forest.value[forest.roots[k]] == np.add.reduceat(y[boot], [0])[0] / len(boot)


@pytest.mark.parametrize("boot", [[0, -1, 2], [], [0, 30], [[0, 1]], [0.0, 1.0]],
                         ids=["negative", "empty", "past-the-end", "2-d", "floats"])
def test_bootstraps_outside_the_rows_are_refused(boot):
    # position -1 would train tree 1 on row n - 1 but count it in-bag for tree 0
    x, y = np.arange(30.0)[:, None], np.arange(30.0)
    sampler = lambda k, rng, n: np.arange(n) if k != 1 else np.array(boot)
    with pytest.raises(ConfigError, match="tree 1"):
        build_forest(x, y, 3, 1, 1, SeedSpec(0), sampler)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("seed", range(6))
def test_labels_that_are_not_finite_are_refused(seed, bad):
    # a non-finite label would reach every later cut of its level through the level's
    # prefix sum, so no cut there could score its node's best
    x = np.random.default_rng(0).integers(0, 4, (30, 3)).astype(float)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=30)
    y[rng.choice(30, 2, replace=False)] = bad
    with pytest.raises(ConfigError, match="finite"):
        build_forest(x, y, 5, 1, 1, SeedSpec(0))


def test_study_forest_estimates_are_pinned():
    # motr-rf and pstn-rf on the first two study datasets (m = 220, 100 trees,
    # seed 1); a forest that drifts by a single bit moves these values
    arco, prop = default_study_params()
    study = StudyConfig(h_datasets=2, m_analysis=220, params=arco, propensity=prop,
                        methods=(Method.MOTR_RF, Method.PSTN_RF), seed=1,
                        options=MethodOptions(forest=ForestConfig(n_trees=100)))
    assert {(r.h, r.method.label): repr(r.estimate) for r in replicate(study).rows} == {
        (1, "motr-rf"): "0.8914793932824744",
        (1, "pstn-rf"): "2.7049951381029977",
        (2, "motr-rf"): "0.7872666357775716",
        (2, "pstn-rf"): "-6.037596929883488",
    }


def _digest(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _growth_digest(forest, inbag, x):
    """SHA-256 over the node arrays, the in-bag matrix and the out-of-bag values."""
    return _digest(forest.feature, forest.threshold, forest.left, forest.value, forest.roots,
                   inbag, oob_predictions(forest, inbag, x))


def _step_table_digest(forest, x, col):
    """SHA-256 of the step table on column `col` at every distinct row of x with `col` zeroed."""
    f = np.unique(np.where(np.arange(x.shape[1]) == col, 0.0, x), axis=0)
    return _digest(forest.step_table(f, col, np.unique(forest.threshold[forest.feature == col])))


def _pinned_forests():
    """name -> (x, y, n_trees, mtry, min_node_size, seed, sampler, lag column) of each
    forest whose bytes are pinned."""
    arco, prop = default_study_params()
    study = StudyConfig(h_datasets=2, m_analysis=220, params=arco, propensity=prop, seed=1,
                        options=MethodOptions(forest=ForestConfig(n_trees=100)))
    ds, seed, opts = harness._dataset_for(study, 1), study.seed.child(1), study.options
    # the outcome and propensity forests that motr-rf and pstn-rf grow on study dataset h = 1
    for name, spec, target, ns in (
            ("study-outcome", opts.outcome_spec, ds.y, harness._NS_FOREST_OUTCOME),
            ("study-propensity", opts.propensity_spec, ds.x, harness._NS_FOREST_PROPENSITY)):
        yield name, (assemble_features(ds, spec), target[spec.needs_lag:].astype(float), 100,
                     *opts.forest.resolve(spec), seed.child(ns), None, spec.columns.index("y_lag1"))
    rng = np.random.default_rng(7)  # 364 rows: 90 trees per batch, so batches of 90 and 10
    x = np.column_stack([rng.integers(0, 2, (364, 3)), rng.integers(0, 3, (364, 3)),
                         rng.normal(size=364)]).astype(float)
    yield "p7-mtry2", (x, x[:, 0] + x[:, 6] + rng.normal(size=364), 100, 2, 5, SeedSpec(11), None, 6)
    x = rng.normal(size=(80, 1)).round(1)
    halves = lambda k, rng, n: rng.integers(0, n, size=n // 2 if k % 2 else 2 * n)
    yield "p1-unequal-boots", (x, (rng.random(80) < 0.4).astype(float), 30, 1, 1, SeedSpec(4),
                               halves, 0)
    # the --lag-y quartile --lag-x outcome forest of `simulate --m 365` (16 distinct rows
    # of 364), as `analyze --method motr-rf --n-trees 100` grows it
    ds = simulate_dataset(arco, prop, SimConfig(m_analysis=365, seed=DEFAULT_SEED))
    spec = FeatureSpec(True, LAG_QUARTILE, True)
    yield "quartile-lag", (assemble_features(ds, spec), ds.y[1:].astype(float), 100,
                           *ForestConfig(n_trees=100).resolve(spec),
                           SeedSpec(DEFAULT_SEED).child(harness._NS_FOREST_OUTCOME), None,
                           spec.columns.index("y_lag1_q1"))


# a faster grower or out-of-bag path must keep every one of these bytes; the
# quartile-lag forest's 100 trees grow in one batch of points (two batches of 90
# and 10 trees before trees grew on points), so its node arrays are laid out anew
_FOREST_DIGESTS = {
    "study-outcome": "d9b2da25502c4a47a7ba9d0ce6c5d1720bd72db2df1f7ae5d336698a518b1487",
    "study-propensity": "378a225d9a182a1d3cda709d10b8414e04c882dc03258a8ce688df5d5b14fb11",
    "p7-mtry2": "7d844338e90c4ca53a1485c1039270e281df8a1418061c8dcfad570754aa7ee3",
    "p1-unequal-boots": "d4cefddae1dbb4bf2df051cc81f98a0cfc78732584536477cc1e0af82b79a550",
    "quartile-lag": "99be69429092b2bfb0842f2d35af1c3ae294a84d9eee427de24aee4d91be0570",
}
# every tree's prediction at _probes(x), which no batch layout moves: pinned to the bit
_PREDICTION_DIGESTS = {
    "study-outcome": "e2a278decfef6e799f760b6d2fc8dd1dbbbd00bb4cfd3f7b4e5591bafd38cb63",
    "study-propensity": "af5eb768d8dd3903417432d0d301aca87f203b14810accfb8bb4fc650d25fd19",
    "p7-mtry2": "f0eedb86997dc4d6296225faa10ca357132f5254b27fba3ae8369e4fc08f6423",
    "p1-unequal-boots": "d138cf068fc8de5ea51509d8dfd3c04095c6a198ca6ab963b2226ac971c5c172",
    "quartile-lag": "41d405c95af18e6386d57bd6efadeeed64a7cbb34d3fdb4dc82c2ba0737183d9",
}
# the summed step tables: predict to within rounding (summed_table_tolerance), pinned to the bit
_STEP_TABLE_DIGESTS = {
    "study-outcome": "870db30f8f55727dd63b09d83f3b8b07b01ff0001b55b62f8d75296e06b717ee",
    "study-propensity": "cced4efe601e94cfb6a623c2b12bbc751c72b8bfb7d51f6016993e5bf8a575c5",
    "p7-mtry2": "7516b66f64eac1a2179cc7c6f68ee406d18bba6cb37b4c546396710ae7c2c346",
    "p1-unequal-boots": "8d372c179d0180262f74f2d470a304b8280db7919c5bb17516921fc716e90201",
    "quartile-lag": "639f0063e4d29b8a2c875d5ab49e1b43cbf0569dc6e7e4f2b8babca4f609e019",
}


@pytest.mark.parametrize("name", list(_FOREST_DIGESTS))
def test_forest_bytes_are_pinned(name):
    x, y, n_trees, mtry, node, seed, sampler, col = dict(_pinned_forests())[name]
    forest, inbag = build_forest(x, y, n_trees, mtry, node, seed, sampler)
    assert _growth_digest(forest, inbag, x) == _FOREST_DIGESTS[name]
    assert _step_table_digest(forest, x, col) == _STEP_TABLE_DIGESTS[name]
    assert _digest(forest.predict_trees(_probes(x))) == _PREDICTION_DIGESTS[name]


def _visits(forest, x):
    """How many of the rows `x` pass through each node."""
    seen = np.zeros(len(forest.feature), dtype=int)
    for r in x:
        for node in forest.roots:
            while True:
                seen[node] += 1
                if forest.feature[node] == _LEAF:
                    break
                go_left = r[forest.feature[node]] <= forest.threshold[node]
                node = forest.left[node] + (not go_left)
    return seen


class TestMidpointGuard:
    @pytest.mark.parametrize("a", [1.0 + 2.0**-52, 1e308], ids=["adjacent-doubles", "overflow"])
    def test_split_between_neighbouring_values_terminates(self, a):
        b = np.nextafter(a, np.inf) if a < 2 else 1.5e308
        assert (a + b) / 2 >= b  # the plain midpoint would send every row left
        x = np.array([[a]] * 6 + [[b]] * 6)
        y = np.array([0.0] * 6 + [1.0] * 6)
        identity = lambda k, rng, n: np.arange(n)
        forest, _ = build_forest(x, y, 3, 1, 1, SeedSpec(0), index_sampler=identity)
        assert np.all(_visits(forest, x) > 0)  # no child is empty
        assert np.array_equal(forest.predict(x), y)


def reference_oob_predictions(forest, inbag, x):
    """Every (row, tree) pair walked, the in-bag ones then masked out."""
    per_tree = forest.predict_trees(x)
    oob = inbag.T == 0
    n_oob = oob.sum(axis=1)
    oob_mean = (per_tree * oob).sum(axis=1) / np.maximum(n_oob, 1)
    return np.where(n_oob > 0, oob_mean, per_tree.mean(axis=1))


class TestOutOfBag:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_trees=st.integers(1, 12), mtry=st.integers(1, 3),
           seed=st.integers(0, 99))
    def test_equals_all_pairs_reference(self, data, n_trees, mtry, seed):
        x, _ = data.draw(_labelled_rows(3))
        y = np.random.default_rng(seed).normal(size=len(x))  # labels of both signs
        forest, inbag = build_forest(x, y, n_trees, mtry, 2, SeedSpec(seed))
        assert np.array_equal(oob_predictions(forest, inbag, x),
                              reference_oob_predictions(forest, inbag, x))

    @pytest.mark.parametrize("n_trees", [1, 2, 3])
    def test_rows_in_every_bootstrap_take_the_all_trees_mean(self, n_trees):
        # a row is in-bag in every tree with probability about 0.632^T
        rng = np.random.default_rng(n_trees)
        x = rng.integers(0, 4, size=(40, 2)).astype(float)
        y = rng.normal(size=40)
        forest, inbag = build_forest(x, y, n_trees, 2, 1, SeedSpec(n_trees))
        fallback = (inbag > 0).all(axis=0)
        assert fallback.any() and not fallback.all()
        oob = oob_predictions(forest, inbag, x)
        assert np.array_equal(oob, reference_oob_predictions(forest, inbag, x))
        assert np.array_equal(oob[fallback], forest.predict(x[fallback]))


# outcome lags with ties, zeros of both signs and two pairs of neighbouring
# doubles whose midpoint rounds up to (or overflows past) the upper one, so
# the threshold falls back to the lower value
_LAGS = np.array([-1.5, -0.0, 0.0, 0.25, 1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51, 3.0, 1e308, 1.5e308])


def summed_table_tolerance(forest, f, col, cuts):
    """How far step_table's row r may lie from predict, (rows, 1): 4 * (pieces of row r +
    n_trees) * eps * max |leaf value|.  The table rounds about once per piece in each of its
    two edge sums and once per edge column in the difference and the cumulative sum, each
    time at a magnitude of at most n_trees * max |leaf value| before the division by
    n_trees; predict's mean rounds at most once per tree."""
    n_col = len(cuts) + 1
    row, tree = np.divmod(np.arange(len(f) * forest.n_trees), forest.n_trees)
    lo = forest._descend(f, row, tree, row * n_col, row * n_col + n_col, col, cuts)[1]
    pieces = np.bincount(lo // n_col, minlength=len(f))
    bound = 4 * (pieces + forest.n_trees) * np.finfo(float).eps * np.abs(forest.value).max()
    return bound[:, None]


def _assert_table_is_predict(forest, f, col):
    """step_table at the static rows f equals predict at every (row, cut) point, to within
    summed_table_tolerance."""
    cuts = np.unique(forest.threshold[forest.feature == col])
    points = np.repeat(f, len(cuts) + 1, axis=0)
    points[:, col] = np.tile(np.append(cuts, np.inf), len(f))
    expected = forest.predict(points).reshape(len(f), -1)
    table = forest.step_table(f, col, cuts)
    assert (np.abs(table - expected) <= summed_table_tolerance(forest, f, col, cuts)).all()
    return cuts, table


class TestStepTable:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n_static=st.integers(1, 3), n_trees=st.integers(1, 12),
           node=st.integers(1, 5), seed=st.integers(0, 99),
           pairs=st.sampled_from([1, 7, 100, 1 << 14, 1 << 20]))
    def test_equals_predict_at_every_cut(self, data, n_static, n_trees, node, seed, pairs):
        n = data.draw(st.integers(20, 60))
        codes = lambda hi: np.array(data.draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)))
        # a binary exposure, then exogenous columns of few levels with -0.0 among them
        static = [codes(1).astype(float)] + [codes(3) * -0.5 for _ in range(n_static - 1)]
        col = data.draw(st.integers(0, n_static))
        x = np.insert(np.column_stack(static), col, _LAGS[codes(len(_LAGS) - 1)], axis=1)
        y = np.random.default_rng(seed).normal(size=n)
        mtry = data.draw(st.integers(1, n_static + 1))
        forest, _ = build_forest(x, y, n_trees, mtry, node, SeedSpec(seed))
        f = np.unique(x, axis=0)
        f[:, col] = 0.0
        cuts, table = _assert_table_is_predict(forest, f, col)
        with pytest.MonkeyPatch.context() as mp:  # blocks of one row up to every row
            mp.setattr(forest_module, "_PAIRS", pairs)
            descended = []  # each (row, tree) pair reaches the descent once
            mp.setattr(forest, "_descend", lambda f_, row, tree, *rest: descended.append(
                np.column_stack([f_[row], tree])) or FlatForest._descend(forest, f_, row, tree, *rest))
            assert forest.step_table(f, col, cuts).tobytes() == table.tobytes()
        every = np.column_stack([np.repeat(f, n_trees, axis=0), np.tile(np.arange(n_trees), len(f))])
        by_pair = lambda a: a[np.lexsort(a.T)]
        assert np.array_equal(by_pair(np.concatenate(descended)), by_pair(every))

    @pytest.mark.parametrize("a", [1.0 + 2.0**-52, 1e308], ids=["adjacent-doubles", "overflow"])
    def test_threshold_at_the_lower_value(self, a):
        b = np.nextafter(a, np.inf) if a < 2 else 1.5e308
        x = np.column_stack([np.tile([0.0, 1.0], 6), [a] * 6 + [b] * 6])
        y = np.array([0.0] * 6 + [1.0] * 6) + x[:, 0]
        identity = lambda k, rng, n: np.arange(n)
        forest, _ = build_forest(x, y, 3, 2, 1, SeedSpec(0), index_sampler=identity)
        f = np.array([[0.0, 0.0], [1.0, 0.0], [-0.0, 0.0], [2.0, 0.0]])
        assert a in _assert_table_is_predict(forest, f, 1)[0]


def _breadth_first(forest):
    """`forest` numbered as reference_build_forest numbers its nodes: tree by tree, each
    breadth-first."""
    order = []
    for root in forest.roots:
        queue = [root]
        for node in queue:
            if forest.feature[node] != _LEAF:
                queue += [forest.left[node], forest.left[node] + 1]
        order += queue
    order = np.array(order, dtype=np.intp)
    new_id = np.empty(len(order), dtype=np.int32)
    new_id[order] = np.arange(len(order))
    split = forest.feature[order] != _LEAF
    left = np.where(split, new_id[forest.left[order]], _LEAF).astype(np.int32)
    return FlatForest(forest.feature[order], forest.threshold[order], left, forest.value[order],
                      new_id[forest.roots])


class TestOneFeatureEdgeValues:
    """A forest over one feature with 0/1 labels, on values where a cut, a tie or a
    threshold is easy to get wrong, is the reference's, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), node=st.integers(1, 6), seed=st.integers(0, 99),
           rows=st.sampled_from([0.5, 1.0, 2.0]), points=st.sampled_from([40, None]))
    def test_node_arrays_equal_reference(self, data, node, seed, rows, points):
        # ties, zeros of both signs and the subnormals beside them, infinities, NaN,
        # neighbouring doubles whose midpoint rounds up or overflows; bootstraps of
        # n/2, n and 2n rows, in batches of at most 40 points (a tree has at most 15)
        # or of all seven
        values = np.append(_LAGS, [5e-324, -5e-324, np.inf, -np.inf, np.nan])
        n = data.draw(st.integers(20, 60))
        x = values[data.draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))]
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
        sampler = lambda k, rng, n_: rng.integers(0, n_, size=int(rows * n_))
        with pytest.MonkeyPatch.context() as mp:
            if points:
                mp.setattr(forest_module, "_BATCH_ROWS", points)
            forest, inbag = build_forest(x[:, None], y, 7, 1, node, SeedSpec(seed), sampler)
        with np.errstate(over="ignore"):
            ref, ref_inbag = reference_build_forest(x[:, None], y, 7, 1, node, SeedSpec(seed), sampler)
        forest = _breadth_first(forest)
        for new, old in zip((forest.feature, forest.threshold, forest.left, forest.value,
                             forest.roots, inbag),
                            (ref.feature, ref.threshold, ref.left, ref.value, ref.roots, ref_inbag)):
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("zeros", [[-0.0, 0.0], [0.0, -0.0]], ids=["last-plus", "last-minus"])
    def test_threshold_below_infinity_is_the_zero_at_the_last_position(self, zeros):
        # (0 + inf) / 2 is no midpoint, so the threshold falls back to the lower
        # value, read at the last of the tied zeros as _best_cuts reads it
        x = np.array(zeros * 3 + [np.inf] * 6)[:, None]
        identity = lambda k, rng, n: np.arange(n)
        forest, _ = build_forest(x, np.repeat([0.0, 1.0], 6), 1, 1, 1, SeedSpec(0), identity)
        assert forest.threshold[:1].tobytes() == np.array(zeros[-1:]).tobytes()

    @pytest.mark.parametrize("labels", [[0.0, 1.0], [0.0, 0.5]], ids=["0/1", "real"])
    @pytest.mark.parametrize("boot, zero", [([0, 1, 0], -0.0), ([1, 0, 1], 0.0)],
                             ids=["last-minus", "last-plus"])
    def test_threshold_below_infinity_is_the_zero_of_the_last_copy(self, labels, boot, zero):
        # the zeros' copies interleave, so the last one in bootstrap order is not the last
        # copy of the first point: the general grower orders tied points by last copy
        x = np.array([-0.0, 0.0] + [np.inf] * 6)[:, None]
        y = np.repeat(labels, [2, 6])
        sampler = lambda k, rng, n: np.array([*boot, *range(2, n)])
        forest, _ = build_forest(x, y, 1, 1, 1, SeedSpec(0), sampler)
        assert forest.threshold[:1].tobytes() == np.array([zero]).tobytes()


class TestRunsRule:
    """A default propensity forest's out-of-bag propensities, read from its label runs,
    are those of the grown forest, bit for bit."""

    @staticmethod
    def _grown_oob(x, y, draws):
        forest = forest_module.grow_forest(x, y, draws, 1, 1)
        return reference_oob_predictions(forest, draws.inbag, x)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 99), n_trees=st.integers(1, 24),
           rows=st.sampled_from([0.5, 1.0, 2.0]), grid=st.booleans(), nan=st.booleans())
    def test_equals_the_grown_forest(self, data, seed, n_trees, rows, grid, nan):
        # ties, zeros of both signs, subnormals, infinities, 1.7e308 and neighbouring
        # doubles whose midpoint rounds up or overflows, or a 0.1 grid; bootstraps of
        # n/2, n and 2n rows; a NaN feature is outside the rule's domain
        values = (np.arange(-5, 6) * 0.1 if grid else
                  np.append(_LAGS, [5e-324, -5e-324, 1e-323, np.inf, -np.inf, 1.7e308]))
        n = data.draw(st.integers(20, 60))
        x = values[data.draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))]
        if nan:
            x[data.draw(st.integers(0, n - 1))] = np.nan
        x = x[:, None]
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
        sampler = lambda k, rng, n_: rng.integers(0, n_, size=int(rows * n_))
        draws = forest_module.draw_forest(x, n_trees, 1, SeedSpec(seed), sampler)
        oob = forest_module.runs_oob(x, y, draws, 1)
        if nan:
            assert oob is None
        else:
            assert oob.tobytes() == self._grown_oob(x, y, draws).tobytes()

    @pytest.mark.parametrize("case", ["p=2", "node=2", "real", "negative-zero", "nan-label"])
    def test_outside_the_domain_reads_nothing(self, case):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 5, size=(30, 2 if case == "p=2" else 1)).astype(float)
        y = np.resize([0.0, 1.0], 30)
        y[0] = {"real": 0.5, "negative-zero": -0.0, "nan-label": np.nan}.get(case, y[0])
        draws = forest_module.draw_forest(x, 3, 1, SeedSpec(0))
        assert forest_module.runs_oob(x, y, draws, 2 if case == "node=2" else 1) is None

    def test_bootstraps_past_the_size_guard_read_nothing(self, monkeypatch):
        # two values: 8001 rows with 8000 ones, 8000 rows with 7999; the only cut gains
        # 1 / (16001 * 8001 * 8000), under the grower's 1e-12 margin, so the root stays a
        # leaf although its two slots hold two runs
        x = np.repeat([0.0, 1.0], [8001, 8000])[:, None]
        y = np.repeat([1.0, 0.0, 1.0, 0.0], [8000, 1, 7999, 1])
        identity = lambda k, rng, n: np.arange(n)
        draws = forest_module.draw_forest(x, 1, 1, SeedSpec(0), identity)
        assert forest_module.runs_oob(x, y, draws, 1) is None
        monkeypatch.setattr(forest_module, "_RUNS_ROWS", len(x))
        assert not np.array_equal(forest_module.runs_oob(x, y, draws, 1), self._grown_oob(x, y, draws))
        small = forest_module.draw_forest(x[:4096], 2, 1, SeedSpec(0))  # at the guard: read
        assert forest_module.runs_oob(x[:4096], y[:4096], small, 1) is not None

    def test_study_propensity_forest(self):
        x, y, n_trees, mtry, node, seed, _, _ = dict(_pinned_forests())["study-propensity"]
        draws = forest_module.draw_forest(x, n_trees, mtry, seed)
        forest, inbag = build_forest(x, y, n_trees, mtry, node, seed)
        assert np.array_equal(draws.inbag, inbag)
        oob = forest_module.runs_oob(x, y, draws, node)
        assert oob.tobytes() == oob_predictions(forest, inbag, x).tobytes()
