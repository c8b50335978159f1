import dataclasses
import hashlib
import math
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nof1twin.core import (
    LAG_CONTINUOUS,
    LAG_NONE,
    LAG_QUARTILE,
    FeatureSpec,
    SeedSpec,
    TimeSeriesDataset,
    assemble_features,
    dichotomize_exposure,
    encode_quartile,
    load_table,
    log10_transform,
    normals,
    quartile_bounds,
    write_csv,
)
from nof1twin.errors import ConfigError, DataError


# SHA-256 of every layout's feature values and every outcome layout's rollout static
# rows in test_every_layout_encodes_the_sources_its_columns_name
LAYOUT_DIGEST = "d7d0e6e53fb50eea75c7648e918d2df3f10cbbe4f04d2b32f8f8eee5d9792eb8"


def make_ds(y, x=None, exog=None):
    y = np.asarray(y, dtype=float)
    if x is None:
        x = np.zeros(len(y), dtype=int)
        x[::2] = 1
    return TimeSeriesDataset(y=y, x=x, exog=exog)


class TestDataset:
    def test_validates_binary_exposure(self):
        with pytest.raises(DataError, match="period 2"):
            TimeSeriesDataset(y=[1.0, 2.0], x=[0, 2])

    def test_validates_finite_outcome(self):
        with pytest.raises(DataError, match="non-finite"):
            TimeSeriesDataset(y=[1.0, np.nan], x=[0, 1])

    def test_exog_names_shared(self):
        ds = make_ds([1, 2, 3], exog={"v": [0.0, 1.0, 0.0]})
        assert ds.exog_names == ("v",)
        assert ds.exog_matrix(ds.exog_names).shape == (3, 1)

    def test_periods_are_indexed_from_one(self, tmp_path):
        path = tmp_path / "ds.csv"
        make_ds([5.0, 6.0, 7.0]).to_csv(path)
        assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == ["1", "2", "3"]

    def test_csv_rejects_non_contiguous_periods(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,y,x\n1,1.0,1\n2,2.0,0\n4,3.0,1\n")
        with pytest.raises(DataError, match="contiguous"):
            TimeSeriesDataset(*load_table(path))

    def test_arrays_read_only(self):
        ds = make_ds([1, 2, 3], exog={"v": [0.5, 1.5, 2.5]})
        copy = pickle.loads(pickle.dumps(ds))
        assert copy == ds
        for arr in (ds.y, ds.x, ds.exog["v"], copy.y, copy.x, copy.exog["v"]):
            with pytest.raises(ValueError):
                arr[0] = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.y = np.zeros(3)

    def test_caller_arrays_stay_writeable(self):
        y, v = np.arange(5.0), np.ones(5)
        ds = TimeSeriesDataset(y=y, x=[0, 1, 0, 1, 0], exog={"v": v})
        assert y.flags.writeable and v.flags.writeable
        y[0] = v[0] = 9.0
        assert ds.y[0] == 0.0 and ds.exog["v"][0] == 1.0

    def test_csv_repeated_column_name_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,y,x,v,v\n1,1.0,1,0,5\n2,2.0,0,1,6\n")
        with pytest.raises(DataError, match="'v' repeats in the header"):
            TimeSeriesDataset(*load_table(path))

    @pytest.mark.parametrize("name", ["t", "y", "x"])
    def test_csv_round_trip_exog_named_like_a_leading_column(self, tmp_path, name):
        ds = make_ds([1.5, 2.25, 3.125], x=[1, 0, 1], exog={name: [0.0, 1.0, 1.0]})
        path = tmp_path / "ds.csv"
        ds.to_csv(path)
        assert TimeSeriesDataset(*load_table(path)) == ds

    def test_csv_round_trip(self, tmp_path):
        ds = make_ds([1.5, 2.25, 3.125], x=[1, 0, 1], exog={"w": [0.0, 1.0, 1.0]})
        path = tmp_path / "ds.csv"
        ds.to_csv(path, header_comments=["seed=1"])
        again = TimeSeriesDataset(*load_table(path))
        assert again == TimeSeriesDataset(y=ds.y, x=ds.x, exog={"w": ds.exog["w"]})

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_csv_round_trip_is_identity(self, data):
        m = data.draw(st.integers(1, 30))
        column = st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=m, max_size=m
        )
        names = data.draw(
            st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True), max_size=3, unique=True)
        )
        ds = TimeSeriesDataset(
            y=data.draw(column),
            x=data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)),
            exog={n: data.draw(column) for n in names} or None,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ds.csv")
            ds.to_csv(path)
            assert TimeSeriesDataset(*load_table(path)) == ds

    def test_simulated_series_round_trips_through_csv(self, tmp_path):
        from nof1twin.arco import SimConfig, simulate_dataset
        from nof1twin.harness import default_study_params

        ds = simulate_dataset(*default_study_params(), SimConfig(m_analysis=30, burn_in=2, seed=3))
        ds.to_csv(tmp_path / "sim.csv")
        assert TimeSeriesDataset(*load_table(tmp_path / "sim.csv")) == ds

    @pytest.mark.parametrize("head", ["", "# exported\n"], ids=["header-first", "comment-first"])
    def test_csv_byte_order_mark_is_not_data(self, tmp_path, head):
        # spreadsheets that save "CSV UTF-8" start the file with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_text(f"{head}t,y,x,w\n1,1.5,0,3\n2,2.5,1,4\n", encoding="utf-8-sig")
        y, x, exog = load_table(path)
        assert (y.tolist(), x.tolist(), list(exog), exog["w"].tolist()) == (
            [1.5, 2.5], [0.0, 1.0], ["w"], [3.0, 4.0])

    def test_csv_missing_value_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y,x\n1,1.0,0\n2,,1\n")
        with pytest.raises(DataError, match="bad.csv:3"):
            load_table(path)

    def test_csv_non_numeric_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y,x\n1,1.0,0\n2,oops,1\n")
        with pytest.raises(DataError, match="bad.csv:3"):
            load_table(path)

    @pytest.mark.parametrize("text, message", [
        ("t,y,x\n1,1.0,0\n2,2.0\n", "3: expected 3 cells, got 2"),
        ("t,y,x\n1,1.0,0,7\n2,2.0,1,7\n", "2: expected 3 cells, got 4"),
        ("t,y,x\n1,1.0,0\n2,,1\n", "3: missing value in column 'y'"),
        ("t,y,x\n1,1.0,  \n", "2: missing value in column 'x'"),
        ("t,y,x\n1,1.0,0\n2,oops,1\n", "3: non-numeric value 'oops' in column 'y'"),
        ("# a\n\nt,y,x\n# b\n1,1.0,0\n  \n\n2,2.0,1,\n", "8: expected 3 cells, got 4"),
        ("# a\nt,y,x\n\n1,1.0,0\n# 2,x,1\n2,x,1\n", "6: non-numeric value 'x' in column 'y'"),
        ('t,y,x\n1,"2,0\n2,3",1\n', "2: expected 3 cells, got 2"),
    ], ids=["short-row", "long-rows", "empty-cell", "blank-cell", "non-numeric",
            "ragged-after-comments", "non-numeric-after-comments", "quote-past-its-line"])
    def test_csv_error_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            load_table(path)
        assert str(err.value) == f"{path}:{message}"


class TestWriteCsv:
    def test_cell_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            [1, np.float64(-1.205939001256332), None, "a,b"],
            [np.int64(2), 0.1, float("nan"), ""],
        ]
        write_csv(path, ["k", "v", "w", "note"], rows, ["seed=1"])
        assert path.read_bytes() == (
            b"# seed=1\nk,v,w,note\r\n1,-1.205939001256332,,\"a,b\"\r\n2,0.1,nan,\r\n"
        )

    def test_unwritable_path_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot write"):
            write_csv(tmp_path / "missing" / "t.csv", ["k"], [[1]])


class TestDichotomize:
    def test_four_values(self):
        out, thr = dichotomize_exposure([1, 2, 3, 4])
        assert thr == 2.5
        assert out.tolist() == [0, 0, 1, 1]

    def test_value_at_median_goes_low(self):
        # strict > at the threshold itself
        out, thr = dichotomize_exposure([7.0, 7.1, 7.2])
        assert thr == pytest.approx(7.1)
        assert out.tolist() == [0, 0, 1]

    def test_count_above_median_oracle(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=222)
        out, thr = dichotomize_exposure(values)
        assert int(out.sum()) == int((values > np.median(values)).sum())
        assert int(out.sum()) in (110, 111)

    def test_constant_input_names_value(self):
        with pytest.raises(DataError, match="3.5"):
            dichotomize_exposure([3.5, 3.5, 3.5])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
    def test_length_and_permutation_equivariance(self, values):
        arr = np.asarray(values)
        if np.all(arr == arr[0]):
            return
        out, _ = dichotomize_exposure(arr)
        assert len(out) == len(arr)
        perm = np.random.default_rng(0).permutation(len(arr))
        out_p, _ = dichotomize_exposure(arr[perm])
        assert np.array_equal(out_p, out[perm])


class TestLog10:
    def test_powers_of_ten(self):
        assert log10_transform([1, 10, 100]).tolist() == [0.0, 1.0, 2.0]

    def test_frozen_value(self):
        assert log10_transform([7.1])[0] == pytest.approx(0.851258348719075286, abs=1e-15)

    def test_rejects_non_positive_with_index(self):
        with pytest.raises(DataError, match="index 1"):
            log10_transform([1.0, 0.0, 2.0])

    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=30))
    def test_inverse_identity(self, values):
        out = log10_transform(values)
        assert np.allclose(10.0**out, values, rtol=1e-12)


class TestQuartiles:
    def test_min_and_max_encodings(self):
        bounds = quartile_bounds(np.arange(1, 9, dtype=float))
        assert encode_quartile(np.array([1.0]), bounds).tolist() == [[1, 0, 0, 0]]
        assert encode_quartile(np.array([8.0]), bounds).tolist() == [[0, 0, 0, 1]]

    def test_rank_based_oracle(self):
        # quartile by rank: ceil(rank / 2) for 8 distinct values
        values = np.array([5.0, 1.0, 7.0, 3.0, 9.0, 2.0, 8.0, 4.0])
        ranks = {v: r + 1 for r, v in enumerate(sorted(values))}
        expected_slot = {v: math.ceil(ranks[v] / 2) - 1 for v in values}
        bounds = quartile_bounds(values)
        enc = encode_quartile(values, bounds)
        for row, v in zip(enc, values):
            assert row.tolist().index(1.0) == expected_slot[v]

    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=50, unique=True))
    @settings(max_examples=50)
    def test_one_hot_and_monotone(self, values):
        arr = np.asarray(values)
        bounds = quartile_bounds(arr)
        enc = encode_quartile(np.sort(arr), bounds)
        assert np.array_equal(enc.sum(axis=1), np.ones(len(arr)))
        slots = enc.argmax(axis=1)
        assert np.all(np.diff(slots) >= 0)

    @pytest.mark.parametrize("bounds, slots", [
        ((1.0, 1.0, 3.0), [0, 0, 0, 2, 2, 3, 3]),
        ((1.0, 3.0, 3.0), [0, 0, 0, 1, 1, 3, 3]),
        ((2.0, 2.0, 2.0), [0, 0, 0, 0, 3, 3, 3]),
    ])
    def test_ties_at_every_bound_go_low(self, bounds, slots):
        values = np.array([-np.inf, 0.5, 1.0, 2.0, 3.0, 3.5, np.inf])
        assert np.array_equal(encode_quartile(values, bounds), np.eye(4)[slots])


class TestAssembleFeatures:
    def test_continuous_lag(self):
        ds = make_ds([1, 2, 3, 4], x=[0, 1, 0, 1])
        spec = FeatureSpec(True, LAG_CONTINUOUS)
        rows = assemble_features(ds, spec)
        assert spec.needs_lag
        assert spec.columns == ("x", "y_lag1")
        assert rows[:, 1].tolist() == [1, 2, 3]
        assert rows[:, 0].tolist() == ds.x[1:].tolist()  # periods 2, 3, 4

    def test_no_lag_no_drop(self):
        ds = make_ds([1, 2, 3], x=[0, 1, 0])
        spec = FeatureSpec(True, LAG_NONE)
        assert not spec.needs_lag
        assert assemble_features(ds, spec).tolist() == [[0], [1], [0]]
        assert spec.columns == ("x",)

    def test_quartile_rows_one_hot(self):
        ds = make_ds(np.arange(1.0, 9.0), x=[0, 1] * 4)
        block = assemble_features(ds, FeatureSpec(True, LAG_QUARTILE))[:, 1:5]
        assert np.array_equal(block.sum(axis=1), np.ones(7))
        # first row lags y_1 = 1 (minimum) -> first slot
        assert block[0].tolist() == [1, 0, 0, 0]

    def test_exposure_lag_and_exog_order(self):
        ds = make_ds([1, 2, 3, 4], x=[1, 0, 0, 1], exog={"v": [9, 8, 7, 6]})
        spec = FeatureSpec(True, LAG_CONTINUOUS, use_exposure_lag1=True, exog_names=("v",))
        assert spec.columns == ("x", "x_lag1", "y_lag1", "v")
        assert assemble_features(ds, spec)[0].tolist() == [0, 1, 1, 8]

    def test_pure_function(self):
        ds = make_ds([3, 1, 4, 1, 5], x=[1, 0, 1, 0, 1])
        spec = FeatureSpec(True, LAG_QUARTILE)
        a = assemble_features(ds, spec)
        b = assemble_features(ds, spec)
        assert np.array_equal(a, b)

    def test_too_short(self):
        ds = TimeSeriesDataset(y=[1.0, 2.0], x=[0, 1])
        with pytest.raises(DataError, match="too short"):
            assemble_features(ds, FeatureSpec(True))

    def test_missing_exog_named(self):
        ds = make_ds([1, 2, 3])
        with pytest.raises(DataError, match="'v'"):
            assemble_features(ds, FeatureSpec(True, exog_names=("v",)))

    @pytest.mark.parametrize("mode, exog", [
        (LAG_CONTINUOUS, ("v", "v")),
        (LAG_CONTINUOUS, ("y_lag1",)),
        (LAG_QUARTILE, ("y_lag1_q2",)),
        (LAG_NONE, ("x",)),
        (LAG_NONE, ("x_lag1",)),
        (LAG_NONE, ("intercept",)),
    ])
    def test_exog_name_repeating_or_shadowing_a_column_rejected(self, mode, exog):
        with pytest.raises(ConfigError, match=f"{exog[0]!r} repeats or shadows"):
            FeatureSpec(True, mode, use_exposure_lag1=True, exog_names=exog)

    def test_bad_lag_mode_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSpec(True, outcome_lag_mode="lag2")

    def test_every_layout_encodes_the_sources_its_columns_name(self):
        from nof1twin.models import glm_from_coefficients
        from nof1twin.motr import _Rollout

        t = np.arange(42)  # exact arithmetic, and outcomes tied with quartile bounds
        ds = make_ds((t * 37 % 23) / 4 + 5, x=t * 5 % 7 % 2,
                     exog={"temp": t * 13 % 17 * 0.37, "y_lag1_mean": t * 3 % 11 / 2})
        digest = hashlib.sha256()
        for current in (True, False):
            for mode in (LAG_CONTINUOUS, LAG_QUARTILE, LAG_NONE):
                for lag_x in (False, True):
                    for exog in ((), ("y_lag1_mean",), ("temp", "y_lag1_mean")):
                        spec = FeatureSpec(current, mode, lag_x, exog)
                        rows = assemble_features(ds, spec)
                        period = np.arange(spec.needs_lag, ds.m)  # 0-based
                        y_lag = ds.y[period - 1]
                        slot = 1 + (y_lag[:, None] > quartile_bounds(ds.y)).sum(axis=1)
                        sources = {"x": ds.x[period], "x_lag1": ds.x[period - 1], "y_lag1": y_lag,
                                   **{f"y_lag1_q{k}": slot == k for k in range(1, 5)},
                                   **{n: ds.exog[n][period] for n in exog}}
                        assert rows.shape == (len(period), len(spec.columns))
                        for j, name in enumerate(spec.columns):
                            assert np.array_equal(rows[:, j], sources[name]), (spec, name)
                        lag = [j for j, c in enumerate(spec.columns)
                               if c == "y_lag1" or c.startswith("y_lag1_q")]
                        assert list(spec.lag) == lag, spec
                        digest.update(rows.tobytes())
                        if current:  # a MoTR rollout needs an outcome layout
                            model = glm_from_coefficients(spec, {}, resid_sd=1.0)
                            digest.update(_Rollout(ds, model).static.tobytes())
        assert digest.hexdigest() == LAYOUT_DIGEST


def seed_sequence_stream(base, path):
    """The Philox stream numpy's own SeedSequence keys for (base, path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(base, spawn_key=path)))


class TestSeedSpec:
    def test_children_are_independent_streams(self):
        a, b = (rng.random(8) for rng in SeedSpec(5).children([1, 2]))
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        a, b = (next(SeedSpec(5).children([3])).random(16) for _ in range(2))
        assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(base=st.one_of(st.integers(0, 2**128 - 1), st.integers(2**128, 2**160 - 1)),
           path=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
                         max_size=4).map(tuple),
           labels=st.lists(st.integers(0, 2**32 - 1), max_size=8))
    def test_keys_are_seed_sequence_keys(self, base, path, labels):
        labels = [0, *labels, 2**32 - 1]
        expected = [np.random.SeedSequence(base, spawn_key=path + (r,)).generate_state(2, np.uint64)
                    for r in labels]
        keys = SeedSpec(base, path).keys(labels)
        assert keys.dtype == np.uint64 and keys.shape == (len(labels), 2)
        assert np.array_equal(keys, expected)

    @pytest.mark.parametrize("m", [7, 8, 221])
    def test_children_draw_what_each_seed_sequence_stream_draws(self, m):
        def draws(rng, r):
            # 32-bit draws may leave half a 64-bit word behind, 64-bit ones part of a block
            out = [rng.permutation(m), rng.integers(0, 5, size=r % 3)]
            return out + [rng.random(r % 5) if r % 2 else rng.integers(0, 2**40, size=1)]

        seed = SeedSpec(11, (3,))
        shared = set()
        for r, rng in enumerate(seed.children(range(200))):
            shared.add(id(rng))
            for got, want in zip(draws(rng, r), draws(seed_sequence_stream(11, (3, r)), r)):
                assert np.array_equal(got, want)
        assert len(shared) == 1

    @pytest.mark.parametrize("labels", [[-1], [2**32], [3, 2**40]])
    def test_keys_reject_a_label_beyond_one_word(self, labels):
        with pytest.raises(ConfigError, match="\\[0, 2\\*\\*32\\)"):
            SeedSpec(1).keys(labels)

    @pytest.mark.parametrize("build", [
        lambda: SeedSpec(-1), lambda: SeedSpec(1, (-1,)), lambda: SeedSpec(1, (2,)).child(0, -3),
    ])
    def test_negative_base_or_path_label_rejected_at_construction(self, build):
        with pytest.raises(ConfigError, match="non-negative"):
            build()

    def test_normals_scale(self):
        draws = normals(seed_sequence_stream(0, ()).random(20000), 2.0)
        assert abs(float(draws.std()) - 2.0) < 0.05
        assert abs(float(draws.mean())) < 0.05
