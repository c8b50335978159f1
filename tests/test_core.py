import math
import os
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
    quartile_bounds,
    write_csv,
)
from nof1twin.errors import ConfigError, DataError


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
            TimeSeriesDataset.from_csv(path)

    def test_arrays_read_only(self):
        ds = make_ds([1, 2, 3])
        with pytest.raises(ValueError):
            ds.y[0] = 9.0

    def test_csv_round_trip(self, tmp_path):
        ds = make_ds([1.5, 2.25, 3.125], x=[1, 0, 1], exog={"w": [0.0, 1.0, 1.0]})
        path = tmp_path / "ds.csv"
        ds.to_csv(path, header_comments=["seed=1"])
        again = TimeSeriesDataset.from_csv(path)
        assert again == TimeSeriesDataset(y=ds.y, x=ds.x, exog={"w": ds.exog("w")})

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
            assert TimeSeriesDataset.from_csv(path) == ds

    def test_simulated_series_round_trips_through_csv(self, tmp_path):
        from nof1twin.arco import SimConfig, simulate_dataset
        from nof1twin.harness import default_study_params

        ds = simulate_dataset(*default_study_params(), SimConfig(m_analysis=30, burn_in=2, seed=3))
        ds.to_csv(tmp_path / "sim.csv")
        assert TimeSeriesDataset.from_csv(tmp_path / "sim.csv") == ds

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


class TestAssembleFeatures:
    def test_continuous_lag(self):
        ds = make_ds([1, 2, 3, 4], x=[0, 1, 0, 1])
        fm = assemble_features(ds, FeatureSpec(True, LAG_CONTINUOUS))
        assert fm.dropped_head == 1
        assert fm.columns == ("x", "y_lag1")
        assert fm.values[:, 1].tolist() == [1, 2, 3]
        assert fm.t_index.tolist() == [2, 3, 4]

    def test_no_lag_no_drop(self):
        ds = make_ds([1, 2, 3], x=[0, 1, 0])
        fm = assemble_features(ds, FeatureSpec(True, LAG_NONE))
        assert fm.dropped_head == 0
        assert fm.columns == ("x",)

    def test_quartile_rows_one_hot(self):
        ds = make_ds(np.arange(1.0, 9.0), x=[0, 1] * 4)
        fm = assemble_features(ds, FeatureSpec(True, LAG_QUARTILE))
        block = fm.values[:, 1:5]
        assert np.array_equal(block.sum(axis=1), np.ones(7))
        # first row lags y_1 = 1 (minimum) -> first slot
        assert block[0].tolist() == [1, 0, 0, 0]

    def test_exposure_lag_and_exog_order(self):
        ds = make_ds([1, 2, 3, 4], x=[1, 0, 0, 1], exog={"v": [9, 8, 7, 6]})
        spec = FeatureSpec(True, LAG_CONTINUOUS, use_exposure_lag1=True, exog_names=("v",))
        fm = assemble_features(ds, spec)
        assert fm.columns == ("x", "x_lag1", "y_lag1", "v")
        assert fm.values[0].tolist() == [0, 1, 1, 8]

    def test_pure_function(self):
        ds = make_ds([3, 1, 4, 1, 5], x=[1, 0, 1, 0, 1])
        spec = FeatureSpec(True, LAG_QUARTILE)
        a = assemble_features(ds, spec)
        b = assemble_features(ds, spec)
        assert np.array_equal(a.values, b.values)
        assert a.columns == b.columns

    def test_too_short(self):
        ds = TimeSeriesDataset(y=[1.0, 2.0], x=[0, 1])
        with pytest.raises(DataError, match="too short"):
            assemble_features(ds, FeatureSpec(True))

    def test_missing_exog_named(self):
        ds = make_ds([1, 2, 3])
        with pytest.raises(DataError, match="'v'"):
            assemble_features(ds, FeatureSpec(True, exog_names=("v",)))

    def test_bad_lag_mode_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSpec(True, outcome_lag_mode="lag2")


class TestSeedSpec:
    def test_children_are_independent_streams(self):
        a = SeedSpec(5).child(1).uniforms(8)
        b = SeedSpec(5).child(2).uniforms(8)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        assert np.array_equal(SeedSpec(5).child(3).uniforms(16), SeedSpec(5).child(3).uniforms(16))

    def test_normals_scale(self):
        draws = SeedSpec(0).normals(20000, 2.0)
        assert abs(float(draws.std()) - 2.0) < 0.05
        assert abs(float(draws.mean())) < 0.05
