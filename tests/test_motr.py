import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nof1twin import motr
from nof1twin.arco import ArcoParams
from nof1twin.core import (
    LAG_CONTINUOUS,
    LAG_NONE,
    LAG_QUARTILE,
    FeatureSpec,
    SeedSpec,
    TimeSeriesDataset,
    quartile_bounds,
)
from nof1twin.errors import ConfigError, DataError, EstimatorError
from nof1twin.models import glm_from_coefficients
from nof1twin.motr import MotrConfig, _Rollout, arm_contrast, run_motr
from nof1twin.oracle import MODE_PERMUTATION, EnumSpec, enumerate_apte, permutation_apte
from test_forest import summed_table_tolerance
from test_oracle import _permutation_matrix

NO_LAG_SPEC = FeatureSpec(include_current_exposure=True, outcome_lag_mode=LAG_NONE)
LAG_SPEC = FeatureSpec(include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS)
XLAG_SPEC = FeatureSpec(
    include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS, use_exposure_lag1=True
)


def twin_on(spec: FeatureSpec, coefs: dict, resid_sd: float):
    """A linear twin on `spec` with the entries of `coefs` that name its terms."""
    return glm_from_coefficients(spec, {k: coefs[k] for k in ("intercept", *spec.columns)}, resid_sd)


def true_twin(params: ArcoParams, spec: FeatureSpec, resid_sd: float = 0.0):
    coefs = {"intercept": params.beta0, "x": params.beta_x, "x_lag1": params.beta_co,
             "y_lag1": params.beta_ar}
    return twin_on(spec, coefs, resid_sd)


def mechanism_dataset(params: ArcoParams, x, y1=None):
    """Roll the noise-free mechanism so the dataset is self-consistent."""
    x = np.asarray(x, dtype=np.int64)
    y = np.empty(len(x))
    y[0] = params.beta0 if y1 is None else y1
    for t in range(1, len(x)):
        y[t] = (
            params.beta0
            + params.beta_x * x[t]
            + params.beta_co * x[t - 1]
            + params.beta_ar * y[t - 1]
        )
    return TimeSeriesDataset(y=y, x=x)


def rollout_runs(ds, model, xb, noise=None):
    """What run_motr computes for the runs with exposures xb (runs, m) and noise
    (runs, m - 1; zeros by default): each run's arm contrast (rows delta, lo, hi,
    mean_1, mean_0, degenerate; a column per run) and its noisy predictions."""
    xb = np.atleast_2d(np.asarray(xb, dtype=np.int64))
    noise = np.zeros((len(xb), ds.m - 1)) if noise is None else np.atleast_2d(noise)
    preds = _Rollout(ds, model)(xb, noise)
    return arm_contrast(preds, xb[:, 1:]), preds


def all_permutation_average(ds, model):
    contrast, _ = rollout_runs(ds, model, _permutation_matrix(ds.m, int(ds.x.sum())))
    return float(np.mean(contrast[0]))


class TestArmContrast:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_scipy_welch_interval(self, data):
        from scipy.stats import ttest_ind

        n1, n0 = data.draw(st.integers(2, 15)), data.draw(st.integers(2, 15))
        values = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n1 + n0,
                                             max_size=n1 + n0)))
        arms = np.array(data.draw(st.permutations([1] * n1 + [0] * n0)))
        y1, y0 = values[arms == 1], values[arms == 0]
        assume(min(np.ptp(y1), np.ptp(y0)) > 1e-3 * (1.0 + np.abs(values).max()))
        delta, lo, hi, mean1, mean0, degenerate = arm_contrast(values[None], arms[None])[:, 0]
        ref = ttest_ind(y1, y0, equal_var=False).confidence_interval(0.95)
        np.testing.assert_allclose([delta, lo, hi], [y1.mean() - y0.mean(), ref.low, ref.high],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose([mean1, mean0], [y1.mean(), y0.mean()], rtol=1e-12, atol=1e-12)
        assert degenerate == 0

    @pytest.mark.parametrize("values, arms, delta", [
        ([1.0, 2.0, 4.0], [1, 0, 0], -2.0),           # an arm of one
        ([1.0, 1.0, 3.0, 3.0], [1, 1, 0, 0], -2.0),   # zero variance in both arms
    ])
    def test_undefined_interval_collapses_onto_delta(self, values, arms, delta):
        out = arm_contrast(np.array([values]), np.array([arms]))[:, 0]
        assert out.tolist() == [delta, delta, delta, out[3], out[4], 1.0]

    def test_one_arm_with_variance_is_enough(self):
        out = arm_contrast(np.array([[1.0, 1.0, 3.0, 5.0]]), np.array([[1, 1, 0, 0]]))[:, 0]
        assert out[1] < out[0] < out[2] and out[5] == 0.0

    @pytest.mark.parametrize("scale", [1e-150, 1e155, 2.0**-500, 2.0**515])
    def test_interval_does_not_depend_on_the_scale(self, scale):
        # unscaled, the variances' squares underflow near 1e-150 (a NaN interval)
        # and overflow near 1e155 (an interval collapsed onto delta)
        values = np.random.default_rng(5).normal(size=(1, 20))
        arms = (np.arange(20) % 2)[None]
        base = arm_contrast(values, arms)[:, 0]
        with np.errstate(all="raise"):
            out = arm_contrast(values * scale, arms)[:, 0]
        assert out[5] == 0.0
        np.testing.assert_allclose(out[:5], base[:5] * scale, rtol=1e-13)
        if np.frexp(scale)[0] == 0.5:  # a power of two: exactly the same interval
            assert np.array_equal(out[:5], base[:5] * scale)

    def test_constant_arm_beside_a_subnormal_variance(self):
        # arm 0's variance (about 3e-311) is subnormal and its square underflows
        # beside arm 1's zero variance; the half-width, t(2) * 5.8e-156, is far
        # below the spacing of doubles at 0.9, so both bounds land on delta
        values = np.array([[0.9, 0.9, 0.9, 1e-155, 2e-155, 3e-155]])
        out = arm_contrast(values, np.array([[1, 1, 1, 0, 0, 0]]))[:, 0]
        assert out.tolist() == [0.9, 0.9, 0.9, 0.9, out[4], 0.0]
        assert out[4] == pytest.approx(2e-155, rel=1e-12)

    def test_rows_are_independent(self):
        # multi-row calls must equal row-by-row calls bit for bit: a MoTR
        # estimate may not depend on how its runs are split into blocks
        rng = np.random.default_rng(4)
        values = rng.normal(size=(9, 31))
        arms = np.stack([rng.permutation(np.arange(31) % 3 == 0) for _ in range(9)])
        arms[0] = 0
        arms[0, :2] = 1                 # an arm of two
        arms[1] = 0
        arms[1, 5] = 1                  # an arm of one
        values[2] = np.where(arms[2], 1.5, -0.5)  # zero variance
        rows = np.column_stack([arm_contrast(values[i : i + 1], arms[i : i + 1])[:, 0]
                                for i in range(9)])
        assert np.array_equal(arm_contrast(values, arms), rows)

    @pytest.mark.parametrize("arm", [1, 0])
    def test_empty_arm_named(self, arm):
        arms = np.full((2, 4), 1 - arm)
        arms[0, :2] = arm
        with pytest.raises(EstimatorError, match=f"exposure arm {arm} is empty"):
            arm_contrast(np.ones((2, 4)), arms)


class TestSingleRun:
    def test_history_free_model_gives_exact_effect(self):
        params = ArcoParams(beta0=2.0, beta_x=1.1)
        ds = mechanism_dataset(params, [1, 0, 1, 0, 1, 0])
        model = true_twin(params, NO_LAG_SPEC)
        contrast, _ = rollout_runs(ds, model, [0, 1, 1, 0, 0, 1])
        delta, lo, hi, _, _, degenerate = contrast[:, 0].tolist()
        assert delta == pytest.approx(1.1, abs=1e-12)
        assert (lo, hi) == (delta, delta)
        assert degenerate

    def test_delta_identity_and_counts(self):
        params = ArcoParams(beta0=1.0, beta_x=0.5, beta_ar=0.6)
        ds = mechanism_dataset(params, [1, 1, 0, 0, 1, 0, 1, 0])
        model = true_twin(params, LAG_SPEC)
        contrast, preds = rollout_runs(ds, model, [0, 1, 0, 1, 0, 1, 0, 1])
        delta, _, _, mean1, mean0, _ = contrast[:, 0].tolist()
        assert delta == mean1 - mean0
        assert preds.shape == (1, ds.m - 1)


class TestEnumerationAgreement:
    def test_paper_coefficients_m8(self):
        params = ArcoParams(beta0=2.0, beta_x=1.1, beta_ar=0.8)
        ds = mechanism_dataset(params, [1, 1, 1, 1, 0, 0, 0, 0])
        model = true_twin(params, LAG_SPEC)
        motr_value = all_permutation_average(ds, model)
        oracle_value = enumerate_apte(
            EnumSpec(m=8, mode=MODE_PERMUTATION, params=params, m1=4, y_init=float(ds.y[0]))
        )
        assert motr_value == pytest.approx(oracle_value, abs=1e-10)

    @given(
        beta_x=st.floats(-2, 2),
        beta_ar=st.floats(-0.9, 0.9),
        beta_co=st.floats(-1, 1),
        y1=st.floats(-3, 3),
        m=st.integers(6, 8),
    )
    @settings(max_examples=12, deadline=None)
    def test_zero_noise_equivalence_property(self, beta_x, beta_ar, beta_co, y1, m):
        params = ArcoParams(beta0=0.7, beta_x=beta_x, beta_co=beta_co, beta_ar=beta_ar)
        m1 = m // 2
        x = np.zeros(m, dtype=np.int64)
        x[:m1] = 1
        ds = mechanism_dataset(params, x, y1=y1)
        model = true_twin(params, XLAG_SPEC)
        motr_value = all_permutation_average(ds, model)
        oracle_value = enumerate_apte(
            EnumSpec(m=m, mode=MODE_PERMUTATION, params=params, m1=m1, y_init=y1)
        )
        assert motr_value == pytest.approx(oracle_value, abs=1e-9)


    @pytest.mark.parametrize("spec", [LAG_SPEC, FeatureSpec(
        include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS,
        use_exposure_lag1=True, exog_names=("weekend",),
    )], ids=["default", "lag-x-exog"])
    @pytest.mark.parametrize("m", [9, 10])
    def test_engine_on_the_twins_own_rows(self, spec, m):
        # the exact engine fed a linear twin's levels and slope, read off its rollout
        ds = _series(3, m)
        coefs = {"intercept": 0.7, "x": 1.1, "x_lag1": -0.4, "y_lag1": 0.6, "weekend": 0.9}
        model = twin_on(spec, coefs, resid_sd=0.0)
        rollout = _Rollout(ds, model)
        head, slope, tail = rollout.affine
        n_exog = len(rollout.static) // (2 * rollout.n_lag)
        x_t, x_prev = np.arange(2)[:, None], np.arange(2)
        rows = (x_t * rollout.n_lag + x_prev * (rollout.n_lag - 1)) * n_exog
        rows = rows + rollout.exog_row[:, None, None]  # (period, x_t, x_(t-1))
        const = sum((term[rows] for term in tail), head[rows])
        exact = permutation_apte(const, np.full(2, slope), int(ds.x.sum()), ds.y[0])
        assert exact == pytest.approx(all_permutation_average(ds, model), abs=1e-10)


class TestRunMotr:
    def make_study_ds(self, seed=1, m=60):
        from nof1twin.arco import SimConfig, simulate_dataset
        from nof1twin.harness import default_study_params

        arco, prop = default_study_params()
        return arco, simulate_dataset(arco, prop, SimConfig(m_analysis=m, seed=seed))

    @pytest.mark.parametrize("m, resid_sd", [(61, 0.0), (61, 0.5), (60, 0.0)])
    def test_every_run_draws_its_own_child_stream(self, m, resid_sd):
        # the runs share one generator; a 32-bit half-word or buffered block left
        # over from one run would change the next run's permutation
        arco, ds = self.make_study_ds(seed=6, m=m)
        model = true_twin(arco, LAG_SPEC, resid_sd=resid_sd)
        seed = SeedSpec(4, (2,))
        est = run_motr(ds, model, MotrConfig(r_min=200, r_max=200, seed=seed))
        assert ds.m == m and est.runs_used == 200
        contrast, _ = rollout_runs(ds, model, *_runs_for(ds, seed, 200, resid_sd))
        assert est.runs == tuple(map(tuple, contrast[:3].T.tolist()))

    def test_deterministic_model_stops_at_r_min(self):
        params = ArcoParams(beta0=2.0, beta_x=1.1)
        ds = mechanism_dataset(params, [1, 0] * 6)
        model = true_twin(params, NO_LAG_SPEC)
        est = run_motr(ds, model, MotrConfig(seed=0))
        assert est.delta == pytest.approx(1.1, abs=1e-12)
        assert est.runs_used == 10
        assert est.stop_reason == "converged"
        assert est.degenerate_ci
        assert est.ci == (est.delta, est.delta)

    def test_null_effect_model_covers_zero(self):
        spec = LAG_SPEC
        params = ArcoParams(beta0=3.0, beta_x=0.0, beta_ar=0.4)
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2, 80)
        x[:4] = [1, 0, 1, 0]
        ds = mechanism_dataset(params, x)
        model = glm_from_coefficients(
            spec, {"intercept": 3.0, "x": 0.0, "y_lag1": 0.4}, resid_sd=0.5
        )
        est = run_motr(ds, model, MotrConfig(r_max=60, seed=5))
        assert abs(est.delta) < 0.2
        assert est.ci[0] < 0.0 < est.ci[1]

    def test_trajectory_is_deterministic_in_seed(self):
        arco, ds = self.make_study_ds()
        model = true_twin(arco, LAG_SPEC, resid_sd=0.5)
        a = run_motr(ds, model, MotrConfig(r_max=40, seed=SeedSpec(3)))
        b = run_motr(ds, model, MotrConfig(r_max=40, seed=SeedSpec(3)))
        assert a.trajectory == b.trajectory
        c = run_motr(ds, model, MotrConfig(r_max=40, seed=SeedSpec(4)))
        assert a.trajectory != c.trajectory

    def test_initial_outcome_feeds_only_the_lag_channel(self):
        params = ArcoParams(beta0=1.0, beta_x=0.5, beta_ar=0.7)
        x = [1, 0, 1, 0, 1, 0]
        ds_a = mechanism_dataset(params, x, y1=1.0)
        ds_b = mechanism_dataset(params, x, y1=2.0)
        lag_model = true_twin(params, LAG_SPEC)
        cfg = MotrConfig(r_max=5, r_min=1, seed=2)
        est_a = run_motr(ds_a, lag_model, cfg)
        est_b = run_motr(ds_b, lag_model, cfg)
        assert est_a.trajectory != est_b.trajectory

        flat = ArcoParams(beta0=1.0, beta_x=0.5)
        ds_c = mechanism_dataset(flat, x, y1=1.0)
        ds_d = mechanism_dataset(flat, x, y1=2.0)
        no_lag_model = true_twin(flat, NO_LAG_SPEC)
        est_c = run_motr(ds_c, no_lag_model, cfg)
        est_d = run_motr(ds_d, no_lag_model, cfg)
        assert est_c.trajectory == est_d.trajectory

    def test_averaging_contraction(self):
        arco, ds = self.make_study_ds(seed=2)
        model = true_twin(arco, LAG_SPEC, resid_sd=0.5)
        est = run_motr(ds, model, MotrConfig(r_max=30, seed=1))
        cums = [t[0] for t in est.trajectory]
        deltas = [run[0] for run in est.runs]
        assert len(deltas) == len(cums) == est.runs_used
        for r in range(1, len(cums)):
            bound = max(abs(d - cums[r - 1]) for d in deltas[: r + 1]) / (r + 1)
            assert abs(cums[r] - cums[r - 1]) <= bound + 1e-12

    def test_cumulative_ci_is_mean_of_run_bounds(self, monkeypatch):
        # blocks of 32 runs: 45 runs end in a partial block of 13, and each
        # run must not depend on its block
        from nof1twin.models import ForestConfig, fit_forest_outcome

        arco, ds = self.make_study_ds(seed=3)
        monkeypatch.setattr(motr, "_BLOCK_ROWS", 32 * (ds.m - 1))
        forest = fit_forest_outcome(ds, LAG_SPEC, ForestConfig(n_trees=20, seed=2))
        for model in (true_twin(arco, LAG_SPEC, resid_sd=0.5), forest):
            est = run_motr(ds, model, MotrConfig(r_min=45, r_max=45, seed=9))
            assert est.runs_used == len(est.runs) == 45
            contrast, _ = rollout_runs(ds, model, *_runs_for(ds, SeedSpec(9), 45, model.resid_sd))
            delta, lo, hi = contrast[:3]
            assert est.runs == tuple(zip(delta.tolist(), lo.tolist(), hi.tolist()))
            assert est.ci[0] == pytest.approx(np.mean(lo), abs=1e-12)
            assert est.ci[1] == pytest.approx(np.mean(hi), abs=1e-12)
            assert est.delta == pytest.approx(np.mean(delta), abs=1e-12)

    def test_mc_se_is_standard_error_of_run_deltas(self):
        arco, ds = self.make_study_ds(seed=4)
        model = true_twin(arco, LAG_SPEC, resid_sd=0.5)
        est = run_motr(ds, model, MotrConfig(r_max=30, seed=2))
        deltas = [run[0] for run in est.runs]
        assert est.mc_se == np.std(deltas, ddof=1) / np.sqrt(est.runs_used)
        one = run_motr(ds, model, MotrConfig(r_min=1, r_max=1, seed=2))
        assert one.runs_used == 1 and one.mc_se is None

    def test_memory_bounded_at_large_run_cap(self):
        import tracemalloc

        arco, ds = self.make_study_ds(seed=5)
        model = true_twin(arco, LAG_SPEC, resid_sd=0.5)
        tracemalloc.start()
        try:
            est = run_motr(ds, model, MotrConfig(r_max=10**6, stop_tol=1e-2, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.stop_reason == "converged" and est.runs_used < 100
        assert peak < 64 * 2**20  # one (r_max, m - 1) float block alone would take 480 MB

    def test_run_cap_reported_when_not_settled(self):
        arco, ds = self.make_study_ds(seed=4)
        model = true_twin(arco, LAG_SPEC, resid_sd=0.5)
        est = run_motr(ds, model, MotrConfig(r_min=5, r_max=12, seed=3))
        assert est.runs_used == 12
        assert est.stop_reason == "r_max"

    def test_true_twin_covers_study_effect(self):
        from nof1twin.arco import SimConfig, simulate_dataset
        from nof1twin.harness import default_study_params
        from nof1twin.models import fit_linear_outcome

        arco, prop = default_study_params()
        ds = simulate_dataset(arco, prop, SimConfig(m_analysis=220, seed=1))
        model = fit_linear_outcome(ds, LAG_SPEC)
        est = run_motr(ds, model, MotrConfig(seed=SeedSpec(1).child(1)))
        assert est.ci[0] < 1.1 < est.ci[1]
        assert est.runs_used <= 200

    def test_forest_twin_attenuated_but_positive(self):
        from nof1twin.arco import SimConfig, simulate_dataset
        from nof1twin.harness import default_study_params
        from nof1twin.models import ForestConfig, fit_forest_outcome, fit_linear_outcome

        arco, prop = default_study_params()
        ds = simulate_dataset(arco, prop, SimConfig(m_analysis=220, seed=1))
        glm = fit_linear_outcome(ds, LAG_SPEC)
        glm_est = run_motr(ds, glm, MotrConfig(seed=SeedSpec(1).child(1)))
        forest = fit_forest_outcome(ds, LAG_SPEC, ForestConfig(n_trees=100, seed=SeedSpec(1).child(3)))
        rf_est = run_motr(ds, forest, MotrConfig(seed=SeedSpec(1).child(2)))
        assert 0.0 < rf_est.delta < glm_est.ci[1]

    def test_single_class_exposure_rejected(self):
        params = ArcoParams(beta0=1.0, beta_x=0.5)
        ds = TimeSeriesDataset(y=[1.0, 2.0, 3.0, 4.0], x=[1, 1, 1, 1])
        model = true_twin(params, NO_LAG_SPEC)
        with pytest.raises(EstimatorError, match="2 periods in each exposure arm, got 4 exposed"):
            run_motr(ds, model, MotrConfig(seed=0))


def _run_stream(seed, r):
    """Run r's stream, built from numpy's own SeedSequence."""
    seq = np.random.SeedSequence(seed.base_seed, spawn_key=seed.path + (r,))
    return np.random.Generator(np.random.Philox(seq))


def _permutation_for(ds, seed, r):
    rng = _run_stream(seed, r)
    return ds.x[rng.permutation(ds.m)]


def _noise_for(ds, seed, r, resid_sd):
    from scipy.special import ndtri

    rng = _run_stream(seed, r)
    rng.permutation(ds.m)  # consume the permutation draw first
    if resid_sd == 0:
        return np.zeros(ds.m - 1)
    u = np.clip(rng.random(ds.m - 1), 2.0**-53, 1 - 2.0**-53)
    return ndtri(u) * resid_sd


def _runs_for(ds, seed, runs, resid_sd):
    """The exposures (runs, m) and noise (runs, m - 1) of runs 1..runs."""
    return (np.stack([_permutation_for(ds, seed, r) for r in range(1, runs + 1)]),
            np.stack([_noise_for(ds, seed, r, resid_sd) for r in range(1, runs + 1)]))


class TestQuartileRollout:
    def test_quartile_lag_x_exog_rollout_matches_step_by_step_reference(self):
        spec = FeatureSpec(
            include_current_exposure=True,
            outcome_lag_mode=LAG_QUARTILE,
            use_exposure_lag1=True,
            exog_names=("v",),
        )
        rng = np.random.default_rng(4)
        m = 16
        y = rng.normal(size=m)
        v = rng.normal(size=m)
        ds = TimeSeriesDataset(y=y, x=[1, 0] * (m // 2), exog={"v": v})
        slot_effect = (0.0, 0.8, -0.6, -1.5)  # the first quartile is the reference level
        coefs = {"intercept": 0.3, "x": 1.1, "x_lag1": -0.4, "v": 0.25}
        coefs.update(zip(("y_lag1_q2", "y_lag1_q3", "y_lag1_q4"), slot_effect[1:]))
        model = glm_from_coefficients(spec, coefs, resid_sd=0.0)
        perm = ds.x[rng.permutation(m)]
        _, preds = rollout_runs(ds, model, perm)

        q1, q2, q3 = quartile_bounds(y)
        expected, slots = [], set()
        y_prev = y[0]
        for t in range(1, m):
            slot = 0 if y_prev <= q1 else 1 if y_prev <= q2 else 2 if y_prev <= q3 else 3
            slots.add(slot)
            y_prev = 0.3 + 1.1 * perm[t] - 0.4 * perm[t - 1] + slot_effect[slot] + 0.25 * v[t]
            expected.append(y_prev)
        assert slots == {0, 1, 2, 3}
        np.testing.assert_allclose(preds[0], expected, rtol=0, atol=1e-12)


def _series(seed, m=40):
    """A series with tied outcomes, a binary and a continuous exogenous column."""
    rng = np.random.default_rng(seed)
    x = rng.permutation(np.arange(m) % 2)
    y = np.round(rng.normal(size=m) + x, 1)  # ties in the outcome and so in the thresholds
    exog = {"weekend": (np.arange(m) % 7 >= 5).astype(float), "temp": rng.normal(size=m)}
    return TimeSeriesDataset(y=y, x=x, exog=exog)


def _forest_case(seed, spec, m=40):
    """_series(seed, m) and a small forest twin fitted on it under `spec`."""
    from nof1twin.models import ForestConfig, fit_forest_outcome

    ds = _series(seed, m)
    return ds, fit_forest_outcome(ds, spec, ForestConfig(n_trees=12, min_node_size=2, seed=seed))


def _form(rollout):
    """Which of its two forms a _Rollout took."""
    return "affine" if rollout.affine is not None else "table"


def _step_by_step_runs(ds, model, spec, seed, runs):
    """(delta, lo, hi) of runs 1..runs, the twin predicting one period at a time
    from each run's own stream."""
    bounds = quartile_bounds(ds.y) if spec.outcome_lag_mode == LAG_QUARTILE else None
    exog = ds.exog_matrix(spec.exog_names)
    out = []
    for r in range(1, runs + 1):
        xp = _permutation_for(ds, SeedSpec(seed), r)
        noise = _noise_for(ds, SeedSpec(seed), r, model.resid_sd)
        preds, y_prev = [], ds.y[0]
        for t in range(1, ds.m):
            f = spec.encode(xp[t : t + 1], xp[t - 1 : t], [y_prev], exog[t : t + 1], bounds)
            y_prev = model.predict(f)[0] + noise[t - 1]
            preds.append(y_prev)
        out.append(tuple(arm_contrast(np.array([preds]), xp[None, 1:])[:3, 0].tolist()))
    return out


TABLE_SPECS = {
    "continuous": LAG_SPEC,
    "quartile-lag-x-exog": FeatureSpec(
        include_current_exposure=True, outcome_lag_mode=LAG_QUARTILE,
        use_exposure_lag1=True, exog_names=("weekend",),
    ),
    "continuous-lag-x-exog": FeatureSpec(
        include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS,
        use_exposure_lag1=True, exog_names=("weekend",),
    ),
    "none": NO_LAG_SPEC,
}
EXOG_SPEC = FeatureSpec(  # a continuous exogenous column: about two table rows per period
    include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS, exog_names=("temp",)
)


@pytest.mark.parametrize("twin", ["linear", "table", "exog-table"])
def test_estimate_independent_of_block_rows(twin, monkeypatch):
    if twin == "linear":
        arco, ds = TestRunMotr().make_study_ds(seed=5)
        spec, model = LAG_SPEC, true_twin(arco, LAG_SPEC, resid_sd=0.5)
    else:
        spec = LAG_SPEC if twin == "table" else EXOG_SPEC
        ds, model = _forest_case(11, spec)
    assert _form(_Rollout(ds, model)) == ("affine" if twin == "linear" else "table")
    default = motr._BLOCK_ROWS
    for cfg, reason in ((MotrConfig(r_max=60, stop_tol=1e-2, seed=3), "converged"),
                        (MotrConfig(r_max=23, stop_tol=1e-2, seed=3), "r_max")):
        estimates = []
        # one run per block; 7 runs per block, so the last block is partial;
        # blocks of 3, 6, 12, ... runs; the default
        for rows, first in ((ds.m - 1, 200), (7 * (ds.m - 1) + 3, 200), (default, 3),
                            (default, 200)):
            monkeypatch.setattr(motr, "_BLOCK_ROWS", rows)
            monkeypatch.setattr(motr, "_FIRST_BLOCK_RUNS", first)
            estimates.append(run_motr(ds, model, cfg))
        assert estimates[0].stop_reason == reason
        assert estimates[0].runs_used % 7 != 0
        assert estimates[0] == estimates[1] == estimates[2] == estimates[3]


CHUNK_TWINS = {  # (spec, forest twin) of each tabled layout
    "forest-exog": (EXOG_SPEC, True),
    "forest-lag-x-exog": (FeatureSpec(
        include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS,
        use_exposure_lag1=True, exog_names=("weekend", "temp"),
    ), True),
    "forest-quartile-exog": (FeatureSpec(
        include_current_exposure=True, outcome_lag_mode=LAG_QUARTILE, exog_names=("temp",),
    ), True),
    "forest-none-exog": (FeatureSpec(
        include_current_exposure=True, outcome_lag_mode=LAG_NONE, exog_names=("temp",),
    ), True),
    "glm-quartile-exog": (FeatureSpec(
        include_current_exposure=True, outcome_lag_mode=LAG_QUARTILE, exog_names=("temp",),
    ), False),
}


@pytest.mark.parametrize("layout", sorted(CHUNK_TWINS))
def test_table_built_in_period_chunks_equals_the_whole_table(layout, monkeypatch):
    # a table of more than _TABLE_VALUES values is built for 5 periods at a time
    # (the last chunk holds 4), again in every block, over the rows those periods use
    spec, forest = CHUNK_TWINS[layout]
    if forest:
        ds, model = _forest_case(4, spec)
    else:
        ds = _series(4)
        model = glm_from_coefficients(spec, {"x": 1.0, "y_lag1_q3": -0.5, "temp": 0.3}, 0.7)
    cfg = MotrConfig(r_max=90, stop_tol=1e-2, seed=2)
    whole = _Rollout(ds, model)
    assert whole.chunk is None and whole.table.shape[0] >= ds.m - 1  # a row per period, or more
    per_period = 2 * whole.n_lag * whole.table.shape[1]
    expected = run_motr(ds, model, cfg)
    monkeypatch.setattr(motr, "_TABLE_VALUES", 5 * per_period + per_period - 1)
    monkeypatch.setattr(motr, "_BLOCK_ROWS", 16 * (ds.m - 1))  # blocks of 16 runs
    sizes = []

    class Spy(_Rollout):
        def __init__(self, *args):
            super().__init__(*args)
            fill = self.fill
            self.fill = lambda static: sizes.append(len(static)) or fill(static)

    monkeypatch.setattr(motr, "_Rollout", Spy)
    chunked = run_motr(ds, model, cfg)
    assert chunked == expected
    assert expected.stop_reason == "converged" and expected.runs_used > 16
    blocks = -(-expected.runs_used // 16)
    assert len(sizes) == blocks * 8  # 39 periods in chunks of 5
    assert 0 < max(sizes) * whole.table.shape[1] <= motr._TABLE_VALUES


class TestStepTable:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), layout=st.sampled_from(sorted(TABLE_SPECS)))
    def test_lookup_equals_forest_predict(self, seed, layout):
        from nof1twin.core import encode_quartile
        from nof1twin.motr import _Rollout

        spec = TABLE_SPECS[layout]
        ds, model = _forest_case(seed, spec)
        table = _Rollout(ds, model)
        assert table.chunk is None
        quartile = spec.outcome_lag_mode == LAG_QUARTILE
        reps = np.eye(4) if quartile else np.append(table.cuts, np.inf)[:, None]
        points = np.repeat(table.static, len(reps), axis=0)
        points[:, table.lag] = np.tile(reps, (len(table.static), 1))
        expected = model.predict(points).reshape(len(table.static), -1)
        forest, lag_col = model.forest, (table.lag or [0])[0]
        if spec.outcome_lag_mode == LAG_CONTINUOUS:  # summed from tree pieces: within rounding
            tol = summed_table_tolerance(forest, table.static, lag_col, table.cuts)
            assert (np.abs(table.table - expected) <= tol).all()
        else:  # predict at each (static row, lag cut) point, to the bit
            tol = np.zeros((len(table.static), 1))
            assert table.table.tobytes() == expected.tobytes()
        bounds = quartile_bounds(ds.y) if quartile else None
        # every lag threshold, the quartile bounds, both infinities, their neighbours
        special = np.concatenate([forest.threshold[forest.feature == lag_col],
                                  quartile_bounds(ds.y), [-np.inf, np.inf]])
        special = np.concatenate([special, np.nextafter(special, np.inf),
                                  np.nextafter(special, -np.inf)])
        rng = np.random.default_rng(seed)
        xb = np.stack([ds.x[rng.permutation(ds.m)] for _ in range(9)])
        exog = ds.exog_matrix(spec.exog_names)
        for i, row in enumerate(table.rows(xb)):
            y_lag = rng.choice(special, size=len(xb))
            looked_up = table.lookup(row, y_lag)
            f = spec.encode(xb[:, i + 1], xb[:, i], y_lag,
                            np.repeat(exog[i + 1 : i + 2], len(xb), axis=0), bounds)
            assert (np.abs(looked_up - model.predict(f)) <= tol[row, 0]).all()
            if quartile:
                assert np.array_equal(f[:, lag_col : lag_col + 4], encode_quartile(y_lag, bounds))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           layout=st.sampled_from([*sorted(TABLE_SPECS), "continuous-exog"]))
    def test_run_motr_equals_step_by_step_reference(self, seed, layout):
        spec = TABLE_SPECS.get(layout, EXOG_SPEC)
        ds, model = _forest_case(seed, spec)
        cfg = MotrConfig(r_min=35, r_max=35, seed=seed)
        assert _form(_Rollout(ds, model)) == "table"
        est = run_motr(ds, model, cfg)
        reference = _step_by_step_runs(ds, model, spec, seed, est.runs_used)
        if spec.outcome_lag_mode == LAG_CONTINUOUS:
            # a summed table is predict to about 1e-14 here (summed_table_tolerance), and a
            # run's (delta, lo, hi) moves by a few times its steps' moves
            np.testing.assert_allclose(est.runs, reference, rtol=0, atol=1e-12)
        else:  # predict's own values
            assert list(est.runs) == reference


LINEAR_SPECS = {
    "continuous": LAG_SPEC,
    "continuous-exog": EXOG_SPEC,
    "lag-x-exog": FeatureSpec(  # two exogenous terms after the lag
        include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS,
        use_exposure_lag1=True, exog_names=("weekend", "temp"),
    ),
    "quartile-lag-x-exog": TABLE_SPECS["quartile-lag-x-exog"],
    "none": NO_LAG_SPEC,
    "none-lag-x-exog": FeatureSpec(
        include_current_exposure=True, outcome_lag_mode=LAG_NONE,
        use_exposure_lag1=True, exog_names=("temp",),
    ),
}
COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25]), st.floats(-1.5, 1.5))


class TestLinearRollout:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), layout=st.sampled_from(sorted(LINEAR_SPECS)),
           fitted=st.booleans(), noisy=st.booleans(),
           coefs=st.lists(COEFFICIENTS, min_size=9, max_size=9))
    def test_run_motr_equals_step_by_step_reference(self, seed, layout, fitted, noisy, coefs):
        from dataclasses import replace

        from nof1twin.models import fit_linear_outcome

        spec = LINEAR_SPECS[layout]
        ds = _series(seed)
        if fitted:
            try:
                model = fit_linear_outcome(ds, spec)
            except EstimatorError:  # a rank-deficient draw
                assume(False)
            model = model if noisy else replace(model, resid_sd=0.0)
        else:  # mixed signs and zeros, the first quartile slot included
            names = ("intercept", *spec.columns)
            model = glm_from_coefficients(spec, dict(zip(names, coefs)),
                                          resid_sd=0.7 if noisy else 0.0)
        cfg = MotrConfig(r_min=20, r_max=20, seed=seed)
        form = _form(_Rollout(ds, model))
        assert form == ("affine" if spec.outcome_lag_mode == LAG_CONTINUOUS else "table")
        est = run_motr(ds, model, cfg)
        reference = _step_by_step_runs(ds, model, spec, seed, est.runs_used)
        assert np.array_equal(est.runs, reference)


class TestInitialConditions:
    def test_returns_first_observed_values(self):
        # the first observed outcome seeds the lag of the first generated period
        ds = TimeSeriesDataset(y=[4.5, 2.0, 1.0, 3.0], x=[1, 0, 1, 0])
        model = glm_from_coefficients(LAG_SPEC, {"intercept": 1.0, "x": 0.5, "y_lag1": 2.0}, 0.0)
        _, preds = rollout_runs(ds, model, [1, 0, 0, 1])
        assert preds[0, 0] == 1.0 + 2.0 * 4.5


class TestPreconditions:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_stop_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ConfigError, match="stop_tol must be finite and > 0,"):
            MotrConfig(stop_tol=tol)

    def test_r_max_within_one_stream_label_word(self):
        assert MotrConfig(r_max=2**32 - 1).r_max == 2**32 - 1
        with pytest.raises(ConfigError, match="r_max <= 2\\*\\*32 - 1"):
            MotrConfig(r_max=2**32)

    def test_propensity_model_rejected(self):
        ds = mechanism_dataset(ArcoParams(beta0=1.0, beta_x=0.5), [1, 0, 1, 0, 1, 0])
        propensity = glm_from_coefficients(NO_LAG_SPEC, {"intercept": 0.0})
        with pytest.raises(EstimatorError, match="needs an outcome model"):
            run_motr(ds, propensity, MotrConfig(seed=0))
        with pytest.raises(EstimatorError, match="needs an outcome model"):
            _Rollout(ds, propensity)

    def test_exog_column_missing_from_the_data_rejected(self):
        ds = mechanism_dataset(ArcoParams(beta0=1.0, beta_x=0.5), [1, 0, 1, 0, 1, 0])
        spec = FeatureSpec(include_current_exposure=True, exog_names=("temp",))
        twin = glm_from_coefficients(spec, {"intercept": 1.0, "x": 0.5, "temp": 0.1}, 0.0)
        with pytest.raises(DataError, match=r"\['temp'\] missing from dataset records"):
            run_motr(ds, twin, MotrConfig(seed=0))

    @pytest.mark.parametrize("arm", [1, 0])
    def test_single_period_arm_rejected_for_every_seed(self, arm):
        params = ArcoParams(beta0=1.0, beta_x=0.5, beta_ar=0.5)
        x = np.full(220, 1 - arm)
        x[100] = arm
        ds = mechanism_dataset(params, x)
        model = true_twin(params, LAG_SPEC, resid_sd=0.1)
        for seed in range(10):
            with pytest.raises(EstimatorError, match="at least 2 periods in each exposure arm"):
                run_motr(ds, model, MotrConfig(seed=seed))
