import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nof1twin.arco import ArcoParams
from nof1twin.core import LAG_CONTINUOUS, LAG_NONE, FeatureSpec, SeedSpec, TimeSeriesDataset
from nof1twin.errors import EstimatorError
from nof1twin.models import glm_from_coefficients
from nof1twin.motr import MotrConfig, run_motr, run_motr_once
from nof1twin.oracle import MODE_PERMUTATION, EnumSpec, enumerate_apte

NO_LAG_SPEC = FeatureSpec(include_current_exposure=True, outcome_lag_mode=LAG_NONE)
LAG_SPEC = FeatureSpec(include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS)
XLAG_SPEC = FeatureSpec(
    include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS, use_exposure_lag1=True
)


def true_twin(params: ArcoParams, spec: FeatureSpec, resid_sd: float = 0.0):
    coefs = {"intercept": params.beta0, "x": params.beta_x, "y_lag1": params.beta_ar}
    if spec.use_exposure_lag1:
        coefs["x_lag1"] = params.beta_co
    return glm_from_coefficients(spec.columns, coefs, resid_sd)


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


def all_permutation_average(ds, model, spec):
    m1 = int(ds.x.sum())
    deltas = []
    for ones in itertools.combinations(range(ds.m), m1):
        perm = np.zeros(ds.m, dtype=np.int64)
        perm[list(ones)] = 1
        deltas.append(run_motr_once(ds, model, spec, perm).delta)
    return float(np.mean(deltas))


class TestSingleRun:
    def test_history_free_model_gives_exact_effect(self):
        params = ArcoParams(beta0=2.0, beta_x=1.1)
        ds = mechanism_dataset(params, [1, 0, 1, 0, 1, 0])
        model = true_twin(params, NO_LAG_SPEC)
        run = run_motr_once(ds, model, NO_LAG_SPEC, np.array([0, 1, 1, 0, 0, 1]))
        assert run.delta == pytest.approx(1.1, abs=1e-12)
        assert run.ci == (run.delta, run.delta)
        assert run.degenerate_ci

    def test_delta_identity_and_counts(self):
        params = ArcoParams(beta0=1.0, beta_x=0.5, beta_ar=0.6)
        ds = mechanism_dataset(params, [1, 1, 0, 0, 1, 0, 1, 0])
        model = true_twin(params, LAG_SPEC)
        perm = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        run = run_motr_once(ds, model, LAG_SPEC, perm)
        assert run.delta == run.mean_po_1 - run.mean_po_0
        assert run.permuted_x.sum() == ds.x.sum()
        assert len(run.noisy_preds) == ds.m - 1

    def test_rejects_non_permutation(self):
        params = ArcoParams(beta0=1.0, beta_x=0.5)
        ds = mechanism_dataset(params, [1, 0, 1, 0])
        model = true_twin(params, NO_LAG_SPEC)
        with pytest.raises(EstimatorError, match="permutation"):
            run_motr_once(ds, model, NO_LAG_SPEC, np.array([1, 1, 1, 0]))


class TestEnumerationAgreement:
    def test_paper_coefficients_m8(self):
        params = ArcoParams(beta0=2.0, beta_x=1.1, beta_ar=0.8)
        ds = mechanism_dataset(params, [1, 1, 1, 1, 0, 0, 0, 0])
        model = true_twin(params, LAG_SPEC)
        motr_value = all_permutation_average(ds, model, LAG_SPEC)
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
        motr_value = all_permutation_average(ds, model, XLAG_SPEC)
        oracle_value = enumerate_apte(
            EnumSpec(m=m, mode=MODE_PERMUTATION, params=params, m1=m1, y_init=y1)
        )
        assert motr_value == pytest.approx(oracle_value, abs=1e-9)


class TestRunMotr:
    def make_study_ds(self, seed=1, m=60):
        from nof1twin.arco import SimConfig, simulate_dataset
        from nof1twin.harness import default_study_params

        arco, prop = default_study_params()
        return arco, simulate_dataset(arco, prop, SimConfig(m_analysis=m, seed=seed))

    def test_deterministic_model_stops_at_r_min(self):
        params = ArcoParams(beta0=2.0, beta_x=1.1)
        ds = mechanism_dataset(params, [1, 0] * 6)
        model = true_twin(params, NO_LAG_SPEC)
        est = run_motr(ds, model, NO_LAG_SPEC, MotrConfig(seed=0))
        assert est.delta == pytest.approx(1.1, abs=1e-12)
        assert est.runs_used == 10
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
            spec.columns, {"intercept": 3.0, "x": 0.0, "y_lag1": 0.4}, resid_sd=0.5
        )
        est = run_motr(ds, model, spec, MotrConfig(r_max=60, seed=5))
        assert abs(est.delta) < 0.2
        assert est.ci[0] < 0.0 < est.ci[1]

    def test_trajectory_is_deterministic_in_seed(self):
        arco, ds = self.make_study_ds()
        model = true_twin(arco, LAG_SPEC, resid_sd=0.5)
        a = run_motr(ds, model, LAG_SPEC, MotrConfig(r_max=40, seed=SeedSpec(3)))
        b = run_motr(ds, model, LAG_SPEC, MotrConfig(r_max=40, seed=SeedSpec(3)))
        assert a.trajectory == b.trajectory
        c = run_motr(ds, model, LAG_SPEC, MotrConfig(r_max=40, seed=SeedSpec(4)))
        assert a.trajectory != c.trajectory

    def test_initial_outcome_feeds_only_the_lag_channel(self):
        params = ArcoParams(beta0=1.0, beta_x=0.5, beta_ar=0.7)
        x = [1, 0, 1, 0, 1, 0]
        ds_a = mechanism_dataset(params, x, y1=1.0)
        ds_b = mechanism_dataset(params, x, y1=2.0)
        lag_model = true_twin(params, LAG_SPEC)
        cfg = MotrConfig(r_max=5, r_min=1, seed=2)
        est_a = run_motr(ds_a, lag_model, LAG_SPEC, cfg)
        est_b = run_motr(ds_b, lag_model, LAG_SPEC, cfg)
        assert est_a.trajectory != est_b.trajectory

        flat = ArcoParams(beta0=1.0, beta_x=0.5)
        ds_c = mechanism_dataset(flat, x, y1=1.0)
        ds_d = mechanism_dataset(flat, x, y1=2.0)
        no_lag_model = true_twin(flat, NO_LAG_SPEC)
        est_c = run_motr(ds_c, no_lag_model, NO_LAG_SPEC, cfg)
        est_d = run_motr(ds_d, no_lag_model, NO_LAG_SPEC, cfg)
        assert est_c.trajectory == est_d.trajectory

    def test_averaging_contraction(self):
        arco, ds = self.make_study_ds(seed=2)
        model = true_twin(arco, LAG_SPEC, resid_sd=0.5)
        est = run_motr(ds, model, LAG_SPEC, MotrConfig(r_max=30, seed=1))
        cums = [t[0] for t in est.trajectory]
        deltas = [cums[0]] + [
            cums[r] * (r + 1) - cums[r - 1] * r for r in range(1, len(cums))
        ]
        for r in range(1, len(cums)):
            bound = max(abs(d - cums[r - 1]) for d in deltas[: r + 1]) / (r + 1)
            assert abs(cums[r] - cums[r - 1]) <= bound + 1e-12

    def test_cumulative_ci_is_mean_of_run_bounds(self):
        arco, ds = self.make_study_ds(seed=3)
        model = true_twin(arco, LAG_SPEC, resid_sd=0.5)
        est = run_motr(ds, model, LAG_SPEC, MotrConfig(r_min=1, r_max=12, seed=9))
        per_run = []
        for r in range(1, est.runs_used + 1):
            run = run_motr_once(
                ds, model, LAG_SPEC,
                permuted_x=_permutation_for(ds, SeedSpec(9), r),
                noise=_noise_for(ds, SeedSpec(9), r, model.resid_sd),
                r=r,
            )
            per_run.append(run)
        assert est.ci[0] == pytest.approx(np.mean([r.ci[0] for r in per_run]), abs=1e-12)
        assert est.ci[1] == pytest.approx(np.mean([r.ci[1] for r in per_run]), abs=1e-12)
        assert est.delta == pytest.approx(np.mean([r.delta for r in per_run]), abs=1e-12)

    def test_true_twin_covers_study_effect(self):
        from nof1twin.arco import SimConfig, simulate_dataset
        from nof1twin.core import assemble_features
        from nof1twin.harness import default_study_params
        from nof1twin.models import fit_linear_outcome

        arco, prop = default_study_params()
        ds = simulate_dataset(arco, prop, SimConfig(m_analysis=220, seed=1))
        fm = assemble_features(ds, LAG_SPEC)
        model = fit_linear_outcome(fm, ds.y[1:])
        est = run_motr(ds, model, LAG_SPEC, MotrConfig(seed=SeedSpec(1).child(1)))
        assert est.ci[0] < 1.1 < est.ci[1]
        assert est.runs_used <= 200

    def test_forest_twin_attenuated_but_positive(self):
        from nof1twin.arco import SimConfig, simulate_dataset
        from nof1twin.core import assemble_features
        from nof1twin.harness import default_study_params
        from nof1twin.models import ForestConfig, fit_forest_outcome, fit_linear_outcome

        arco, prop = default_study_params()
        ds = simulate_dataset(arco, prop, SimConfig(m_analysis=220, seed=1))
        fm = assemble_features(ds, LAG_SPEC)
        glm = fit_linear_outcome(fm, ds.y[1:])
        glm_est = run_motr(ds, glm, LAG_SPEC, MotrConfig(seed=SeedSpec(1).child(1)))
        forest = fit_forest_outcome(fm, ds.y[1:], ForestConfig(n_trees=100, seed=SeedSpec(1).child(3)))
        rf_est = run_motr(ds, forest, LAG_SPEC, MotrConfig(seed=SeedSpec(1).child(2)))
        assert 0.0 < rf_est.delta < glm_est.ci[1]

    def test_model_spec_mismatch(self):
        params = ArcoParams(beta0=1.0, beta_x=0.5)
        ds = mechanism_dataset(params, [1, 0, 1, 0])
        model = true_twin(params, NO_LAG_SPEC)
        with pytest.raises(EstimatorError, match="columns"):
            run_motr(ds, model, LAG_SPEC, MotrConfig(seed=0))

    def test_single_class_exposure_rejected(self):
        params = ArcoParams(beta0=1.0, beta_x=0.5)
        ds = TimeSeriesDataset(y=[1.0, 2.0, 3.0, 4.0], x=[1, 1, 1, 1])
        model = true_twin(params, NO_LAG_SPEC)
        with pytest.raises(EstimatorError, match="single class"):
            run_motr(ds, model, NO_LAG_SPEC, MotrConfig(seed=0))


def _permutation_for(ds, seed, r):
    rng = seed.child(r).generator()
    return ds.x[rng.permutation(ds.m)]


def _noise_for(ds, seed, r, resid_sd):
    from scipy.special import ndtri

    rng = seed.child(r).generator()
    rng.permutation(ds.m)  # consume the permutation draw first
    if resid_sd == 0:
        return np.zeros(ds.m - 1)
    u = np.clip(rng.random(ds.m - 1), 2.0**-53, 1 - 2.0**-53)
    return ndtri(u) * resid_sd


class TestInitialConditions:
    def test_returns_first_observed_values(self):
        # the first observed outcome seeds the lag of the first generated period
        ds = TimeSeriesDataset(y=[4.5, 2.0, 1.0, 3.0], x=[1, 0, 1, 0])
        model = glm_from_coefficients(LAG_SPEC.columns, {"intercept": 1.0, "x": 0.5, "y_lag1": 2.0}, 0.0)
        run = run_motr_once(ds, model, LAG_SPEC, [1, 0, 0, 1])
        assert run.noisy_preds[0] == 1.0 + 2.0 * 4.5


class TestPreconditions:
    def test_propensity_model_rejected(self):
        ds = mechanism_dataset(ArcoParams(beta0=1.0, beta_x=0.5), [1, 0, 1, 0, 1, 0])
        propensity = glm_from_coefficients(NO_LAG_SPEC.columns, {"intercept": 0.0})
        with pytest.raises(EstimatorError, match="needs an outcome model"):
            run_motr(ds, propensity, NO_LAG_SPEC, MotrConfig(seed=0))
        with pytest.raises(EstimatorError, match="needs an outcome model"):
            run_motr_once(ds, propensity, NO_LAG_SPEC, ds.x)

    @pytest.mark.parametrize("arm", [1, 0])
    def test_single_period_arm_rejected_for_every_seed(self, arm):
        params = ArcoParams(beta0=1.0, beta_x=0.5, beta_ar=0.5)
        x = np.full(220, 1 - arm)
        x[100] = arm
        ds = mechanism_dataset(params, x)
        model = true_twin(params, LAG_SPEC, resid_sd=0.1)
        for seed in range(10):
            with pytest.raises(EstimatorError, match="at least 2 periods in each exposure arm"):
                run_motr(ds, model, LAG_SPEC, MotrConfig(seed=seed))
