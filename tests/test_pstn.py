import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nof1twin.arco import SimConfig, simulate_dataset
from nof1twin.core import (LAG_CONTINUOUS, LAG_NONE, FeatureSpec, TimeSeriesDataset, assemble_features,
                           load_table)
from nof1twin.errors import ConfigError, EstimatorError
from nof1twin.harness import default_study_params, estimate_raw
from nof1twin.models import (
    ForestConfig,
    fit_forest_propensity,
    fit_logistic_propensity,
    glm_from_coefficients,
)
from nof1twin.pstn import PstnConfig, pstn_from_propensities, run_pstn

PROP_SPEC = FeatureSpec(include_current_exposure=False, outcome_lag_mode=LAG_CONTINUOUS)
FLAT_SPEC = FeatureSpec(include_current_exposure=False, outcome_lag_mode=LAG_NONE)

NO_TRIM = PstnConfig(trim_bounds=(0.0, 1.0), use_overlap=False)


def engine(y, x, pi, cfg):
    y = np.asarray(y, float)
    return pstn_from_propensities(y, np.asarray(x), np.asarray(pi, float),
                                  np.arange(1, len(y) + 1), cfg)


class TestEngine:
    def test_hand_fixture(self):
        res = engine([1, 2, 3, 4], [1, 0, 1, 0], [0.5, 0.25, 0.8, 0.5], NO_TRIM)
        assert res.weights == pytest.approx((0.5 / 0.5, 0.5 / 0.75, 0.5 / 0.8, 0.5 / 0.5))
        assert res.mean_po_1 == pytest.approx((1 + 1.875) / 2, abs=1e-12)
        assert res.mean_po_0 == pytest.approx((4 / 3 + 4) / 2, abs=1e-12)
        assert res.delta == pytest.approx(-59 / 48, abs=1e-9)

    def test_constant_propensity_cancels_to_raw(self):
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        x = np.array([1, 0, 0, 1, 1, 0])
        res = engine(y, x, np.full(6, x.mean()), NO_TRIM)
        raw = y[x == 1].mean() - y[x == 0].mean()
        assert res.delta == pytest.approx(raw, abs=1e-12)

    def test_unstabilized_half_propensity_doubles_raw(self):
        y = np.array([2.0, 4.0, 6.0, 8.0])
        x = np.array([1, 0, 1, 0])
        cfg = PstnConfig(trim_bounds=(0.0, 1.0), use_overlap=False, use_stabilized=False)
        res = engine(y, x, np.full(4, 0.5), cfg)
        raw = y[x == 1].mean() - y[x == 0].mean()
        assert res.delta == pytest.approx(2 * raw, abs=1e-12)

    def test_scale_equivariance(self):
        y = np.array([1.0, -2.0, 3.5, 0.5, 2.0])
        x = np.array([1, 0, 1, 0, 1])
        pi = np.array([0.6, 0.3, 0.7, 0.4, 0.5])
        base = engine(y, x, pi, NO_TRIM)
        scaled = engine(7.0 * y, x, pi, NO_TRIM)
        assert scaled.delta == pytest.approx(7.0 * base.delta, rel=1e-12)

    def test_trim_then_overlap_order(self):
        # 0.93 survives trimming but falls outside the overlap region that is
        # computed on trim survivors; overlap-first would have kept it
        x = np.array([1, 1, 1, 0, 0, 0])
        pi = np.array([0.2, 0.5, 0.93, 0.3, 0.6, 0.97])
        res = engine(np.arange(6.0), x, pi, PstnConfig())
        assert res.excluded == {"trim": 1, "overlap": 2}
        assert res.retained == (2, 4, 5)

    def test_arm_emptied_reports_stage_counts(self):
        x = np.array([1, 1, 0, 0])
        pi = np.array([0.99, 0.97, 0.5, 0.5])
        with pytest.raises(EstimatorError, match="trim removed 2"):
            engine(np.arange(4.0), x, pi, PstnConfig(use_overlap=False))

    def test_zero_probability_guard(self):
        x = np.array([1, 1, 0, 0])
        pi = np.array([0.0, 0.5, 0.5, 0.5])
        with pytest.raises(EstimatorError, match="zero probability"):
            engine(np.arange(4.0), x, pi, NO_TRIM)

    @given(
        pis=st.lists(st.floats(0.01, 0.99), min_size=6, max_size=24),
        lo=st.floats(0.0, 0.3),
        width=st.floats(0.4, 0.7),
    )
    @settings(max_examples=40)
    def test_widening_trim_never_drops_a_kept_period(self, pis, lo, width):
        pi = np.asarray(pis)
        n = len(pi)
        x = np.tile([1, 0], n)[:n]
        y = np.linspace(-1, 1, n)
        hi = min(lo + width, 1.0)
        wide = PstnConfig(trim_bounds=(max(lo - 0.05, 0.0), min(hi + 0.05, 1.0)))
        tight = PstnConfig(trim_bounds=(lo, hi))
        try:
            kept_tight = set(engine(y, x, pi, tight).retained)
            kept_wide = set(engine(y, x, pi, wide).retained)
        except EstimatorError:
            return
        assert kept_tight <= kept_wide

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_joint_reordering_of_periods(self, data):
        n = data.draw(st.integers(4, 30))
        y = np.array(data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
        pi = np.array(data.draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        t = np.arange(1, n + 1)
        order = np.array(data.draw(st.permutations(range(n))))
        cfg = PstnConfig(
            trim_bounds=data.draw(st.sampled_from([(0.0, 1.0), (0.05, 0.95), (0.2, 0.8)])),
            use_overlap=data.draw(st.booleans()),
            use_stabilized=data.draw(st.booleans()),
        )
        try:
            a = pstn_from_propensities(y, x, pi, t, cfg)
        except EstimatorError as exc:
            with pytest.raises(EstimatorError, match=re.escape(str(exc))):
                pstn_from_propensities(y[order], x[order], pi[order], t[order], cfg)
            return
        b = pstn_from_propensities(y[order], x[order], pi[order], t[order], cfg)
        for field in ("delta", "mean_po_1", "mean_po_0"):
            assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-12, abs=1e-12)
        assert b.excluded == a.excluded
        assert dict(zip(b.retained, b.weights)) == dict(zip(a.retained, a.weights))
        assert dict(zip(b.t_index, b.pi_hat)) == dict(zip(a.t_index, a.pi_hat))

    def test_pure_function(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        x = np.array([1, 0, 1, 0])
        pi = np.array([0.4, 0.45, 0.55, 0.6])
        a = engine(y, x, pi, PstnConfig())
        b = engine(y, x, pi, PstnConfig())
        assert a == b
        assert a.retained == (2, 3)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            PstnConfig(trim_bounds=(0.9, 0.1))


class TestRunPstn:
    def test_constant_model_matches_raw_over_full_series(self):
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        x = np.array([1, 0, 0, 1, 1, 0, 1, 0])
        ds = TimeSeriesDataset(y=y, x=x)
        model = fit_logistic_propensity(ds, FLAT_SPEC)
        res = run_pstn(ds, model, NO_TRIM)
        raw = estimate_raw(ds)
        assert res.delta == pytest.approx(raw.estimate, abs=1e-9)

    def test_current_exposure_feature_rejected(self):
        ds = TimeSeriesDataset(y=[1.0, 2.0, 3.0], x=[1, 0, 1])
        spec = FeatureSpec(include_current_exposure=True, outcome_lag_mode=LAG_NONE)
        model = glm_from_coefficients(spec, {"intercept": 0.0})
        with pytest.raises(EstimatorError, match="current exposure"):
            run_pstn(ds, model, PstnConfig())

    def test_improves_on_raw_for_study_dataset(self):
        arco, prop = default_study_params()
        ds = simulate_dataset(arco, prop, SimConfig(m_analysis=220, seed=1))
        model = fit_logistic_propensity(ds, PROP_SPEC)
        res = run_pstn(ds, model, PstnConfig())
        raw = estimate_raw(ds)
        assert abs(res.delta - 1.1) < abs(raw.estimate - 1.1)

    def test_insample_propensities_used_only_for_training_rows(self):
        from dataclasses import replace

        ds = TimeSeriesDataset(y=[1.0, 2.0, 3.0, 4.0, 5.0], x=[1, 0, 1, 0, 1])
        model = glm_from_coefficients(PROP_SPEC, {"intercept": 0.0})
        stored = replace(model, insample_prob=np.array([0.4, 0.45, 0.55, 0.6]), train=ds)
        res = run_pstn(ds, stored, NO_TRIM)
        assert res.pi_hat == pytest.approx((0.4, 0.45, 0.55, 0.6))
        # same length, other feature rows: the model predicts instead
        other = TimeSeriesDataset(y=[5.0, 4.0, 3.0, 2.0, 1.0], x=[1, 0, 1, 0, 1])
        assert run_pstn(other, stored, NO_TRIM).pi_hat == (0.5, 0.5, 0.5, 0.5)

    def test_forest_oob_propensities_not_reused_on_another_dataset(self):
        arco, prop = default_study_params()
        a = simulate_dataset(arco, prop, SimConfig(m_analysis=60, seed=1))
        b = simulate_dataset(arco, prop, SimConfig(m_analysis=60, seed=2))
        model = fit_forest_propensity(a, PROP_SPEC, ForestConfig(n_trees=20, seed=3))
        own = run_pstn(a, model, PstnConfig())
        assert np.array_equal(own.pi_hat, model.insample_prob)
        res = run_pstn(b, model, PstnConfig())
        assert np.array_equal(res.pi_hat, model.predict(assemble_features(b, PROP_SPEC)))
        assert not np.array_equal(res.pi_hat, model.insample_prob)

    def test_forest_oob_propensities_not_reused_for_other_exposures(self):
        # the lagged outcomes alone make the feature rows, so flipping every exposure
        # keeps the rows the forest was trained on but not its labels
        arco, prop = default_study_params()
        a = simulate_dataset(arco, prop, SimConfig(m_analysis=60, seed=1))
        model = fit_forest_propensity(a, PROP_SPEC, ForestConfig(n_trees=20, seed=3))
        flipped = TimeSeriesDataset(y=a.y, x=1 - a.x)
        rows = assemble_features(a, PROP_SPEC)
        assert np.array_equal(assemble_features(flipped, PROP_SPEC), rows)
        res = run_pstn(flipped, model, PstnConfig())
        assert np.array_equal(res.pi_hat, model.predict(rows))
        assert not np.array_equal(res.pi_hat, model.insample_prob)

    def test_forest_oob_propensities_reused_for_its_dataset_read_back(self, tmp_path):
        arco, prop = default_study_params()
        a = simulate_dataset(arco, prop, SimConfig(m_analysis=60, seed=1))
        model = fit_forest_propensity(a, PROP_SPEC, ForestConfig(n_trees=20, seed=3))
        a.to_csv(tmp_path / "a.csv")
        back = TimeSeriesDataset(*load_table(tmp_path / "a.csv"))
        assert back == a and back is not a
        res = run_pstn(back, model, PstnConfig())
        assert np.array_equal(res.pi_hat, model.insample_prob)
        assert not np.array_equal(res.pi_hat, model.predict(assemble_features(a, PROP_SPEC)))

    @pytest.mark.parametrize("change", ["last-outcome", "unused-column"])
    def test_forest_oob_propensities_not_reused_for_another_dataset_with_its_rows(self, change):
        # neither the last outcome nor an unused column enters a feature row or a label
        arco, prop = default_study_params()
        a = simulate_dataset(arco, prop, SimConfig(m_analysis=60, seed=1))
        model = fit_forest_propensity(a, PROP_SPEC, ForestConfig(n_trees=20, seed=3))
        if change == "last-outcome":
            other = TimeSeriesDataset(np.append(a.y[:-1], a.y[-1] + 1.0), a.x)
        else:
            other = TimeSeriesDataset(a.y, a.x, {"temp": np.ones(a.m)})
        rows = assemble_features(a, PROP_SPEC)
        assert np.array_equal(assemble_features(other, PROP_SPEC), rows)
        res = run_pstn(other, model, PstnConfig())
        assert np.array_equal(res.pi_hat, model.predict(rows))
        assert not np.array_equal(res.pi_hat, model.insample_prob)

    def test_outcome_model_rejected(self):
        ds = TimeSeriesDataset(y=[1.0, 2.0, 3.0, 4.0], x=[1, 0, 1, 0])
        outcome = glm_from_coefficients(FLAT_SPEC, {"intercept": 0.0}, resid_sd=1.0)
        with pytest.raises(EstimatorError, match="needs a propensity model"):
            run_pstn(ds, outcome, NO_TRIM)

    def test_reports_periods_for_csv(self):
        ds = TimeSeriesDataset(y=[1.0, 2.0, 3.0, 4.0], x=[1, 0, 1, 0])
        model = glm_from_coefficients(FLAT_SPEC, {"intercept": 0.0})
        res = run_pstn(ds, model, NO_TRIM)
        assert res.t_index == (1, 2, 3, 4)
        assert res.pi_hat == pytest.approx((0.5, 0.5, 0.5, 0.5))
        assert len(res.weights) == len(res.retained)
