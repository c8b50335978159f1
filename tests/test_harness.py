import csv
from dataclasses import replace

import numpy as np
import pytest

from nof1twin import harness
from nof1twin.arco import ArcoParams, PropensityParams, SimConfig, simulate_dataset
from nof1twin.core import TimeSeriesDataset, write_csv
from nof1twin.errors import ConfigError, EstimatorError
from nof1twin.harness import (
    Method,
    MethodOptions,
    StudyConfig,
    default_study_params,
    estimate_coef,
    estimate_raw,
    replicate,
)
from nof1twin.models import ForestConfig
from nof1twin.pstn import PstnConfig

NOISE_FREE = ArcoParams(beta0=2.0, beta_x=1.1, sigma_eps=0.0)
FAIR_COIN = PropensityParams(alpha0=0.0, alpha_en=0.0, pi1=0.5)


def small_study(**kw):
    arco, prop = default_study_params()
    defaults = dict(
        h_datasets=3,
        m_analysis=40,
        params=arco,
        propensity=prop,
        methods=(Method.RAW, Method.COEF),
        seed=5,
        options=MethodOptions(forest=ForestConfig(n_trees=10)),
    )
    defaults.update(kw)
    return StudyConfig(**defaults)


class TestPointEstimators:
    def test_raw_two_point_arms(self):
        ds = TimeSeriesDataset(y=[1.0, 2.0, 3.0, 4.0], x=[1, 1, 0, 0])
        res = estimate_raw(ds)
        assert res.detail.delta == pytest.approx(-2.0)
        assert res.detail.ci[0] < -2.0 < res.detail.ci[1]

    def test_raw_equals_scipy_welch_interval(self):
        from scipy.stats import ttest_ind

        ds = simulate_dataset(*default_study_params(), SimConfig(m_analysis=220, seed=3))
        y1, y0 = ds.y[ds.x == 1], ds.y[ds.x == 0]
        ref = ttest_ind(y1, y0, equal_var=False).confidence_interval(0.95)
        res = estimate_raw(ds)
        np.testing.assert_allclose([res.detail.delta, *res.detail.ci],
                                   [y1.mean() - y0.mean(), ref.low, ref.high], rtol=0, atol=1e-12)

    def test_raw_single_arm_rejected(self):
        ds = TimeSeriesDataset(y=[1.0, 2.0, 3.0], x=[1, 1, 1])
        with pytest.raises(EstimatorError, match="both arms"):
            estimate_raw(ds)

    def test_coef_exact_on_noise_free_mechanism(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, 30)
        x[:2] = [0, 1]
        ds = TimeSeriesDataset(y=2.0 + 1.1 * x, x=x)
        res = estimate_coef(ds, harness.OUTCOME_SPEC)
        assert res.detail.delta == pytest.approx(1.1, abs=1e-10)

    def test_outcome_spec_without_the_current_exposure_rejected(self):
        # coef and MoTR fit on outcome_spec; without x it is a propensity layout
        with pytest.raises(ConfigError, match="outcome_spec must include the current exposure"):
            MethodOptions(outcome_spec=replace(harness.OUTCOME_SPEC, include_current_exposure=False))


class TestReplicate:
    def test_noise_free_coef_bias_exactly_zero(self):
        study = small_study(
            h_datasets=2,
            params=NOISE_FREE,
            propensity=FAIR_COIN,
            methods=(Method.COEF,),
        )
        report = replicate(study)
        assert all(row.bias == pytest.approx(0.0, abs=1e-9) for row in report.rows)

    def test_rows_sorted_and_bias_recomputable(self):
        report = replicate(small_study())
        keys = [(r.h, r.method.value) for r in report.rows]
        assert keys == sorted(keys, key=lambda k: (k[0], ["raw", "coef"].index(k[1])))
        for row in report.rows:
            assert row.bias == row.estimate - report.true_apte

    def test_dataset_rows_do_not_depend_on_study_size(self):
        two = replicate(small_study(h_datasets=2))
        three = replicate(small_study(h_datasets=3))
        assert two.rows == three.rows[: len(two.rows)]

    def test_workers_do_not_change_the_report(self):
        # motr-glm, motr-rf and pstn-rf draw from per-dataset seed sub-streams
        study = small_study(methods=(Method.RAW, Method.COEF, Method.MOTR_GLM, Method.MOTR_RF,
                                     Method.PSTN_RF))
        a = replicate(study)
        b = replicate(replace(study, workers=2))
        assert {row.method for row in a.rows if row.error is None} == set(study.methods)
        assert a.rows == b.rows
        assert a.summary == b.summary

    @pytest.mark.parametrize("workers, h, expected", [(1000, 2, 2), (2, 3, 2), (3, 3, 3)])
    def test_pool_has_at_most_one_worker_per_dataset(self, monkeypatch, workers, h, expected):
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        study = small_study(h_datasets=h)
        pooled, serial = replicate(replace(study, workers=workers)), replicate(study)
        assert pooled.rows == serial.rows and pooled.summary == serial.summary
        assert pools == [expected]

    def test_failures_counted_not_fatal(self):
        # impossibly tight trimming empties both arms for every dataset
        study = small_study(
            methods=(Method.RAW, Method.PSTN_GLM),
            options=MethodOptions(
                pstn=PstnConfig(trim_bounds=(0.499, 0.501)),
                forest=ForestConfig(n_trees=10),
            ),
        )
        report = replicate(study)
        pstn = report.summary[Method.PSTN_GLM]
        assert pstn.failures == 3
        assert pstn.n == 0
        assert np.isnan(pstn.mean_bias)
        assert report.summary[Method.RAW].failures == 0
        failed = [r for r in report.rows if r.method is Method.PSTN_GLM]
        assert all(r.error for r in failed)

    def test_summary_interval_formula(self):
        report = replicate(small_study(h_datasets=4))
        biases = np.array([r.bias for r in report.rows if r.method is Method.RAW])
        s = report.summary[Method.RAW]
        half = 1.96 * biases.std(ddof=1) / np.sqrt(len(biases))
        assert s.ci_lo == pytest.approx(s.mean_bias - half)
        assert s.ci_hi == pytest.approx(s.mean_bias + half)

    @pytest.mark.parametrize("name", ["beta_xco", "beta_xar"])
    def test_interaction_coefficients_rejected(self, name):
        arco, _ = default_study_params()
        params = ArcoParams(**{**vars(arco), name: 0.1})
        with pytest.raises(ConfigError, match=name):
            small_study(params=params)

    def test_repeated_method_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            small_study(methods=(Method.RAW, Method.RAW, Method.COEF))

    def test_csv_outputs(self, tmp_path):
        # impossibly tight trimming makes every pstn-glm row a failure row
        tight = MethodOptions(pstn=PstnConfig(trim_bounds=(0.499, 0.501)))
        report = replicate(small_study(methods=(Method.RAW, Method.PSTN_GLM), options=tight))
        path = tmp_path / "rows.csv"
        table = [[r.h, r.method.value, r.estimate, r.bias, r.error] for r in report.rows]
        write_csv(path, ["h", "method", "estimate", "bias", "error"], table, ["seed=5", "m=40"])
        text = path.read_bytes().decode()
        assert text.startswith("# seed=5\n# m=40\nh,method,estimate,bias,error\r\n")
        parsed = list(csv.reader(text.splitlines()[2:]))[1:]
        assert len(parsed) == len(report.rows)
        for cells, row in zip(parsed, report.rows):
            assert cells[:2] == [str(row.h), row.method.value]
            if row.error is None:
                assert [float(c) for c in cells[2:4]] == [row.estimate, row.bias]
                assert cells[4] == ""
            else:
                assert cells[2:] == ["", "", row.error]
