import dataclasses

import numpy as np
import pytest

from nof1twin.arco import (
    ArcoParams,
    PropensityParams,
    SimConfig,
    long_run_apte,
    long_run_mean,
    simulate_dataset,
)
from nof1twin.core import SeedSpec, normals
from nof1twin.errors import ConfigError, NonstationaryParamsError
from nof1twin.harness import default_study_params

PAPER_ARCO = ArcoParams(beta0=2.0, beta_x=1.1, beta_ar=0.8, sigma_eps=0.5)


def randomized(m, seed=0, pi1=0.5, params=PAPER_ARCO, burn_in=2):
    prop = PropensityParams(alpha0=0.0, alpha_en=0.0, pi1=pi1)
    cfg = SimConfig(m_analysis=m, burn_in=burn_in, seed=seed, randomized_mode=True)
    return simulate_dataset(params, prop, cfg)


class TestSimulate:
    def test_noise_free_lag_free_mechanism(self):
        params = ArcoParams(beta0=2.0, beta_x=1.1, sigma_eps=0.0)
        ds = randomized(200, seed=3, params=params)
        assert np.allclose(ds.y, 2.0 + 1.1 * ds.x)
        raw = ds.y[ds.x == 1].mean() - ds.y[ds.x == 0].mean()
        assert raw == pytest.approx(1.1)

    def test_study_preset_yields_valid_dataset(self):
        arco, prop = default_study_params()
        ds = simulate_dataset(arco, prop, SimConfig(m_analysis=220, seed=1))
        assert ds.m == 220
        assert set(np.unique(ds.x)) <= {0, 1}
        assert 0 < ds.x.mean() < 1
        assert long_run_apte(arco, 0.5, long_run_mean(arco, 0.5)) == pytest.approx(1.1)

    def test_burn_in_dropped_and_reindexed(self):
        ds = randomized(50, seed=9, burn_in=2)
        assert ds.m == 50
        assert np.array_equal(ds.y, randomized(52, seed=9, burn_in=0).y[2:])

    def test_bit_identical_reruns(self):
        arco, prop = default_study_params()
        a = simulate_dataset(arco, prop, SimConfig(m_analysis=40, seed=SeedSpec(7).child(2)))
        b = simulate_dataset(arco, prop, SimConfig(m_analysis=40, seed=SeedSpec(7).child(2)))
        assert a == b

    def test_exposure_proportion_lln(self):
        ds = randomized(1_000_000, seed=11, burn_in=0)
        assert abs(ds.x.mean() - 0.5) < 0.002

    def test_randomized_interaction_path_matches_loop(self):
        # replay the documented mechanism from the documented streams, in both modes: both
        # potential outcomes from one noise draw, every interaction term, and the observed
        # outcome the one of the exposure received (causal consistency)
        params = ArcoParams(
            beta0=1.0, beta_x=0.5, beta_co=0.3, beta_xco=-0.2, beta_ar=0.4, beta_xar=0.2,
            sigma_eps=0.3,
        )
        prop = PropensityParams(alpha0=-0.2, alpha_en=0.3, alpha_ar=0.5, pi1=0.4)
        m, seed = 60, SeedSpec(8)
        eps_rng, x_rng = (
            np.random.Generator(np.random.Philox(np.random.SeedSequence(8, spawn_key=(k,))))
            for k in (0, 1)
        )
        eps = normals(eps_rng.random(m), params.sigma_eps)
        u = x_rng.random(m)
        for randomized_mode in (True, False):
            cfg = SimConfig(m_analysis=m, burn_in=0, seed=seed, randomized_mode=randomized_mode)
            ds = simulate_dataset(params, prop, cfg)
            x = np.zeros(m, dtype=np.int64)
            y, y1, y0 = np.empty(m), np.empty(m), np.empty(m)
            x[0] = u[0] < prop.pi1
            y[0] = y1[0] = y0[0] = params.beta0 + eps[0]
            for t in range(1, m):
                pi = prop.pi1
                if not randomized_mode:
                    logit = prop.alpha0 + prop.alpha_en * y[t - 1] + prop.alpha_ar * x[t - 1]
                    pi = 1.0 / (1.0 + np.exp(-logit))
                x[t] = u[t] < pi
                y0[t] = (params.beta0 + params.beta_co * x[t - 1] + params.beta_ar * y[t - 1]
                         + eps[t])
                y1[t] = (y0[t] + params.beta_x + params.beta_xco * x[t - 1]
                         + params.beta_xar * y[t - 1])
                y[t] = y1[t] if x[t] else y0[t]
            assert 0 < x.sum() < m
            assert np.array_equal(ds.x, x)
            assert np.max(np.abs(ds.y - y)) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("randomized_mode", [False, True])
    def test_divergence_names_its_first_non_finite_period(self, randomized_mode):
        arco, prop = default_study_params()
        cfg = SimConfig(m_analysis=5000, seed=1, randomized_mode=randomized_mode)
        with pytest.raises(ConfigError, match=r"not finite at period 1747 of 5002 \(burn-in"):
            simulate_dataset(dataclasses.replace(arco, beta_ar=1.5), prop, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(("seed", "period"), [(1, 2), (2, 1), (4, 1), (5, 1)])
    def test_divergence_at_the_first_period(self, seed, period):
        # beta0 + eps_1 overflows on seeds 4 and 5, and sigma_eps * ndtri(u_1) on seed 2;
        # there it is the lag of period 2 that is not finite, and period 1 is the one named
        arco, prop = default_study_params()
        arco = dataclasses.replace(arco, beta0=1.7e308, sigma_eps=1e308)
        with pytest.raises(ConfigError, match=f"at period {period} of 12"):
            simulate_dataset(arco, prop, SimConfig(m_analysis=10, seed=seed))

    @pytest.mark.parametrize("cls", [ArcoParams, PropensityParams])
    def test_every_field_must_be_finite(self, cls):
        base = {"beta0": 1.0} if cls is ArcoParams else {"alpha0": 0.0, "alpha_en": 0.0}
        for field in dataclasses.fields(cls):
            with pytest.raises(ConfigError, match=f"^{field.name} must be finite"):
                cls(**{**base, field.name: float("nan")})

    def test_rejects_short_series(self):
        with pytest.raises(ConfigError):
            SimConfig(m_analysis=5)


class TestLongRun:
    def test_constant_process(self):
        params = ArcoParams(beta0=3.25)
        assert long_run_mean(params, 0.5) == pytest.approx(3.25)

    def test_study_value(self):
        assert long_run_mean(PAPER_ARCO, 0.5) == pytest.approx(12.75)

    def test_mixed_coefficients_value(self):
        params = ArcoParams(
            beta0=1.0, beta_x=1.0, beta_co=0.2, beta_xco=0.1, beta_ar=0.5, beta_xar=0.1
        )
        assert long_run_mean(params, 0.5) == pytest.approx(1.625 / 0.45)

    def test_mixed_coefficients_simulation_oracle(self):
        params = ArcoParams(
            beta0=1.0,
            beta_x=1.0,
            beta_co=0.2,
            beta_xco=0.1,
            beta_ar=0.5,
            beta_xar=0.1,
            sigma_eps=0.4,
        )
        ds = randomized(1_000_000, seed=13, params=params, burn_in=50)
        mu = long_run_mean(params, 0.5)
        assert abs(ds.y.mean() - mu) / mu < 0.01

    def test_long_run_mean_simulation_oracle(self):
        ds = randomized(1_000_000, seed=17, burn_in=50)
        assert abs(ds.y.mean() - 12.75) / 12.75 < 0.01

    def test_apte_no_modification(self):
        assert long_run_apte(ArcoParams(beta0=0.0, beta_x=0.7), 0.3, 5.0) == pytest.approx(0.7)

    def test_apte_study_value(self):
        mu = long_run_mean(PAPER_ARCO, 0.5)
        assert long_run_apte(PAPER_ARCO, 0.5, mu) == pytest.approx(1.1)

    def test_apte_mixed_value(self):
        params = ArcoParams(beta0=1.0, beta_x=1.0, beta_xco=0.1, beta_xar=0.1)
        assert long_run_apte(params, 0.5, 3.61111111) == pytest.approx(1.411111111)

    def test_nonstationary_rejected(self):
        with pytest.raises(NonstationaryParamsError):
            long_run_mean(ArcoParams(beta0=1.0, beta_ar=1.0), 0.5)
        with pytest.raises(NonstationaryParamsError):
            long_run_mean(ArcoParams(beta0=1.0, beta_ar=0.7, beta_xar=0.4), 0.5)
