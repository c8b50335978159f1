"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The multi-dataset study fixtures are shared across criteria; every tolerance
is pinned here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from nof1twin.arco import ArcoParams, PropensityParams, SimConfig, simulate_dataset
from nof1twin.cli import main as cli_main
from nof1twin.core import (
    LAG_CONTINUOUS,
    LAG_NONE,
    FeatureSpec,
    SeedSpec,
    TimeSeriesDataset,
)
from nof1twin.harness import (
    Method,
    MethodOptions,
    StudyConfig,
    apply_method,
    default_study_params,
    replicate,
)
from nof1twin.models import (
    ForestConfig,
    fit_linear_outcome,
    fit_logistic_propensity,
    glm_from_coefficients,
)
from nof1twin.motr import _Rollout, arm_contrast
from nof1twin.oracle import MODE_PERMUTATION, EnumSpec, enumerate_apte
from nof1twin.pstn import PstnConfig, pstn_from_propensities

ACCEPT_SEED = 1  # shipped default seed


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def study220():
    arco, prop = default_study_params()
    cfg = StudyConfig(
        h_datasets=100,
        m_analysis=220,
        params=arco,
        propensity=prop,
        seed=ACCEPT_SEED,
        options=MethodOptions(forest=ForestConfig(n_trees=100)),
    )
    t0 = time.time()
    rep = replicate(cfg)
    return rep, time.time() - t0


@pytest.fixture(scope="module")
def study730():
    arco, prop = default_study_params()
    cfg = StudyConfig(
        h_datasets=100,
        m_analysis=730,
        params=arco,
        propensity=prop,
        methods=(Method.PSTN_GLM,),
        seed=ACCEPT_SEED,
    )
    return replicate(cfg)


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    params = ArcoParams(beta0=2.0, beta_x=1.1, beta_ar=0.8)
    m, m1 = 8, 4

    x0 = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int64)
    y = np.empty(m)
    y[0] = params.beta0
    for t in range(1, m):
        y[t] = params.beta0 + params.beta_x * x0[t] + params.beta_ar * y[t - 1]
    ds = TimeSeriesDataset(y=y, x=x0)
    spec = FeatureSpec(include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS)
    twin = glm_from_coefficients(
        spec, {"intercept": 2.0, "x": 1.1, "y_lag1": 0.8}, resid_sd=0.0
    )
    combos = list(itertools.combinations(range(m), m1))
    perms = np.zeros((len(combos), m), dtype=np.int64)
    for i, ones in enumerate(combos):
        perms[i, list(ones)] = 1
    # every permutation in one zero-noise rollout, as run_motr rolls out its runs
    preds = _Rollout(ds, twin)(perms, np.zeros((len(perms), m - 1)))
    deltas = arm_contrast(preds, perms[:, 1:])[0]
    motr_value = float(np.mean(deltas))
    oracle_value = enumerate_apte(
        EnumSpec(m=m, mode=MODE_PERMUTATION, params=params, m1=m1, y_init=float(y[0]))
    )
    elapsed = time.time() - t0
    gap = abs(motr_value - oracle_value)
    report(
        1,
        gap < 1e-10 and len(deltas) == 70 and elapsed < 1.0,
        f"all-70-permutation estimate {motr_value:.12f} vs enumeration "
        f"{oracle_value:.12f} (|gap|={gap:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_coefficient_unbiasedness():
    t0 = time.time()
    arco, prop = default_study_params()
    cfg = StudyConfig(
        h_datasets=100,
        m_analysis=220,
        params=arco,
        propensity=prop,
        methods=(Method.COEF,),
        seed=ACCEPT_SEED,
    )
    rep = replicate(cfg)
    s = rep.summary[Method.COEF]
    elapsed = time.time() - t0
    ok = -0.05 <= s.mean_bias <= 0.05 and s.ci_lo <= 0.0 <= s.ci_hi and elapsed < 30.0
    report(
        2,
        ok,
        f"coef mean bias {s.mean_bias:+.4f}, 95% interval ({s.ci_lo:+.4f}, {s.ci_hi:+.4f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_raw_bias(study220):
    rep, _ = study220
    mean_bias = rep.summary[Method.RAW].mean_bias
    report(3, mean_bias <= -0.5, f"raw mean bias {mean_bias:+.4f} <= -0.5")


def test_criterion_4_glm_ordering(study220):
    rep, elapsed = study220
    motr = abs(rep.summary[Method.MOTR_GLM].mean_bias)
    pstn = abs(rep.summary[Method.PSTN_GLM].mean_bias)
    raw = abs(rep.summary[Method.RAW].mean_bias)
    ok = motr <= 0.15 and motr < pstn < raw and elapsed < 600.0
    report(
        4,
        ok,
        f"|motr_glm|={motr:.4f} <= 0.15 and |motr_glm| < |pstn_glm|={pstn:.4f} "
        f"< |raw|={raw:.4f} (study {elapsed:.0f}s < 600s)",
    )


def test_criterion_5_rf_ordering(study220):
    rep, elapsed = study220
    motr_glm = abs(rep.summary[Method.MOTR_GLM].mean_bias)
    motr_rf = abs(rep.summary[Method.MOTR_RF].mean_bias)
    pstn_rf = abs(rep.summary[Method.PSTN_RF].mean_bias)
    raw = abs(rep.summary[Method.RAW].mean_bias)
    ok = motr_rf > motr_glm and motr_rf < raw and pstn_rf < raw and elapsed < 1800.0
    report(
        5,
        ok,
        f"|motr_rf|={motr_rf:.4f} > |motr_glm|={motr_glm:.4f}; |motr_rf| < |raw|={raw:.4f}; "
        f"|pstn_rf|={pstn_rf:.4f} < |raw| (study {elapsed:.0f}s < 1800s)",
    )


def test_criterion_6_pstn_improves_with_sample_size(study220, study730):
    rep220, _ = study220
    small = abs(rep220.summary[Method.PSTN_GLM].mean_bias)
    large = abs(study730.summary[Method.PSTN_GLM].mean_bias)
    report(6, large < small, f"|pstn_glm bias| m=730 {large:.4f} < m=220 {small:.4f}")


def test_criterion_7_long_run_mean():
    t0 = time.time()
    arco, _ = default_study_params()
    prop = PropensityParams(alpha0=0.0, alpha_en=0.0, pi1=0.5)
    ds = simulate_dataset(
        arco, prop, SimConfig(m_analysis=1_000_000, burn_in=2, seed=ACCEPT_SEED, randomized_mode=True)
    )
    elapsed = time.time() - t0
    rel = abs(float(ds.y.mean()) - 12.75) / 12.75
    report(
        7,
        rel < 0.01 and elapsed < 5.0,
        f"randomized 10^6-period mean {ds.y.mean():.4f} within {rel:.3%} of 12.75 "
        f"({elapsed:.2f}s)",
    )


def test_criterion_8_single_dataset_reproduction():
    arco, prop = default_study_params()
    ds = simulate_dataset(arco, prop, SimConfig(m_analysis=220, seed=ACCEPT_SEED))
    opts = MethodOptions()
    seed = SeedSpec(ACCEPT_SEED)
    raw = apply_method(ds, Method.RAW, opts, seed)
    coef = apply_method(ds, Method.COEF, opts, seed)
    motr = apply_method(ds, Method.MOTR_GLM, opts, seed)
    pstn = apply_method(ds, Method.PSTN_GLM, opts, seed)
    ok = (
        coef.ci[0] < 1.1 < coef.ci[1]
        and motr.ci[0] < 1.1 < motr.ci[1]
        and raw.estimate < min(motr.estimate, pstn.estimate)
    )
    report(
        8,
        ok,
        f"coef CI ({coef.ci[0]:.3f}, {coef.ci[1]:.3f}) and motr_glm CI "
        f"({motr.ci[0]:.3f}, {motr.ci[1]:.3f}) cover 1.1; raw {raw.estimate:.3f} < "
        f"min(motr {motr.estimate:.3f}, pstn {pstn.estimate:.3f})",
    )


def test_criterion_9_micro_fixtures():
    # IRLS two-by-two log-odds to 1e-8
    w = np.array([0.0] * 40 + [1.0] * 40)
    x = np.array([1] * 10 + [0] * 30 + [1] * 30 + [0] * 10)
    spec = FeatureSpec(include_current_exposure=False, outcome_lag_mode=LAG_NONE, exog_names=("w",))
    logit = fit_logistic_propensity(TimeSeriesDataset(np.zeros(80), x, {"w": w}), spec)
    irls_ok = (
        abs(logit.coefficients["intercept"] - math.log(1 / 3)) < 1e-8
        and abs(logit.coefficients["w"] - math.log(9.0)) < 1e-8
    )

    # PSTn hand example to 1e-9
    pstn = pstn_from_propensities(
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([1, 0, 1, 0]),
        np.array([0.5, 0.25, 0.8, 0.5]),
        np.arange(1, 5),
        PstnConfig(trim_bounds=(0.0, 1.0), use_overlap=False),
    )
    pstn_ok = abs(pstn.delta - (-59.0 / 48.0)) < 1e-9

    # OLS two-point interpolation exact
    ospec = FeatureSpec(include_current_exposure=True, outcome_lag_mode=LAG_NONE)
    ols = fit_linear_outcome(TimeSeriesDataset(np.array([1.0, 3.0, 1.0, 3.0]), [0, 1, 0, 1]), ospec)
    ols_ok = (
        abs(ols.coefficients["intercept"] - 1.0) < 1e-12
        and abs(ols.coefficients["x"] - 2.0) < 1e-12
        and ols.resid_sd < 1e-12
    )
    report(
        9,
        irls_ok and pstn_ok and ols_ok,
        f"IRLS ({logit.coefficients['intercept']:.9f}, {logit.coefficients['w']:.9f}); "
        f"PSTn {pstn.delta:.10f} vs {-59 / 48:.10f}; OLS (1, 2) exact",
    )


def test_criterion_10_determinism(tmp_path):
    def run_twice(make_argv, read_names):
        blobs = []
        for tag in ("a", "b"):
            assert cli_main(make_argv(tag)) == 0
            blobs.append(b"".join((tmp_path / f"{tag}_{n}").read_bytes() for n in read_names))
        return blobs[0] == blobs[1]

    sim_ok = run_twice(
        lambda tag: ["simulate", "--seed", "3", "-o", str(tmp_path / f"{tag}_sim.csv")],
        ["sim.csv"],
    )

    data = tmp_path / "data.csv"
    assert cli_main(["simulate", "--m", "60", "--seed", "5", "-o", str(data)]) == 0
    analyze_ok = run_twice(
        lambda tag: ["analyze", "--data", str(data), "--method", "motr-glm",
                     "--r-max", "25", "--seed", "2", "-o", str(tmp_path / f"{tag}_motr.json")],
        ["motr.json"],
    )
    replicate_ok = run_twice(
        lambda tag: ["replicate", "--h-datasets", "2", "--m", "30",
                     "--methods", "raw,coef,pstn-glm", "--seed", "4",
                     "-o", str(tmp_path / f"{tag}_rep")],
        ["rep_rows.csv", "rep_summary.csv"],
    )
    oracle_ok = run_twice(
        lambda tag: ["oracle", "--m", "8", "--mode", "permutation", "--m1", "4",
                     "-o", str(tmp_path / f"{tag}_oracle.json")],
        ["oracle.json"],
    )
    report(
        10,
        sim_ok and analyze_ok and replicate_ok and oracle_ok,
        "byte-identical reruns for simulate, analyze, replicate, oracle",
    )
