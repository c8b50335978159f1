"""Replication study driver: six estimators over many synthetic datasets.

Generates H synthetic series, applies each requested estimation method, and
reports per-dataset empirical bias against the known effect plus a
cross-dataset mean-bias summary with a symmetric 95% interval.  Per-dataset
estimator failures are recorded and excluded from that method's summary
with a count rather than aborting the study.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtrit

from .arco import ArcoParams, PropensityParams, SimConfig, long_run_mean, simulate_dataset
from .core import (
    LAG_CONTINUOUS,
    FeatureSpec,
    SeedSpec,
    TimeSeriesDataset,
    as_seed,
    assemble_features,
)
from .errors import ConfigError, EstimatorError, Nof1TwinError
from .models import (
    ForestConfig,
    fit_forest_outcome,
    fit_forest_propensity,
    fit_linear_outcome,
    fit_logistic_propensity,
)
from .motr import MotrConfig, run_motr, welch_interval_from_moments
from .pstn import PstnConfig, run_pstn

# Sub-stream labels under one dataset's SeedSpec.
_NS_SIM = 0
_NS_MOTR_GLM = 1
_NS_MOTR_RF = 2
_NS_FOREST_OUTCOME = 3
_NS_FOREST_PROPENSITY = 4


class Method(str, enum.Enum):
    """The closed set of estimation methods."""

    RAW = "raw"
    COEF = "coef"
    MOTR_GLM = "motr_glm"
    PSTN_GLM = "pstn_glm"
    MOTR_RF = "motr_rf"
    PSTN_RF = "pstn_rf"

    @classmethod
    def parse(cls, name: str) -> "Method":
        key = name.strip().lower().replace("-", "_")
        for member in cls:
            if member.value == key:
                return member
        raise ConfigError(f"unknown method {name!r}; choose from {[m.value for m in cls]}")


ALL_METHODS = tuple(Method)

# Feature layouts used by the study: outcome models see (X_t, Y_{t-1}),
# propensity models see (Y_{t-1}).
OUTCOME_SPEC = FeatureSpec(include_current_exposure=True, outcome_lag_mode=LAG_CONTINUOUS)
PROPENSITY_SPEC = FeatureSpec(include_current_exposure=False, outcome_lag_mode=LAG_CONTINUOUS)


def default_study_params() -> tuple[ArcoParams, PropensityParams]:
    """Simulation preset for the replication study.

    Outcome mechanism: level 2.0, exposure effect 1.1, AR coefficient 0.8,
    noise SD 0.5, first-period exposure probability 0.5.  The endogenous
    exposure log-odds sit at -0.25 when the previous outcome is at its
    long-run level and drop by 1.25 for every stationary standard deviation
    the outcome rises above it, so both arms stay populated while high
    recent outcomes suppress exposure, the confounding direction that
    attenuates the raw arm contrast.
    """
    params = ArcoParams(beta0=2.0, beta_x=1.1, beta_ar=0.8, sigma_eps=0.5)
    pi = 0.5
    level = long_run_mean(params, pi=pi)  # 12.75
    # stationary SD of the outcome under randomized Bernoulli(pi) exposure
    scale = np.sqrt(
        (params.beta_x**2 * pi * (1 - pi) + params.sigma_eps**2) / (1 - params.beta_ar**2)
    )
    alpha_en = -1.25 / float(scale)
    alpha0 = -0.25 - alpha_en * level
    return params, PropensityParams(alpha0=alpha0, alpha_en=alpha_en, pi1=pi)


@dataclass(frozen=True)
class MethodOptions:
    """Per-method configuration shared by the CLI and the study driver."""

    outcome_spec: FeatureSpec = OUTCOME_SPEC
    propensity_spec: FeatureSpec = PROPENSITY_SPEC
    motr: MotrConfig = MotrConfig()
    pstn: PstnConfig = PstnConfig()
    forest: ForestConfig = ForestConfig()

    def to_echo(self) -> dict:
        """The MoTR budget, PSTn hygiene and forest settings as flat key/value pairs."""
        motr, pstn, forest = self.motr, self.pstn, self.forest
        return {
            "r_min": motr.r_min,
            "r_max": motr.r_max,
            "stop_tol": motr.stop_tol,
            "stop_window": motr.stop_window,
            "trim_lo": pstn.trim_bounds[0],
            "trim_hi": pstn.trim_bounds[1],
            "use_overlap": pstn.use_overlap,
            "use_stabilized": pstn.use_stabilized,
            "n_trees": forest.n_trees,
            "mtry": forest.mtry,
            "min_node_size": forest.min_node_size,
        }


@dataclass(frozen=True)
class ApplyResult:
    """One estimator's output on one dataset."""

    method: Method
    estimate: float
    ci: tuple[float, float] | None
    detail: object = None
    model_summary: dict | None = None


def estimate_raw(ds: TimeSeriesDataset) -> ApplyResult:
    """Difference of observed arm means with a Welch t 95% interval."""
    y1 = ds.y[ds.x == 1]
    y0 = ds.y[ds.x == 0]
    if len(y1) == 0 or len(y0) == 0:
        counts = {1: len(y1), 0: len(y0)}
        raise EstimatorError(f"raw comparison needs both arms, got counts {counts}")
    lo, hi, _ = welch_interval_from_moments(
        y1.mean(),
        y1.var(ddof=1) if len(y1) > 1 else 0.0,
        len(y1),
        y0.mean(),
        y0.var(ddof=1) if len(y0) > 1 else 0.0,
        len(y0),
    )
    return ApplyResult(Method.RAW, float(y1.mean() - y0.mean()), (float(lo), float(hi)))


def estimate_coef(ds: TimeSeriesDataset) -> ApplyResult:
    """Exposure coefficient of the linear lag-1 outcome fit, with t interval."""
    fm = assemble_features(ds, OUTCOME_SPEC)
    model = fit_linear_outcome(fm, ds.y[fm.dropped_head:])
    est = model.coefficients["x"]
    se = model.coefficient_se["x"]
    df = fm.n_rows - len(model.coefficients)
    half = float(stdtrit(df, 0.975)) * se
    return ApplyResult(Method.COEF, est, (est - half, est + half), model_summary=model.summary())


def apply_method(
    ds: TimeSeriesDataset,
    method: Method,
    opts: MethodOptions,
    seed: SeedSpec,
) -> ApplyResult:
    """Run one estimation method against one dataset.

    Randomized components draw from sub-streams of `seed` so method results
    are independent of which other methods run.
    """
    if method is Method.RAW:
        return estimate_raw(ds)
    if method is Method.COEF:
        return estimate_coef(ds)

    if method in (Method.MOTR_GLM, Method.MOTR_RF):
        spec = opts.outcome_spec
        fm = assemble_features(ds, spec)
        y = ds.y[fm.dropped_head:]
        if method is Method.MOTR_GLM:
            model = fit_linear_outcome(fm, y)
            motr_seed = seed.child(_NS_MOTR_GLM)
        else:
            fc = replace(opts.forest, seed=seed.child(_NS_FOREST_OUTCOME))
            model = fit_forest_outcome(fm, y, fc)
            motr_seed = seed.child(_NS_MOTR_RF)
        est = run_motr(ds, model, spec, replace(opts.motr, seed=motr_seed))
        return ApplyResult(method, est.delta, est.ci, detail=est, model_summary=model.summary())

    spec = opts.propensity_spec
    fm = assemble_features(ds, spec)
    x = ds.x[fm.dropped_head:]
    if method is Method.PSTN_GLM:
        model = fit_logistic_propensity(fm, x)
    else:
        fc = replace(opts.forest, seed=seed.child(_NS_FOREST_PROPENSITY))
        model = fit_forest_propensity(fm, x, fc)
    res = run_pstn(ds, model, spec, opts.pstn)
    return ApplyResult(method, res.delta, None, detail=res, model_summary=model.summary())


@dataclass(frozen=True)
class StudyConfig:
    """Specification of one replication study."""

    h_datasets: int
    m_analysis: int
    params: ArcoParams
    propensity: PropensityParams
    methods: tuple[Method, ...] = ALL_METHODS
    burn_in: int = 2
    seed: SeedSpec | int = 0
    options: MethodOptions = field(default_factory=MethodOptions)
    workers: int = 1

    def __post_init__(self) -> None:
        if self.h_datasets < 2:
            raise ConfigError(f"a study needs at least 2 datasets, got {self.h_datasets}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for name in ("beta_xco", "beta_xar"):
            value = getattr(self.params, name)
            if value != 0.0:
                raise ConfigError(
                    f"{name}={value}: biases are measured against beta_x, the average "
                    "period treatment effect only without interaction terms"
                )
        object.__setattr__(self, "seed", as_seed(self.seed))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class ReplicationRow:
    h: int
    method: Method
    estimate: float | None
    bias: float | None
    error: str | None = None


@dataclass(frozen=True)
class MethodSummary:
    method: Method
    mean_bias: float
    ci_lo: float
    ci_hi: float
    n_datasets: int
    failures: int


@dataclass(frozen=True)
class ReplicationReport:
    """Per-dataset estimates and biases plus cross-dataset summaries."""

    true_apte: float
    rows: tuple[ReplicationRow, ...]
    summary: dict[Method, MethodSummary]

    def biases(self, method: Method) -> np.ndarray:
        return np.array(
            [r.bias for r in self.rows if r.method is method and r.error is None], dtype=float
        )


def _dataset_for(study: StudyConfig, h: int) -> TimeSeriesDataset:
    seed = as_seed(study.seed).child(h, _NS_SIM)
    cfg = SimConfig(m_analysis=study.m_analysis, burn_in=study.burn_in, seed=seed)
    return simulate_dataset(study.params, study.propensity, cfg)


def _run_one_dataset(study: StudyConfig, h: int) -> list[ReplicationRow]:
    ds = _dataset_for(study, h)
    seed = as_seed(study.seed).child(h)
    true = study.params.beta_x
    rows = []
    for method in study.methods:
        try:
            res = apply_method(ds, method, study.options, seed)
            rows.append(ReplicationRow(h, method, res.estimate, res.estimate - true))
        except Nof1TwinError as exc:
            rows.append(ReplicationRow(h, method, None, None, error=str(exc)))
    return rows


def replicate(study: StudyConfig) -> ReplicationReport:
    """Generate H datasets, apply every requested method, summarize biases.

    Dataset h draws from seed sub-stream (h,); rows are sorted by
    (h, method) so the report is identical for any worker count.
    """
    handles = range(1, study.h_datasets + 1)
    if study.workers > 1:
        with ProcessPoolExecutor(max_workers=study.workers) as pool:
            chunks = list(pool.map(_run_one_dataset, [study] * len(handles), handles))
    else:
        chunks = [_run_one_dataset(study, h) for h in handles]
    order = {m: i for i, m in enumerate(study.methods)}
    rows = sorted(
        (row for chunk in chunks for row in chunk), key=lambda r: (r.h, order[r.method])
    )

    summary: dict[Method, MethodSummary] = {}
    for method in study.methods:
        biases = [r.bias for r in rows if r.method is method and r.error is None]
        failures = sum(1 for r in rows if r.method is method and r.error is not None)
        arr = np.asarray(biases, dtype=float)
        n = len(arr)
        if n == 0:
            summary[method] = MethodSummary(method, float("nan"), float("nan"), float("nan"), 0, failures)
            continue
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if n > 1 else 0.0
        half = 1.96 * sd / np.sqrt(n)
        summary[method] = MethodSummary(method, mean, mean - half, mean + half, n, failures)

    return ReplicationReport(
        true_apte=study.params.beta_x,
        rows=tuple(rows),
        summary=summary,
    )
