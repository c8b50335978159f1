"""Replication study driver: six estimators over many synthetic datasets.

Generates H synthetic series, applies each requested estimation method, and
reports per-dataset empirical bias against the known effect plus a
cross-dataset mean-bias summary with a symmetric 95% interval.  Per-dataset
data and estimator failures are recorded and excluded from that method's
summary with a count rather than aborting the study; a configuration error
stops it.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtrit

from .arco import ArcoParams, PropensityParams, SimConfig, long_run_mean, simulate_dataset
from .core import FeatureSpec, SeedSpec, TimeSeriesDataset, as_seed, setting_names
from .errors import ConfigError, DataError, EstimatorError
from .models import FittedModel, ForestConfig, fit_forest, fit_glm
from .motr import ApteEstimate, MotrConfig, arm_contrast, run_motr
from .pstn import PstnConfig, PstnResult, run_pstn

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
        try:
            return cls(name.strip().lower().replace("-", "_"))
        except ValueError:
            raise ConfigError(f"unknown method {name!r}; choose from {[m.label for m in cls]}") from None

    @property
    def label(self) -> str:
        """The name as the CLI spells it, with hyphens."""
        return self.value.replace("_", "-")


ALL_METHODS = tuple(Method)

# The study's feature layout: outcome models see (X_t, Y_{t-1}), propensity models (Y_{t-1}).
OUTCOME_SPEC = FeatureSpec(include_current_exposure=True)


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
    """Per-method configuration shared by the CLI and the study driver.  The one
    feature layout, `outcome_spec`, is what coef and MoTR fit on, so it must hold
    the current exposure; PSTn fits on it without (`propensity_spec`)."""

    outcome_spec: FeatureSpec = OUTCOME_SPEC
    motr: MotrConfig = MotrConfig()
    pstn: PstnConfig = PstnConfig()
    forest: ForestConfig = ForestConfig()

    def __post_init__(self) -> None:
        if not self.outcome_spec.include_current_exposure:
            raise ConfigError("outcome_spec must include the current exposure")

    @property
    def propensity_spec(self) -> FeatureSpec:
        return replace(self.outcome_spec, include_current_exposure=False)

    def to_echo(self) -> dict:
        """The MoTR budget, PSTn hygiene and forest settings as flat key/value pairs."""
        configs = (self.motr, self.pstn, self.forest)
        echo = {n: getattr(c, n) for c in configs for n in setting_names(c)}
        echo["trim_lo"], echo["trim_hi"] = echo.pop("trim_bounds")
        return echo


@dataclass(frozen=True)
class PointEstimate:
    """The effect and its 95% interval: the result of raw and coef."""

    delta: float
    ci: tuple[float, float]

    def record(self) -> dict:
        """The analyze JSON's result."""
        return {"delta": self.delta, "ci": list(self.ci)}


@dataclass(frozen=True)
class ApplyResult:
    """One estimator's result on one dataset, with the twin it fitted (None for raw)."""

    detail: PointEstimate | ApteEstimate | PstnResult
    model: FittedModel | None = None


def estimate_raw(ds: TimeSeriesDataset) -> ApplyResult:
    """Difference of observed arm means with a Welch t 95% interval; an effect or
    bound past the float range raises EstimatorError."""
    with np.errstate(over="ignore"):
        delta, lo, hi = arm_contrast(ds.y[None], ds.x[None])[:3, 0].tolist()
    if not np.isfinite([delta, lo, hi]).all():
        raise EstimatorError(f"the arm contrast {delta} ({lo}, {hi}) overflows the float range")
    return ApplyResult(PointEstimate(delta, (lo, hi)))


def estimate_coef(ds: TimeSeriesDataset, spec: FeatureSpec) -> ApplyResult:
    """Exposure coefficient of the linear outcome fit on layout `spec`, with t interval."""
    model = fit_glm(ds, spec)
    est = model.coefficients["x"]
    se = model.coefficient_se["x"]
    df = ds.m - spec.needs_lag - len(model.coefficients)
    half = float(stdtrit(df, 0.975)) * se
    return ApplyResult(PointEstimate(est, (est - half, est + half)), model)


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
        return estimate_coef(ds, opts.outcome_spec)

    motr = method in (Method.MOTR_GLM, Method.MOTR_RF)
    spec = opts.outcome_spec if motr else opts.propensity_spec
    if method in (Method.MOTR_GLM, Method.PSTN_GLM):
        model = fit_glm(ds, spec)
    else:
        ns = _NS_FOREST_OUTCOME if motr else _NS_FOREST_PROPENSITY
        model = fit_forest(ds, spec, replace(opts.forest, seed=seed.child(ns)))
    if motr:
        motr_seed = seed.child(_NS_MOTR_GLM if method is Method.MOTR_GLM else _NS_MOTR_RF)
        # cfg by keyword: bench/spans.py's run_motr hook looks for it by name or as
        # argument 3, but run_motr takes it as argument 2
        return ApplyResult(run_motr(ds, model, cfg=replace(opts.motr, seed=motr_seed)), model)
    return ApplyResult(run_pstn(ds, model, opts.pstn), model)


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
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods repeat: {[m.value for m in self.methods]}")


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
    n: int
    failures: int


@dataclass(frozen=True)
class ReplicationReport:
    """Per-dataset estimates and biases plus cross-dataset summaries."""

    true_apte: float
    rows: tuple[ReplicationRow, ...]
    summary: dict[Method, MethodSummary]


def _dataset_for(study: StudyConfig, h: int) -> TimeSeriesDataset:
    seed = study.seed.child(h, _NS_SIM)
    cfg = SimConfig(m_analysis=study.m_analysis, burn_in=study.burn_in, seed=seed)
    return simulate_dataset(study.params, study.propensity, cfg)


def _run_one_dataset(study: StudyConfig, h: int) -> list[ReplicationRow]:
    ds = _dataset_for(study, h)
    seed = study.seed.child(h)
    true = study.params.beta_x
    rows = []
    for method in study.methods:
        try:
            delta = apply_method(ds, method, study.options, seed).detail.delta
            rows.append(ReplicationRow(h, method, delta, delta - true))
        except (DataError, EstimatorError) as exc:
            rows.append(ReplicationRow(h, method, None, None, error=str(exc)))
    return rows


def replicate(study: StudyConfig) -> ReplicationReport:
    """Generate H datasets, apply every requested method, summarize biases.

    Dataset h draws from seed sub-stream (h,); rows are sorted by
    (h, method) so the report is identical for any worker count.  Each
    requested forest's settings are resolved against its layout first.
    """
    for method, kind in ((Method.MOTR_RF, "outcome"), (Method.PSTN_RF, "propensity")):
        if method in study.methods:
            try:
                study.options.forest.resolve(getattr(study.options, f"{kind}_spec"))
            except ConfigError as exc:
                raise ConfigError(f"{method.label}: the {kind} forest: {exc}") from None
    handles = range(1, study.h_datasets + 1)
    workers = min(study.workers, study.h_datasets)  # a pool may start all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
