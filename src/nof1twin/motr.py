"""Model-twin randomization: simulate an n-of-1 trial with a fitted outcome model.

Each run permutes the observed exposure sequence, rolls the fitted model
forward sequentially (generated lagged outcomes feed the next period's
features; exogenous covariates keep their observed values), adds Gaussian
noise at the fitted residual scale, and contrasts the noisy predictions
between the permuted arms.  Runs accumulate into cumulative averages of the
effect and its per-run Welch interval bounds until a stopping rule fires.

Stream layout: run r draws from cfg.seed.child(r): first the permutation,
then (when resid_sd > 0) the m-1 noise variates via core.normals.
The residual scale is frozen from the original fit and never re-estimated
from generated data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import t as t_dist

from .core import (
    FeatureSpec,
    RolloutFeatureBuilder,
    SeedSpec,
    TimeSeriesDataset,
    as_seed,
    assemble_features,
    normals,
)
from .errors import ConfigError, EstimatorError
from .models import FittedModel

_BLOCK = 32


def welch_interval_from_moments(
    mean1: np.ndarray,
    var1: np.ndarray,
    n1: np.ndarray,
    mean0: np.ndarray,
    var0: np.ndarray,
    n0: np.ndarray,
    level: float = 0.95,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Welch t interval for mean1 - mean0.

    Inputs are sample means, ddof-1 variances, and counts.  Where the
    interval is undefined (an arm smaller than 2, or zero pooled standard
    error) the bounds collapse onto the point estimate and the degenerate
    mask is set.
    """
    mean1, var1, n1 = np.asarray(mean1, float), np.asarray(var1, float), np.asarray(n1, float)
    mean0, var0, n0 = np.asarray(mean0, float), np.asarray(var0, float), np.asarray(n0, float)
    delta = mean1 - mean0
    degenerate = (n1 < 2) | (n0 < 2)
    v1 = np.where(degenerate, np.nan, var1 / np.maximum(n1, 1))
    v0 = np.where(degenerate, np.nan, var0 / np.maximum(n0, 1))
    se = np.sqrt(v1 + v0)
    degenerate = degenerate | ~(se > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (v1 + v0) ** 2 / (v1**2 / (n1 - 1) + v0**2 / (n0 - 1))
        quant = t_dist.ppf(0.5 + level / 2.0, np.where(degenerate, 2.0, df))
        half = np.where(degenerate, 0.0, quant * se)
    return delta - half, delta + half, degenerate


@dataclass(frozen=True)
class MotrConfig:
    """Run budget and stopping rule for one invocation."""

    r_min: int = 10
    r_max: int = 200
    stop_tol: float = 1e-3
    stop_window: int = 5
    seed: SeedSpec | int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.r_min <= self.r_max:
            raise ConfigError(f"need 1 <= r_min <= r_max, got ({self.r_min}, {self.r_max})")
        if self.stop_tol <= 0 or self.stop_window < 1:
            raise ConfigError("stop_tol must be > 0 and stop_window >= 1")
        object.__setattr__(self, "seed", as_seed(self.seed))


@dataclass(frozen=True)
class MotrRun:
    """One randomization run: permuted exposures, noisy rollout, arm contrast."""

    r: int
    permuted_x: np.ndarray
    noisy_preds: np.ndarray  # generated periods t = 2..m
    mean_po_1: float
    mean_po_0: float
    delta: float
    ci: tuple[float, float]
    degenerate_ci: bool


@dataclass(frozen=True)
class ApteEstimate:
    """Cumulative effect estimate with its run trajectory and diagnostics."""

    delta: float
    ci: tuple[float, float]
    runs_used: int
    trajectory: tuple[tuple[float, float, float], ...]  # (delta, lo, hi) per run
    mean_po_1: float
    mean_po_0: float
    degenerate_ci: bool = False


class _Rollout:
    """Shared rollout engine over a block of exposure sequences.

    The first observed outcome seeds the lagged-outcome feature for t = 2;
    the t = 2 exposure lag comes from the permuted sequence itself (period 1
    contributes its permuted exposure only as a lag).  Generated periods
    t = 2..m enter the potential-outcome averages.
    """

    def __init__(self, ds: TimeSeriesDataset, model: FittedModel, spec: FeatureSpec):
        if not model.is_outcome:
            raise EstimatorError(
                f"MoTR needs an outcome model, got a {model.kind} propensity model"
            )
        if tuple(model.columns) != spec.columns:
            raise EstimatorError(
                f"model was fitted on columns {tuple(model.columns)} but the feature "
                f"spec defines {spec.columns}"
            )
        fm = assemble_features(ds, spec)
        self.builder = RolloutFeatureBuilder(fm, ds.exog_matrix(spec.exog_names))
        self.model = model
        self.spec = spec
        self.m = ds.m
        self.y1 = float(ds.y[0])

    def generate(self, xb: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Noisy sequential predictions for periods 2..m; xb is (runs, m)."""
        b = xb.shape[0]
        preds = np.empty((b, self.m - 1))
        y_lag = np.full(b, self.y1)
        for t in range(2, self.m + 1):
            f = self.builder.build(
                t,
                x_t=xb[:, t - 1],
                x_lag=xb[:, t - 2] if self.spec.use_exposure_lag1 else None,
                y_lag=y_lag,
            )
            y_t = self.model.predict(f) + noise[:, t - 2]
            preds[:, t - 2] = y_t
            y_lag = y_t
        return preds


def _arm_stats(preds: np.ndarray, xb: np.ndarray):
    """Per-run arm means/variances over the generated periods."""
    xg = xb[:, 1:].astype(float)
    n1 = xg.sum(axis=1)
    n0 = xg.shape[1] - n1
    if np.any(n1 == 0) or np.any(n0 == 0):
        raise EstimatorError(
            "a permuted sequence left one exposure arm empty over the generated periods"
        )
    s1 = (preds * xg).sum(axis=1)
    s0 = (preds * (1.0 - xg)).sum(axis=1)
    mean1 = s1 / n1
    mean0 = s0 / n0
    with np.errstate(invalid="ignore", divide="ignore"):
        var1 = ((preds - mean1[:, None]) ** 2 * xg).sum(axis=1) / (n1 - 1)
        var0 = ((preds - mean0[:, None]) ** 2 * (1.0 - xg)).sum(axis=1) / (n0 - 1)
    return mean1, var1, n1, mean0, var0, n0


def run_motr_once(
    ds: TimeSeriesDataset,
    model: FittedModel,
    spec: FeatureSpec,
    permuted_x: np.ndarray,
    noise: np.ndarray | None = None,
    r: int = 0,
) -> MotrRun:
    """Execute a single run under an explicitly supplied permutation.

    `noise` defaults to zeros, which makes the run a deterministic function
    of the permutation, the form used when cross-checking against exact
    enumeration.
    """
    engine = _Rollout(ds, model, spec)
    xb = np.asarray(permuted_x, dtype=np.int64).reshape(1, -1)
    if xb.shape[1] != ds.m or sorted(xb[0].tolist()) != sorted(ds.x.tolist()):
        raise EstimatorError("permuted_x must be a permutation of the observed exposures")
    nz = np.zeros((1, ds.m - 1)) if noise is None else np.asarray(noise, float).reshape(1, -1)
    preds = engine.generate(xb, nz)
    mean1, var1, n1, mean0, var0, n0 = _arm_stats(preds, xb)
    lo, hi, degen = welch_interval_from_moments(mean1, var1, n1, mean0, var0, n0)
    return MotrRun(
        r=r,
        permuted_x=xb[0],
        noisy_preds=preds[0],
        mean_po_1=float(mean1[0]),
        mean_po_0=float(mean0[0]),
        delta=float(mean1[0] - mean0[0]),
        ci=(float(lo[0]), float(hi[0])),
        degenerate_ci=bool(degen[0]),
    )


def run_motr(
    ds: TimeSeriesDataset,
    model: FittedModel,
    spec: FeatureSpec,
    cfg: MotrConfig,
) -> ApteEstimate:
    """Run the model twin through permutation runs until the estimate settles.

    Stops at the first run r >= max(r_min, stop_window + 1) where all three
    cumulative series (effect, lower bound, upper bound) changed by less
    than stop_tol at each of the last stop_window runs, or at r_max.
    """
    if ds.m < 3:
        raise EstimatorError(f"randomization needs at least 3 periods, got {ds.m}")
    if ds.x.min() == ds.x.max():
        raise EstimatorError("observed exposure sequence has a single class")
    m1 = int(ds.x.sum())
    if min(m1, ds.m - m1) < 2:
        raise EstimatorError(
            f"randomization needs at least 2 periods in each exposure arm, got "
            f"{m1} exposed and {ds.m - m1} unexposed"
        )
    engine = _Rollout(ds, model, spec)
    seed = as_seed(cfg.seed)
    m = ds.m
    x_obs = ds.x

    deltas: list[float] = []
    los: list[float] = []
    his: list[float] = []
    mean1s: list[float] = []
    mean0s: list[float] = []
    cum_d: list[float] = []
    cum_lo: list[float] = []
    cum_hi: list[float] = []
    any_degenerate = False

    def stopped(r: int) -> bool:
        if r < max(cfg.r_min, cfg.stop_window + 1):
            return False
        for series in (cum_d, cum_lo, cum_hi):
            recent = series[r - cfg.stop_window - 1 : r]
            if max(abs(b - a) for a, b in zip(recent, recent[1:])) >= cfg.stop_tol:
                return False
        return True

    r = 0
    while r < cfg.r_max:
        block = min(_BLOCK, cfg.r_max - r)
        xb = np.empty((block, m), dtype=np.int64)
        noise = np.zeros((block, m - 1))
        for j in range(block):
            rng = seed.child(r + 1 + j).generator()
            xb[j] = x_obs[rng.permutation(m)]
            if model.resid_sd > 0:
                noise[j] = normals(rng, m - 1, model.resid_sd)
        preds = engine.generate(xb, noise)
        mean1, var1, n1, mean0, var0, n0 = _arm_stats(preds, xb)
        lo, hi, degen = welch_interval_from_moments(mean1, var1, n1, mean0, var0, n0)
        delta = mean1 - mean0
        stop_at = None
        for j in range(block):
            r += 1
            any_degenerate = any_degenerate or bool(degen[j])
            deltas.append(float(delta[j]))
            los.append(float(lo[j]))
            his.append(float(hi[j]))
            mean1s.append(float(mean1[j]))
            mean0s.append(float(mean0[j]))
            cum_d.append(float(np.mean(deltas)))
            cum_lo.append(float(np.mean(los)))
            cum_hi.append(float(np.mean(his)))
            if stopped(r):
                stop_at = r
                break
        if stop_at is not None:
            break

    runs_used = r
    trajectory = tuple(zip(cum_d[:runs_used], cum_lo[:runs_used], cum_hi[:runs_used]))
    return ApteEstimate(
        delta=cum_d[runs_used - 1],
        ci=(cum_lo[runs_used - 1], cum_hi[runs_used - 1]),
        runs_used=runs_used,
        trajectory=trajectory,
        mean_po_1=float(np.mean(mean1s[:runs_used])),
        mean_po_0=float(np.mean(mean0s[:runs_used])),
        degenerate_ci=any_degenerate,
    )
