"""Autoregressive-carryover outcome process: simulation and long-run formulas.

The structural outcome mechanism at period t > 1 is, for exposure level s:

    Y^s_t = beta0 + beta_x*s + beta_co*X_{t-1} + beta_xco*s*X_{t-1}
            + beta_ar*Y_{t-1} + beta_xar*s*Y_{t-1} + eps_t

with Y_1 = beta0 + eps_1.  The observed outcome follows by causal
consistency, Y_t = Y^1_t X_t + Y^0_t (1 - X_t).  Exposure is either i.i.d.
Bernoulli(pi1) (randomized mode) or endogenous through
logit(pi_t) = alpha0 + alpha_en*Y_{t-1} + alpha_ar*X_{t-1}.  The mechanism
has no exogenous covariates, so a simulated dataset carries none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import expit

from .core import SeedSpec, TimeSeriesDataset, as_seed, normals, validate_finite
from .errors import ConfigError, NonstationaryParamsError

# Sub-stream labels under a simulation SeedSpec.
_EPS_STREAM = 0
_X_STREAM = 1


@dataclass(frozen=True)
class ArcoParams:
    """Coefficients of the structural outcome mechanism."""

    beta0: float
    beta_x: float = 0.0
    beta_co: float = 0.0
    beta_xco: float = 0.0
    beta_ar: float = 0.0
    beta_xar: float = 0.0
    sigma_eps: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            validate_finite(field.name, getattr(self, field.name))
        if self.sigma_eps < 0:
            raise ConfigError(f"sigma_eps must be >= 0, got {self.sigma_eps}")

    def require_stationary(self) -> None:
        if abs(self.beta_ar) >= 1 or abs(self.beta_ar) + abs(self.beta_xar) >= 1:
            raise NonstationaryParamsError(
                "long-run formulas need |beta_ar| < 1 and |beta_ar| + |beta_xar| < 1 "
                f"(got beta_ar={self.beta_ar}, beta_xar={self.beta_xar})"
            )


@dataclass(frozen=True)
class PropensityParams:
    """Coefficients of the logistic exposure mechanism."""

    alpha0: float
    alpha_en: float
    alpha_ar: float = 0.0
    pi1: float = 0.5

    def __post_init__(self) -> None:
        for field in fields(self):
            validate_finite(field.name, getattr(self, field.name))
        if not 0.0 < self.pi1 < 1.0:
            raise ConfigError(f"pi1 must lie strictly between 0 and 1, got {self.pi1}")


@dataclass(frozen=True)
class SimConfig:
    """Length, burn-in, seeding, and assignment mode for one simulated series."""

    m_analysis: int
    burn_in: int = 2
    seed: SeedSpec | int = 0
    randomized_mode: bool = False

    def __post_init__(self) -> None:
        if self.m_analysis < 10:
            raise ConfigError(f"m_analysis must be >= 10, got {self.m_analysis}")
        if self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        object.__setattr__(self, "seed", as_seed(self.seed))


def simulate_dataset(params: ArcoParams, prop: PropensityParams, cfg: SimConfig) -> TimeSeriesDataset:
    """Generate one synthetic series and drop the leading burn-in periods.

    Both potential outcomes are generated at every period from a shared
    noise draw and the observed outcome is selected by causal consistency.
    """
    total = cfg.m_analysis + cfg.burn_in
    u_eps, u = (rng.random(total) for rng in cfg.seed.children((_EPS_STREAM, _X_STREAM)))
    with np.errstate(over="ignore"):  # a huge sigma_eps overflows here; the loop names the period
        e = normals(u_eps, params.sigma_eps).tolist()
    p, u = params, u.tolist()
    xs = [int(u[0] < prop.pi1)]
    ys = [p.beta0 + e[0]]
    for t in range(1, total):
        xl, yl = xs[-1], ys[-1]
        eta = prop.alpha0 + prop.alpha_en * yl + prop.alpha_ar * xl
        xs.append(int(u[t] < (prop.pi1 if cfg.randomized_mode else expit(eta))))
        po0 = p.beta0 + p.beta_co * xl + p.beta_ar * yl + e[t]
        po1 = po0 + p.beta_x + p.beta_xco * xl + p.beta_xar * yl
        # Python floats overflow to inf without a warning; a non-finite lag (period t) taints po0
        if not (math.isfinite(po0) and math.isfinite(po1)):
            raise ConfigError(
                f"simulated outcome is not finite at period {t + 1 if math.isfinite(yl) else t} "
                f"of {total} (burn-in included); the parameters make the series diverge"
            )
        ys.append(po1 if xs[-1] else po0)
    keep = slice(cfg.burn_in, total)
    return TimeSeriesDataset(y=np.array(ys)[keep], x=np.array(xs, dtype=np.int64)[keep])


def long_run_mean(params: ArcoParams, pi: float) -> float:
    """Stationary mean outcome under period-wise randomization P(X=1) = pi."""
    params.require_stationary()
    if not 0.0 <= pi <= 1.0:
        raise ConfigError(f"pi must lie in [0, 1], got {pi}")
    denom = 1.0 - params.beta_ar - params.beta_xar * pi
    if denom <= 0:
        raise NonstationaryParamsError(
            f"long-run mean undefined: 1 - beta_ar - beta_xar*pi = {denom} <= 0"
        )
    numer = params.beta0 + params.beta_x * pi + params.beta_co * pi + params.beta_xco * pi * pi
    return numer / denom


def long_run_apte(params: ArcoParams, pi: float, mu_y: float) -> float:
    """Stationary average period treatment effect under randomization."""
    params.require_stationary()
    if not 0.0 <= pi <= 1.0:
        raise ConfigError(f"pi must lie in [0, 1], got {pi}")
    return params.beta_x + params.beta_xco * pi + params.beta_xar * mu_y
