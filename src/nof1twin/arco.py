"""Autoregressive-carryover outcome process: simulation and long-run formulas.

The structural outcome mechanism at period t > 1 is, for exposure level s:

    Y^s_t = beta0 + beta_x*s + beta_co*X_{t-1} + beta_xco*s*X_{t-1}
            + beta_ar*Y_{t-1} + beta_xar*s*Y_{t-1} + V_t . beta_ex + eps_t

with Y_1 = beta0 + V_1 . beta_ex + eps_1.  The observed outcome follows by
causal consistency, Y_t = Y^1_t X_t + Y^0_t (1 - X_t).  Exposure is either
i.i.d. Bernoulli(pi1) (randomized mode) or endogenous through
logit(pi_t) = alpha0 + alpha_en*Y_{t-1} [+ alpha_ar*X_{t-1} + V_t . alpha_ex].
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import SeedSpec, TimeSeriesDataset, as_seed, validate_finite
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
    beta_ex: tuple[float, ...] = ()
    sigma_eps: float = 0.0

    def __post_init__(self) -> None:
        for name in ("beta0", "beta_x", "beta_co", "beta_xco", "beta_ar", "beta_xar", "sigma_eps"):
            validate_finite(name, getattr(self, name))
        object.__setattr__(self, "beta_ex", tuple(float(b) for b in self.beta_ex))
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
    alpha_ex: tuple[float, ...] = ()
    pi1: float = 0.5

    def __post_init__(self) -> None:
        for name in ("alpha0", "alpha_en", "alpha_ar", "pi1"):
            validate_finite(name, getattr(self, name))
        object.__setattr__(self, "alpha_ex", tuple(float(a) for a in self.alpha_ex))
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


def _exog_matrix(
    params: ArcoParams,
    prop: PropensityParams,
    exog: Mapping[str, np.ndarray] | None,
    total: int,
) -> tuple[tuple[str, ...], np.ndarray]:
    names = tuple(exog.keys()) if exog else ()
    for label, coefs in (("beta_ex", params.beta_ex), ("alpha_ex", prop.alpha_ex)):
        if len(coefs) not in (0, len(names)):
            raise ConfigError(
                f"{label} has {len(coefs)} entries but {len(names)} exogenous series were supplied"
            )
    if not names:
        return (), np.zeros((total, 0))
    mat = np.column_stack([np.asarray(exog[n], dtype=float) for n in names])
    if mat.shape[0] != total:
        raise ConfigError(
            f"exogenous series must cover all {total} generated periods, got {mat.shape[0]}"
        )
    return names, mat


def simulate_dataset(
    params: ArcoParams,
    prop: PropensityParams,
    cfg: SimConfig,
    exog: Mapping[str, np.ndarray] | None = None,
    return_potential: bool = False,
):
    """Generate one synthetic series and drop the leading burn-in periods.

    Both potential outcomes are generated at every period from a shared
    noise draw and the observed outcome is selected by causal consistency.
    With `return_potential=True` the retained (y1, y0) arrays are returned
    alongside the dataset for verification.
    """
    total = cfg.m_analysis + cfg.burn_in
    names, v = _exog_matrix(params, prop, exog, total)
    v_out = v @ np.asarray(params.beta_ex) if params.beta_ex else np.zeros(total)
    v_prop = v @ np.asarray(prop.alpha_ex) if prop.alpha_ex else np.zeros(total)

    seed = as_seed(cfg.seed)
    eps = seed.child(_EPS_STREAM).normals(total, params.sigma_eps)
    u = seed.child(_X_STREAM).uniforms(total).tolist()
    p, vo, vp, e = params, v_out.tolist(), v_prop.tolist(), eps.tolist()
    xs = [int(u[0] < prop.pi1)]
    ys = [p.beta0 + vo[0] + e[0]]
    for t in range(1, total):
        xl, yl = xs[-1], ys[-1]
        if cfg.randomized_mode:
            xs.append(int(u[t] < prop.pi1))
        else:
            eta = prop.alpha0 + prop.alpha_en * yl + prop.alpha_ar * xl + vp[t]
            xs.append(int(u[t] < expit(eta)))
        common = p.beta0 + p.beta_co * xl + p.beta_ar * yl + vo[t] + e[t]
        ys.append(common + p.beta_x + p.beta_xco * xl + p.beta_xar * yl if xs[-1] else common)
    x = np.array(xs, dtype=np.int64)
    y = np.array(ys)
    # Both potential outcomes, rebuilt with the loop's arithmetic; a diverging
    # series overflows here, and the finiteness check below names the period.
    xl, yl = x[:-1], y[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        common = p.beta0 + p.beta_co * xl + p.beta_ar * yl + v_out[1:] + eps[1:]
        po0 = np.concatenate([y[:1], common])
        po1 = np.concatenate([y[:1], common + p.beta_x + p.beta_xco * xl + p.beta_xar * yl])

    finite = np.isfinite(y) & np.isfinite(po1) & np.isfinite(po0)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0]) + 1
        raise ConfigError(
            f"simulated outcome is not finite at period {bad} of {total} (burn-in included); "
            "the parameters make the series diverge"
        )
    if not np.array_equal(y, po1 * x + po0 * (1 - x)):
        raise RuntimeError("simulated outcomes violate causal consistency")
    keep = slice(cfg.burn_in, total)
    ds = TimeSeriesDataset(
        y=y[keep],
        x=x[keep],
        exog={n: v[keep, k] for k, n in enumerate(names)} or None,
    )
    if return_potential:
        return ds, po1[keep].copy(), po0[keep].copy()
    return ds


def long_run_mean(params: ArcoParams, pi: float, mu_v: tuple[float, ...] = ()) -> float:
    """Stationary mean outcome under period-wise randomization P(X=1) = pi."""
    params.require_stationary()
    if not 0.0 <= pi <= 1.0:
        raise ConfigError(f"pi must lie in [0, 1], got {pi}")
    if len(mu_v) != len(params.beta_ex):
        raise ConfigError(
            f"mu_v has {len(mu_v)} entries but beta_ex has {len(params.beta_ex)}"
        )
    denom = 1.0 - params.beta_ar - params.beta_xar * pi
    if denom <= 0:
        raise NonstationaryParamsError(
            f"long-run mean undefined: 1 - beta_ar - beta_xar*pi = {denom} <= 0"
        )
    numer = (
        params.beta0
        + params.beta_x * pi
        + params.beta_co * pi
        + params.beta_xco * pi * pi
        + float(np.dot(mu_v, params.beta_ex))
    )
    return numer / denom


def long_run_apte(params: ArcoParams, pi: float, mu_y: float) -> float:
    """Stationary average period treatment effect under randomization."""
    params.require_stationary()
    if not 0.0 <= pi <= 1.0:
        raise ConfigError(f"pi must lie in [0, 1], got {pi}")
    return params.beta_x + params.beta_xco * pi + params.beta_xar * mu_y
