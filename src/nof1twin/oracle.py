"""Exact enumeration of small noise-free linear systems.

This is the anti-drift ground truth for the randomization estimator: every
admissible exposure sequence is enumerated, potential outcomes are rolled
forward recursively with the noise term at zero (valid because the mechanism
is linear in the noise), and contemporaneous average potential outcomes are
combined into the exact effect.

Two history laws are supported:

* ``iid``: histories weighted by Bernoulli(pi) products, the current slot
  forced to each exposure level.  This is the randomized-experiment average
  effect, with contrasts averaged over the generated periods t = 2..m.
* ``permutation``: histories weighted uniformly over all fixed-margin
  arrangements, with per-period averages normalized by each sequence's
  realized arm sizes over the generated periods.  This matches the
  randomization estimator's arm means exactly, so the two routes can be
  compared at 1e-10 while remaining independently implemented.

Sums are accumulated with numpy's pairwise summation, so results are
invariant to enumeration order at the 1e-12 level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .arco import ArcoParams
from .core import validate_finite
from .errors import ConfigError, EstimatorError

MODE_PERMUTATION = "permutation"
MODE_IID = "iid"

MAX_M_PERMUTATION = 12
MAX_M_IID = 20


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: length, history law, coefficients, initial level.

    ``y_init`` seeds the lagged outcome for generating t = 2 (the same
    convention as the randomization estimator's rollouts); when omitted it
    defaults to the mechanism's noise-free first-period level ``beta0`` (plus
    any exogenous contribution).
    """

    m: int
    mode: str
    params: ArcoParams
    m1: int | None = None
    pi: float | None = None
    y_init: float | None = None
    exog_effect: tuple[float, ...] | None = None  # per-period V_t . beta_ex, length m

    def __post_init__(self) -> None:
        if self.mode not in (MODE_PERMUTATION, MODE_IID):
            raise ConfigError(f"mode must be {MODE_PERMUTATION!r} or {MODE_IID!r}")
        if self.params.sigma_eps != 0.0:
            raise ConfigError("enumeration requires sigma_eps = 0 (expectations at the mean)")
        if self.mode == MODE_PERMUTATION:
            if not 2 <= self.m <= MAX_M_PERMUTATION:
                raise ConfigError(f"permutation mode supports 2 <= m <= {MAX_M_PERMUTATION}")
            if self.m1 is None or not 2 <= self.m1 <= self.m - 2:
                raise ConfigError(
                    "permutation mode needs 2 <= m1 <= m-2 so every arrangement keeps "
                    "both arms populated over the generated periods"
                )
        else:
            if not 2 <= self.m <= MAX_M_IID:
                raise ConfigError(f"iid mode supports 2 <= m <= {MAX_M_IID}")
            if self.pi is None or not 0.0 <= self.pi <= 1.0:
                raise ConfigError("iid mode needs pi in [0, 1]")
        if self.exog_effect is not None and len(self.exog_effect) != self.m:
            raise ConfigError("exog_effect must supply one value per period")
        if self.y_init is not None:
            validate_finite("y_init", self.y_init)
        for value in self.exog_effect or ():
            validate_finite("exog_effect", value)

    def v_effect(self) -> np.ndarray:
        if self.exog_effect is None:
            return np.zeros(self.m)
        return np.asarray(self.exog_effect, dtype=float)

    def initial_level(self) -> float:
        if self.y_init is not None:
            return float(self.y_init)
        return self.params.beta0 + float(self.v_effect()[0])


def _po(params: ArcoParams, s: float, x_prev: np.ndarray, y_prev: np.ndarray, v_t: float):
    """Potential outcome at exposure level s given the previous period's state."""
    return (
        params.beta0
        + params.beta_x * s
        + params.beta_co * x_prev
        + params.beta_xco * s * x_prev
        + params.beta_ar * y_prev
        + params.beta_xar * s * y_prev
        + v_t
    )


def _permutation_matrix(m: int, m1: int) -> np.ndarray:
    combos = list(itertools.combinations(range(m), m1))
    x = np.zeros((len(combos), m), dtype=np.int8)
    for i, ones in enumerate(combos):
        x[i, list(ones)] = 1
    return x


def enumerate_apte(spec: EnumSpec) -> float:
    """Exact average effect over the generated periods t = 2..m."""
    p = spec.params
    v = spec.v_effect()
    m = spec.m

    if spec.mode == MODE_PERMUTATION:
        x = _permutation_matrix(m, spec.m1)
        n_seq = x.shape[0]
        n1 = x[:, 1:].sum(axis=1).astype(float)
        n0 = (m - 1) - n1
        if np.any(n1 == 0) or np.any(n0 == 0):
            raise EstimatorError("an arrangement leaves an arm empty over generated periods")
        # Weight of sequence q for the level-s average at period t:
        #   I(x_qt = s) / (n_seq * arm size of s in q over t >= 2)
        y_prev = np.full(n_seq, spec.initial_level())
        contrast_sum = 0.0
        for t in range(2, m + 1):
            x_prev = x[:, t - 2].astype(float)
            x_t = x[:, t - 1].astype(float)
            po1 = _po(p, 1.0, x_prev, y_prev, v[t - 1])
            po0 = _po(p, 0.0, x_prev, y_prev, v[t - 1])
            capo1 = float(np.sum(po1 * x_t / n1)) / n_seq
            capo0 = float(np.sum(po0 * (1.0 - x_t) / n0)) / n_seq
            contrast_sum += capo1 - capo0
            y_prev = np.where(x_t == 1.0, po1, po0)
        # Each per-period weighted average carries total mass 1/(m-1), so the
        # sum of contrasts is already the mean over generated periods.
        return contrast_sum

    # iid mode: enumerate all 2^m sequences, weighted by Bernoulli products.
    pi = float(spec.pi)
    n_seq = 1 << m
    idx = np.arange(n_seq, dtype=np.uint32)
    ones = np.zeros(n_seq, dtype=np.int64)
    for b in range(m):
        ones += (idx >> b) & 1
    w = np.power(pi, ones) * np.power(1.0 - pi, m - ones)
    y_prev = np.full(n_seq, spec.initial_level())
    total = 0.0
    for t in range(2, m + 1):
        x_prev = ((idx >> (t - 2)) & 1).astype(float)
        x_t = ((idx >> (t - 1)) & 1).astype(float)
        po1 = _po(p, 1.0, x_prev, y_prev, v[t - 1])
        po0 = _po(p, 0.0, x_prev, y_prev, v[t - 1])
        total += float(np.sum(w * (po1 - po0)))
        y_prev = np.where(x_t == 1.0, po1, po0)
    return total / (m - 1)

