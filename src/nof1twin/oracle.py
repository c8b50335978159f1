"""Exact average effects of noise-free linear systems.

This is the anti-drift ground truth for the randomization estimator.  Every
mechanism has the form y_t = a(x_t, x_{t-1}) + v_t + b(x_t) y_{t-1}, so one
forward recursion over the states (period, exposures used so far, current
exposure) is exact: each state carries only its probability mass and its
mass-weighted outcome, and one step maps both linearly.  The noise term has
mean zero and drops out.

Two history laws are supported:

* ``iid``: exposures i.i.d. Bernoulli(pi), each period's contrast taken
  between its two exposure levels.  This is the randomized-experiment average
  effect, averaged over the generated periods t = 2..m; the state is x_t
  alone, so the cost is O(m).
* ``permutation``: exposures uniform over all fixed-margin arrangements, so
  the next exposure is 1 with probability (m1 - k) / (m - t) after k of the
  first t.  Per-period averages are normalized by the realized arm sizes
  over the generated periods, which x_1 fixes.  This matches the
  randomization estimator's arm means exactly, so the two routes can be
  compared at 1e-10 while remaining independently implemented.  The cost is
  O(m * m1) time and O(m1) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arco import ArcoParams
from .core import validate_finite
from .errors import ConfigError

MODE_PERMUTATION = "permutation"
MODE_IID = "iid"


@dataclass(frozen=True)
class EnumSpec:
    """What to solve: length, history law, coefficients, initial level.

    ``y_init`` seeds the lagged outcome for generating t = 2 (the same
    convention as the randomization estimator's rollouts); when omitted it
    defaults to the mechanism's noise-free first-period level ``beta0`` (plus
    any exogenous contribution).  Each mode takes its own margin only:
    ``m1`` in permutation mode, ``pi`` in iid mode.
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
            raise ConfigError("the oracle requires sigma_eps = 0 (expectations at the mean)")
        if self.m < 2:
            raise ConfigError("the oracle needs m >= 2")
        if self.mode == MODE_PERMUTATION:
            if self.pi is not None:
                raise ConfigError("permutation mode takes m1, not pi")
            if self.m1 is None or not 2 <= self.m1 <= self.m - 2:
                raise ConfigError(
                    "permutation mode needs 2 <= m1 <= m-2 so every arrangement keeps "
                    "both arms populated over the generated periods"
                )
        else:
            if self.m1 is not None:
                raise ConfigError("iid mode takes pi, not m1")
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


def _arrive(p: ArcoParams, s: float, v_t: float, mass: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Mass-weighted outcome of moving every state to exposure level s.

    Axis 0 of ``mass`` and ``wy`` is the previous exposure; the mechanism is
    linear in the previous outcome, so its mass-weighted value ``wy`` is all
    the history it needs.
    """
    return (
        (p.beta0 + p.beta_x * s + v_t) * mass.sum(axis=0)
        + (p.beta_co + p.beta_xco * s) * mass[1]
        + (p.beta_ar + p.beta_xar * s) * wy.sum(axis=0)
    )


def enumerate_apte(spec: EnumSpec) -> float:
    """Exact average effect over the generated periods t = 2..m."""
    p = spec.params
    v = spec.v_effect()
    m = spec.m

    if spec.mode == MODE_PERMUTATION:
        m1 = spec.m1
        used = np.arange(m1 + 1)
        n1 = m1 - np.arange(2.0)  # exposed generated periods, given x_1 = 0, 1
        n0 = (m - 1) - n1
        # States indexed (x_t, x_1, exposures used so far); P(x_1 = 1) = m1 / m.
        mass = np.zeros((2, 2, m1 + 1))
        mass[0, 0, 0] = (m - m1) / m
        mass[1, 1, 1] = m1 / m
        wy = mass * spec.initial_level()
        total = 0.0
        for t in range(1, m):  # t periods drawn, draw period t + 1
            p_one = (m1 - used) / (m - t)  # 0 at used == m1: the rolls wrap zeros
            one = p_one * _arrive(p, 1.0, v[t], mass, wy)
            zero = (1.0 - p_one) * _arrive(p, 0.0, v[t], mass, wy)
            total += float(np.sum(one.sum(axis=1) / n1 - zero.sum(axis=1) / n0))
            prior = mass.sum(axis=0)
            mass = np.stack([(1.0 - p_one) * prior, np.roll(p_one * prior, 1, axis=1)])
            wy = np.stack([zero, np.roll(one, 1, axis=1)])
        # each period's arm-normalized contrast carries mass 1/(m-1): the sum is the mean
        return total

    # iid mode: x_t has the same law at every period, so it is the whole state
    law = np.array([1.0 - spec.pi, spec.pi])
    wy = law * spec.initial_level()
    total = 0.0
    for t in range(1, m):
        arrive = np.array([_arrive(p, s, v[t], law, wy) for s in (0.0, 1.0)])
        total += float(arrive[1] - arrive[0])
        wy = law * arrive
    return total / (m - 1)
