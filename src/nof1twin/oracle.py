"""Exact average effects of noise-free linear systems.

This is the anti-drift ground truth for the randomization estimator.  Every
mechanism has the form y_t = const[t, x_t, x_{t-1}] + slope[x_t] * y_{t-1}.
const holds the constant part of each generated period's level (b0 + bx x_t
+ bco x_{t-1} + bxco x_t x_{t-1}), slope the lag slope (bar + bxar x_t); both
are built once from ArcoParams, whose levels are the same at every period.
One forward recursion on these two arrays over the states (period, exposures
used so far, current exposure) is exact: each state carries only its
probability mass and its mass-weighted outcome, and one step maps both
linearly.  The noise term has mean zero and drops out.  `permutation_apte`
takes the two arrays alone, so a linear twin's own per-period levels and
slope can feed it too.

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
  O(m * m1) time and O(m + m1) memory.
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
    defaults to the mechanism's noise-free first-period level ``beta0``.  Each
    mode takes its own margin only: ``m1`` in permutation mode, ``pi`` in iid
    mode.
    """

    m: int
    mode: str
    params: ArcoParams
    m1: int | None = None
    pi: float | None = None
    y_init: float | None = None

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
        if self.y_init is not None:
            validate_finite("y_init", self.y_init)

    def initial_level(self) -> float:
        return float(self.params.beta0 if self.y_init is None else self.y_init)


def permutation_apte(const: np.ndarray, slope: np.ndarray, m1: int, y1: float) -> float:
    """Exact average effect over the generated periods t = 2..m (m = len(const) + 1)
    of levels const[t - 2, x_t, x_(t-1)] + slope[x_t] * y_(t-1), y_1 = y1, under
    the permutation law with m1 exposed periods."""
    m = len(const) + 1
    left = m1 - np.arange(m1 + 1.0)  # exposures still to place, by exposures used so far
    # the law of x_t given those used: 1 - left / (m - t) and left / (m - t), 0 past m1
    stay, go = np.array([1.0, 0.0])[:, None, None], np.stack([-left, left])[:, None]
    # step[t - 2] maps the (mass, mass-weighted outcome) of each x_(t-1) to those of each x_t
    step = np.zeros((m - 1, 2, 2, 2, 2))  # (period, quantity, x_t, quantity, x_(t-1))
    step[:, 0, :, 0] = 1.0
    step[:, 1, :, 0] = const
    step[:, 1, :, 1] = slope[:, None]
    step = step.reshape(m - 1, 4, 4)
    # state[quantity, x_t, x_1, exposures used so far]; P(x_1 = 1) = m1 / m
    state = np.zeros((2, 2, 2, m1 + 1))
    state[0, 0, 0, 0] = (m - m1) / m
    state[0, 1, 1, 1] = m1 / m
    state[1] = state[0] * y1
    n1 = m1 - np.arange(2.0)  # exposed generated periods, given x_1 = 0, 1
    # a period's arm means: its mass-weighted outcomes over the arm sizes x_1 fixes
    arm = np.repeat([-1.0 / ((m - 1) - n1), 1.0 / n1], m1 + 1).reshape(2, 2, m1 + 1)
    total, moved = 0.0, np.empty_like(state)
    # the x_t weights of 64 periods per expression, so memory stays bounded at any m
    for start in range(1, m, 64):
        drawn = np.arange(start, min(start + 64, m))  # t periods drawn, draw period t + 1
        for t, weight in zip(drawn, stay + go / (m - drawn)[:, None, None, None]):
            np.matmul(step[t - 1], state.reshape(4, -1), out=moved.reshape(4, -1))
            moved *= weight
            total += float(np.vdot(arm, moved[1]))
            state[:, 0] = moved[:, 0]
            state[:, 1, :, 1:] = moved[:, 1, :, :-1]  # x_t = 1 uses one more exposure
    # each period's arm-normalized contrast carries mass 1/(m-1): the sum is the mean
    return total


def enumerate_apte(spec: EnumSpec) -> float:
    """Exact average effect over the generated periods t = 2..m."""
    p = spec.params
    x_t, x_prev = np.arange(2.0)[:, None], np.arange(2.0)
    level = p.beta0 + p.beta_x * x_t + p.beta_co * x_prev + p.beta_xco * x_t * x_prev
    slope = p.beta_ar + p.beta_xar * np.arange(2.0)
    if spec.mode == MODE_PERMUTATION:
        const = np.broadcast_to(level, (spec.m - 1, 2, 2))  # the same at every period
        return permutation_apte(const, slope, spec.m1, spec.initial_level())

    # iid mode: x_t has the same law at every period, so it is the whole state
    law = np.array([1.0 - spec.pi, spec.pi])
    y = spec.initial_level()  # mean outcome
    total = 0.0
    for _ in range(spec.m - 1):
        arrive = level @ law + slope * y
        total += float(arrive[1] - arrive[0])
        y = float(law @ arrive)
    return total / (spec.m - 1)
