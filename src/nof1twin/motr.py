"""Model-twin randomization: simulate an n-of-1 trial with a fitted outcome model.

Each run permutes the observed exposure sequence, rolls the fitted model
forward sequentially (generated lagged outcomes feed the next period's
features, laid out by the twin's own FittedModel.spec; exogenous covariates
keep their observed values), adds Gaussian noise at the fitted residual
scale, and contrasts the noisy predictions between the permuted arms.  Runs
accumulate into cumulative averages of the effect and its per-run Welch
interval bounds until a stopping rule fires.

Runs are rolled out together, in blocks of at most _BLOCK_ROWS rollout rows
(runs x (m - 1)), the first of at most _FIRST_BLOCK_RUNS (128) runs and each
later one twice the one before, so a default call (r_max 200) is one block of
128 runs or, when the stop comes later, two of 128 and 72.  The stopping rule
is checked on the cumulative prefix after each block, so the runs of the last
block past the stopping run are computed and then discarded.  A step is one
of two forms (_Rollout): an affine map for a linear twin with a continuous
lag, a table lookup for every other twin; a table too large to build once is
built in period chunks, again in each block.  Each acts on its own run's row
alone and the cumulative sums are sequential, so no output depends on the
block size.  A run whose contrast is not finite (a rollout that overflows)
raises EstimatorError unless the rule stopped before it.

Stream layout: run r draws from cfg.seed.child(r): first the permutation,
then (when resid_sd > 0) the m-1 uniforms of its noise.  Each run shuffles
its own copy of x in place, with the draws and swaps rng.permutation(m) makes
on arange(m).  The runs of a block share one generator (SeedSpec.children),
reset before each run to child(r)'s key and a zero counter, so each run draws
what its own generator would.  The uniforms of a whole block become noise in
one core.normals call at the fitted residual scale, which is frozen from the
original fit and never re-estimated from generated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import stdtrit

from .core import (
    LAG_CONTINUOUS,
    LAG_QUARTILE,
    SeedSpec,
    TimeSeriesDataset,
    as_seed,
    normals,
    quartile_bounds,
)
from .errors import ConfigError, EstimatorError
from .models import FittedModel, check_twin

# Rollout rows (runs x (m - 1)) per block: at least one run, and for
# m <= 1025 the whole first block, so the default r_max = 200 in at most two
# blocks.  Each (runs, m - 1) array of a block takes at most 8 * _BLOCK_ROWS
# bytes = 1 MiB, so a call's memory stays within a few MB whatever r_max is;
# only the six statistics kept per run grow with the runs done.
_BLOCK_ROWS = 2**17
# Runs in the first block.  Of the default r_max = 200 the stopping rule read
# 56-149 runs over 48 analyze calls at m = 365 and 43-163 over 40 forest-twin
# study calls at m = 220 (45 and 39 by run 128), so a default call is one
# block of 128 runs, or 128 + 72 when it stops later.  Each block costs one
# step loop (about 0.5 ms affine, 2 ms for a table at m = 365).
_FIRST_BLOCK_RUNS = 128
_TABLE_VALUES = 2**22  # values (32 MiB) in a table built once; a larger one is built per chunk


def arm_contrast(values: np.ndarray, arms: np.ndarray) -> np.ndarray:
    """Welch contrast of the two arms of each row of `values`, split by its 0/1 `arms`.

    Returns rows (delta, lo, hi, mean_1, mean_0, degenerate), one column per
    row of `values`: the difference of the arm means and its Welch t 95%
    interval.  Where the interval is undefined (an arm smaller than 2, or
    zero variance in both) the bounds collapse onto delta and degenerate is 1.
    """
    w = np.asarray(arms, dtype=float)
    n1 = w.sum(axis=1)
    n0 = w.shape[1] - n1
    if (empty := np.flatnonzero((n1 == 0) | (n0 == 0))).size:
        i = empty[0]
        raise EstimatorError(
            f"exposure arm {int(n1[i] == 0)} is empty; an arm contrast needs both arms, "
            f"got counts {{1: {n1[i]:.0f}, 0: {n0[i]:.0f}}}"
        )
    e = np.frexp(np.abs(values).max(axis=1))[1][:, None]
    values = np.ldexp(values, -e)  # exact, max |v| in [0.5, 1): no square below leaves range
    mean1 = (values * w).sum(axis=1) / n1
    mean0 = (values * (1.0 - w)).sum(axis=1) / n0
    with np.errstate(invalid="ignore", divide="ignore"):
        v1 = ((values - mean1[:, None]) ** 2 * w).sum(axis=1) / (n1 - 1) / n1
        v0 = ((values - mean0[:, None]) ** 2 * (1.0 - w)).sum(axis=1) / (n0 - 1) / n0
        degenerate = (n1 < 2) | (n0 < 2) | ~(v1 + v0 > 0)
        df = (v1 + v0) ** 2 / (v1**2 / (n1 - 1) + v0**2 / (n0 - 1))
        # one arm constant and the other's variance subnormal: both squares underflow
        # and df is 0/0, so there it comes from the variance shares v / (v1 + v0)
        share = v1 / (v1 + v0)
        df = np.where(np.isfinite(df), df, 1 / (share**2 / (n1 - 1) + (1 - share) ** 2 / (n0 - 1)))
        quant = stdtrit(np.where(degenerate, 2.0, df), 0.975)
        half = np.where(degenerate, 0.0, quant * np.sqrt(v1 + v0))
    delta = mean1 - mean0
    return np.vstack([np.ldexp([delta, delta - half, delta + half, mean1, mean0], e.T), degenerate])


@dataclass(frozen=True)
class MotrConfig:
    """Run budget and stopping rule for one invocation."""

    r_min: int = 10
    r_max: int = 200
    stop_tol: float = 1e-3
    stop_window: int = 5
    seed: SeedSpec | int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.r_min <= self.r_max <= 2**32 - 1:
            raise ConfigError(
                f"need 1 <= r_min <= r_max <= 2**32 - 1, got ({self.r_min}, {self.r_max})"
            )
        if not (math.isfinite(self.stop_tol) and self.stop_tol > 0) or self.stop_window < 1:
            raise ConfigError("stop_tol must be finite and > 0, and stop_window >= 1")
        object.__setattr__(self, "seed", as_seed(self.seed))


@dataclass(frozen=True)
class ApteEstimate:
    """Cumulative effect estimate with its run trajectory and diagnostics."""

    delta: float
    ci: tuple[float, float]
    runs_used: int
    runs: tuple[tuple[float, float, float], ...]  # each run's own (delta, lo, hi)
    mean_po_1: float
    mean_po_0: float
    stop_reason: str  # "converged" when the stopping rule fired, "r_max" at the run cap
    degenerate_ci: bool = False
    mc_se: float | None = None  # SD (ddof 1) of the run deltas / sqrt(runs_used); None below 2 runs

    @property
    def trajectory(self) -> tuple[tuple[float, float, float], ...]:
        """The cumulative (delta, lo, hi) after each run: running means of `runs`."""
        cum = np.cumsum(self.runs, axis=0) / np.arange(1, len(self.runs) + 1)[:, None]
        return tuple(map(tuple, cum.tolist()))

    def record(self) -> dict:
        """The analyze JSON's result: every field but the runs, which table() holds."""
        return {k: v for k, v in vars(self).items() if k != "runs"} | {"trajectory": self.trajectory}

    def table(self) -> tuple[list[str], list[tuple]]:
        """The --runs-csv header and rows: each run's own contrast and the cumulative one."""
        rows = [(r, *run, *cum) for r, (run, cum) in enumerate(zip(self.runs, self.trajectory), 1)]
        return ["r", "delta_r", "lo_r", "hi_r", "cum_delta", "cum_lo", "cum_hi"], rows


class _Rollout:
    """A twin's noisy sequential predictions for permuted exposure sequences,
    on rows laid out by the twin's own spec (model.spec).

    Only the outcome lag changes between steps; the rest of a period's
    features, static row s = (x_t * n_lag + x_{t-1}) * n_exog + e (e the
    period's distinct exogenous row, n_lag = 1 without x_lag1), is encoded
    once by spec.encode with a zero lag; `lag` (spec.lag) holds the lag's
    column positions.  A linear twin with a continuous lag is `affine`: split
    around the lag (FittedModel.split), a step is head[s] + slope * lag
    plus each tail[s] in turn, the operations of its predict.  Every other twin is
    constant in the lag between sorted cuts (a forest's lag thresholds, the
    quartile bounds, none without a lag); its value at cut t_c (+inf past the
    last; the one-hot slots in quartile mode) holds on (t_(c-1), t_c], so a
    step is one `table` lookup.  A forest's continuous-lag table is summed from
    its trees' pieces (FlatForest.step_table), any other is predict at each
    (row, cut) point.  A larger table than _TABLE_VALUES is built for `chunk`
    periods at a time, over the static rows they use, as the steps reach them;
    a table row depends on its static row alone, so chunks change no value.
    """

    def __init__(self, ds: TimeSeriesDataset, model: FittedModel):
        check_twin(model, "MoTR", outcome=True)
        spec = model.spec
        self.y0, self.affine, self.chunk, self.lag = float(ds.y[0]), None, None, spec.lag
        exog, self.exog_row = np.unique(ds.exog_matrix(spec.exog_names)[1:], axis=0,
                                        return_inverse=True)
        bounds = quartile_bounds(ds.y) if spec.outcome_lag_mode == LAG_QUARTILE else None
        self.n_lag = 2 if spec.use_exposure_lag1 else 1
        s = np.arange(2 * self.n_lag * len(exog))
        x_t, x_lag, e = s // (self.n_lag * len(exog)), s // len(exog) % self.n_lag, s % len(exog)
        self.static = spec.encode(x_t, x_lag, np.zeros(len(s)), exog[e], bounds)
        if model.forest is None and spec.outcome_lag_mode == LAG_CONTINUOUS:
            self.affine = model.split(self.static, self.lag[0])
            return
        if bounds is not None:
            self.cuts, reps = np.asarray(bounds), np.eye(4)
        else:  # a linear twin gets here only without a lag
            forest = model.forest
            self.cuts = np.unique(forest.threshold[forest.feature == self.lag[0]] if self.lag else [])
            reps = np.append(self.cuts, np.inf)[:, None]

        def fill(static: np.ndarray) -> np.ndarray:
            if bounds is None and self.lag:  # a forest with a continuous lag
                return model.forest.step_table(static, self.lag[0], self.cuts)
            points = np.repeat(static, len(reps), axis=0)
            points[:, self.lag] = np.tile(reps, (len(static), 1))  # no-op without a lag
            return model.predict(points).reshape(len(static), -1)

        self.fill, self.table = fill, None
        self.chunk = max(1, _TABLE_VALUES // (2 * self.n_lag * len(reps)))  # periods whose rows fit
        if self.chunk >= len(exog):  # every static row fits: one table serves every call
            self.chunk, self.table = None, fill(self.static)

    def rows(self, xb: np.ndarray) -> np.ndarray:
        """Static row of each step (rows) and run (columns) of xb, (runs, m)."""
        n_exog = len(self.static) // (2 * self.n_lag)
        rows = xb[:, 1:] * (self.n_lag * n_exog) + self.exog_row
        if self.n_lag == 2:
            rows += xb[:, :-1] * n_exog
        return rows.T

    def lookup(self, row: np.ndarray, y_lag: np.ndarray) -> np.ndarray:
        """The twin's predictions for table rows `row` with outcome lags `y_lag`."""
        return self.table[row, np.searchsorted(self.cuts, y_lag, side="left")]

    def __call__(self, xb: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Noisy predictions for periods 2..m of each run of xb, (runs, m); y_1 seeds the lag."""
        preds = np.empty((len(xb), xb.shape[1] - 1))
        y_lag = np.full(len(xb), self.y0)
        rows = self.rows(xb)
        for i, row in enumerate(rows):
            if self.chunk and i % self.chunk == 0:  # a table of the next chunk's static rows
                used, local = np.unique(rows[i : i + self.chunk], return_inverse=True)
                rows[i : i + self.chunk] = local.reshape(-1, len(xb))  # `row` is a view
                self.table = None  # freed first: one chunk's table at a time
                self.table = self.fill(self.static[used])
            if self.affine is None:
                y_lag = self.lookup(row, y_lag)
            else:
                head, slope, tail = self.affine
                y_lag = head[row] + slope * y_lag
                for term in tail:
                    y_lag += term[row]
            y_lag += noise[:, i]
            preds[:, i] = y_lag
        return preds


def _first_stop(cum: np.ndarray, cfg: MotrConfig) -> int | None:
    """The first run r >= r_min ending stop_window steady runs, or None.

    A run is steady when all three cumulative series (the rows of `cum`)
    moved by less than stop_tol from the run before.
    """
    steady = (np.abs(np.diff(cum, axis=1)) < cfg.stop_tol).all(axis=0)  # runs 2..n
    if len(steady) < cfg.stop_window:
        return None
    hits = np.flatnonzero(sliding_window_view(steady, cfg.stop_window).all(axis=1))
    stops = hits + cfg.stop_window + 1  # run count ending each steady window
    stops = stops[stops >= cfg.r_min]
    return int(stops[0]) if stops.size else None


def run_motr(ds: TimeSeriesDataset, model: FittedModel, cfg: MotrConfig) -> ApteEstimate:
    """Run the model twin through permutation runs until the estimate settles.

    Stops at the first run r >= max(r_min, stop_window + 1) where all three
    cumulative series (effect, lower bound, upper bound) changed by less
    than stop_tol at each of the last stop_window runs, or at r_max.
    """
    if ds.m < 3:
        raise EstimatorError(f"randomization needs at least 3 periods, got {ds.m}")
    m1 = int(ds.x.sum())
    if min(m1, ds.m - m1) < 2:
        raise EstimatorError(
            f"randomization needs at least 2 periods in each exposure arm, got "
            f"{m1} exposed and {ds.m - m1} unexposed"
        )
    m = ds.m
    per_block = max(1, _BLOCK_ROWS // (m - 1))
    size = min(cfg.r_max, _FIRST_BLOCK_RUNS, per_block)
    rollout = _Rollout(ds, model)
    blocks: list[np.ndarray] = []
    done, stop = 0, None
    with np.errstate(over="ignore", invalid="ignore"):  # a run that overflows is refused below
        while stop is None and done < cfg.r_max:
            block = range(done + 1, min(done + size, cfg.r_max) + 1)
            size = min(2 * size, per_block)
            xb = np.tile(ds.x, (len(block), 1))
            u = np.zeros((len(block), m - 1))
            for j, rng in enumerate(cfg.seed.children(block)):
                rng.shuffle(xb[j])  # the swaps of rng.permutation(m), applied to x itself
                if model.resid_sd > 0:
                    rng.random(out=u[j])
            noise = normals(u, model.resid_sd) if model.resid_sd > 0 else u
            blocks.append(arm_contrast(rollout(xb, noise), xb[:, 1:]))
            done = block[-1]
            per_run = np.concatenate(blocks, axis=1)
            cum = np.cumsum(per_run[:3], axis=1) / np.arange(1, done + 1)
            stop = _first_stop(cum, cfg)
            # no run settles the cumulative series past a non-finite one, so a stop in
            # this block comes before any such run, and without one the first is refused
            if stop is None and (bad := np.flatnonzero(~np.isfinite(blocks[-1][:5]).all(axis=0))).size:
                raise EstimatorError(
                    f"MoTR run {block[bad[0]]} is not finite: the twin's rollout overflows "
                    f"(resid_sd {model.resid_sd:.6g}, first outcome {rollout.y0:.6g})"
                )

    n = done if stop is None else stop
    delta, lo, hi = cum[:, n - 1].tolist()
    mc_se = None
    if n >= 2:  # the deltas scaled by a power of two as in arm_contrast: exact, and no square overflows
        e = int(np.frexp(np.abs(per_run[0, :n]).max())[1])
        mc_se = math.ldexp(float(np.std(np.ldexp(per_run[0, :n], -e), ddof=1)), e) / math.sqrt(n)
    return ApteEstimate(
        delta=delta,
        ci=(lo, hi),
        runs_used=n,
        runs=tuple(map(tuple, per_run[:3, :n].T.tolist())),
        mean_po_1=float(np.mean(per_run[3, :n])),
        mean_po_0=float(np.mean(per_run[4, :n])),
        stop_reason="r_max" if stop is None else "converged",
        degenerate_ci=bool(per_run[5, :n].any()),
        mc_se=mc_se,
    )
