"""Outcome and propensity model fits behind one common interface.

Linear least squares (QR), logistic regression via IRLS, and bagged CART
forests for both regression and classification.  Every fit is a
deterministic function of (data, config, seed).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import expit

from .core import LAG_QUARTILE, FeatureMatrix, SeedSpec, as_seed
from .errors import ConfigError, ConvergenceError, EstimatorError
from .forest import FlatForest, IndexSampler, build_forest, oob_predictions

INTERCEPT = "intercept"

# Logit-scale magnitude beyond which a logistic fit is treated as separated.
SEPARATION_LIMIT = 30.0
_IRLS_TOL = 1e-10
_IRLS_MAX_ITER = 50
_RANK_TOL = 1e-9


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters; unset fields resolve to task defaults.

    mtry defaults to floor(p/3) for regression and ceil(sqrt(p)) for
    classification (minimum 1); min_node_size defaults to 5 / 1.  Bootstrap
    samples are drawn with replacement at the original sample size.
    """

    n_trees: int = 500
    mtry: int | None = None
    min_node_size: int | None = None
    seed: SeedSpec | int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        object.__setattr__(self, "seed", as_seed(self.seed))

    def resolve(self, p: int, classification: bool) -> tuple[int, int]:
        if self.mtry is None:
            mtry = max(1, math.ceil(math.sqrt(p))) if classification else max(1, p // 3)
        else:
            mtry = self.mtry
        if not 1 <= mtry <= max(p, 1):
            raise ConfigError(f"mtry must lie in [1, {p}], got {mtry}")
        node = self.min_node_size if self.min_node_size is not None else (1 if classification else 5)
        if node < 1:
            raise ConfigError(f"min_node_size must be >= 1, got {node}")
        return mtry, node


class _LinearPredictor:
    """A GLM's linear predictor, mapped through the logistic link when `logistic`.

    The linear predictor is accumulated column by column with elementwise
    arithmetic, so each row's value does not depend on the other rows in
    the call.
    """

    def __init__(self, beta: np.ndarray, keep: np.ndarray, logistic: bool = False):
        self.beta = [float(b) for b in beta]
        self.keep = [int(k) for k in keep]  # design columns kept after any reference drop
        self.logistic = logistic

    def __call__(self, f: np.ndarray) -> np.ndarray:
        f = np.atleast_2d(np.asarray(f, dtype=float))
        eta = np.full(f.shape[0], self.beta[0])
        for b, k in zip(self.beta[1:], self.keep):
            eta += b * f[:, k]
        return expit(eta) if self.logistic else eta


@dataclass(frozen=True)
class FittedModel:
    """A trained twin: an outcome mean or an exposure probability.

    Outcome models carry their residual scale in `resid_sd`; propensity
    models leave it None.  Forest propensity models also keep their
    out-of-bag in-sample probabilities together with the (read-only)
    feature matrix they were trained on.
    """

    kind: str  # "linear" | "logistic" | "forest"
    columns: tuple[str, ...]
    resid_sd: float | None = None
    coefficients: dict[str, float] | None = None
    coefficient_se: dict[str, float] | None = None
    separation_warning: bool = False
    forest_config: ForestConfig | None = None
    insample_prob: np.ndarray | None = field(default=None, compare=False)
    train_values: np.ndarray | None = field(default=None, repr=False, compare=False)
    _predictor: object = field(default=None, repr=False, compare=False)

    @property
    def is_outcome(self) -> bool:
        return self.resid_sd is not None

    def predict(self, f: np.ndarray) -> np.ndarray:
        """Mean outcome or exposure probability for rows laid out as in the fit."""
        return self._predictor(f)

    def summary(self) -> dict:
        out: dict = {"kind": self.kind, "columns": list(self.columns)}
        if self.is_outcome:
            out["resid_sd"] = self.resid_sd
        if self.coefficients is not None:
            out["coefficients"] = dict(self.coefficients)
            if not self.is_outcome:
                out["separation_warning"] = self.separation_warning
        if self.forest_config is not None:
            out["forest"] = {
                "n_trees": self.forest_config.n_trees,
                "mtry": self.forest_config.mtry,
                "min_node_size": self.forest_config.min_node_size,
            }
        return out


def _target(fm: FeatureMatrix, values: np.ndarray, outcome: bool) -> np.ndarray:
    """The response as floats, after the checks shared by GLM and forest fits."""
    values = np.asarray(values, dtype=float)
    if outcome and not fm.spec.include_current_exposure:
        raise EstimatorError("outcome models must include the current exposure feature")
    if not outcome and not (np.any(values == 1) and np.any(values == 0)):
        raise EstimatorError("propensity fit needs both exposure classes present")
    return values


def _design(fm: FeatureMatrix) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Intercept-augmented, full-rank design matrix for the GLM fitters.

    A full quartile indicator block is collinear with the intercept, so the
    first slot is dropped as the reference level (its effect is absorbed by
    the intercept), matching standard factor coding.
    """
    cols = list(fm.columns)
    keep = np.arange(len(cols))
    if fm.spec.outcome_lag_mode == LAG_QUARTILE:
        ref = cols.index("y_lag1_q1")
        keep = np.delete(keep, ref)
        cols.pop(ref)
    design = np.hstack([np.ones((fm.n_rows, 1)), fm.values[:, keep]])
    names = [INTERCEPT, *cols]
    n, p = design.shape
    if n < p + 1:
        raise EstimatorError(f"need at least {p + 1} rows to fit {p} coefficients, got {n}")
    _, r, pivot = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = _RANK_TOL * max(design.shape) * (diag[0] if diag.size else 1.0)
    rank = int((diag > tol).sum())
    if rank < p:
        collinear = [names[j] for j in pivot[rank:]]
        raise EstimatorError(f"design matrix is rank deficient; collinear column(s): {collinear}")
    return design, names, keep


def fit_linear_outcome(fm: FeatureMatrix, y: np.ndarray) -> FittedModel:
    """Least-squares outcome fit with intercept.

    Coefficients minimize the sum of squared residuals via QR; resid_sd is
    the sample SD of residuals with denominator n - p.
    """
    y = _target(fm, y, outcome=True)
    design, names, keep = _design(fm)
    n, p = design.shape
    q, r = np.linalg.qr(design)
    beta = scipy.linalg.solve_triangular(r, q.T @ y)
    resid = y - design @ beta
    ssr = float(resid @ resid)
    resid_sd = math.sqrt(max(ssr, 0.0) / (n - p))
    r_inv = scipy.linalg.solve_triangular(r, np.eye(p))
    se = resid_sd * np.sqrt((r_inv * r_inv).sum(axis=1))
    return FittedModel(
        kind="linear",
        columns=fm.columns,
        resid_sd=resid_sd,
        coefficients=dict(zip(names, beta.tolist())),
        coefficient_se=dict(zip(names, se.tolist())),
        _predictor=_LinearPredictor(beta, keep),
    )


def fit_logistic_propensity(fm: FeatureMatrix, x: np.ndarray) -> FittedModel:
    """Bernoulli maximum likelihood via IRLS.

    Converges when the largest absolute coefficient change drops below 1e-10
    (at most 50 iterations).  If a coefficient passes the separation limit
    the fit stops there and the model carries a separation warning so
    downstream trimming still functions.
    """
    x = _target(fm, x, outcome=False)
    design, names, keep = _design(fm)
    beta = np.zeros(design.shape[1])
    separated = False
    trace: list[float] = []
    for _ in range(_IRLS_MAX_ITER):
        eta = design @ beta
        prob = expit(eta)
        w = prob * (1.0 - prob)
        xtwx = design.T @ (design * w[:, None])
        score = design.T @ (x - prob)
        try:
            step = np.linalg.solve(xtwx, score)
        except np.linalg.LinAlgError:
            raise EstimatorError(
                "IRLS weighted normal equations are singular (weights collapsed)"
            ) from None
        beta = beta + step
        change = float(np.max(np.abs(step)))
        trace.append(change)
        if np.max(np.abs(beta)) > SEPARATION_LIMIT:
            separated = True
            break
        if change < _IRLS_TOL:
            break
    else:
        raise ConvergenceError(
            f"IRLS did not converge in {_IRLS_MAX_ITER} iterations; "
            f"max-step trace: {[f'{c:.3g}' for c in trace]}"
        )
    return FittedModel(
        kind="logistic",
        columns=fm.columns,
        coefficients=dict(zip(names, beta.tolist())),
        separation_warning=separated,
        _predictor=_LinearPredictor(beta, keep, logistic=True),
    )


def glm_from_coefficients(
    columns: tuple[str, ...],
    coefficients: Mapping[str, float],
    resid_sd: float | None = None,
) -> FittedModel:
    """Assemble a GLM twin from given coefficients (no fitting).

    With `resid_sd` the model is a linear outcome twin; without it, a
    logistic propensity twin.  `coefficients` maps "intercept" and each
    feature column to its weight; missing columns default to 0.
    """
    beta = np.array(
        [coefficients.get(INTERCEPT, 0.0)] + [coefficients.get(c, 0.0) for c in columns]
    )
    outcome = resid_sd is not None
    return FittedModel(
        kind="linear" if outcome else "logistic",
        columns=tuple(columns),
        resid_sd=float(resid_sd) if outcome else None,
        coefficients={INTERCEPT: beta[0], **{c: coefficients.get(c, 0.0) for c in columns}},
        _predictor=_LinearPredictor(beta, np.arange(len(columns)), logistic=not outcome),
    )


def _fit_forest(
    fm: FeatureMatrix,
    target: np.ndarray,
    cfg: ForestConfig,
    classification: bool,
    index_sampler: IndexSampler | None,
) -> tuple[FlatForest, np.ndarray]:
    """Grow the forest and return it with its out-of-bag training predictions."""
    if fm.n_rows < 5:
        raise EstimatorError(f"forest fit needs at least 5 rows, got {fm.n_rows}")
    mtry, node = cfg.resolve(len(fm.columns), classification)
    forest, inbag = build_forest(
        fm.values, target, cfg.n_trees, mtry, node, as_seed(cfg.seed), index_sampler
    )
    return forest, oob_predictions(forest, inbag, fm.values)


def fit_forest_outcome(
    fm: FeatureMatrix,
    y: np.ndarray,
    cfg: ForestConfig,
    index_sampler: IndexSampler | None = None,
) -> FittedModel:
    """Bagged regression trees; resid_sd from out-of-bag training residuals.

    Out-of-bag averaging keeps in-sample predictions honest (an all-trees
    average would be dominated by each row's own bootstrap copies); new
    inputs are predicted with the all-trees average.  resid_sd divides by n
    (no parameter count is available for a forest).
    """
    y = _target(fm, y, outcome=True)
    forest, oob = _fit_forest(fm, y, cfg, False, index_sampler)
    resid = y - oob
    return FittedModel(
        kind="forest",
        columns=fm.columns,
        resid_sd=float(np.sqrt(np.mean(resid * resid))),
        forest_config=cfg,
        _predictor=forest.predict,
    )


def fit_forest_propensity(
    fm: FeatureMatrix,
    x: np.ndarray,
    cfg: ForestConfig,
    index_sampler: IndexSampler | None = None,
) -> FittedModel:
    """Bagged classification trees (Gini splits).

    predict averages per-tree terminal-node class-1 proportions.  The stored
    in-sample propensities use out-of-bag averaging for the same reason as
    the outcome forest's residuals; they belong to `train_values`, the
    feature matrix of the fit.
    """
    x = _target(fm, x, outcome=False)
    forest, oob = _fit_forest(fm, x, cfg, True, index_sampler)
    return FittedModel(
        kind="forest",
        columns=fm.columns,
        forest_config=cfg,
        insample_prob=oob,
        train_values=fm.values,
        _predictor=forest.predict,
    )
