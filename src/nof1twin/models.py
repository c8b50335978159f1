"""Outcome and propensity model fits behind one common interface.

Linear least squares (QR), logistic regression via IRLS, and bagged CART
forests for both regression and classification.  Every fitter takes a
dataset and a FeatureSpec, assembles the rows and their labels (outcomes or
exposures of the same periods) itself, and is a deterministic function of
(data, layout, config, seed).  It returns a FittedModel that carries the
FeatureSpec of its rows, so the estimators that use a twin take no layout
of their own.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import expit

from .core import (INTERCEPT, LAG_QUARTILE, FeatureSpec, SeedSpec, TimeSeriesDataset, as_seed,
                   assemble_features)
from .errors import ConfigError, ConvergenceError, EstimatorError
from .forest import FlatForest, IndexSampler, build_forest, oob_predictions

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
        eta = self.split(np.atleast_2d(np.asarray(f, dtype=float)))[0]
        return expit(eta) if self.logistic else eta

    def split(self, f: np.ndarray, col: float = math.inf) -> tuple[np.ndarray, float, list]:
        """The intercept plus the terms before design column `col` (all by default),
        col's coefficient and each later term, on rows `f`: head + slope * v plus
        each tail term in turn is __call__'s sum, bit for bit, with v in `col`."""
        head, slope, tail = np.full(len(f), self.beta[0]), 0.0, []
        for b, k in zip(self.beta[1:], self.keep):  # keep is ascending
            if k < col:
                head += b * f[:, k]
            elif k == col:
                slope = b
            else:
                tail.append(b * f[:, k])
        return head, slope, tail


@dataclass(frozen=True)
class FittedModel:
    """A trained twin: an outcome mean or an exposure probability, on rows laid
    out by `spec`.

    Outcome models carry their residual scale in `resid_sd`; propensity
    models leave it None.  Forest propensity models also keep their
    out-of-bag in-sample probabilities together with `train`, the dataset
    they were fitted on.
    """

    kind: str  # "linear" | "logistic" | "forest"
    spec: FeatureSpec
    resid_sd: float | None = None
    coefficients: dict[str, float] | None = None
    coefficient_se: dict[str, float] | None = None
    separation_warning: bool = False
    forest_config: ForestConfig | None = None
    insample_prob: np.ndarray | None = field(default=None, compare=False)
    train: TimeSeriesDataset | None = field(default=None, repr=False, compare=False)
    _predictor: object = field(default=None, repr=False, compare=False)

    @property
    def is_outcome(self) -> bool:
        return self.resid_sd is not None

    def predict(self, f: np.ndarray) -> np.ndarray:
        """Mean outcome or exposure probability for rows laid out as in the fit."""
        return self._predictor(f)

    @property
    def forest(self) -> FlatForest | None:
        """The trees behind a forest twin's `predict`; None for a GLM."""
        return self._predictor if self.kind == "forest" else None

    @property
    def linear(self) -> _LinearPredictor | None:
        """The linear predictor behind a linear outcome twin's `predict`; None otherwise."""
        return self._predictor if self.kind == "linear" else None

    def summary(self) -> dict:
        out: dict = {"kind": self.kind, "columns": list(self.spec.columns)}
        if self.is_outcome:
            out["resid_sd"] = self.resid_sd
        if self.coefficients is not None:
            out["coefficients"] = dict(self.coefficients)
            if not self.is_outcome:
                out["separation_warning"] = self.separation_warning
        if self.forest_config is not None:
            mtry, node = self.forest_config.resolve(len(self.spec.columns), not self.is_outcome)
            out["forest"] = {"n_trees": self.forest_config.n_trees, "mtry": mtry, "min_node_size": node}
        return out


def check_twin(model: FittedModel, method: str, outcome: bool) -> None:
    """Reject a twin of the wrong kind for `method`: an outcome or a propensity model."""
    if model.is_outcome != outcome:
        need, got = ("an outcome", "propensity") if outcome else ("a propensity", "outcome")
        raise EstimatorError(f"{method} needs {need} model, got a {model.kind} {got} model")


def _rows(ds: TimeSeriesDataset, spec: FeatureSpec, outcome: bool) -> tuple[np.ndarray, np.ndarray]:
    """The feature rows of `ds` laid out by `spec` and their labels, the outcomes
    (or exposures) of the same periods as floats, after the checks shared by
    GLM and forest fits."""
    values = assemble_features(ds, spec)
    labels = np.asarray((ds.y if outcome else ds.x)[spec.needs_lag:], dtype=float)
    if outcome and not spec.include_current_exposure:
        raise EstimatorError("outcome models must include the current exposure feature")
    if not outcome and not (np.any(labels == 1) and np.any(labels == 0)):
        raise EstimatorError("propensity fit needs both exposure classes present")
    return values, labels


def _design(values: np.ndarray, spec: FeatureSpec) -> tuple[np.ndarray, list[str], np.ndarray, tuple]:
    """Intercept-augmented, full-rank design matrix for the GLM fitters, with
    the pivoted QR (Q, R, pivot) of its rank check: ``design[:, pivot] == Q @ R``.

    A full quartile indicator block is collinear with the intercept, so the
    first slot is dropped as the reference level (its effect is absorbed by
    the intercept), matching standard factor coding.
    """
    ref = spec.lag[:1] if spec.outcome_lag_mode == LAG_QUARTILE else ()
    keep = np.delete(np.arange(len(spec.columns)), ref)
    design = np.hstack([np.ones((len(values), 1)), values[:, keep]])
    names = [INTERCEPT, *(spec.columns[k] for k in keep)]
    n, p = design.shape
    if n < p + 1:
        raise EstimatorError(f"need at least {p + 1} rows to fit {p} coefficients, got {n}")
    q, r, pivot = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = _RANK_TOL * max(design.shape) * (diag[0] if diag.size else 1.0)
    rank = int((diag > tol).sum())
    if rank < p:
        collinear = [names[j] for j in pivot[rank:]]
        raise EstimatorError(f"design matrix is rank deficient; collinear column(s): {collinear}")
    return design, names, keep, (q, r, pivot)


def fit_linear_outcome(ds: TimeSeriesDataset, spec: FeatureSpec) -> FittedModel:
    """Least-squares fit of the outcomes of `ds` on its rows laid out by `spec`, with intercept.

    Coefficients minimize the sum of squared residuals via the design's
    pivoted QR; resid_sd is the sample SD of residuals with denominator n - p.
    """
    values, y = _rows(ds, spec, outcome=True)
    design, names, keep, (q, r, pivot) = _design(values, spec)
    n, p = design.shape
    beta, se = np.empty(p), np.empty(p)
    beta[pivot] = scipy.linalg.solve_triangular(r, q.T @ y)
    resid = y - design @ beta
    ssr = float(resid @ resid)
    resid_sd = math.sqrt(max(ssr, 0.0) / (n - p))
    r_inv = scipy.linalg.solve_triangular(r, np.eye(p))
    se[pivot] = resid_sd * np.sqrt((r_inv * r_inv).sum(axis=1))
    return FittedModel(
        kind="linear",
        spec=spec,
        resid_sd=resid_sd,
        coefficients=dict(zip(names, beta.tolist())),
        coefficient_se=dict(zip(names, se.tolist())),
        _predictor=_LinearPredictor(beta, keep),
    )


def fit_logistic_propensity(ds: TimeSeriesDataset, spec: FeatureSpec) -> FittedModel:
    """Bernoulli maximum likelihood of the exposures of `ds` via IRLS, on its rows
    laid out by `spec`.

    Converges when the largest absolute coefficient change drops below 1e-10
    (at most 50 iterations).  If a coefficient passes the separation limit
    the fit stops there and the model carries a separation warning so
    downstream trimming still functions.
    """
    values, x = _rows(ds, spec, outcome=False)
    design, names, keep, _ = _design(values, spec)
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
        spec=spec,
        coefficients=dict(zip(names, beta.tolist())),
        separation_warning=separated,
        _predictor=_LinearPredictor(beta, keep, logistic=True),
    )


def glm_from_coefficients(
    spec: FeatureSpec,
    coefficients: Mapping[str, float],
    resid_sd: float | None = None,
) -> FittedModel:
    """Assemble a GLM twin on the layout `spec` from given coefficients (no fitting).

    With `resid_sd` the model is a linear outcome twin; without it, a
    logistic propensity twin.  `coefficients` maps "intercept" and each
    feature column to its weight; missing columns default to 0, and a name
    outside them raises ConfigError.
    """
    names = (INTERCEPT, *spec.columns)
    if unknown := [name for name in coefficients if name not in names]:
        raise ConfigError(f"coefficient(s) {unknown} name no term of {list(names)}")
    coefs = {name: float(coefficients.get(name, 0.0)) for name in names}
    outcome = resid_sd is not None
    return FittedModel(
        kind="linear" if outcome else "logistic",
        spec=spec,
        resid_sd=float(resid_sd) if outcome else None,
        coefficients=coefs,
        _predictor=_LinearPredictor(list(coefs.values()), range(len(spec.columns)), logistic=not outcome),
    )


def _fit_forest(
    values: np.ndarray,
    target: np.ndarray,
    cfg: ForestConfig,
    classification: bool,
    index_sampler: IndexSampler | None,
) -> tuple[FlatForest, np.ndarray]:
    """Grow the forest on rows `values` and return it with its out-of-bag training predictions."""
    n_rows, p = values.shape
    if n_rows < 5:
        raise EstimatorError(f"forest fit needs at least 5 rows, got {n_rows}")
    mtry, node = cfg.resolve(p, classification)
    forest, inbag = build_forest(values, target, cfg.n_trees, mtry, node, cfg.seed, index_sampler)
    return forest, oob_predictions(forest, inbag, values)


def fit_forest_outcome(
    ds: TimeSeriesDataset,
    spec: FeatureSpec,
    cfg: ForestConfig,
    index_sampler: IndexSampler | None = None,
) -> FittedModel:
    """Bagged regression trees of the outcomes of `ds` on its rows laid out by
    `spec`; resid_sd from out-of-bag training residuals.

    Out-of-bag averaging keeps in-sample predictions honest (an all-trees
    average would be dominated by each row's own bootstrap copies); new
    inputs are predicted with the all-trees average.  resid_sd divides by n
    (no parameter count is available for a forest).
    """
    values, y = _rows(ds, spec, outcome=True)
    forest, oob = _fit_forest(values, y, cfg, False, index_sampler)
    resid = y - oob
    return FittedModel(
        kind="forest",
        spec=spec,
        resid_sd=float(np.sqrt(np.mean(resid * resid))),
        forest_config=cfg,
        _predictor=forest,
    )


def fit_forest_propensity(
    ds: TimeSeriesDataset,
    spec: FeatureSpec,
    cfg: ForestConfig,
    index_sampler: IndexSampler | None = None,
) -> FittedModel:
    """Bagged classification trees (Gini splits) of the exposures of `ds` on its
    rows laid out by `spec`.

    predict averages per-tree terminal-node class-1 proportions.  The stored
    in-sample propensities use out-of-bag averaging for the same reason as
    the outcome forest's residuals; they belong to `train`, the dataset of
    the fit.
    """
    values, x = _rows(ds, spec, outcome=False)
    forest, oob = _fit_forest(values, x, cfg, True, index_sampler)
    return FittedModel(
        kind="forest",
        spec=spec,
        forest_config=cfg,
        insample_prob=oob,
        train=ds,
        _predictor=forest,
    )
