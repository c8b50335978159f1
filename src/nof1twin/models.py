"""Outcome and propensity twins behind one common interface.

A twin's role is its layout: a FeatureSpec with the current exposure is an
outcome layout, and its twin models the outcomes; any other is a propensity
layout, and its twin models the exposures of the same periods.  There are
two fitters, one per family: fit_glm (least squares via QR on an outcome
layout, logistic regression via IRLS on a propensity layout) and fit_forest
(bagged CART regression or classification trees).  Each takes a dataset and
a FeatureSpec, assembles the rows and their labels itself, and is a
deterministic function of (data, layout, config, seed).  It returns a
FittedModel that carries the FeatureSpec of its rows, so the estimators that
use a twin take no layout of their own.  A GLM twin predicts from the
coefficients it reports, a forest twin from its trees.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.special import expit

from .core import (INTERCEPT, LAG_QUARTILE, FeatureSpec, SeedSpec, TimeSeriesDataset, as_seed,
                   assemble_features, validate_finite)
from .errors import ConfigError, ConvergenceError, EstimatorError
from .forest import (_SQRT_MAX, FlatForest, IndexSampler, build_forest, draw_forest, grow_forest,
                     oob_predictions, runs_oob)

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

    def resolve(self, spec: FeatureSpec) -> tuple[int, int]:
        """(mtry, min_node_size) of a forest on `spec`'s layout: regression on an
        outcome layout, classification on a propensity one."""
        p, classification = len(spec.columns), not spec.include_current_exposure
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


@dataclass(frozen=True)
class FittedModel:
    """A trained twin on rows laid out by `spec`: an outcome mean on an outcome
    layout (one with the current exposure), an exposure probability on any other.

    A GLM twin predicts from the `coefficients` it reports; a forest twin
    (one with a `forest_config`) from the trees in `forest`.  Outcome models
    carry their residual scale in `resid_sd`; propensity models leave it None.
    Forest propensity models also keep their out-of-bag in-sample
    probabilities together with `train`, the dataset they were fitted on.
    """

    spec: FeatureSpec
    resid_sd: float | None = None
    coefficients: dict[str, float] | None = None
    coefficient_se: dict[str, float] | None = None
    separation_warning: bool = False
    forest_config: ForestConfig | None = None
    insample_prob: np.ndarray | None = field(default=None, compare=False)
    train: TimeSeriesDataset | None = field(default=None, repr=False, compare=False)
    trees: FlatForest | Callable[[], FlatForest] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def forest(self) -> FlatForest | None:
        """A forest twin's trees (None for a GLM): `trees`, or what it grows the first time
        they are read when it is a grower (a propensity forest whose out-of-bag
        propensities came from its label runs)."""
        return self.trees() if callable(self.trees) else self.trees

    @property
    def is_outcome(self) -> bool:
        return self.spec.include_current_exposure

    @property
    def kind(self) -> str:
        """'forest' for a forest twin, else 'linear' on an outcome layout, 'logistic' on any other."""
        if self.forest_config is not None:
            return "forest"
        return "linear" if self.is_outcome else "logistic"

    def predict(self, f: np.ndarray) -> np.ndarray:
        """Mean outcome or exposure probability for rows laid out as in the fit: the trees'
        average, or the GLM's split sum (through the logistic link on a propensity layout)."""
        if self.forest_config is not None:
            return self.forest.predict(f)
        eta = self.split(np.atleast_2d(np.asarray(f, dtype=float)))[0]
        return eta if self.is_outcome else expit(eta)

    def split(self, f: np.ndarray, col: float = math.inf) -> tuple[np.ndarray, float, list]:
        """A GLM's intercept plus its terms before column `col` (all by default), col's
        coefficient and each later term, on rows `f`: head + slope * v plus each tail term
        in turn is predict's linear predictor, bit for bit, with v in `col`.  Terms are
        elementwise, so no row's value depends on the other rows in the call."""
        coefs = self.coefficients
        head, slope, tail = np.full(len(f), float(coefs[INTERCEPT])), 0.0, []
        for k, name in enumerate(self.spec.columns):
            if name not in coefs:  # the quartile reference slot a fit drops
                continue
            if k < col:
                head += coefs[name] * f[:, k]
            elif k == col:
                slope = coefs[name]
            else:
                tail.append(coefs[name] * f[:, k])
        return head, slope, tail

    def summary(self) -> dict:
        out: dict = {"kind": self.kind, "columns": list(self.spec.columns)}
        if self.is_outcome:
            out["resid_sd"] = self.resid_sd
        if self.coefficients is not None:
            out["coefficients"] = dict(self.coefficients)
            if not self.is_outcome:
                out["separation_warning"] = self.separation_warning
        if self.forest_config is not None:
            mtry, node = self.forest_config.resolve(self.spec)
            out["forest"] = {"n_trees": self.forest_config.n_trees, "mtry": mtry, "min_node_size": node}
        return out


def check_twin(model: FittedModel, method: str, outcome: bool) -> None:
    """Reject a twin of the wrong kind for `method`: an outcome or a propensity model."""
    if model.is_outcome != outcome:
        need, got = ("an outcome", "propensity") if outcome else ("a propensity", "outcome")
        raise EstimatorError(f"{method} needs {need} model, got a {model.kind} {got} model")


def _rows(ds: TimeSeriesDataset, spec: FeatureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The feature rows of `ds` laid out by `spec` and their labels as floats: the
    outcomes of the same periods on an outcome layout, the exposures on a
    propensity layout, which must hold both classes."""
    outcome = spec.include_current_exposure
    values = assemble_features(ds, spec)
    labels = np.asarray((ds.y if outcome else ds.x)[spec.needs_lag:], dtype=float)
    if not outcome and not (np.any(labels == 1) and np.any(labels == 0)):
        raise EstimatorError("propensity fit needs both exposure classes present")
    return values, labels


def _design(values: np.ndarray, spec: FeatureSpec) -> tuple[np.ndarray, list[str], tuple]:
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
    import scipy.linalg  # here, not at the top: a process that fits no GLM never loads it (6 MB)

    q, r, pivot = scipy.linalg.qr(design, mode="economic", pivoting=True)
    # a column is collinear when its part outside the columns pivoted ahead of it is short
    # against its own length (R's lm rule), so no other column's units can make it so; the
    # length is taken on the column over its largest magnitude, whose squares cannot overflow
    top = np.abs(design).max(axis=0)
    length = top * np.linalg.norm(design / np.where(top > 0, top, 1.0), axis=0)
    tol = _RANK_TOL * max(n, p) * length[pivot]
    if collinear := [names[j] for j, d, t in zip(pivot, np.abs(np.diag(r)), tol) if not d > t]:
        raise EstimatorError(f"design matrix is rank deficient; collinear column(s): {collinear}")
    return design, names, (q, r, pivot)


def fit_glm(ds: TimeSeriesDataset, spec: FeatureSpec) -> FittedModel:
    """The GLM twin of `ds` on the layout `spec`, with intercept: least squares of
    the outcomes on an outcome layout, Bernoulli maximum likelihood of the
    exposures via IRLS on a propensity layout.

    Least-squares coefficients minimize the sum of squared residuals via the
    design's pivoted QR; resid_sd is the sample SD of residuals with
    denominator n - p.  IRLS converges when the largest absolute coefficient
    change drops below 1e-10 (at most 50 iterations).  If a fitted logit
    |design @ beta| passes the separation limit the fit stops there and the
    model carries a separation warning so downstream trimming still functions.
    """
    values, labels = _rows(ds, spec)
    design, names, (q, r, pivot) = _design(values, spec)
    if not spec.include_current_exposure:
        beta, separated = _irls(design, labels, names)
        return FittedModel(
            spec=spec,
            coefficients=dict(zip(names, beta.tolist())),
            separation_warning=separated,
        )
    import scipy.linalg  # loaded by _design

    n, p = design.shape
    beta, se = np.empty(p), np.empty(p)
    beta[pivot] = scipy.linalg.solve_triangular(r, q.T @ labels)
    resid = labels - design @ beta
    e = int(np.frexp(np.abs(resid).max())[1])
    resid = np.ldexp(resid, -e)  # exact, max |r| in [0.5, 1): the sum of squares cannot overflow
    resid_sd = math.ldexp(math.sqrt(float(resid @ resid) / (n - p)), e)
    r_inv = scipy.linalg.solve_triangular(r, np.eye(p))
    se[pivot] = resid_sd * np.sqrt((r_inv * r_inv).sum(axis=1))
    return FittedModel(
        spec=spec,
        resid_sd=resid_sd,
        coefficients=dict(zip(names, beta.tolist())),
        coefficient_se=dict(zip(names, se.tolist())),
    )


def _irls(design: np.ndarray, x: np.ndarray, names: list[str]) -> tuple[np.ndarray, bool]:
    """Logistic coefficients of the exposures `x` on `design` (columns `names`), and whether
    the fit separated."""
    # with weights w <= 1/4, an entry of the weighted normal equations is at most
    # n max|d_j| max|d_k| / 4, and a score entry at most n max|d_j|: all finite when every
    # column's max|d_j| is at most 2 sqrt(largest double / n)
    top = np.abs(design).max(axis=0)
    k = int(np.argmax(top))
    if top[k] > 2.0 * _SQRT_MAX / math.sqrt(len(design)):
        raise EstimatorError(
            f"column {names[k]!r} up to {top[k]:.3g} in size overflows the logistic fit's "
            "weighted normal equations"
        )
    beta = np.zeros(design.shape[1])
    eta, trace = design @ beta, []
    for _ in range(_IRLS_MAX_ITER):
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
        eta = design @ beta
        change = float(np.max(np.abs(step)))
        trace.append(change)
        if np.max(np.abs(eta)) > SEPARATION_LIMIT:
            return beta, True
        if change < _IRLS_TOL:
            return beta, False
    raise ConvergenceError(
        f"IRLS did not converge in {_IRLS_MAX_ITER} iterations; "
        f"max-step trace: {[f'{c:.3g}' for c in trace]}"
    )


def glm_from_coefficients(
    spec: FeatureSpec,
    coefficients: Mapping[str, float],
    resid_sd: float | None = None,
) -> FittedModel:
    """Assemble a GLM twin on the layout `spec` from given coefficients (no fitting).

    On an outcome layout the model is a linear outcome twin and needs
    `resid_sd`; on a propensity layout it is a logistic propensity twin and
    takes none.  `coefficients` maps "intercept" and each feature column to
    its weight; missing columns default to 0.  A name outside them, a
    non-finite weight or a non-finite or negative resid_sd raises ConfigError.
    """
    outcome = spec.include_current_exposure
    if outcome == (resid_sd is None):
        raise ConfigError(
            f"resid_sd is needed for an outcome layout (one with the current exposure) and only "
            f"for one; got resid_sd={resid_sd} on columns {list(spec.columns)}"
        )
    names = (INTERCEPT, *spec.columns)
    if unknown := [name for name in coefficients if name not in names]:
        raise ConfigError(f"coefficient(s) {unknown} name no term of {list(names)}")
    coefs = {name: validate_finite(f"coefficient {name!r}", coefficients.get(name, 0.0)) for name in names}
    if outcome and validate_finite("resid_sd", resid_sd) < 0:
        raise ConfigError(f"resid_sd must be >= 0, got {resid_sd!r}")
    return FittedModel(
        spec=spec,
        resid_sd=float(resid_sd) if outcome else None,
        coefficients=coefs,
    )


def fit_forest(
    ds: TimeSeriesDataset,
    spec: FeatureSpec,
    cfg: ForestConfig,
    index_sampler: IndexSampler | None = None,
) -> FittedModel:
    """Bagged trees of `ds` on its rows laid out by `spec`: regression trees of the
    outcomes on an outcome layout, classification trees (Gini splits) of the
    exposures on a propensity layout.

    Out-of-bag averaging keeps in-sample predictions honest (an all-trees
    average would be dominated by each row's own bootstrap copies); new
    inputs are predicted with the all-trees average, for a propensity forest
    of the per-tree terminal-node class-1 proportions.  An outcome forest's
    resid_sd comes from its out-of-bag training residuals and divides by n
    (no parameter count is available for a forest).  A propensity forest
    keeps its out-of-bag in-sample propensities with `train`, the dataset of
    the fit.  Where forest.runs_oob reads them from the trees' label runs (one
    feature, no NaN, min_node_size 1, bootstraps of at most 2^12 rows: every
    default pstn-rf twin), its trees grow from the same draws only when
    `forest` is first read, such as by predict on new rows.
    """
    values, labels = _rows(ds, spec)
    if len(values) < 5:
        raise EstimatorError(f"forest fit needs at least 5 rows, got {len(values)}")
    mtry, node = cfg.resolve(spec)
    if spec.include_current_exposure:
        forest, inbag = build_forest(values, labels, cfg.n_trees, mtry, node, cfg.seed, index_sampler)
        resid = labels - oob_predictions(forest, inbag, values)
        return FittedModel(
            spec=spec,
            resid_sd=float(np.sqrt(np.mean(resid * resid))),
            forest_config=cfg,
            trees=forest,
        )
    draws = draw_forest(values, cfg.n_trees, mtry, cfg.seed, index_sampler)
    trees = partial(grow_forest, values, labels, draws, mtry, node)
    if (oob := runs_oob(values, labels, draws, node)) is None:
        trees = trees()
        oob = oob_predictions(trees, draws.inbag, values)
    return FittedModel(spec=spec, forest_config=cfg, insample_prob=oob, train=ds, trees=trees)
