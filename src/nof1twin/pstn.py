"""Propensity-score-twin weighting: one-shot inverse-probability estimate.

Observed outcomes are weighted by the reciprocal of the fitted probability
of the exposure actually received, after trimming extreme propensities and
restricting to the common support of the per-arm propensity ranges, with
stabilization by the retained arm proportions.  No confidence interval is
produced; the whole computation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeriesDataset, assemble_features
from .errors import ConfigError, EstimatorError
from .models import FittedModel, check_twin


@dataclass(frozen=True)
class PstnConfig:
    """Weight-hygiene switches: trim bounds, overlap restriction, stabilization."""

    trim_bounds: tuple[float, float] = (0.05, 0.95)
    use_overlap: bool = True
    use_stabilized: bool = True

    def __post_init__(self) -> None:
        lo, hi = self.trim_bounds
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigError(f"trim_bounds must satisfy 0 <= lo < hi <= 1, got {self.trim_bounds}")
        object.__setattr__(self, "trim_bounds", (float(lo), float(hi)))


@dataclass(frozen=True)
class PstnResult:
    """Weighted arm means and the exclusions that produced them."""

    delta: float
    mean_po_1: float
    mean_po_0: float
    retained: tuple[int, ...]          # period indices kept
    weights: tuple[float, ...]         # multiplier applied to each retained Y_t
    excluded: dict                     # {"trim": count, "overlap": count}
    t_index: tuple[int, ...]           # all analyzable periods, for reporting
    pi_hat: tuple[float, ...]          # propensity for each analyzable period

    def record(self) -> dict:
        """The analyze JSON's result: the arm means and the exclusion counts."""
        return {"delta": self.delta, "mean_po_1": self.mean_po_1, "mean_po_0": self.mean_po_0,
                "retained_count": len(self.retained), "excluded": dict(self.excluded)}

    def table(self) -> tuple[list[str], list[tuple]]:
        """The --periods-csv header and rows: each period's propensity and its weight."""
        weight = dict(zip(self.retained, self.weights))
        rows = [(t, pi, weight.get(t), int(t in weight)) for t, pi in zip(self.t_index, self.pi_hat)]
        return ["t", "pi_hat", "weight", "retained"], rows


def pstn_from_propensities(
    y: np.ndarray,
    x: np.ndarray,
    pi_hat: np.ndarray,
    t_index: np.ndarray,
    cfg: PstnConfig,
) -> PstnResult:
    """Weighting engine on already-predicted propensities.

    Exclusions apply in order trim -> overlap; the overlap region is the
    intersection of the per-arm propensity ranges among trim survivors.
    Stabilization proportions and arm denominators are computed on the
    retained sample.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x)
    pi = np.asarray(pi_hat, dtype=float)
    t_index = np.asarray(t_index, dtype=np.int64)
    if not (len(y) == len(x) == len(pi) == len(t_index)):
        raise EstimatorError("y, x, pi_hat, and t_index must align")

    lo, hi = cfg.trim_bounds
    keep = (pi >= lo) & (pi <= hi)
    n_trim = int((~keep).sum())

    n_overlap = 0
    if cfg.use_overlap:
        surv1 = keep & (x == 1)
        surv0 = keep & (x == 0)
        if not surv1.any() or not surv0.any():
            raise EstimatorError(
                f"an exposure arm is empty after trimming (trim removed {n_trim}); "
                "cannot form the overlap region"
            )
        region_lo = max(pi[surv1].min(), pi[surv0].min())
        region_hi = min(pi[surv1].max(), pi[surv0].max())
        inside = (pi >= region_lo) & (pi <= region_hi)
        n_overlap = int((keep & ~inside).sum())
        keep = keep & inside

    m1 = int(((x == 1) & keep).sum())
    m0 = int(((x == 0) & keep).sum())
    if m1 == 0 or m0 == 0:
        raise EstimatorError(
            f"exposure arm with x={1 if m1 == 0 else 0} emptied by exclusions "
            f"(trim removed {n_trim}, overlap removed {n_overlap})"
        )

    denom = np.where(x == 1, pi, 1.0 - pi)
    if np.any(keep & (denom == 0.0)):
        raise EstimatorError(
            "a retained period has zero probability of its observed exposure; "
            "tighten trim_bounds"
        )
    weights = np.zeros_like(y)
    weights[keep] = 1.0 / denom[keep]
    if cfg.use_stabilized:
        total = m1 + m0
        weights[keep & (x == 1)] *= m1 / total
        weights[keep & (x == 0)] *= m0 / total

    wy = weights * y
    mean1 = float(wy[keep & (x == 1)].sum() / m1)
    mean0 = float(wy[keep & (x == 0)].sum() / m0)
    return PstnResult(
        delta=mean1 - mean0,
        mean_po_1=mean1,
        mean_po_0=mean0,
        retained=tuple(int(t) for t in t_index[keep]),
        weights=tuple(float(w) for w in weights[keep]),
        excluded={"trim": n_trim, "overlap": n_overlap},
        t_index=tuple(int(t) for t in t_index),
        pi_hat=tuple(float(p) for p in pi),
    )


def run_pstn(ds: TimeSeriesDataset, model: FittedModel, cfg: PstnConfig) -> PstnResult:
    """Predict each period's propensity once, then weight the observed outcomes.

    The feature rows are those of the twin's own layout, `model.spec`, for
    periods 1 + spec.needs_lag on.  When `ds` is the dataset the model was
    fitted on (`model.train`; forest fits keep it with their out-of-bag
    in-sample propensities), those stored propensities are used; otherwise
    the propensities are predicted from the assembled features.
    """
    check_twin(model, "PSTn", outcome=False)
    lag = int(model.spec.needs_lag)
    pi = model.insample_prob if ds == model.train else model.predict(assemble_features(ds, model.spec))
    return pstn_from_propensities(ds.y[lag:], ds.x[lag:], pi, np.arange(1 + lag, ds.m + 1), cfg)
