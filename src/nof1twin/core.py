"""Domain types, feature assembly, transforms, and the seeding contract.

Everything here is deterministic and immutable after construction: datasets
and feature matrices expose read-only numpy arrays and are safe to share
across parallel workers.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, DataError

LAG_CONTINUOUS = "continuous_lag1"
LAG_QUARTILE = "quartile_lag1"
LAG_NONE = "none"
_LAG_MODES = (LAG_CONTINUOUS, LAG_QUARTILE, LAG_NONE)

QUARTILE_COLUMNS = ("y_lag1_q1", "y_lag1_q2", "y_lag1_q3", "y_lag1_q4")

# Uniforms are clipped away from {0, 1} before the inverse normal CDF.
_U_EPS = 2.0 ** -53


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream addressing: a base seed plus a label path.

    Each distinct label path owns an independent counter-based (Philox)
    uniform stream.  Gaussian draws are produced by inverse-CDF transform
    of that stream, so identical SeedSpec + config reproduce outputs
    bit-for-bit on the same build.
    """

    base_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.base_seed < 0:
            raise ConfigError("base_seed must be a non-negative integer")

    def child(self, *labels: int) -> "SeedSpec":
        """Derive the sub-stream addressed by appending `labels` to the path."""
        return SeedSpec(self.base_seed, self.path + tuple(int(x) for x in labels))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.base_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def uniforms(self, n: int) -> np.ndarray:
        return self.generator().random(n)

    def normals(self, n: int, scale: float = 1.0) -> np.ndarray:
        """Gaussian draws via the inverse normal CDF on the uniform stream."""
        return normals(self.generator(), n, scale)


def normals(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """The next n uniforms of `rng` mapped through the inverse normal CDF."""
    u = np.clip(rng.random(n), _U_EPS, 1.0 - _U_EPS)
    return ndtri(u) * scale


def as_seed(seed: "SeedSpec | int") -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(int(seed))


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------

def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


class TimeSeriesDataset:
    """Ordered per-period observations.

    Periods are indexed by contiguous integers starting at 1.  Outcomes must
    be finite, exposures binary; exogenous covariates share one name set
    across all periods.
    """

    def __init__(
        self,
        y: Sequence[float] | np.ndarray,
        x: Sequence[int] | np.ndarray,
        exog: Mapping[str, Sequence[float] | np.ndarray] | None = None,
    ):
        y_arr = np.asarray(y, dtype=float)
        x_arr = np.asarray(x)
        if y_arr.ndim != 1 or x_arr.ndim != 1 or len(y_arr) != len(x_arr):
            raise DataError("y and x must be one-dimensional and equal length")
        if len(y_arr) == 0:
            raise DataError("dataset has no periods")
        if not np.all(np.isfinite(y_arr)):
            bad = int(np.flatnonzero(~np.isfinite(y_arr))[0]) + 1
            raise DataError(f"non-finite outcome at period {bad}")
        if not np.all(np.isin(x_arr, (0, 1))):
            bad = int(np.flatnonzero(~np.isin(x_arr, (0, 1)))[0]) + 1
            raise DataError(
                f"exposure must be 0/1 after dichotomization; period {bad} "
                f"has value {x_arr[bad - 1]!r}"
            )
        self._y = _readonly(y_arr)
        self._x = _readonly(x_arr.astype(np.int64))
        names = tuple(exog.keys()) if exog else ()
        cols = {}
        for name in names:
            col = np.asarray(exog[name], dtype=float)
            if col.shape != y_arr.shape:
                raise DataError(f"exogenous column {name!r} length mismatch")
            if not np.all(np.isfinite(col)):
                raise DataError(f"non-finite value in exogenous column {name!r}")
            cols[name] = _readonly(col)
        self._exog = cols
        self._exog_names = names

    # -- accessors ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._y)

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def exog_names(self) -> tuple[str, ...]:
        return self._exog_names

    def exog(self, name: str) -> np.ndarray:
        if name not in self._exog:
            raise DataError(f"exogenous column {name!r} not present in dataset")
        return self._exog[name]

    def exog_matrix(self, names: Sequence[str]) -> np.ndarray:
        if not names:
            return np.empty((self.m, 0))
        return np.column_stack([self.exog(n) for n in names])

    def __len__(self) -> int:
        return self.m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeriesDataset):
            return NotImplemented
        return (
            np.array_equal(self._y, other._y)
            and np.array_equal(self._x, other._x)
            and self._exog_names == other._exog_names
            and all(np.array_equal(self._exog[n], other._exog[n]) for n in self._exog_names)
        )

    # -- CSV interchange ----------------------------------------------------

    def to_csv(self, path, header_comments: Iterable[str] = ()) -> None:
        """Write the dataset CSV (`t,y,x[,exog...]`); comment lines start with '#'."""
        columns = (self._y, self._x, *(self._exog[n] for n in self._exog_names))
        rows = zip(range(1, self.m + 1), *(c.tolist() for c in columns))
        write_csv(path, ["t", "y", "x", *self._exog_names], rows, header_comments)

    @classmethod
    def from_csv(cls, path) -> "TimeSeriesDataset":
        y, x, exog = load_table(path)
        return cls(y=y, x=x.astype(np.int64) if np.all(np.isin(x, (0, 1))) else x, exog=exog)


def write_text(path, text: str) -> None:
    """Write `text` to `path` as is; a path that cannot be written raises DataError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _cell(value):
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def write_csv(path, header: Sequence[str], rows: Iterable, comments: Iterable[str] = ()) -> None:
    """Write a CSV table after one `# line` comment per entry of `comments`.

    Every float cell, numpy floats included, is written as `repr(float(v))`
    (round-trip exact) and `None` as an empty cell.
    """
    buf = io.StringIO()
    buf.writelines(f"# {line}\n" for line in comments)
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    write_text(path, buf.getvalue())


def load_table(path) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Parse the dataset CSV into raw columns, before any transform.

    Returns (y, x, exog) where x may still be continuous, after checking that
    the period column t holds the contiguous integers 1..m.  Lines starting
    with '#' are ignored.  Missing or non-numeric cells raise DataError with
    the offending line number.
    """
    rows: list[list[str]] = []
    line_nos: list[int] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.startswith("#") or not raw.strip():
                    continue
                rows.append(next(csv.reader([raw])))
                line_nos.append(lineno)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no header row found")
    header, data, data_lines = rows[0], rows[1:], line_nos[1:]
    if header[:3] != ["t", "y", "x"]:
        raise DataError(f"{path}: header must start with t,y,x (got {header[:3]})")
    exog_names = header[3:]
    if not data:
        raise DataError(f"{path}: no data rows")
    parsed = np.empty((len(data), len(header)))
    for i, (cells, lineno) in enumerate(zip(data, data_lines)):
        if len(cells) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        for j, cell in enumerate(cells):
            if cell.strip() == "":
                raise DataError(f"{path}:{lineno}: missing value in column {header[j]!r}")
            try:
                parsed[i, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column {header[j]!r}"
                ) from None
    if not np.array_equal(parsed[:, 0], np.arange(1, len(parsed) + 1)):
        raise DataError(f"{path}: period column t must be contiguous integers starting at 1")
    exog = {name: parsed[:, 3 + k] for k, name in enumerate(exog_names)}
    return parsed[:, 1], parsed[:, 2], exog


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def dichotomize_exposure(values: Sequence[float] | np.ndarray) -> tuple[np.ndarray, float]:
    """Median-split a continuous exposure: 1 iff value > median.

    The threshold is the midpoint-of-order-statistics median (average of the
    two central order statistics for even n), and the comparison is strict,
    so values equal to the median land in the low arm.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise DataError("dichotomize_exposure needs at least 2 values")
    if not np.all(np.isfinite(arr)):
        raise DataError("dichotomize_exposure requires finite values")
    if np.all(arr == arr[0]):
        raise DataError(
            f"cannot dichotomize: all {len(arr)} values equal the constant {arr[0]!r}"
        )
    threshold = float(np.median(arr))
    return (arr > threshold).astype(np.int64), threshold


def log10_transform(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Elementwise base-10 logarithm of strictly positive values."""
    arr = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~(arr > 0))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"log10 undefined for value {arr[i]!r} at index {i}")
    return np.log10(arr)


# ---------------------------------------------------------------------------
# Feature assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureSpec:
    """Which predictors a model sees.

    `include_current_exposure` must be True for outcome models.  Propensity
    models normally enable at least one lag/exogenous feature; an
    all-disabled spec is allowed and yields an intercept-only fit.
    """

    include_current_exposure: bool
    outcome_lag_mode: str = LAG_CONTINUOUS
    use_exposure_lag1: bool = False
    exog_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.outcome_lag_mode not in _LAG_MODES:
            raise ConfigError(
                f"outcome_lag_mode must be one of {_LAG_MODES}, got {self.outcome_lag_mode!r}"
            )
        object.__setattr__(self, "exog_names", tuple(self.exog_names))

    @property
    def needs_lag(self) -> bool:
        return self.use_exposure_lag1 or self.outcome_lag_mode != LAG_NONE

    @property
    def columns(self) -> tuple[str, ...]:
        cols: list[str] = []
        if self.include_current_exposure:
            cols.append("x")
        if self.use_exposure_lag1:
            cols.append("x_lag1")
        if self.outcome_lag_mode == LAG_CONTINUOUS:
            cols.append("y_lag1")
        elif self.outcome_lag_mode == LAG_QUARTILE:
            cols.extend(QUARTILE_COLUMNS)
        cols.extend(self.exog_names)
        return tuple(cols)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-period feature rows aligned to period indices t_index."""

    values: np.ndarray
    columns: tuple[str, ...]
    t_index: np.ndarray
    dropped_head: int
    spec: FeatureSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "t_index", _readonly(np.asarray(self.t_index, dtype=np.int64)))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


def quartile_bounds(values: Sequence[float] | np.ndarray) -> tuple[float, float, float]:
    """Order-statistic quartile boundaries (median-of-halves).

    The lower/upper halves exclude the middle order statistic when n is odd;
    each boundary is the midpoint-of-order-statistics median of its half.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    n = len(arr)
    if n < 4:
        raise DataError("quartile boundaries need at least 4 values")
    half = n // 2
    lower = arr[:half]
    upper = arr[n - half:]
    return float(np.median(lower)), float(np.median(arr)), float(np.median(upper))


def encode_quartile(values: np.ndarray, bounds: tuple[float, float, float]) -> np.ndarray:
    """One-hot quartile slots; ties at a boundary go to the lower quartile."""
    v = np.asarray(values, dtype=float)
    q1, q2, q3 = bounds
    slot = np.where(v <= q1, 0, np.where(v <= q2, 1, np.where(v <= q3, 2, 3)))
    out = np.zeros((len(v), 4))
    out[np.arange(len(v)), slot] = 1.0
    return out


def _encode_block(
    spec: FeatureSpec,
    x_t: np.ndarray,
    x_lag: np.ndarray | None,
    y_lag: np.ndarray | None,
    exog: np.ndarray | None,
    bounds: tuple[float, float, float] | None,
) -> np.ndarray:
    """Stack feature columns in the canonical FeatureSpec order."""
    cols: list[np.ndarray] = []
    n = len(x_t)
    if spec.include_current_exposure:
        cols.append(np.asarray(x_t, dtype=float).reshape(n, 1))
    if spec.use_exposure_lag1:
        cols.append(np.asarray(x_lag, dtype=float).reshape(n, 1))
    if spec.outcome_lag_mode == LAG_CONTINUOUS:
        cols.append(np.asarray(y_lag, dtype=float).reshape(n, 1))
    elif spec.outcome_lag_mode == LAG_QUARTILE:
        cols.append(encode_quartile(np.asarray(y_lag, dtype=float), bounds))
    if spec.exog_names:
        cols.append(np.asarray(exog, dtype=float))
    if not cols:
        return np.empty((n, 0))
    return np.hstack(cols)


def assemble_features(ds: TimeSeriesDataset, spec: FeatureSpec) -> FeatureMatrix:
    """Build the per-period design described by `spec`.

    Lag-1 values come from the previous period of the same dataset; periods
    lacking a lag are dropped (never imputed).  Quartile boundaries are the
    empirical quartiles of all observed outcomes.
    """
    if ds.m < 3:
        raise DataError(f"dataset too short for feature assembly (m={ds.m}, need >= 3)")
    missing = [n for n in spec.exog_names if n not in ds.exog_names]
    if missing:
        raise DataError(f"exogenous column(s) {missing} missing from dataset records")
    dropped = 1 if spec.needs_lag else 0
    sl = slice(dropped, ds.m)
    values = _encode_block(
        spec,
        x_t=ds.x[sl],
        x_lag=ds.x[: ds.m - 1] if spec.use_exposure_lag1 else None,
        y_lag=ds.y[: ds.m - 1] if spec.outcome_lag_mode != LAG_NONE else None,
        exog=ds.exog_matrix(spec.exog_names)[sl] if spec.exog_names else None,
        bounds=quartile_bounds(ds.y) if spec.outcome_lag_mode == LAG_QUARTILE else None,
    )
    return FeatureMatrix(
        values=values,
        columns=spec.columns,
        t_index=np.arange(1 + dropped, ds.m + 1),
        dropped_head=dropped,
        spec=spec,
    )


def validate_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)
