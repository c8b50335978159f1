"""Domain types, feature assembly, transforms, and the seeding contract.

FeatureSpec states the feature layout once: its `columns`, the positions of
the outcome lag among them (`lag`), and `encode`, which builds rows in that
order for assemble_features and for the MoTR rollout alike; no other module
works the layout out from column names.  Everything here is deterministic;
datasets are immutable after construction, expose read-only numpy arrays
and are safe to share across parallel workers.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, DataError

LAG_CONTINUOUS = "continuous"
LAG_QUARTILE = "quartile"
LAG_NONE = "none"

QUARTILE_COLUMNS = ("y_lag1_q1", "y_lag1_q2", "y_lag1_q3", "y_lag1_q4")
_LAG_COLUMNS = {LAG_CONTINUOUS: ("y_lag1",), LAG_QUARTILE: QUARTILE_COLUMNS, LAG_NONE: ()}
LAG_MODES = tuple(_LAG_COLUMNS)  # the outcome-lag encodings, as `--lag-y` names them
INTERCEPT = "intercept"  # the GLMs' constant term, named beside the feature columns

# Uniforms are clipped away from {0, 1} before the inverse normal CDF.
_U_EPS = 2.0 ** -53


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream addressing: a base seed plus a label path.

    Each distinct label path owns an independent counter-based (Philox)
    uniform stream, its key the one numpy's seed sequence derives from
    (base_seed, path); `keys` derives sibling keys by mixing each label into
    the parent's pool.  Gaussian draws are produced by inverse-CDF transform
    of that stream, so identical SeedSpec + config reproduce outputs
    bit-for-bit on the same build.  `children` serves many sibling streams
    from one generator, reset to each one's key and a zero counter, so each
    draws exactly what its own generator would.
    """

    base_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if min((self.base_seed, *self.path)) < 0:
            raise ConfigError("base_seed and path labels must be non-negative integers")

    def child(self, *labels: int) -> "SeedSpec":
        """Derive the sub-stream addressed by appending `labels` to the path."""
        return SeedSpec(self.base_seed, self.path + tuple(int(x) for x in labels))

    def keys(self, labels: Iterable[int]) -> np.ndarray:
        """The Philox key of child(label) for each label, as a (labels, 2) uint64 array.

        Each is `SeedSequence(base_seed, spawn_key=path + (label,))
        .generate_state(2, np.uint64)`.  Siblings differ only in their last
        entropy word, the label, so numpy mixes the shared words into the
        parent's pool once.  The labels, as one uint32 array, are hashed into
        that pool from the hash constant SeedSequence has reached there, four
        hashes per word mixed before, and out of it as generate_state hashes.
        Each label must be one word.
        """
        labels = list(labels)
        if labels and not 0 <= min(labels) <= max(labels) <= _MASK32:
            raise ConfigError(
                f"stream labels must lie in [0, 2**32), got {min(labels)}..{max(labels)}"
            )
        pool = np.random.SeedSequence(self.base_seed, spawn_key=self.path).pool.tolist()
        # the words mixed so far: the base's, zero-padded to the pool's four, then the path's
        base, *path = (max(1, -(-n.bit_length() // 32)) for n in (self.base_seed, *self.path))
        const = _INIT_A * pow(_MULT_A, 4 * (max(4, base) + sum(path)), 2**32) & _MASK32
        hashmix = _hasher(const, _MULT_A)
        label = np.array(labels, dtype=np.uint32)
        pool = [_mix(word, hashmix(label)) for word in pool]
        state = [w.astype(np.uint64) for w in map(_hasher(_INIT_B, _MULT_B), pool)]
        return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)

    def children(self, labels: Iterable[int]) -> Iterator[np.random.Generator]:
        """The generator of child(label) for each label in turn, bit for bit.

        One Philox serves them all: before each yield its state is set to that
        child's key, a zero counter and empty buffers, so each yielded
        generator is valid only until the next one is drawn.
        """
        bits = np.random.Philox(key=0)
        rng, state = np.random.Generator(bits), bits.state
        for key in self.keys(labels):
            state["state"]["key"] = key
            bits.state = state
            yield rng


# The hash constants of numpy's entropy mixing (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 2**32 - 1


def _hasher(const: int, mult: int):
    """numpy's entropy hashmix, its running constant starting at `const`."""
    def hashmix(value):
        nonlocal const
        value, const = value ^ const, const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    out = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return out ^ out >> 16


def normals(u: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Uniforms `u`, of any shape, mapped elementwise through the inverse normal CDF."""
    return ndtri(np.clip(u, _U_EPS, 1.0 - _U_EPS)) * scale


def as_seed(seed: "SeedSpec | int") -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(int(seed))


def setting_names(config) -> tuple[str, ...]:
    """The field names of a config dataclass or instance, its seed left out."""
    return tuple(f.name for f in fields(config) if f.name != "seed")


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------

def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TimeSeriesDataset:
    """Ordered per-period observations: outcomes `y`, 0/1 exposures `x` and
    exogenous covariate columns `exog`, by name.

    Periods are indexed by contiguous integers starting at 1.  Construction
    checks that the outcomes and covariates are finite, the exposures binary
    and every column as long as `y`; it then holds `y`, `x` (as int64) and
    each covariate as read-only arrays, and `exog` as a plain dict (empty
    when None).  Unpickling constructs again, so a copy is read-only too.
    """

    y: np.ndarray
    x: np.ndarray
    exog: Mapping[str, Sequence[float] | np.ndarray] | None = None

    def __post_init__(self) -> None:
        y, x = np.array(self.y, dtype=float), np.asarray(self.x)
        if y.ndim != 1 or x.ndim != 1 or len(y) != len(x):
            raise DataError("y and x must be one-dimensional and equal length")
        if len(y) == 0:
            raise DataError("dataset has no periods")
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0]) + 1
            raise DataError(f"non-finite outcome at period {bad}")
        if not np.all(np.isin(x, (0, 1))):
            bad = int(np.flatnonzero(~np.isin(x, (0, 1)))[0]) + 1
            raise DataError(
                f"exposure must be 0/1 after dichotomization; period {bad} "
                f"has value {x[bad - 1]!r}"
            )
        cols = {}
        for name, values in (self.exog or {}).items():
            col = np.array(values, dtype=float)
            if col.shape != y.shape:
                raise DataError(f"exogenous column {name!r} length mismatch")
            if not np.all(np.isfinite(col)):
                raise DataError(f"non-finite value in exogenous column {name!r}")
            cols[name] = _readonly(col)
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "x", _readonly(x.astype(np.int64)))
        object.__setattr__(self, "exog", cols)

    def __reduce__(self):
        return type(self), (self.y, self.x, self.exog)

    @property
    def m(self) -> int:
        return len(self.y)

    @property
    def exog_names(self) -> tuple[str, ...]:
        return tuple(self.exog)

    def exog_matrix(self, names: Sequence[str]) -> np.ndarray:
        """The named covariate columns side by side, (m, len(names)); a name the
        dataset lacks raises DataError."""
        if missing := [n for n in names if n not in self.exog]:
            raise DataError(f"exogenous column(s) {missing} missing from dataset records")
        return np.column_stack([self.exog[n] for n in names]) if names else np.empty((self.m, 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeriesDataset):
            return NotImplemented
        return (
            np.array_equal(self.y, other.y)
            and np.array_equal(self.x, other.x)
            and self.exog_names == other.exog_names
            and all(np.array_equal(self.exog[n], other.exog[n]) for n in self.exog)
        )

    # -- CSV interchange ----------------------------------------------------

    def to_csv(self, path, header_comments: Iterable[str] = ()) -> None:
        """Write the dataset CSV (`t,y,x[,exog...]`); comment lines start with '#'."""
        columns = (self.y, self.x, *self.exog.values())
        rows = zip(range(1, self.m + 1), *(c.tolist() for c in columns))
        write_csv(path, ["t", "y", "x", *self.exog], rows, header_comments)


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
    with '#' are ignored, and so is a leading UTF-8 byte-order mark.  Missing
    or non-numeric cells raise DataError with the offending line number.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            kept = [(n, raw) for n, raw in enumerate(fh, 1) if raw.strip() and not raw.startswith("#")]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not kept:
        raise DataError(f"{path}: no header row found")
    line_nos, lines = zip(*kept)
    rows = list(csv.reader(lines))
    if len(rows) != len(lines):  # a quoted cell ran past its line: read each line on its own
        rows = [next(csv.reader([raw])) for raw in lines]
    header, data, data_lines = rows[0], rows[1:], line_nos[1:]
    if header[:3] != ["t", "y", "x"]:
        raise DataError(f"{path}: header must start with t,y,x (got {header[:3]})")
    exog_names = header[3:]
    if repeated := sorted({name for name in exog_names if exog_names.count(name) > 1}):
        raise DataError(f"{path}: column name {repeated[0]!r} repeats in the header")
    if not data:
        raise DataError(f"{path}: no data rows")
    try:
        parsed = np.array([list(map(float, cells)) for cells in data])
    except ValueError:  # a ragged row or a bad cell
        parsed = np.empty(0)
    if parsed.shape != (len(data), len(header)):  # find the first bad row or cell and name its line
        for cells, lineno in zip(data, data_lines):
            if len(cells) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
            for name, cell in zip(header, cells):
                if cell.strip() == "":
                    raise DataError(f"{path}:{lineno}: missing value in column {name!r}")
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-numeric value {cell!r} in column {name!r}"
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
    """Which predictors a model sees, and so which role it has.

    A spec with `include_current_exposure` is an outcome layout: its twin
    models the outcomes.  Any other is a propensity layout: its twin models
    the exposures.  A propensity layout normally enables at least one
    lag/exogenous feature; an all-disabled spec is allowed and yields an
    intercept-only fit.
    """

    include_current_exposure: bool
    outcome_lag_mode: str = LAG_CONTINUOUS
    use_exposure_lag1: bool = False
    exog_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.outcome_lag_mode not in _LAG_COLUMNS:
            raise ConfigError(
                f"outcome_lag_mode must be one of {tuple(_LAG_COLUMNS)}, "
                f"got {self.outcome_lag_mode!r}"
            )
        object.__setattr__(self, "exog_names", tuple(self.exog_names))
        names = [INTERCEPT, *self.columns]
        if repeated := sorted({n for n in self.exog_names if names.count(n) > 1}):
            raise ConfigError(
                f"exogenous column {repeated[0]!r} repeats or shadows a feature of {names}"
            )

    @property
    def needs_lag(self) -> bool:
        return self.use_exposure_lag1 or self.outcome_lag_mode != LAG_NONE

    def _blocks(self) -> tuple[tuple[str, ...], ...]:
        """The column names fed by each input of `encode`, in order; () for an unused one."""
        return (("x",) * self.include_current_exposure, ("x_lag1",) * self.use_exposure_lag1,
                _LAG_COLUMNS[self.outcome_lag_mode], self.exog_names)

    @property
    def columns(self) -> tuple[str, ...]:
        return sum(self._blocks(), ())

    @property
    def lag(self) -> tuple[int, ...]:
        """Positions in `columns` of the outcome lag: y_lag1, its four quartile slots, or none."""
        x_t, x_lag, y_lag, _ = map(len, self._blocks())
        return tuple(range(x_t + x_lag, x_t + x_lag + y_lag))

    def encode(self, x_t, x_lag, y_lag, exog, bounds) -> np.ndarray:
        """Feature rows in `columns` order, one per entry of the current exposures `x_t`,
        from the lagged exposures `x_lag` and outcomes `y_lag`, the exogenous rows `exog`
        and, in quartile mode, the quartile `bounds`; an input the spec does not use is
        ignored and may be None."""
        if self.outcome_lag_mode == LAG_QUARTILE:
            y_lag = encode_quartile(y_lag, bounds)
        n = len(x_t)
        blocks = zip((x_t, x_lag, y_lag, exog), self._blocks())
        used = [np.reshape(v, (n, -1)) for v, names in blocks if names]
        return np.hstack([np.empty((n, 0)), *used])  # floats, (n, 0) without features


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
    return np.eye(4)[np.searchsorted(bounds, np.asarray(values, dtype=float), side="left")]


def assemble_features(ds: TimeSeriesDataset, spec: FeatureSpec) -> np.ndarray:
    """The per-period feature rows laid out by `spec`, encoded by `spec.encode`: one
    row per period from 1 + spec.needs_lag to the last, as a fresh float array.

    Lag-1 values come from the previous period of the same dataset; periods
    lacking a lag are dropped (never imputed).  Quartile boundaries are the
    empirical quartiles of all observed outcomes.
    """
    if ds.m < 3:
        raise DataError(f"dataset too short for feature assembly (m={ds.m}, need >= 3)")
    sl = slice(int(spec.needs_lag), ds.m)
    exog = ds.exog_matrix(spec.exog_names)[sl]
    bounds = quartile_bounds(ds.y) if spec.outcome_lag_mode == LAG_QUARTILE else None
    return spec.encode(ds.x[sl], ds.x[:-1], ds.y[:-1], exog, bounds)


def validate_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)
