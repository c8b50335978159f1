"""Correctness checks.  A miss is counted, never raised.

- GLM estimates (raw, coef, motr-glm, pstn-glm) on the fixed reference
  inputs must equal the values in ``reference.json`` within ``EXACT_ATOL``:
  close enough to allow last-bit changes from reordered arithmetic, far
  tighter than any estimator change.
- Every estimate of the timed work must be finite, and each method's mean
  bias over the run must lie within ``bias_distance`` of the mean bias
  recorded on many datasets.  This is the check forest methods get, so a
  documented change to forest growth still passes.
- Every MoTR ``runs_used`` must be <= its ``r_max``.
- Every analyze JSON must validate against ``src/nof1twin/schemas/``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXACT_ATOL = 1e-8
BIAS_SLACK = 0.1
BIAS_SDS = 4.0

SCHEMA_FOR = {
    "raw": "analyze_point",
    "coef": "analyze_point",
    "motr-glm": "analyze_motr",
    "motr-rf": "analyze_motr",
    "pstn-glm": "analyze_pstn",
    "pstn-rf": "analyze_pstn",
}


class Tally:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)
        return ok


def check_exact(tally: Tally, got: dict, reference: dict, label: str) -> None:
    """Every reference key must be present in ``got`` within EXACT_ATOL."""
    for key, want in reference.items():
        value = got.get(key)
        ok = value is not None and abs(value - want) <= EXACT_ATOL
        tally.record(ok, f"{label} {key}: got {value!r}, reference {want!r} (atol {EXACT_ATOL})")


def bias_distance(sd: float, n: int) -> float:
    """Allowed distance of a mean bias over n estimates from the reference."""
    return BIAS_SLACK + BIAS_SDS * sd / math.sqrt(n)


def check_rows(tally: Tally, rows, truth: float, population: dict) -> None:
    """Timed rows ``(key, estimate, error)``: each must be a finite estimate,
    and each key's mean bias must stay near its recorded population value."""
    biases: dict[str, list[float]] = {}
    for key, estimate, error in rows:
        ok = error is None and estimate is not None and math.isfinite(estimate)
        if tally.record(ok, f"{key}: {error or f'estimate {estimate!r}'}"):
            biases.setdefault(key, []).append(estimate - truth)
    for key, values in biases.items():
        ref = population[key]
        mean = sum(values) / len(values)
        limit = bias_distance(ref["sd"], len(values))
        tally.record(
            abs(mean - ref["mean_bias"]) <= limit,
            f"{key}: mean bias {mean:.4f} over {len(values)} is more than {limit:.4f} "
            f"from the reference {ref['mean_bias']:.4f}",
        )


def check_runs_used(tally: Tally, calls) -> None:
    for runs_used, r_max in calls:
        tally.record(runs_used <= r_max, f"runs_used {runs_used} > r_max {r_max}")


def load_schemas(schema_dir: Path) -> dict[str, dict]:
    return {
        name: json.loads((schema_dir / f"{name}.schema.json").read_text(encoding="utf-8"))
        for name in set(SCHEMA_FOR.values())
    }


def check_payload(tally: Tally, name: str, method: str, payload: dict | None, schemas) -> None:
    """Schema validity of one analyze JSON, and runs_used <= r_max in it."""
    import jsonschema

    if payload is None:
        return  # the failed call is already counted
    try:
        jsonschema.validate(payload, schemas[SCHEMA_FOR[method]])
    except jsonschema.ValidationError as exc:
        tally.record(False, f"{name}: JSON fails {SCHEMA_FOR[method]}: {exc.message}")
        return
    tally.record(True, "")
    if method.startswith("motr"):
        check_runs_used(tally, [(payload["result"]["runs_used"], payload["config"]["r_max"])])
