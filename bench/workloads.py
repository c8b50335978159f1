"""The three workloads: their inputs, made only from the benchmark seed, and
one unit of work each.

- ``study-glm``: one ``replicate`` call, H = 100 datasets at m = 220, methods
  raw, coef, motr-glm, pstn-glm.  The linear-twin MoTR rollout dominates.
- ``study-rf``: one ``replicate`` call, H = 4 datasets at m = 220, methods
  motr-rf, pstn-rf with 100 trees.  Forest tree-walk prediction (read path)
  and tree growth (write path) dominate.
- ``analyze-365``: one m = 365 daily series with a ``weekend`` column, put
  through eight in-process ``nof1twin analyze`` calls at the single-run
  defaults (r_max 200, default features) except for 100 trees.

Unit i of a run draws its inputs from ``unit_seed(seed, i)``; nof1twin sees
only those inputs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from nof1twin import cli, harness
from nof1twin.arco import SimConfig, simulate_dataset
from nof1twin.core import SeedSpec, TimeSeriesDataset
from nof1twin.harness import Method, MethodOptions, StudyConfig, default_study_params
from nof1twin.models import ForestConfig

M_STUDY = 220
M_ANALYZE = 365
STUDY_TREES = 100
# The 500-tree default made one analyze pass take 10-20 s, one or two per
# run, and datasets_per_s too unsteady across seeds to bound.
ANALYZE_TREES = 100
TRUE_EFFECT = default_study_params()[0].beta_x

GLM_METHODS = ("raw", "coef", "motr-glm", "pstn-glm")
RF_METHODS = ("motr-rf", "pstn-rf")
STUDY_SIZES = {"study-glm": 100, "study-rf": 4}
STUDY_METHODS = {"study-glm": GLM_METHODS, "study-rf": RF_METHODS}
WORKLOADS = ("study-glm", "study-rf", "analyze-365")

_QUARTILE = ["--lag-y", "quartile", "--lag-x", "--exog", "weekend"]
# analyze call name -> (method, extra arguments)
ANALYZE_CALLS = {
    "raw": ("raw", []),
    "coef": ("coef", []),
    "motr-glm": ("motr-glm", []),
    "pstn-glm": ("pstn-glm", []),
    "motr-rf": ("motr-rf", []),
    "pstn-rf": ("pstn-rf", []),
    "motr-glm-q": ("motr-glm", _QUARTILE),
    "motr-rf-q": ("motr-rf", _QUARTILE),
}


def unit_seed(seed: int, i: int) -> int:
    """Base seed of unit i; a pure function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def size(workload: str) -> dict:
    if workload == "analyze-365":
        return {"m": M_ANALYZE, "calls": list(ANALYZE_CALLS), "n_trees": ANALYZE_TREES, "r_max": 200}
    return {
        "h_datasets": STUDY_SIZES[workload],
        "m": M_STUDY,
        "methods": list(STUDY_METHODS[workload]),
        "n_trees": STUDY_TREES,
        "r_max": 200,
    }


# -- study workloads ---------------------------------------------------------

def study_config(methods, h: int, m: int, seed: int, n_trees: int = STUDY_TREES) -> StudyConfig:
    arco, prop = default_study_params()
    return StudyConfig(
        h_datasets=h,
        m_analysis=m,
        params=arco,
        propensity=prop,
        methods=tuple(Method.parse(name) for name in methods),
        seed=seed,
        options=MethodOptions(forest=ForestConfig(n_trees=n_trees)),
        workers=1,
    )


def study_rows(report) -> list[tuple[int, str, float | None, str | None]]:
    """(h, method, estimate, error) for every row of a replication report."""
    return [(r.h, r.method.value.replace("_", "-"), r.estimate, r.error) for r in report.rows]


# -- analyze workload --------------------------------------------------------

def analyze_series(seed: int, m: int = M_ANALYZE) -> TimeSeriesDataset:
    """A simulated daily series plus a ``weekend`` indicator whose weekday
    offset also comes from the seed."""
    arco, prop = default_study_params()
    ds = simulate_dataset(arco, prop, SimConfig(m_analysis=m, burn_in=2, seed=SeedSpec(seed)))
    offset = seed % 7
    weekend = ((np.arange(m) + offset) % 7 >= 5).astype(float)
    return TimeSeriesDataset(y=ds.y, x=ds.x, exog={"weekend": weekend})


@dataclass
class CallResult:
    name: str
    seconds: float
    exit_code: int
    payload: dict | None


def analyze_argv(name: str, data: str, outdir: str, extra: tuple[str, ...] = ()) -> list[str]:
    method, flags = ANALYZE_CALLS[name]
    stem = os.path.join(outdir, name)
    argv = ["analyze", "--data", data, "--method", method, "-o", f"{stem}.json", *flags]
    if method.endswith("rf"):
        argv += ["--n-trees", str(ANALYZE_TREES)]
    if method.startswith("motr"):
        argv += ["--runs-csv", f"{stem}_runs.csv"]
    elif method.startswith("pstn"):
        argv += ["--periods-csv", f"{stem}_periods.csv"]
    return argv + list(extra)


def run_analyze(data: str, outdir: str, names=tuple(ANALYZE_CALLS), extra=()) -> list[CallResult]:
    """Each named call through ``nof1twin.cli.main``, timed one by one."""
    out = []
    for name in names:
        argv = analyze_argv(name, data, outdir, extra)
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
        payload = None
        if code == 0:
            with open(argv[argv.index("-o") + 1], encoding="utf-8") as fh:
                payload = json.load(fh)
        out.append(CallResult(name, seconds, code, payload))
    return out


# -- one unit of work --------------------------------------------------------

class Workload:
    """Builds the inputs of unit i and runs it; ``run`` returns the rows
    ``(key, estimate, error)`` that the correctness checks read."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.calls: list[CallResult] = []

    @property
    def datasets_per_unit(self) -> int:
        return STUDY_SIZES.get(self.name, 1)

    @property
    def rows_per_unit(self) -> int:
        if self.name == "analyze-365":
            return len(ANALYZE_CALLS)
        return STUDY_SIZES[self.name] * len(STUDY_METHODS[self.name])

    def inputs(self, i: int):
        """The inputs of unit i: a StudyConfig, or the path of a dataset CSV."""
        if self.name == "analyze-365":
            path = os.path.join(self.workdir, f"series_{i}.csv")
            analyze_series(unit_seed(self.seed, i)).to_csv(path)
            return path
        return study_config(STUDY_METHODS[self.name], STUDY_SIZES[self.name], M_STUDY,
                            unit_seed(self.seed, i))

    def run(self, inputs) -> list[tuple[str, float | None, str | None]]:
        if self.name == "analyze-365":
            calls = run_analyze(inputs, self.workdir)
            self.calls.extend(calls)
            return [
                (c.name, c.payload["result"]["delta"] if c.payload else None,
                 None if c.exit_code == 0 else f"exit code {c.exit_code}")
                for c in calls
            ]
        report = harness.replicate(inputs)
        return [(method, est, err) for _, method, est, err in study_rows(report)]

    def warm_up(self) -> None:
        """A small untimed pass over the same code paths."""
        if self.name == "analyze-365":
            path = os.path.join(self.workdir, "warmup.csv")
            analyze_series(0, m=40).to_csv(path)
            run_analyze(path, self.workdir, extra=("--n-trees", "10"))
        else:
            harness.replicate(study_config(STUDY_METHODS[self.name], 2, 30, 0, n_trees=10))
