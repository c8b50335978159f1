"""Record ``reference.json``: the values the correctness checks compare with.

Run once from the repository root on a commit whose estimates are trusted:

    python3 bench/reference.py

- ``exact``: GLM estimates on fixed inputs (REF_SEED), compared within
  ``checks.EXACT_ATOL`` on every benchmark run.
- ``population``: each method's mean and SD of bias over many datasets
  (POP_SEED), which bound the mean bias of a run's timed work.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from nof1twin import harness  # noqa: E402

PATH = Path(__file__).resolve().parent / "reference.json"
REF_SEED = 20220801
POP_SEED = 7302022
EXACT_STUDY_H = 5
EXACT_ANALYZE_CALLS = ("raw", "coef", "motr-glm", "pstn-glm", "motr-glm-q")
POP_STUDY_H = {"study-glm": 200, "study-rf": 30}
POP_ANALYZE_SERIES = 20


def exact_study(seed: int) -> dict[str, float]:
    """h/method -> estimate of the fixed GLM reference study."""
    study = wl.study_config(wl.GLM_METHODS, EXACT_STUDY_H, wl.M_STUDY, seed)
    return {f"{h}/{m}": est for h, m, est, _ in wl.study_rows(harness.replicate(study))}


def exact_analyze(seed: int, workdir: str) -> dict[str, float]:
    """call -> delta of the GLM analyze calls on the fixed reference series."""
    path = os.path.join(workdir, "reference.csv")
    wl.analyze_series(seed).to_csv(path)
    calls = wl.run_analyze(path, workdir, EXACT_ANALYZE_CALLS)
    return {c.name: c.payload["result"]["delta"] for c in calls if c.payload}


def _summary(biases: dict[str, list[float]]) -> dict:
    return {
        key: {"mean_bias": statistics.fmean(v), "sd": statistics.stdev(v), "n": len(v)}
        for key, v in biases.items()
    }


def population(workdir: str) -> dict:
    biases: dict[str, list[float]] = {}
    for workload, h in POP_STUDY_H.items():
        study = wl.study_config(wl.STUDY_METHODS[workload], h, wl.M_STUDY, POP_SEED)
        for _, method, est, err in wl.study_rows(harness.replicate(study)):
            if err is not None:
                raise SystemExit(f"population study failed: {method}: {err}")
            biases.setdefault(method, []).append(est - wl.TRUE_EFFECT)
    study = _summary(biases)

    biases = {}
    for i in range(POP_ANALYZE_SERIES):
        path = os.path.join(workdir, f"pop_{i}.csv")
        wl.analyze_series(wl.unit_seed(POP_SEED, i)).to_csv(path)
        for call in wl.run_analyze(path, workdir):
            if call.exit_code != 0:
                raise SystemExit(f"population analyze call {call.name} failed on series {i}")
            biases.setdefault(call.name, []).append(call.payload["result"]["delta"] - wl.TRUE_EFFECT)
    return {"study": study, "analyze": _summary(biases)}


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def main() -> None:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as workdir:
        data = {
            "ref_seed": REF_SEED,
            "pop_seed": POP_SEED,
            "exact": {"study-glm": exact_study(REF_SEED), "analyze-365": exact_analyze(REF_SEED, workdir)},
            "population": population(workdir),
        }
    PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
