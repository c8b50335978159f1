"""Benchmark of nof1twin: one workload per invocation, closed loop, one process.

    python3 bench/run.py --workload study-glm --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each invocation measures one workload in
this fresh process with workers=1 and BLAS pinned to one thread:

- ``--trace 0`` runs units of work back to back until ``--seconds`` have
  passed and reports the end-to-end metrics;
- ``--trace 1`` runs a fixed number of units with span wrappers installed
  and reports the per-layer metrics.

Both modes set up in several fresh interpreters to time set-up, check the
outputs (see checks.py), print a readable report, and end with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  README.md in this
directory explains the workloads and which layer moves which metric.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads; set-up probes inherit it
    for _var in BLAS_PIN:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nof1twin"
WORK = ROOT / ".bench_work"
if __name__ == "__main__" and not (SRC / "__init__.py").is_file():
    print(f"error: nof1twin sources not found at {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC.parent))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 3
TRACE_UNITS = {"study-glm": 2, "study-rf": 3, "analyze-365": 3}
E2E_UNITS = {"datasets_per_s": "datasets/s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_UNITS = {"calls": "count", "rows": "rows", "tree_rows": "rows", "trees": "count",
               "nodes": "count", "runs_used": "count", "r_max_hits": "count",
               "rows_predicted": "rows", "bytes_written": "bytes", "spans": "count",
               "absent_targets": "count"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in ("s", "self_s", "import_s", "inputs_s", "warmup_s", "wall_s"):
        return "s"
    return COUNT_UNITS.get(last, "ratio")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up --------------------------------------------------------------------

def probe_setup(args: argparse.Namespace) -> int:
    """Child side of one set-up sample: the imports above, inputs, warm-up."""
    t1 = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        w = wl.Workload(args.workload, args.seed, workdir)
        w.inputs(0)
        t2 = time.perf_counter()
        w.warm_up()
        t3 = time.perf_counter()
        print(json.dumps({"import_s": t1 - T_START, "inputs_s": t2 - t1, "warmup_s": t3 - t2}),
              flush=True)
    return 0


def setup_samples(args: argparse.Namespace) -> list[dict]:
    """Time interpreter start to ready in SETUP_SAMPLES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        samples.append({"setup_s": ready, **json.loads(line)})
    return samples


# -- environment -------------------------------------------------------------

def environment(args: argparse.Namespace, workload_size: dict) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = out.stdout.strip() or sha
    sources = sorted(SRC.glob("*.py"))
    return {
        "git_sha": sha,
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in sources),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PIN},
        "workers": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": workload_size,
    }


# -- the run -------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)
    setups = setup_samples(args)
    ref = reference.load()
    schemas = checks.load_schemas(SRC / "schemas")
    tally = checks.Tally()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        w = wl.Workload(args.workload, args.seed, workdir)
        w.warm_up()
        result = traced_run(w, tally) if args.trace else timed_run(w, args.seconds)
        rows, motr_calls = result.pop("rows"), result.pop("motr_calls")
        population = ref["population"]["analyze" if args.workload == "analyze-365" else "study"]
        checks.check_rows(tally, rows, wl.TRUE_EFFECT, population)
        checks.check_runs_used(tally, motr_calls)
        for call in w.calls:
            checks.check_payload(tally, call.name, wl.ANALYZE_CALLS[call.name][0], call.payload, schemas)
        reference_case(w, ref, tally, workdir)

    def median(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        metrics = result["layers"]
        for key in ("import_s", "inputs_s", "warmup_s"):
            metrics[f"setup.{key}"] = median(key)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "datasets_per_s": result["datasets_per_s"],
            "setup_s": median("setup_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    report(args, environment(args, wl.size(args.workload)), metrics, units, result, tally, setups)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_unit(w, inputs) -> list:
    """One unit of work; an unexpected exception fails each of its rows."""
    try:
        return w.run(inputs)
    except Exception as exc:  # noqa: BLE001 - a miss must not end the run
        return [("unit", None, f"{type(exc).__name__}: {exc}")] * w.rows_per_unit


def timed_run(w, seconds: float) -> dict:
    """Units back to back until ``seconds`` have passed.  Only run_motr
    is wrapped, once per dataset and MoTR method, to read runs_used."""
    probe = spans.Recorder()
    motr_only = [t for t in spans.TARGETS if t[2] == "motr.run"]
    unit_s, rows = [], []
    start = time.perf_counter()
    i = 0
    while True:
        inputs = w.inputs(i)
        with spans.Tracer(probe, motr_only):
            t0 = time.perf_counter()
            out = run_unit(w, inputs)
            unit_s.append(time.perf_counter() - t0)
        rows.extend(out)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    per_call = {}
    for call in w.calls:
        per_call.setdefault(call.name, []).append(call.seconds)
    return {
        "datasets_per_s": statistics.median(w.datasets_per_unit / s for s in unit_s),
        "unit_s": unit_s,
        "analyze_s": {name: statistics.median(v) for name, v in per_call.items()},
        "rows": rows,
        "motr_calls": probe.motr_calls,
    }


def traced_run(w, tally) -> dict:
    """Unit 0 untraced, then TRACE_UNITS units traced; the wrappers are
    removed afterwards and the traced estimates must equal the untraced."""
    inputs = [w.inputs(i) for i in range(TRACE_UNITS[w.name])]
    n_rows = w.rows_per_unit
    t0 = time.perf_counter()
    plain = run_unit(w, inputs[0])
    plain_s = time.perf_counter() - t0
    w.calls.clear()

    rec = spans.Recorder()
    rows, unit_s = [], []
    with spans.Tracer(rec) as tracer:
        for unit in inputs:
            t0 = time.perf_counter()
            rows.extend(run_unit(w, unit))
            unit_s.append(time.perf_counter() - t0)
    restored = all(vars(owner)[attr] is original for owner, attr, original in tracer.installed)
    tally.record(restored, "a trace wrapper was left installed")
    tally.record(rows[:n_rows] == plain, "traced estimates differ from the untraced ones")

    layers = spans.layer_metrics(rec, sum(unit_s))
    layers["trace.overhead_frac"] = unit_s[0] / plain_s - 1.0
    layers["trace.absent_targets"] = len(tracer.absent)
    return {
        "layers": layers,
        "absent": tracer.absent,
        "hook_errors": sorted(rec.hook_errors),
        "unit_s": unit_s,
        "rows": rows,
        "motr_calls": rec.motr_calls,
    }


def reference_case(w, ref: dict, tally, workdir: str) -> None:
    """GLM estimates on the fixed reference inputs against reference.json;
    study-rf has none, its forest estimates are checked by bias alone."""
    if w.name == "study-glm":
        got = reference.exact_study(ref["ref_seed"])
    elif w.name == "analyze-365":
        got = reference.exact_analyze(ref["ref_seed"], workdir)
    else:
        return
    checks.check_exact(tally, got, ref["exact"][w.name], f"reference {w.name}")


def report(args, env, metrics, units, result, tally, setups) -> None:
    print(f"# nof1twin benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"units: {len(result['unit_s'])}, seconds each: "
          + " ".join(f"{s:.3f}" for s in result["unit_s"]))
    print(f"setup samples: {len(setups)}, seconds each: "
          + " ".join(f"{s['setup_s']:.3f}" for s in setups))
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    if not args.trace:
        for name, value in result["analyze_s"].items():
            print(f"  {'analyze_s.' + name:<32} {value:>14.6g} s")
    else:
        print(f"absent targets: {result['absent'] or 'none'}; "
              f"count hooks that failed: {result['hook_errors'] or 'none'}")
    frac = tally.failed / tally.attempted if tally.attempted else math.nan
    print(f"  {'failed_frac':<32} {frac:>14.6g} ratio ({tally.failed}/{tally.attempted})")
    for miss in tally.misses[:20]:
        print(f"MISS {miss}")


if __name__ == "__main__":
    sys.exit(main())
