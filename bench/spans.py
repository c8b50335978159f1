"""Span tracing installed from outside nof1twin, and the per-layer arithmetic.

Wrappers go in by name: in the namespaces that call a layer function
(``nof1twin.harness.run_motr``) and on class methods
(``nof1twin.core.RolloutFeatureBuilder.build``).  A target that no longer
exists is reported as absent instead of failing, so a refactor that renames
or deletes a layer function degrades the trace without breaking the
benchmark.  Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np


class Recorder:
    """In-memory spans (name, start, end, parent) plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._stack_names: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.motr_calls: list[tuple[int, int]] = []  # (runs_used, r_max) per run_motr call
        self.hook_errors: set[str] = set()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        self._stack_names.append(nid)
        return idx

    def close(self, idx: int) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        self._stack_names.pop()
        return t - self.start[idx]

    def inside(self, name: str) -> bool:
        return self._ids.get(name, -1) in self._stack_names

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        return layer_times(self.names, self.name_id, self.parent, self.start, self.end)


def layer_times(names, name_id, parent, start, end) -> dict[str, tuple[int, float, float]]:
    """Aggregate spans by name.  Self time is a span's duration minus the
    durations of its direct children; spans of one thread nest, so the
    children never overlap."""
    nid = np.asarray(name_id, dtype=np.int64)
    par = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = par >= 0
    child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    own = np.bincount(nid, weights=self_s, minlength=k)
    return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(names)}


# -- count hooks: (recorder, args, kwargs, return value, span seconds) -------

def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _predict_linear(rec, args, kwargs, out, dur):
    rows = len(out)
    rec.counts["models.predict_linear.rows"] += rows
    if rec.inside("motr.run"):
        rec.counts["motr.rows_predicted"] += rows


def _forest_predict(rec, args, kwargs, out, dur):
    rows, trees = out.shape
    rec.counts["forest.predict.rows"] += rows
    rec.counts["forest.predict.tree_rows"] += rows * trees
    if rec.inside("motr.run"):
        rec.counts["motr.rows_predicted"] += rows


def _forest_grow(rec, args, kwargs, out, dur):
    rec.counts["forest.grow.trees"] += _arg(args, kwargs, 2, "n_trees")
    rec.counts["forest.grow.nodes"] += len(out[0].feature)


def _motr_run(rec, args, kwargs, out, dur):
    m = _arg(args, kwargs, 0, "ds").m
    r_max = _arg(args, kwargs, 3, "cfg").r_max
    rec.motr_calls.append((out.runs_used, r_max))
    rec.counts["motr.runs_used"] += out.runs_used
    rec.counts["motr.r_max_hits"] += out.runs_used == r_max
    rec.counts["motr.useful_rows"] += out.runs_used * (m - 1)


def _pstn_run(rec, args, kwargs, out, dur):
    rec.counts["pstn.retained"] += len(out.retained)
    rec.counts["pstn.periods"] += len(out.t_index)


def _apply(rec, args, kwargs, out, dur):
    method = _arg(args, kwargs, 1, "method").value.replace("_", "-")
    rec.counts[f"apply.{method}.calls"] += 1
    rec.counts[f"apply.{method}.s"] += dur


def _cli_main(rec, args, kwargs, out, dur):
    argv = list(_arg(args, kwargs, 0, "argv"))
    for flag in ("-o", "--output", "--runs-csv", "--periods-csv", "--dump-model"):
        if flag in argv:
            rec.counts["cli.bytes_written"] += os.path.getsize(argv[argv.index(flag) + 1])


# (module, attribute path, span name, count hook).  One span name may have
# several targets: each calling namespace holds its own reference.
TARGETS = (
    ("nof1twin.harness", "simulate_dataset", "arco.simulate", None),
    ("nof1twin.harness", "assemble_features", "core.assemble", None),
    ("nof1twin.motr", "assemble_features", "core.assemble", None),
    ("nof1twin.pstn", "assemble_features", "core.assemble", None),
    ("nof1twin.core", "RolloutFeatureBuilder.build", "core.rollout_encode", None),
    ("nof1twin.cli", "load_table", "core.load_csv", None),
    ("nof1twin.harness", "fit_linear_outcome", "models.fit_ols", None),
    ("nof1twin.harness", "fit_logistic_propensity", "models.fit_irls", None),
    ("nof1twin.harness", "fit_forest_outcome", "models.fit_forest", None),
    ("nof1twin.harness", "fit_forest_propensity", "models.fit_forest", None),
    ("nof1twin.models", "_LinearPredictor.__call__", "models.predict_linear", _predict_linear),
    ("nof1twin.models", "build_forest", "forest.grow", _forest_grow),
    ("nof1twin.models", "oob_predictions", "forest.oob", None),
    ("nof1twin.forest", "FlatForest.predict_trees", "forest.predict", _forest_predict),
    ("nof1twin.harness", "run_motr", "motr.run", _motr_run),
    ("nof1twin.harness", "run_pstn", "pstn.run", _pstn_run),
    ("nof1twin.harness", "replicate", "harness.replicate", None),
    ("nof1twin.harness", "apply_method", "harness.apply", _apply),
    ("nof1twin.cli", "apply_method", "harness.apply", _apply),
    ("nof1twin.cli", "main", "cli.main", _cli_main),
)


def _wrap(rec: Recorder, fn, name: str, hook):
    nid = rec.intern(name)

    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = rec.close(idx)
        if hook is not None:
            try:
                hook(rec, args, kwargs, out, dur)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                rec.hook_errors.add(name)
        return out

    traced.__wrapped__ = fn
    return traced


class Tracer:
    """Installs wrappers on entry and restores every original on exit."""

    def __init__(self, rec: Recorder, targets=TARGETS):
        self.rec = rec
        self.targets = targets
        self.absent: list[str] = []
        self.installed: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def __enter__(self) -> "Tracer":
        for module, path, name, hook in self.targets:
            owner, attr = _resolve(module, path)
            if owner is None:
                self.absent.append(f"{module}.{path}")
                continue
            original = vars(owner)[attr]
            self.installed.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.rec, original, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path, or (None, None) when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in vars(owner):
        return None, None
    return owner, attr


METHODS = ("raw", "coef", "motr-glm", "pstn-glm", "motr-rf", "pstn-rf")


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run.

    Layers whose targets are absent, or that a workload never reaches,
    read 0.  ``wall_s`` is the traced wall time the shares are taken of.
    """
    t = rec.layer_times()
    c = rec.counts

    def calls(n):
        return t.get(n, (0, 0.0, 0.0))[0]

    def total(n):
        return t.get(n, (0, 0.0, 0.0))[1]

    def own(n):
        return t.get(n, (0, 0.0, 0.0))[2]

    rows_predicted = c["motr.rows_predicted"]
    periods = c["pstn.periods"]
    forest_s = total("forest.grow") + own("forest.oob") + total("forest.predict")
    rollout_s = total("core.rollout_encode") + total("models.predict_linear") + own("motr.run")
    out = {
        "arco.simulate.calls": calls("arco.simulate"),
        "arco.simulate.s": total("arco.simulate"),
        "core.assemble.calls": calls("core.assemble"),
        "core.assemble.s": total("core.assemble"),
        "core.rollout_encode.calls": calls("core.rollout_encode"),
        "core.rollout_encode.s": total("core.rollout_encode"),
        "core.load_csv.s": total("core.load_csv"),
        "models.fit_ols.s": total("models.fit_ols"),
        "models.fit_irls.s": total("models.fit_irls"),
        "models.fit_forest.self_s": own("models.fit_forest"),
        "models.predict_linear.calls": calls("models.predict_linear"),
        "models.predict_linear.rows": c["models.predict_linear.rows"],
        "models.predict_linear.s": total("models.predict_linear"),
        "forest.grow.s": total("forest.grow"),
        "forest.grow.trees": c["forest.grow.trees"],
        "forest.grow.nodes": c["forest.grow.nodes"],
        "forest.oob.s": own("forest.oob"),
        "forest.predict.calls": calls("forest.predict"),
        "forest.predict.rows": c["forest.predict.rows"],
        "forest.predict.tree_rows": c["forest.predict.tree_rows"],
        "forest.predict.s": total("forest.predict"),
        "motr.run.self_s": own("motr.run"),
        "motr.runs_used": c["motr.runs_used"],
        "motr.r_max_hits": c["motr.r_max_hits"],
        "motr.rows_predicted": rows_predicted,
        "motr.useful_row_frac": useful_row_frac(c["motr.useful_rows"], rows_predicted),
        "pstn.run.s": total("pstn.run"),
        "pstn.retained_frac": c["pstn.retained"] / periods if periods else 0.0,
        "harness.self_s": own("harness.replicate") + own("harness.apply"),
        "cli.self_s": own("cli.main"),
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.wall_s": wall_s,
        "trace.rollout_share": rollout_s / wall_s,
        "trace.forest_share": forest_s / wall_s,
        "trace.spans": len(rec.start),
    }
    for method in METHODS:
        n = c[f"apply.{method}.calls"]
        out[f"apply.{method}.s"] = c[f"apply.{method}.s"] / n if n else 0.0
    return out


def useful_row_frac(useful_rows: float, rows_predicted: float) -> float:
    """runs_used * (m - 1) summed over MoTR calls, over the rows the model
    was asked to predict inside them; 0 when no MoTR call ran."""
    return useful_rows / rows_predicted if rows_predicted else 0.0
