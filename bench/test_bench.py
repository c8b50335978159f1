"""Tests of the benchmark's own arithmetic, tracing and checks."""

import json
import math
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7].
    names = ["a", "b", "c"]
    name_id = [0, 1, 2, 1]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    t = spans.layer_times(names, name_id, parent, start, end)
    assert t["a"] == (1, 10.0, 3.0)
    assert t["b"] == (2, 4.0, 4.0)
    assert t["c"] == (1, 4.0, 3.0)


def _fake_layer_module():
    mod = types.ModuleType("fake_layer")

    class Model:
        def predict(self, rows):
            return [0.0] * len(rows)

    def run_motr(ds, model, spec, cfg):
        for _ in range(3):
            model.predict([1, 2, 3, 4])
        return types.SimpleNamespace(runs_used=2)

    mod.Model = Model
    mod.run_motr = run_motr
    return mod


def test_absent_targets_are_reported_and_wrappers_removed(monkeypatch):
    mod = _fake_layer_module()
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    originals = (mod.run_motr, mod.Model.__dict__["predict"])
    targets = (
        ("fake_layer", "run_motr", "motr.run", spans._motr_run),
        ("fake_layer", "Model.predict", "models.predict_linear", spans._predict_linear),
        ("fake_layer", "deleted_function", "x.gone", None),
        ("fake_layer", "DeletedClass.build", "x.gone", None),
        ("no_such_module_for_bench", "f", "x.gone", None),
    )
    rec = spans.Recorder()
    with spans.Tracer(rec, targets) as tracer:
        assert mod.run_motr is not originals[0]
        ds = types.SimpleNamespace(m=5)
        mod.run_motr(ds, mod.Model(), None, types.SimpleNamespace(r_max=2))
    assert tracer.absent == [
        "fake_layer.deleted_function",
        "fake_layer.DeletedClass.build",
        "no_such_module_for_bench.f",
    ]
    assert (mod.run_motr, mod.Model.__dict__["predict"]) == originals
    t = rec.layer_times()
    assert t["motr.run"][0] == 1 and t["models.predict_linear"][0] == 3
    assert rec.motr_calls == [(2, 2)]
    assert rec.counts["motr.r_max_hits"] == 1
    assert rec.counts["motr.rows_predicted"] == 12
    layers = spans.layer_metrics(rec, wall_s=1.0)
    assert layers["motr.useful_row_frac"] == pytest.approx(2 * 4 / 12)
    assert layers["forest.grow.s"] == 0.0


def test_useful_row_frac():
    # 141 useful runs of a 220-period series, predicted in 5 blocks of 32 runs
    assert spans.useful_row_frac(141 * 219, 5 * 32 * 219) == pytest.approx(141 / 160)
    assert spans.useful_row_frac(0, 0) == 0.0


def test_exact_check_fails_on_a_perturbed_estimate():
    tally = checks.Tally()
    checks.check_exact(tally, {"1/raw": 0.5 + 1e-12}, {"1/raw": 0.5}, "ref")
    assert tally.failed == 0
    checks.check_exact(tally, {"1/raw": 0.5 + 1e-6}, {"1/raw": 0.5}, "ref")
    checks.check_exact(tally, {}, {"1/raw": 0.5}, "ref")
    assert (tally.attempted, tally.failed) == (3, 2)


def test_row_checks_count_misses_without_raising():
    population = {"motr-rf": {"mean_bias": -0.2, "sd": 0.1, "n": 30}}
    tally = checks.Tally()
    checks.check_rows(tally, [("motr-rf", 1.1 - 0.2, None)] * 4, 1.1, population)
    assert tally.failed == 0
    shifted = 1.1 - 0.2 + checks.bias_distance(0.1, 4) + 0.01
    rows = [("motr-rf", shifted, None)] * 4 + [("motr-rf", math.nan, None), ("motr-rf", None, "boom")]
    tally = checks.Tally()
    checks.check_rows(tally, rows, 1.1, population)
    assert (tally.attempted, tally.failed) == (7, 3)


def test_runs_used_check():
    tally = checks.Tally()
    checks.check_runs_used(tally, [(200, 200), (201, 200)])
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, name):
    def inputs(seed, i=0):
        value = workloads.Workload(name, seed, str(tmp_path)).inputs(i)
        return Path(value).read_text() if isinstance(value, str) else value

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
    assert inputs(3, 0) != inputs(3, 1)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layers = spans.layer_metrics(spans.Recorder(), wall_s=1.0)
    names = [*layers, "trace.overhead_frac", "trace.absent_targets",
             "setup.import_s", "setup.inputs_s", "setup.warmup_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in names}
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) == set(
        workloads.WORKLOADS
    )
