import csv
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from nof1twin.cli import main
from nof1twin.core import SeedSpec, TimeSeriesDataset, assemble_features, normals
from nof1twin.harness import OUTCOME_SPEC
from nof1twin.models import fit_linear_outcome
from nof1twin.motr import run_motr_once
from nof1twin.oracle import MODE_PERMUTATION, EnumSpec, enumerate_apte
from nof1twin.arco import ArcoParams


def run(args):
    return main(list(args))


def schema(name):
    text = resources.files("nof1twin.schemas").joinpath(name).read_text()
    return json.loads(text)


def validate(payload, schema_name):
    jsonschema.validate(payload, schema(schema_name))


@pytest.fixture()
def trivial_csv(tmp_path):
    path = tmp_path / "trivial.csv"
    path.write_text("t,y,x\n1,1,1\n2,2,1\n3,3,0\n4,4,0\n")
    return path


@pytest.fixture()
def study_csv(tmp_path):
    path = tmp_path / "study.csv"
    assert run(["simulate", "-o", str(path)]) == 0
    return path


class TestSimulate:
    def test_default_dataset_shape(self, study_csv):
        ds = TimeSeriesDataset.from_csv(study_csv)
        assert ds.m == 220
        assert set(np.unique(ds.x)) <= {0, 1}

    def test_noise_free_lag_free_two_outcome_values(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run([
            "simulate", "--set", "sigmaEps=0", "--set", "betaAr=0",
            "--set", "alphaEn=0", "--set", "alpha0=0", "-o", str(out),
        ]) == 0
        ds = TimeSeriesDataset.from_csv(out)
        assert len(np.unique(ds.y)) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "--seed", "9", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_echoed_in_header(self, study_csv):
        head = study_csv.read_text().splitlines()[:20]
        assert any(line.startswith("# seed=1") for line in head)
        assert any(line.startswith("# betaX=1.1") for line in head)


class TestAnalyze:
    def test_raw_trivial_delta(self, trivial_csv, tmp_path):
        out = tmp_path / "raw.json"
        assert run(["analyze", "--data", str(trivial_csv), "--method", "raw",
                    "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, "analyze_point.schema.json")
        assert payload["result"]["delta"] == pytest.approx(-2.0)

    def test_motr_glm_covers_effect(self, study_csv, tmp_path):
        out = tmp_path / "motr.json"
        runs = tmp_path / "runs.csv"
        assert run(["analyze", "--data", str(study_csv), "--method", "motr-glm",
                    "--runs-csv", str(runs), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, "analyze_motr.schema.json")
        result = payload["result"]
        assert len(result["trajectory"]) == result["runs_used"] <= 200
        assert result["stop_reason"] == ("r_max" if result["runs_used"] == 200 else "converged")
        assert result["ci"][0] < 1.1 < result["ci"][1]
        lines = runs.read_text().splitlines()
        assert lines[0] == "r,delta_r,lo_r,hi_r,cum_delta,cum_lo,cum_hi"
        assert len(lines) == result["runs_used"] + 1

    def test_runs_csv_holds_each_runs_exact_values(self, tmp_path):
        data, runs = tmp_path / "year.csv", tmp_path / "runs.csv"
        assert run(["simulate", "--m", "365", "-o", str(data)]) == 0
        assert run(["analyze", "--data", str(data), "--method", "motr-glm", "--seed", "4",
                    "--runs-csv", str(runs), "-o", str(tmp_path / "motr.json")]) == 0
        ds = TimeSeriesDataset.from_csv(data)
        model = fit_linear_outcome(assemble_features(ds, OUTCOME_SPEC), ds.y[1:])
        stream = SeedSpec(4).child(1)  # the motr-glm sub-stream of the analyze seed
        with open(runs, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 32
        for row in rows:
            rng = stream.child(int(row["r"])).generator()
            perm = ds.x[rng.permutation(ds.m)]
            once = run_motr_once(ds, model, OUTCOME_SPEC, perm, normals(rng, ds.m - 1, model.resid_sd))
            assert (float(row["delta_r"]), float(row["lo_r"]), float(row["hi_r"])) == (
                once.delta, *once.ci
            )

    def test_pstn_constant_model_equals_raw(self, study_csv, tmp_path):
        raw_out = tmp_path / "raw.json"
        pstn_out = tmp_path / "pstn.json"
        periods = tmp_path / "periods.csv"
        assert run(["analyze", "--data", str(study_csv), "--method", "raw",
                    "-o", str(raw_out)]) == 0
        assert run(["analyze", "--data", str(study_csv), "--method", "pstn-glm",
                    "--lag-y", "none", "--trim", "0", "1",
                    "--periods-csv", str(periods), "-o", str(pstn_out)]) == 0
        raw_payload = json.loads(raw_out.read_text())
        pstn_payload = json.loads(pstn_out.read_text())
        validate(pstn_payload, "analyze_pstn.schema.json")
        assert pstn_payload["result"]["delta"] == pytest.approx(
            raw_payload["result"]["delta"], abs=1e-9
        )
        assert periods.read_text().splitlines()[0] == "t,pi_hat,weight,retained"

    def test_dump_model(self, study_csv, tmp_path):
        model_out = tmp_path / "model.json"
        assert run(["analyze", "--data", str(study_csv), "--method", "coef",
                    "--dump-model", str(model_out), "-o", str(tmp_path / "c.json")]) == 0
        summary = json.loads(model_out.read_text())
        assert summary["kind"] == "linear"
        assert "x" in summary["coefficients"]

    def test_deterministic_outputs(self, study_csv, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert run(["analyze", "--data", str(study_csv), "--method", "motr-rf",
                        "--n-trees", "20", "--r-max", "15", "--seed", "3",
                        "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_continuous_exposure_needs_flag(self, tmp_path):
        path = tmp_path / "cont.csv"
        path.write_text("t,y,x\n1,1,0.2\n2,2,0.7\n3,3,0.4\n4,4,0.9\n")
        assert run(["analyze", "--data", str(path), "--method", "raw"]) == 3
        out = tmp_path / "ok.json"
        assert run(["analyze", "--data", str(path), "--method", "raw",
                    "--dichotomize-x", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["delta"] is not None


class TestEmpiricalPipeline:
    def test_quartile_lag_exposure_lag_and_exog(self, tmp_path):
        # diary-style analysis: log10 outcome, median-split exposure,
        # quartile-coded outcome lag, exposure lag, weekend indicator
        rng = np.random.default_rng(13)
        m = 120
        weekend = (np.arange(m) % 7 >= 5).astype(float)
        steps = 10 ** rng.normal(0.1, 0.05, m)          # positive, log-normal-ish
        sleep = rng.normal(7.1, 0.8, m)                  # continuous exposure
        lines = ["t,y,x,weekend"] + [
            f"{t+1},{steps[t]},{sleep[t]},{int(weekend[t])}" for t in range(m)
        ]
        data = tmp_path / "diary.csv"
        data.write_text("\n".join(lines) + "\n")

        common = ["--data", str(data), "--log10-y", "--dichotomize-x",
                  "--lag-y", "quartile", "--lag-x", "--exog", "weekend"]
        motr_out = tmp_path / "motr.json"
        assert run(["analyze", *common, "--method", "motr-glm", "--r-max", "30",
                    "-o", str(motr_out)]) == 0
        payload = json.loads(motr_out.read_text())
        validate(payload, "analyze_motr.schema.json")

        pstn_out = tmp_path / "pstn.json"
        assert run(["analyze", *common, "--method", "pstn-glm", "-o", str(pstn_out)]) == 0
        validate(json.loads(pstn_out.read_text()), "analyze_pstn.schema.json")

        model_out = tmp_path / "model.json"
        assert run(["analyze", *common, "--method", "motr-rf", "--n-trees", "20",
                    "--r-max", "15", "--dump-model", str(model_out),
                    "-o", str(tmp_path / "rf.json")]) == 0
        summary = json.loads(model_out.read_text())
        assert summary["kind"] == "forest"
        assert summary["columns"] == [
            "x", "x_lag1", "y_lag1_q1", "y_lag1_q2", "y_lag1_q3", "y_lag1_q4", "weekend"
        ]


class TestReplicate:
    def test_smoke_run_emits_both_csvs(self, tmp_path):
        prefix = tmp_path / "rep"
        assert run(["replicate", "--h-datasets", "2", "--m", "30",
                    "--methods", "raw,coef", "-o", str(prefix)]) == 0
        rows = (tmp_path / "rep_rows.csv").read_text()
        summary = (tmp_path / "rep_summary.csv").read_text()
        assert "h,method,estimate,bias,error" in rows
        assert "method,mean_bias,ci_lo,ci_hi,n,failures" in summary
        # resolved config echoed verbatim as header comments
        assert "# h_datasets=2" in summary
        assert "# m=30" in summary
        assert "# methods=raw,coef" in summary

    def test_summary_cells_parse_as_numbers(self, tmp_path):
        assert run(["replicate", "--h-datasets", "3", "--m", "30",
                    "--methods", "raw,coef,pstn-glm", "-o", str(tmp_path / "rep")]) == 0
        lines = (tmp_path / "rep_summary.csv").read_text().splitlines()
        table = list(csv.reader(line for line in lines if not line.startswith("#")))
        assert table[0] == ["method", "mean_bias", "ci_lo", "ci_hi", "n", "failures"]
        assert [row[0] for row in table[1:]] == ["raw", "coef", "pstn_glm"]
        for row in table[1:]:
            values = [float(cell) for cell in row[1:]]
            assert values[1] <= values[0] <= values[2]

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            prefix = tmp_path / name
            assert run(["replicate", "--h-datasets", "2", "--m", "30",
                        "--methods", "raw,coef,pstn-glm", "-o", str(prefix)]) == 0
            outs.append((tmp_path / f"{name}_rows.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_rerun_from_echoed_header_is_byte_identical(self, tmp_path):
        assert run(["replicate", "--h-datasets", "2", "--m", "40", "--methods", "pstn-rf,motr-rf",
                    "--n-trees", "10", "--r-max", "20", "--mtry", "1", "--min-node-size", "3",
                    "-o", str(tmp_path / "a")]) == 0
        rows = (tmp_path / "a_rows.csv").read_bytes()
        echo = dict(
            line[2:].split("=", 1) for line in rows.decode().splitlines() if line.startswith("# ")
        )
        flags = {
            "h_datasets": "--h-datasets", "methods": "--methods", "workers": "--workers",
            "r_min": "--r-min", "r_max": "--r-max", "stop_tol": "--stop-tol",
            "stop_window": "--stop-window", "n_trees": "--n-trees", "mtry": "--mtry",
            "min_node_size": "--min-node-size",
        }
        hygiene = ("trim_lo", "trim_hi", "use_overlap", "use_stabilized")
        params = tmp_path / "params.cfg"
        params.write_text(
            "".join(f"{k}={v}\n" for k, v in echo.items() if k not in flags and k not in hygiene)
        )
        argv = ["replicate", "--params", str(params), "--trim", echo["trim_lo"], echo["trim_hi"],
                "-o", str(tmp_path / "b")]
        if echo["use_overlap"] == "False":
            argv.append("--no-overlap")
        if echo["use_stabilized"] == "False":
            argv.append("--no-stabilize")
        for key, flag in flags.items():
            if echo.get(key, "None") != "None":
                argv += [flag, echo[key]]
        assert run(argv) == 0
        assert (tmp_path / "b_rows.csv").read_bytes() == rows


class TestOracle:
    def test_matches_library_enumeration(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--m", "8", "--mode", "permutation", "--m1", "4",
                    "--set", "sigmaEps=0", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, "oracle.schema.json")
        expected = enumerate_apte(EnumSpec(
            m=8, mode=MODE_PERMUTATION, m1=4,
            params=ArcoParams(beta0=2.0, beta_x=1.1, beta_ar=0.8),
        ))
        assert payload["apte_exact"] == pytest.approx(expected, abs=1e-12)
        assert payload["m"] == 8

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("o1.json", "o2.json"):
            out = tmp_path / name
            assert run(["oracle", "--m", "8", "--mode", "iid", "--pi", "0.5",
                        "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        assert run(["simulate", "--set", "betaQ=1", "-o", str(tmp_path / "x.csv")]) == 2

    def test_bad_params_file(self, tmp_path):
        params = tmp_path / "p.cfg"
        params.write_text("beta0 = not-a-number\n")
        assert run(["simulate", "--params", str(params), "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", [[], ["--randomized"]])
    def test_diverging_simulation(self, tmp_path, mode):
        out = tmp_path / "x.csv"
        assert run(["simulate", "--set", "betaAr=1.5", "--m", "5000", *mode, "-o", str(out)]) == 2

    def test_non_contiguous_periods(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,y,x\n1,1,1\n2,2,0\n4,3,1\n5,4,0\n")
        assert run(["analyze", "--data", str(path), "--method", "raw"]) == 3

    def test_missing_data_file(self, tmp_path):
        assert run(["analyze", "--data", str(tmp_path / "nope.csv"), "--method", "raw"]) == 3

    def test_estimator_error(self, tmp_path):
        path = tmp_path / "one_arm.csv"
        path.write_text("t,y,x\n1,1,1\n2,2,1\n3,3,1\n")
        assert run(["analyze", "--data", str(path), "--method", "raw"]) == 4

    @pytest.mark.parametrize("key, name", [("betaXco", "beta_xco"), ("betaXar", "beta_xar")])
    def test_replicate_rejects_interaction_coefficients(self, tmp_path, key, name, capsys):
        assert run(["replicate", "--set", f"{key}=0.5", "--h-datasets", "2", "--m", "30",
                    "--methods", "raw", "-o", str(tmp_path / "rep")]) == 2
        assert f"{name}=0.5" in capsys.readouterr().err
        assert not (tmp_path / "rep_rows.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "-o", "{bad}"],
        ["replicate", "--h-datasets", "2", "--m", "30", "--methods", "raw", "-o", "{bad}"],
        ["analyze", "--method", "coef", "-o", "{bad}"],
        ["analyze", "--method", "coef", "--dump-model", "{bad}"],
        ["analyze", "--method", "motr-glm", "--r-max", "20", "--runs-csv", "{bad}"],
        ["analyze", "--method", "pstn-glm", "--periods-csv", "{bad}"],
        ["oracle", "--m", "6", "--m1", "3", "-o", "{bad}"],
    ], ids=["simulate", "replicate", "analyze-o", "dump-model", "runs-csv", "periods-csv",
            "oracle-o"])
    def test_unwritable_output_is_a_data_error(self, study_csv, tmp_path, capsys, argv):
        bad = str(tmp_path / "missing" / "out")
        argv = [arg.format(bad=bad) for arg in argv]
        if argv[0] == "analyze":
            argv += ["--data", str(study_csv)]
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write {bad}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("method, flag", [
        ("raw", "--dump-model"),
        ("coef", "--runs-csv"),
        ("pstn-rf", "--runs-csv"),
        ("motr-glm", "--periods-csv"),
    ])
    def test_inapplicable_output_flag_rejected_before_estimating(self, study_csv, tmp_path,
                                                                method, flag):
        out = tmp_path / "o.json"
        argv = ["analyze", "--data", str(study_csv), "--method", method, "-o", str(out),
                flag, str(tmp_path / "extra")]
        assert run(argv) == 2
        assert not out.exists()
        assert not (tmp_path / "extra").exists()

    def test_params_file_round_trip(self, tmp_path):
        params = tmp_path / "p.cfg"
        params.write_text("# comment\nbeta0 = 3.0\nbetaX = 0.5\nsigmaEps = 0\nbetaAr = 0\n")
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--params", str(params), "--set", "alphaEn=0",
                    "--set", "alpha0=0", "-o", str(out)]) == 0
        ds = TimeSeriesDataset.from_csv(out)
        assert set(np.round(np.unique(ds.y), 9)) == {3.0, 3.5}


def test_cli_import_skips_scipy_stats_and_signal():
    code = (
        "import sys, nof1twin.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.signal'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
