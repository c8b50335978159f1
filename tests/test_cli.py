import csv
import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import nof1twin
from nof1twin import cli
from nof1twin.cli import _method_options, build_parser, main
from nof1twin.core import LAG_MODES, FeatureSpec, TimeSeriesDataset, load_table, normals
from nof1twin.harness import OUTCOME_SPEC, MethodOptions
from nof1twin.models import ForestConfig, fit_glm
from nof1twin.motr import MotrConfig, _Rollout, arm_contrast
from nof1twin.oracle import MODE_PERMUTATION, EnumSpec, enumerate_apte
from nof1twin.arco import ArcoParams
from nof1twin.pstn import PstnConfig


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
        ds = TimeSeriesDataset(*load_table(study_csv))
        assert ds.m == 220
        assert set(np.unique(ds.x)) <= {0, 1}

    def test_noise_free_lag_free_two_outcome_values(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run([
            "simulate", "--set", "sigmaEps=0", "--set", "betaAr=0",
            "--set", "alphaEn=0", "--set", "alpha0=0", "-o", str(out),
        ]) == 0
        ds = TimeSeriesDataset(*load_table(out))
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
        ds = TimeSeriesDataset(*load_table(data))
        model = fit_glm(ds, OUTCOME_SPEC)
        with open(runs, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 32
        perms, uniforms = [], []
        for row in rows:
            # run r of the motr-glm sub-stream (label 1) of the analyze seed
            seq = np.random.SeedSequence(4, spawn_key=(1, int(row["r"])))
            rng = np.random.Generator(np.random.Philox(seq))
            perms.append(ds.x[rng.permutation(ds.m)])
            uniforms.append(rng.random(ds.m - 1))
        xb = np.stack(perms)
        preds = _Rollout(ds, model)(xb, normals(np.stack(uniforms), model.resid_sd))
        expected = arm_contrast(preds, xb[:, 1:])[:3].T.tolist()
        assert [[float(row[k]) for k in ("delta_r", "lo_r", "hi_r")] for row in rows] == expected

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

    @pytest.mark.parametrize("method, flags, grown", [
        ("motr-rf", [], (1, 5)),
        ("pstn-rf", [], (1, 1)),
        ("motr-rf", ["--lag-y", "quartile", "--lag-x"], (2, 5)),
        ("pstn-rf", ["--lag-x"], (2, 1)),
        ("pstn-rf", ["--mtry", "1", "--min-node-size", "3"], (1, 3)),
    ], ids=["motr-rf", "pstn-rf", "motr-rf-quartile-lag-x", "pstn-rf-lag-x", "pstn-rf-set"])
    def test_dump_model_states_the_forest_it_grew(self, study_csv, tmp_path, method, flags, grown):
        model_out = tmp_path / "model.json"
        assert run(["analyze", "--data", str(study_csv), "--method", method, *flags,
                    "--n-trees", "10", "--dump-model", str(model_out),
                    "-o", str(tmp_path / "out.json")]) == 0
        forest = json.loads(model_out.read_text())["forest"]
        assert forest == {"n_trees": 10, "mtry": grown[0], "min_node_size": grown[1]}

    @pytest.mark.parametrize("mode", LAG_MODES)
    def test_coef_fits_on_the_layout_flags(self, study_csv, tmp_path, mode):
        model_out, out = tmp_path / "model.json", tmp_path / "c.json"
        assert run(["analyze", "--data", str(study_csv), "--method", "coef", "--lag-y", mode,
                    "--lag-x", "--dump-model", str(model_out), "-o", str(out)]) == 0
        spec = FeatureSpec(True, mode, True)
        ds = TimeSeriesDataset(*load_table(study_csv))
        model = fit_glm(ds, spec)
        assert json.loads(model_out.read_text())["columns"] == list(spec.columns)
        assert json.loads(out.read_text())["result"]["delta"] == model.coefficients["x"]

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


class TestMethodFlags:
    def test_every_flag_reaches_its_config_field(self):
        args = build_parser().parse_args([
            "analyze", "--data", "d.csv", "--method", "motr-rf",
            "--r-min", "7", "--r-max", "50", "--stop-tol", "0.01", "--stop-window", "3",
            "--trim", "0.1", "0.8", "--no-overlap", "--no-stabilize",
            "--n-trees", "20", "--mtry", "2", "--min-node-size", "4",
        ])
        assert _method_options(args) == MethodOptions(
            motr=MotrConfig(r_min=7, r_max=50, stop_tol=0.01, stop_window=3),
            pstn=PstnConfig(trim_bounds=(0.1, 0.8), use_overlap=False, use_stabilized=False),
            forest=ForestConfig(n_trees=20, mtry=2, min_node_size=4),
        )

    def test_no_flags_keep_the_library_defaults(self):
        parse = build_parser().parse_args
        analyze = parse(["analyze", "--data", "d.csv", "--method", "raw"])
        assert _method_options(analyze) == MethodOptions()
        replicate = parse(["replicate", "-o", "rep"])
        assert _method_options(replicate) == MethodOptions(forest=ForestConfig(n_trees=100))

    def test_consecutive_calls_match_fresh_parsers(self, tmp_path, monkeypatch):
        # main reuses one parser: no call's flags may reach the next call
        monkeypatch.chdir(tmp_path)
        sim = ["simulate", "--m", "60", "-o", "s.csv"]
        pstn = ["analyze", "--data", "s.csv", "--method", "pstn-glm", "-o", "a.json"]
        argvs = [[*sim, "--set", "betaAr=0.3"], sim,
                 [*sim, "--set", "betaAr=0.3", "--set", "beta0=1"], sim,
                 [*pstn, "--trim", "0.2", "0.8"], pstn, [*pstn, "--no-overlap"], pstn]

        def outputs(fresh):
            files = []
            for argv in argvs:
                if fresh:
                    cli._parser.cache_clear()
                assert main(argv) == 0
                files.append(Path(argv[argv.index("-o") + 1]).read_bytes())
            return files

        expected = outputs(fresh=True)
        assert len(set(expected[:4])) == 3 and len(set(expected[4:])) == 3  # each flag tells
        assert outputs(fresh=False) == expected


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
        assert "randomized" not in rows + summary  # the study's exposure is always endogenous

    @pytest.mark.parametrize("source", ["--set", "--params"])
    def test_randomized_setting_is_a_config_error(self, tmp_path, capsys, source):
        params = tmp_path / "p.cfg"
        params.write_text("betaX = 1.1\nrandomized = true\n")
        where = ["--set", "randomized=true"] if source == "--set" else ["--params", str(params)]
        assert run(["replicate", "--h-datasets", "2", "--m", "30", "--methods", "raw", *where,
                    "-o", str(tmp_path / "rep")]) == 2
        origin = "--set" if source == "--set" else f"{params}:2"
        err = capsys.readouterr().err
        assert f"{origin}: replicate does not read configuration key 'randomized'" in err
        assert not (tmp_path / "rep_rows.csv").exists()

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
        lines = (tmp_path / "rep_rows.csv").read_text().splitlines()
        rows = list(csv.reader(line for line in lines if not line.startswith("#")))[1:]
        assert [row[1] for row in rows] == ["raw", "coef", "pstn_glm"] * 3

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
            "h_datasets": "--h-datasets", "methods": "--methods",
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

    def test_worker_count_leaves_both_csvs_byte_identical(self, tmp_path):
        for workers in ("1", "2"):
            assert run(["replicate", "--h-datasets", "2", "--m", "30", "--methods", "raw,motr-glm",
                        "--r-max", "20", "--workers", workers, "-o", str(tmp_path / workers)]) == 0
        for name in ("rows", "summary"):
            one, two = ((tmp_path / f"{w}_{name}.csv").read_bytes() for w in ("1", "2"))
            assert one == two


class TestOracle:
    @pytest.mark.parametrize("noise", [[], ["--set", "sigmaEps=0"]])
    def test_matches_library_enumeration(self, tmp_path, noise):
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--m", "8", "--mode", "permutation", "--m1", "4", *noise,
                    "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, "oracle.schema.json")
        assert payload["config"]["sigmaEps"] == 0.0
        expected = enumerate_apte(EnumSpec(
            m=8, mode=MODE_PERMUTATION, m1=4,
            params=ArcoParams(beta0=2.0, beta_x=1.1, beta_ar=0.8),
        ))
        assert payload["apte_exact"] == pytest.approx(expected, abs=1e-12)
        assert payload["m"] == 8

    def test_study_length_matches_closed_form(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--m1", "110", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate(payload, "oracle.schema.json")
        m, c, b = 220, 0.8, 1.1
        correction = sum((m - 1 - g) * c**g for g in range(1, m - 1)) / ((m - 1) * (m - 2))
        assert payload["m"] == m
        assert payload["apte_exact"] == pytest.approx(b * (1 - correction), abs=1e-12)

    @pytest.mark.parametrize("argv, message", [
        (["--mode", "iid", "--pi", "0.5", "--m1", "3"], "iid mode takes pi, not m1"),
        (["--mode", "permutation", "--m1", "4", "--pi", "0.3"], "permutation mode takes m1, not pi"),
    ])
    def test_other_modes_margin_is_a_config_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o.json"
        assert run(["oracle", "--m", "8", *argv, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--set", "--params"])
    @pytest.mark.parametrize("setting", ["pi1=0.9", "burnin=50", "seed=9", "alpha0=0.1",
                                         "randomized=true"])
    def test_simulation_only_setting_is_a_config_error(self, tmp_path, capsys, source, setting):
        params = tmp_path / "p.cfg"
        params.write_text(f"betaX = 1.0\n{setting}  # not a mechanism key\n")
        where = ["--set", setting] if source == "--set" else ["--params", str(params)]
        out = tmp_path / "o.json"
        assert run(["oracle", "--m1", "110", *where, "-o", str(out)]) == 2
        origin = "--set" if source == "--set" else f"{params}:2"
        key = setting.split("=")[0]
        assert f"{origin}: oracle does not read configuration key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_carries_only_the_keys_it_reads(self, tmp_path):
        out = tmp_path / "o.json"
        assert run(["oracle", "--m1", "110", "--set", "betaX=1.0", "-o", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert set(config) == {"beta0", "betaX", "betaCo", "betaXco", "betaAr", "betaXar",
                               "sigmaEps", "m", "mode", "m1", "pi", "y_init"}
        assert config["betaX"] == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("o1.json", "o2.json"):
            out = tmp_path / name
            assert run(["oracle", "--m", "8", "--mode", "iid", "--pi", "0.5",
                        "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestPinnedOutputs:
    """The simulator's CSV bytes, the oracle's value and each twin's summary and estimate,
    pinned so that a refactor of the mechanism, the recursion or the fitters cannot move
    them unnoticed."""

    @pytest.mark.parametrize("flags, digest", [
        ("--m 60", "392f6907e2aa16ec848230f21d9ba68fa9f0f34e9a7fc7e4d4c5e306cb5e11c6"),
        ("--m 365", "59597d7ce3aac03221c6c19da8d23b0f87ff1273722aac4e0b7ec1f6298e47d7"),
        ("--randomized --seed 7", "655f1f88d7c47bf44258e7bdf5e398f5782a6123a1dac837ed57b55ce6abc7bf"),
        ("--m 730 --set betaXco=0.3 --set alphaAr=0.4",
         "14d6fc5cdeb3786022baef4369fc5a305671bc300b2fe6fb8b93cbac2be9df97"),
    ])
    def test_simulate_csv_sha256(self, tmp_path, flags, digest):
        out = tmp_path / "sim.csv"
        assert run(["simulate", *flags.split(), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flags, value", [
        ("--m1 110", "1.08027732394956"),
        ("--m 730 --m1 365", "1.0939974977012048"),
        ("--mode iid --pi 0.5 --m 730", "1.100000000000014"),
        ("--m 120 --m1 50 --set betaXar=0.05 --y-init 3.3", "1.6956291556812215"),
    ])
    def test_oracle_value_repr(self, tmp_path, flags, value):
        out = tmp_path / "oracle.json"
        assert run(["oracle", *flags.split(), "-o", str(out)]) == 0
        assert repr(json.loads(out.read_text())["apte_exact"]) == value

    @pytest.mark.parametrize("method, digest, delta", [
        ("coef", "4e609d8ce7b8f7fd3bee17baa08f6f56ae67a13cfb469280921202f042f8e360",
         "1.2271398934347042"),
        ("motr-glm", "4e609d8ce7b8f7fd3bee17baa08f6f56ae67a13cfb469280921202f042f8e360",
         "1.114216628524119"),
        ("pstn-glm", "238d4d9944875e4a1115bebd9096fb3602508776843b9b4b12efef721ed808c3",
         "1.475916421813217"),
        ("motr-rf", "ad87d25635de4831124408358d34d0b21f853fe31fab5203102390b7c6d268bf",
         "0.8289170567924466"),
        ("pstn-rf", "35b7289c8735294539cbb93d5fb12bc037536a008f69c466525ab32f0a9e099d",
         "-8.950496622458337"),
    ])
    def test_analyze_model_sha256_and_delta_repr(self, tmp_path, method, digest, delta):
        data, dump, out = (tmp_path / name for name in ("sim.csv", "model.json", "out.json"))
        assert run(["simulate", "--m", "60", "-o", str(data)]) == 0
        trees = ["--n-trees", "10"] if method.endswith("-rf") else []
        assert run(["analyze", "--data", str(data), "--method", method, *trees,
                    "--dump-model", str(dump), "-o", str(out)]) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest
        assert repr(json.loads(out.read_text())["result"]["delta"]) == delta


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_scale(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["simulate", "--set", "sigmaEps=1e308", "--set", "beta0=1.7e308", "--seed", "2",
                    "--m", "10", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "not finite at period 1 of 12" in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_raw_contrast(self, tmp_path, capsys):
        # the arm means differ by about 2e308, past the float range
        path, out = tmp_path / "over.csv", tmp_path / "raw.json"
        path.write_text("t,y,x\n" + "".join(f"{t},{(-1) ** (t + 1)}e308,{t % 2}\n" for t in range(1, 7)))
        assert run(["analyze", "--data", str(path), "--method", "raw", "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert "overflows the float range" in err and "Warning" not in err
        assert not out.exists()

    @staticmethod
    def _big_csv(tmp_path, m=40, scale=1e200):
        """A simulated m-period series with its outcomes times `scale`."""
        src, path = tmp_path / "sim.csv", tmp_path / "big.csv"
        assert run(["simulate", "--m", str(m), "-o", str(src)]) == 0
        lines = [line for line in src.read_text().splitlines() if not line.startswith("#")]
        rows = [line.split(",") for line in lines[1:]]
        path.write_text("\n".join([lines[0], *(f"{t},{float(y) * scale!r},{x}" for t, y, x in rows)]) + "\n")
        return path

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["coef", "motr-glm"])
    def test_outcomes_past_the_square_range(self, tmp_path, method):
        # squares of residuals or of MoTR run deltas near 1e200 overflow unless scaled first
        out, model = tmp_path / "out.json", tmp_path / "model.json"
        assert run(["analyze", "--data", str(self._big_csv(tmp_path)), "--method", method,
                    "-o", str(out), "--dump-model", str(model)]) == 0
        resid_sd = json.loads(model.read_text())["resid_sd"]
        assert np.isfinite(resid_sd) and resid_sd > 1e190
        if method == "motr-glm":
            mc_se = json.loads(out.read_text())["result"]["mc_se"]
            assert np.isfinite(mc_se) and mc_se > 1e190

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method, message", [
        # a forest's split scores square sums of outcomes near 1e200: refused before growth
        (["motr-rf", "--n-trees", "20"], "overflow the forest's split scores"),
        # so do the IRLS normal equations, on the lagged outcome: refused before the first step
        (["pstn-glm"], "'y_lag1' up to 1.51e+201 in size overflows the logistic fit's weighted"),
    ], ids=["motr-rf", "pstn-glm"])
    def test_refused_outcomes_past_the_square_range(self, tmp_path, capsys, method, message):
        out = tmp_path / "out.json"
        assert run(["analyze", "--data", str(self._big_csv(tmp_path)), "--method", *method,
                    "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_logistic_fit_within_the_square_range(self, tmp_path):
        # lagged outcomes near 1e151 over 59 rows keep the IRLS normal equations finite
        out = tmp_path / "out.json"
        assert run(["analyze", "--data", str(self._big_csv(tmp_path, m=60, scale=1e150)),
                    "--method", "pstn-glm", "-o", str(out)]) == 0
        assert np.isfinite(json.loads(out.read_text())["result"]["delta"])

    def test_non_contiguous_periods(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,y,x\n1,1,1\n2,2,0\n4,3,1\n5,4,0\n")
        assert run(["analyze", "--data", str(path), "--method", "raw"]) == 3

    def test_missing_data_file(self, tmp_path):
        assert run(["analyze", "--data", str(tmp_path / "nope.csv"), "--method", "raw"]) == 3

    @pytest.mark.parametrize("command", ["analyze", "replicate"])
    def test_non_finite_stop_tol(self, study_csv, tmp_path, command):
        where = ["--data", str(study_csv), "--method", "motr-glm"] if command == "analyze" else [
            "--h-datasets", "2", "--methods", "motr-glm", "-o", str(tmp_path / "rep")]
        assert run([command, *where, "--stop-tol", "nan"]) == 2

    @pytest.mark.parametrize("command", ["analyze", "replicate"])
    def test_r_max_beyond_one_stream_label_word(self, study_csv, tmp_path, capsys, command):
        where = ["--data", str(study_csv), "--method", "motr-glm"] if command == "analyze" else [
            "--h-datasets", "2", "--methods", "motr-glm"]
        assert run([command, *where, "-o", str(tmp_path / "out"), "--r-max", str(2**32)]) == 2
        assert "r_max <= 2**32 - 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [study_csv]

    def test_forest_setting_no_layout_can_run_stops_the_study(self, tmp_path, capsys):
        # mtry 2 fits the outcome forest's two columns but not the propensity forest's one
        assert run(["replicate", "--h-datasets", "3", "--m", "40", "--methods", "motr-rf,pstn-rf",
                    "--mtry", "2", "--n-trees", "20", "-o", str(tmp_path / "mt")]) == 2
        err = capsys.readouterr().err
        assert "pstn-rf: the propensity forest: mtry must lie in [1, 1], got 2" in err
        assert not (tmp_path / "mt_rows.csv").exists()

    def test_repeated_method(self, tmp_path, capsys):
        assert run(["replicate", "--h-datasets", "3", "--m", "30", "--methods", "raw,raw,coef",
                    "-o", str(tmp_path / "rep")]) == 2
        assert "repeat" in capsys.readouterr().err
        assert not (tmp_path / "rep_rows.csv").exists()

    def test_unknown_method_lists_the_cli_spellings(self, tmp_path, capsys):
        assert run(["replicate", "--methods", "foo", "-o", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "unknown method 'foo'" in err and "'motr-glm'" in err and "motr_glm" not in err
        assert not (tmp_path / "rep_rows.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_oracle_start(self, tmp_path, value):
        out = tmp_path / "o.json"
        assert run(["oracle", "--m", "6", "--m1", "3", "--y-init", value, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--set", "--params"])
    def test_oracle_rejects_a_configured_noise_scale(self, tmp_path, capsys, source):
        params = tmp_path / "p.cfg"
        params.write_text("sigmaEps = 0.3\n")
        where = ["--set", "sigmaEps=0.3"] if source == "--set" else ["--params", str(params)]
        out = tmp_path / "o.json"
        assert run(["oracle", "--m", "8", "--m1", "4", *where, "-o", str(out)]) == 2
        assert "sigma_eps = 0" in capsys.readouterr().err
        assert not out.exists()

    def test_exog_column_missing_from_the_data(self, study_csv, tmp_path, capsys):
        out = tmp_path / "c.json"
        argv = ["analyze", "--data", str(study_csv), "--method", "coef", "--exog", "nosuch"]
        assert run([*argv, "-o", str(out)]) == 3
        assert "['nosuch'] missing from dataset records" in capsys.readouterr().err
        assert not out.exists()

    def test_estimator_error(self, tmp_path):
        path = tmp_path / "one_arm.csv"
        path.write_text("t,y,x\n1,1,1\n2,2,1\n3,3,1\n")
        assert run(["analyze", "--data", str(path), "--method", "raw"]) == 4

    def test_repeated_column_name(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("t,y,x,v,v\n1,1,1,0,5\n2,2,0,1,6\n3,3,1,0,7\n4,4,0,1,8\n")
        assert run(["analyze", "--data", str(path), "--method", "raw"]) == 3
        assert "'v' repeats in the header" in capsys.readouterr().err

    @pytest.mark.parametrize("method, exog", [
        ("motr-glm", "weekend,weekend"),
        ("motr-rf", "weekend,weekend"),
        ("motr-glm", "y_lag1"),
        ("pstn-rf", "y_lag1"),
    ])
    def test_exog_name_repeats_or_shadows_a_feature(self, study_csv, tmp_path, capsys,
                                                    method, exog):
        ds = TimeSeriesDataset(*load_table(study_csv))
        column = (np.arange(ds.m) % 7 >= 5).astype(float)
        data = tmp_path / "exog.csv"
        TimeSeriesDataset(y=ds.y, x=ds.x, exog={exog.split(",")[0]: column}).to_csv(data)
        out = tmp_path / "out.json"
        assert run(["analyze", "--data", str(data), "--method", method, "--exog", exog,
                    "--r-max", "15", "--n-trees", "10", "-o", str(out)]) == 2
        assert "repeats or shadows" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("method, flag", [
        ("pstn-glm", "--periods-csv"),
        ("pstn-glm", "--dump-model"),
        ("motr-glm", "--runs-csv"),
    ])
    def test_failed_side_file_leaves_no_result_file(self, study_csv, tmp_path, method, flag):
        out = tmp_path / "left.json"
        argv = ["analyze", "--data", str(study_csv), "--method", method, "--r-max", "20",
                "-o", str(out), flag, str(tmp_path / "nope" / "side")]
        assert run(argv) == 3
        assert not out.exists()

    def test_params_file_round_trip(self, tmp_path):
        params = tmp_path / "p.cfg"
        params.write_text("# comment\nbeta0 = 3.0\nbetaX = 0.5\nsigmaEps = 0\nbetaAr = 0\n")
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--params", str(params), "--set", "alphaEn=0",
                    "--set", "alpha0=0", "-o", str(out)]) == 0
        ds = TimeSeriesDataset(*load_table(out))
        assert set(np.round(np.unique(ds.y), 9)) == {3.0, 3.5}

    def test_params_file_byte_order_mark_is_not_data(self, tmp_path):
        params = tmp_path / "p.cfg"
        params.write_text("betaX = 0.5\n", encoding="utf-8-sig")
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--params", str(params), "--m", "10", "-o", str(out)]) == 0
        assert "# betaX=0.5" in out.read_text().splitlines()


# commands that fit no GLM, then one that does: scipy.linalg loads on the first GLM fit only
_FOREST_ONLY_THEN_COEF = """
import sys
from nof1twin.cli import main
codes = [main(argv.split()) for argv in (
    "simulate --m 40 -o sim.csv",
    "analyze --data sim.csv --method motr-rf --n-trees 10 -o motr.json",
    "analyze --data sim.csv --method pstn-rf --n-trees 10 -o pstn.json",
    "replicate --h-datasets 2 --m 40 --methods raw,motr-rf,pstn-rf --n-trees 10 -o rep",
)]
print(codes, "scipy.linalg" in sys.modules)
print(main("analyze --data sim.csv --method coef -o coef.json".split()), "scipy.linalg" in sys.modules)
"""


@pytest.mark.parametrize("code, expected", [
    ("import sys, nof1twin.cli; "
     "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.signal'))))", "[]"),
    (_FOREST_ONLY_THEN_COEF, "[0, 0, 0, 0] False\n0 True"),
], ids=["import", "forest-only-runs"])
def test_cli_loads_only_the_scipy_modules_it_uses(tmp_path, code, expected):
    # pytest's own pythonpath setting does not reach a child process
    root = str(Path(nof1twin.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env, cwd=tmp_path)
    assert out.stdout.strip() == expected
