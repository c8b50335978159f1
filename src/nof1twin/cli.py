"""Command-line front end: simulate, analyze, replicate, oracle.

Configuration precedence is defaults < params file (`key=value` lines,
'#' comments) < `--set key=value` < dedicated flags.  Every output embeds
the fully-resolved configuration so a run can be reproduced from its
artifacts alone.  Exit codes: 0 success, 2 config error, 3 data error,
4 estimator error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .arco import ArcoParams, PropensityParams, SimConfig, simulate_dataset
from .core import (
    LAG_CONTINUOUS,
    LAG_NONE,
    LAG_QUARTILE,
    FeatureSpec,
    SeedSpec,
    TimeSeriesDataset,
    dichotomize_exposure,
    load_table,
    log10_transform,
    write_csv,
    write_text,
)
from .errors import ConfigError, DataError, EstimatorError, Nof1TwinError
from .harness import (
    Method,
    MethodOptions,
    StudyConfig,
    apply_method,
    default_study_params,
    replicate,
)
from .models import ForestConfig
from .motr import ApteEstimate, MotrConfig
from .oracle import MODE_IID, MODE_PERMUTATION, EnumSpec, enumerate_apte
from .pstn import PstnConfig, PstnResult

DEFAULT_SEED = 1
# `replicate` grows 100 trees per forest unless --n-trees says otherwise;
# `analyze` and the library's ForestConfig default to 500.
REPLICATION_FOREST_TREES = 100

# Simulation-parameter key -> (config dataclass, field).  Defaults come from
# default_study_params() and _SIM_DEFAULTS; each key parses as its default's type.
_PARAM_FIELDS = {
    "beta0": (ArcoParams, "beta0"),
    "betaX": (ArcoParams, "beta_x"),
    "betaCo": (ArcoParams, "beta_co"),
    "betaXco": (ArcoParams, "beta_xco"),
    "betaAr": (ArcoParams, "beta_ar"),
    "betaXar": (ArcoParams, "beta_xar"),
    "sigmaEps": (ArcoParams, "sigma_eps"),
    "alpha0": (PropensityParams, "alpha0"),
    "alphaEn": (PropensityParams, "alpha_en"),
    "alphaAr": (PropensityParams, "alpha_ar"),
    "pi1": (PropensityParams, "pi1"),
    "m": (SimConfig, "m_analysis"),
    "burnin": (SimConfig, "burn_in"),
    "seed": (SimConfig, "seed"),
    "randomized": (SimConfig, "randomized_mode"),
}
_SIM_DEFAULTS = {"m_analysis": 220, "burn_in": 2, "seed": DEFAULT_SEED, "randomized_mode": False}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_kv(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def load_params_config(path: str | None, overrides: list[str]) -> dict:
    """Resolve the simulation-parameter configuration, defaults upward."""
    arco, prop = default_study_params()
    source = {ArcoParams: vars(arco), PropensityParams: vars(prop), SimConfig: _SIM_DEFAULTS}
    resolved = {key: source[cls][name] for key, (cls, name) in _PARAM_FIELDS.items()}

    def apply(key: str, raw: str, origin: str) -> None:
        if key not in _PARAM_FIELDS:
            raise ConfigError(f"{origin}: unknown configuration key {key!r}")
        kind = type(resolved[key])
        try:
            resolved[key] = _parse_bool(raw) if kind is bool else kind(raw)
        except ValueError:
            raise ConfigError(f"{origin}: key {key!r} expects {kind.__name__}, got {raw!r}") from None

    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read params file {path}: {exc}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, value = _parse_kv(line)
            apply(key, value, f"{path}:{lineno}")
    for item in overrides:
        key, value = _parse_kv(item)
        apply(key, value, "--set")
    return resolved


def _resolve_params(args: argparse.Namespace, *flags: str) -> dict:
    """The parameter configuration with the given dedicated flags applied on top."""
    cfg = load_params_config(args.params, args.set or [])
    for key in flags:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _build(cls, cfg: dict):
    """The `cls` dataclass from the configuration keys that map onto it."""
    return cls(**{name: cfg[key] for key, (owner, name) in _PARAM_FIELDS.items() if owner is cls})


def _method_options(args: argparse.Namespace, **specs: FeatureSpec) -> MethodOptions:
    return MethodOptions(
        motr=MotrConfig(
            r_min=args.r_min,
            r_max=args.r_max,
            stop_tol=args.stop_tol,
            stop_window=args.stop_window,
        ),
        pstn=PstnConfig(
            trim_bounds=(args.trim[0], args.trim[1]),
            use_overlap=not args.no_overlap,
            use_stabilized=not args.no_stabilize,
        ),
        forest=ForestConfig(n_trees=args.n_trees, mtry=args.mtry, min_node_size=args.min_node_size),
        **specs,
    )


def _echo_lines(cfg: dict) -> list[str]:
    return [f"{key}={cfg[key]}" for key in sorted(cfg)]


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        write_text(path, text)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_params(args, "m", "burnin", "seed", "randomized")
    arco, prop = _build(ArcoParams, cfg), _build(PropensityParams, cfg)
    ds = simulate_dataset(arco, prop, _build(SimConfig, cfg))
    ds.to_csv(args.output, header_comments=_echo_lines(cfg))
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _load_analysis_dataset(args: argparse.Namespace) -> TimeSeriesDataset:
    y, x, exog = load_table(args.data)
    if args.log10_y:
        y = log10_transform(y)
    if args.dichotomize_x:
        x, _ = dichotomize_exposure(x)
    elif not np.all(np.isin(x, (0, 1))):
        raise DataError(
            f"{args.data}: exposure column is not binary; pass --dichotomize-x to median-split it"
        )
    return TimeSeriesDataset(y=y, x=x.astype(np.int64), exog=exog or None)


def _feature_specs(args: argparse.Namespace) -> tuple[FeatureSpec, FeatureSpec]:
    exog = tuple(n for n in (args.exog or "").split(",") if n)
    lag = {"continuous": LAG_CONTINUOUS, "quartile": LAG_QUARTILE, "none": LAG_NONE}[args.lag_y]
    outcome, propensity = (
        FeatureSpec(current, outcome_lag_mode=lag, use_exposure_lag1=args.lag_x, exog_names=exog)
        for current in (True, False)
    )
    return outcome, propensity


def _result_payload(res) -> dict:
    if isinstance(res.detail, ApteEstimate):
        est = res.detail
        return {
            "delta": est.delta,
            "ci": [est.ci[0], est.ci[1]],
            "runs_used": est.runs_used,
            "stop_reason": est.stop_reason,
            "trajectory": [[d, lo, hi] for d, lo, hi in est.trajectory],
            "mean_po_1": est.mean_po_1,
            "mean_po_0": est.mean_po_0,
            "degenerate_ci": est.degenerate_ci,
        }
    if isinstance(res.detail, PstnResult):
        pr = res.detail
        return {
            "delta": pr.delta,
            "mean_po_1": pr.mean_po_1,
            "mean_po_0": pr.mean_po_0,
            "retained_count": len(pr.retained),
            "excluded": dict(pr.excluded),
        }
    payload = {"delta": res.estimate}
    if res.ci is not None:
        payload["ci"] = [res.ci[0], res.ci[1]]
    return payload


def cmd_analyze(args: argparse.Namespace) -> int:
    method = Method.parse(args.method)
    if args.dump_model and method is Method.RAW:
        raise ConfigError(f"method {method.value!r} fits no model to dump")
    if args.runs_csv and method not in (Method.MOTR_GLM, Method.MOTR_RF):
        raise ConfigError("--runs-csv applies to motr-glm / motr-rf only")
    if args.periods_csv and method not in (Method.PSTN_GLM, Method.PSTN_RF):
        raise ConfigError("--periods-csv applies to pstn-glm / pstn-rf only")
    ds = _load_analysis_dataset(args)
    outcome_spec, propensity_spec = _feature_specs(args)
    opts = _method_options(args, outcome_spec=outcome_spec, propensity_spec=propensity_spec)
    res = apply_method(ds, method, opts, SeedSpec(args.seed))
    payload = {
        "config": {
            "data": args.data,
            "method": method.value.replace("_", "-"),
            "seed": args.seed,
            "lag_y": args.lag_y,
            "lag_x": args.lag_x,
            "exog": args.exog or "",
            "log10_y": args.log10_y,
            "dichotomize_x": args.dichotomize_x,
            **opts.to_echo(),
        },
        "method": method.value.replace("_", "-"),
        "result": _result_payload(res),
    }
    _write_json(payload, args.output)

    if args.dump_model:
        _write_json(res.model_summary, args.dump_model)
    if args.runs_csv:
        est = res.detail
        rows = ((r, *run, *cum) for r, (run, cum) in enumerate(zip(est.runs, est.trajectory), 1))
        header = ["r", "delta_r", "lo_r", "hi_r", "cum_delta", "cum_lo", "cum_hi"]
        write_csv(args.runs_csv, header, rows)
    if args.periods_csv:
        pr = res.detail
        weight = dict(zip(pr.retained, pr.weights))
        rows = ((t, pi, weight.get(t), int(t in weight)) for t, pi in zip(pr.t_index, pr.pi_hat))
        write_csv(args.periods_csv, ["t", "pi_hat", "weight", "retained"], rows)
    return 0


# ---------------------------------------------------------------------------
# replicate
# ---------------------------------------------------------------------------

def cmd_replicate(args: argparse.Namespace) -> int:
    cfg = _resolve_params(args, "m", "seed")
    opts = _method_options(args)
    study = StudyConfig(
        h_datasets=args.h_datasets,
        m_analysis=cfg["m"],
        params=_build(ArcoParams, cfg),
        propensity=_build(PropensityParams, cfg),
        methods=tuple(Method.parse(name) for name in args.methods.split(",")),
        burn_in=cfg["burnin"],
        seed=SeedSpec(cfg["seed"]),
        options=opts,
        workers=args.workers,
    )
    report = replicate(study)
    lines = _echo_lines(
        {
            **cfg,
            "h_datasets": args.h_datasets,
            "methods": args.methods,
            "workers": args.workers,
            **opts.to_echo(),
        }
    )
    rows = ([r.h, r.method.value, r.estimate, r.bias, r.error] for r in report.rows)
    header = ["h", "method", "estimate", "bias", "error"]
    write_csv(f"{args.out_prefix}_rows.csv", header, rows, lines)
    summary = (
        [s.method.value, s.mean_bias, s.ci_lo, s.ci_hi, s.n_datasets, s.failures]
        for s in report.summary.values()
    )
    header = ["method", "mean_bias", "ci_lo", "ci_hi", "n", "failures"]
    write_csv(f"{args.out_prefix}_summary.csv", header, summary, lines)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _resolve_params(args, "m")
    cfg["sigmaEps"] = 0.0
    arco = _build(ArcoParams, cfg)
    mode = MODE_PERMUTATION if args.mode == "permutation" else MODE_IID
    spec = EnumSpec(
        m=cfg["m"],
        mode=mode,
        params=arco,
        m1=args.m1,
        pi=args.pi,
        y_init=args.y_init,
    )
    value = enumerate_apte(spec)
    payload = {
        "config": {
            **{k: cfg[k] for k in sorted(cfg)},
            "mode": args.mode,
            "m1": args.m1,
            "pi": args.pi,
            "y_init": args.y_init,
        },
        "mode": args.mode,
        "m": cfg["m"],
        "apte_exact": value,
    }
    _write_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nof1twin",
        description="Within-individual treatment effect estimation for n-of-1 time series",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", help="key=value parameter file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one key")

    def add_motr(p: argparse.ArgumentParser) -> None:
        p.add_argument("--r-min", type=int, default=10)
        p.add_argument("--r-max", type=int, default=200)
        p.add_argument("--stop-tol", type=float, default=1e-3)
        p.add_argument("--stop-window", type=int, default=5)

    def add_pstn(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trim", type=float, nargs=2, default=[0.05, 0.95], metavar=("LO", "HI"))
        p.add_argument("--no-overlap", action="store_true")
        p.add_argument("--no-stabilize", action="store_true")

    def add_forest(p: argparse.ArgumentParser, default_trees: int) -> None:
        p.add_argument("--n-trees", type=int, default=default_trees)
        p.add_argument("--mtry", type=int, default=None)
        p.add_argument("--min-node-size", type=int, default=None)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    add_params(sim)
    sim.add_argument("--m", type=int, help="analyzed length after burn-in (default 220)")
    sim.add_argument("--burnin", type=int, help="leading periods to discard (default 2)")
    sim.add_argument("--seed", type=int, help=f"base seed (default {DEFAULT_SEED})")
    sim.add_argument(
        "--randomized", action="store_true", default=None, help="i.i.d. Bernoulli(pi1) exposure"
    )
    sim.add_argument("-o", "--output", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="estimate the effect on a dataset CSV")
    ana.add_argument("--data", required=True, help="input dataset CSV")
    ana.add_argument(
        "--method",
        required=True,
        choices=["raw", "coef", "motr-glm", "motr-rf", "pstn-glm", "pstn-rf"],
    )
    ana.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ana.add_argument("--lag-y", choices=["continuous", "quartile", "none"], default="continuous")
    ana.add_argument("--lag-x", action="store_true", help="include the lagged exposure feature")
    ana.add_argument("--exog", help="comma-separated exogenous column names")
    ana.add_argument("--log10-y", action="store_true", help="analyze log10 of the outcome")
    ana.add_argument("--dichotomize-x", action="store_true", help="median-split a continuous exposure")
    add_motr(ana)
    add_pstn(ana)
    add_forest(ana, default_trees=500)
    ana.add_argument("--dump-model", metavar="PATH", help="write fitted-model summary JSON")
    ana.add_argument("--runs-csv", metavar="PATH", help="write per-run CSV (motr methods)")
    ana.add_argument("--periods-csv", metavar="PATH", help="write per-period CSV (pstn methods)")
    ana.add_argument("-o", "--output", help="output JSON path (default stdout)")
    ana.set_defaults(func=cmd_analyze)

    rep = sub.add_parser("replicate", help="run the multi-dataset bias study")
    add_params(rep)
    rep.add_argument("--h-datasets", type=int, default=100, metavar="H")
    rep.add_argument("--m", type=int, help="analyzed length (default 220)")
    rep.add_argument("--seed", type=int, help=f"base seed (default {DEFAULT_SEED})")
    rep.add_argument(
        "--methods",
        default="raw,coef,motr-glm,pstn-glm,motr-rf,pstn-rf",
        help="comma-separated method list",
    )
    rep.add_argument("--workers", type=int, default=1)
    add_motr(rep)
    add_pstn(rep)
    add_forest(rep, default_trees=REPLICATION_FOREST_TREES)
    rep.add_argument("-o", "--out-prefix", required=True, help="prefix for _rows.csv/_summary.csv")
    rep.set_defaults(func=cmd_replicate)

    orc = sub.add_parser("oracle", help="exact enumeration for small noise-free systems")
    add_params(orc)
    orc.add_argument(
        "--m", type=int, help="periods to enumerate (<= 12 permutation mode, <= 20 iid mode)"
    )
    orc.add_argument("--mode", choices=["permutation", "iid"], default="permutation")
    orc.add_argument("--m1", type=int, help="number of exposed periods (permutation mode)")
    orc.add_argument("--pi", type=float, help="exposure probability (iid mode)")
    orc.add_argument("--y-init", type=float, default=None, help="initial outcome level")
    orc.add_argument("-o", "--output", help="output JSON path (default stdout)")
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except EstimatorError as exc:
        print(f"estimator error: {exc}", file=sys.stderr)
        return 4
    except Nof1TwinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
