"""Command-line front end: simulate, analyze, replicate, oracle.

Configuration precedence is defaults < params file (`key=value` lines,
'#' comments) < `--set key=value` < dedicated flags.  Every output embeds
the fully-resolved configuration so a run can be reproduced from its
artifacts alone.  Exit codes: 0 success, 2 config error, 3 data error,
4 estimator error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .arco import ArcoParams, PropensityParams, SimConfig, simulate_dataset
from .core import (
    LAG_MODES,
    FeatureSpec,
    SeedSpec,
    TimeSeriesDataset,
    dichotomize_exposure,
    load_table,
    log10_transform,
    setting_names,
    write_csv,
    write_text,
)
from .errors import ConfigError, DataError, EstimatorError, Nof1TwinError
from .harness import (
    Method,
    MethodOptions,
    MethodSummary,
    ReplicationRow,
    StudyConfig,
    apply_method,
    default_study_params,
    replicate,
)
from .models import ForestConfig
from .motr import MotrConfig
from .oracle import MODE_IID, MODE_PERMUTATION, EnumSpec, enumerate_apte
from .pstn import PstnConfig

DEFAULT_SEED = 1
# `replicate` grows 100 trees per forest unless --n-trees says otherwise;
# `analyze` keeps ForestConfig's default.
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


def _resolve_params(args: argparse.Namespace, *flags: str, read=_PARAM_FIELDS, **defaults) -> dict:
    """The configuration of the simulation-parameter keys `read`, in rising precedence:
    the study's defaults, `defaults`, the params file, `--set`, then each given flag of
    `flags`.  A params-file line or `--set` of any other key is a config error."""
    arco, prop = default_study_params()
    source = {ArcoParams: vars(arco), PropensityParams: vars(prop), SimConfig: _SIM_DEFAULTS}
    resolved = {k: source[cls][name] for k, (cls, name) in _PARAM_FIELDS.items() if k in read} | defaults
    entries: list[tuple[str, str]] = []  # (key=value text, origin)
    if args.params is not None:
        try:
            with open(args.params, encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read params file {args.params}: {exc}") from None
        for lineno, text in enumerate(lines, start=1):
            if line := text.split("#", 1)[0].strip():
                entries.append((line, f"{args.params}:{lineno}"))
    entries += [(item, "--set") for item in args.set or []]
    for text, origin in entries:
        key, raw = _parse_kv(text)
        if key not in _PARAM_FIELDS:
            raise ConfigError(f"{origin}: unknown configuration key {key!r}")
        if key not in resolved:
            raise ConfigError(f"{origin}: {args.command} does not read configuration key {key!r}")
        kind = type(resolved[key])
        try:
            resolved[key] = _parse_bool(raw) if kind is bool else kind(raw)
        except ValueError:
            raise ConfigError(f"{origin}: key {key!r} expects {kind.__name__}, got {raw!r}") from None
    return resolved | {key: v for key in flags if (v := getattr(args, key)) is not None}


def _build(cls, cfg: dict):
    """The `cls` dataclass from the configuration keys that map onto it."""
    return cls(**{name: cfg[key] for key, (owner, name) in _PARAM_FIELDS.items() if owner is cls})


def _method_options(args: argparse.Namespace, **specs: FeatureSpec) -> MethodOptions:
    """Method options whose configs take, by field name, each method flag that was given."""
    motr, pstn, forest = (
        cls(**{n: v for n in setting_names(cls) if (v := getattr(args, n)) is not None})
        for cls in (MotrConfig, PstnConfig, ForestConfig)
    )
    return MethodOptions(motr=motr, pstn=pstn, forest=forest, **specs)


def _echo(args: argparse.Namespace, names: tuple[str, ...], *configs: dict) -> dict:
    """The configuration a result echoes: the resolved `configs`, then the flags `names`."""
    return {k: v for cfg in configs for k, v in cfg.items()} | {n: getattr(args, n) for n in names}


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
    return TimeSeriesDataset(y, x, exog)


def _feature_spec(args: argparse.Namespace) -> FeatureSpec:
    """The analysis's outcome layout from the layout flags."""
    exog = tuple(n for n in args.exog.split(",") if n)
    return FeatureSpec(True, outcome_lag_mode=args.lag_y, use_exposure_lag1=args.lag_x, exog_names=exog)


def cmd_analyze(args: argparse.Namespace) -> int:
    method = Method.parse(args.method)
    if args.dump_model and method is Method.RAW:
        raise ConfigError(f"method {method.value!r} fits no model to dump")
    if args.runs_csv and method not in (Method.MOTR_GLM, Method.MOTR_RF):
        raise ConfigError("--runs-csv applies to motr-glm / motr-rf only")
    if args.periods_csv and method not in (Method.PSTN_GLM, Method.PSTN_RF):
        raise ConfigError("--periods-csv applies to pstn-glm / pstn-rf only")
    ds = _load_analysis_dataset(args)
    opts = _method_options(args, outcome_spec=_feature_spec(args))
    res = apply_method(ds, method, opts, SeedSpec(args.seed))
    names = ("data", "method", "seed", "lag_y", "lag_x", "exog", "log10_y", "dichotomize_x")
    payload = {
        "config": _echo(args, names, opts.to_echo()),
        "method": method.label,
        "result": res.detail.record(),
    }
    # side files first: a write that fails (exit 3) leaves no -o result behind
    if args.dump_model:
        _write_json(res.model.summary(), args.dump_model)
    if side := args.runs_csv or args.periods_csv:
        write_csv(side, *res.detail.table())
    _write_json(payload, args.output)
    return 0


# ---------------------------------------------------------------------------
# replicate
# ---------------------------------------------------------------------------

def cmd_replicate(args: argparse.Namespace) -> int:
    cfg = _resolve_params(args, "m", "seed", read=_PARAM_FIELDS.keys() - {"randomized"})
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
    lines = _echo_lines(_echo(args, ("h_datasets", "methods"), cfg, opts.to_echo()))
    tables = (("rows", ReplicationRow, report.rows), ("summary", MethodSummary, report.summary.values()))
    for name, cls, records in tables:  # a Method cell reads as its value: Method is a str
        header = [f.name for f in dataclasses.fields(cls)]
        write_csv(f"{args.out_prefix}_{name}.csv", header, (vars(r).values() for r in records), lines)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args: argparse.Namespace) -> int:
    read = [key for key, (cls, _) in _PARAM_FIELDS.items() if cls is ArcoParams or key == "m"]
    cfg = _resolve_params(args, "m", read=read, sigmaEps=0.0)  # EnumSpec rejects other noise
    mode = MODE_PERMUTATION if args.mode == "permutation" else MODE_IID
    spec = EnumSpec(m=cfg["m"], mode=mode, params=_build(ArcoParams, cfg), m1=args.m1, pi=args.pi,
                    y_init=args.y_init)
    payload = {"config": _echo(args, ("mode", "m1", "pi", "y_init"), cfg), "mode": args.mode,
               "m": cfg["m"], "apte_exact": enumerate_apte(spec)}
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

    def add_method_options(p: argparse.ArgumentParser, n_trees: int | None = None) -> None:
        """MoTR, PSTn and forest flags; each dest is a config field, unset unless given."""
        p.add_argument("--r-min", type=int)
        p.add_argument("--r-max", type=int)
        p.add_argument("--stop-tol", type=float)
        p.add_argument("--stop-window", type=int)
        p.add_argument("--trim", dest="trim_bounds", type=float, nargs=2, metavar=("LO", "HI"))
        p.add_argument("--no-overlap", dest="use_overlap", action="store_false", default=None)
        p.add_argument("--no-stabilize", dest="use_stabilized", action="store_false", default=None)
        p.add_argument("--n-trees", type=int, default=n_trees)
        p.add_argument("--mtry", type=int)
        p.add_argument("--min-node-size", type=int)

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
    ana.add_argument("--method", required=True, choices=[m.label for m in Method])
    ana.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ana.add_argument("--lag-y", choices=LAG_MODES, default="continuous")
    ana.add_argument("--lag-x", action="store_true", help="include the lagged exposure feature")
    ana.add_argument("--exog", default="", help="comma-separated exogenous column names")
    ana.add_argument("--log10-y", action="store_true", help="analyze log10 of the outcome")
    ana.add_argument("--dichotomize-x", action="store_true", help="median-split a continuous exposure")
    add_method_options(ana)
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
        "--methods", default=",".join(m.label for m in Method), help="comma-separated method list"
    )
    rep.add_argument("--workers", type=int, default=1)
    add_method_options(rep, n_trees=REPLICATION_FOREST_TREES)
    rep.add_argument("-o", "--out-prefix", required=True, help="prefix for _rows.csv/_summary.csv")
    rep.set_defaults(func=cmd_replicate)

    orc = sub.add_parser("oracle", help="exact average effect of the noise-free system")
    add_params(orc)
    orc.add_argument("--m", type=int, help="series length (default 220)")
    orc.add_argument("--mode", choices=["permutation", "iid"], default="permutation")
    orc.add_argument("--m1", type=int, help="number of exposed periods (permutation mode)")
    orc.add_argument("--pi", type=float, help="exposure probability (iid mode)")
    orc.add_argument("--y-init", type=float, default=None, help="initial outcome level")
    orc.add_argument("-o", "--output", help="output JSON path (default stdout)")
    orc.set_defaults(func=cmd_oracle)

    return parser


_parser = functools.cache(build_parser)  # parsing leaves a parser as it was: one serves every call


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
