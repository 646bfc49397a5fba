"""Command-line front end.

Two subcommands:

* ``pairscreen analyze`` runs the two-stage procedure on CSV inputs and
  writes a JSON report plus a rejected-pairs CSV.
* ``pairscreen simulate`` runs the seeded replicate harness and writes a
  metrics CSV (per-replicate rows followed by aggregate mean/SE rows).

Every option can also be supplied through ``--config FILE`` (a flat JSON
object keyed by the long option names with dashes as underscores);
explicit command-line flags override config-file values.  Exit status is 0
exactly when the requested outputs were fully written; failures print
``error CODE: message`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .csvio import dominant_encode, format_number, load_csv_matrix
from .errors import InvalidConfig, PairscreenError
from .glm import family_from_name
from .pipeline import Dataset, run_two_stage
from .report import write_report
from .simulate import SimConfig, aggregate_rows, run_replicates

__all__ = ["main"]

_METRICS_COLUMNS = [
    "alpha1",
    "b",
    "rep",
    "fdp",
    "power",
    "omega",
    "p1",
    "t_hat",
    "rejections",
    "seed",
    "error",
    "fdp_se",
    "power_se",
    "power_reps",
    "failed_reps",
]


def _bounded(convert, ok, expected: str):
    """An option ``type``: ``convert(text)``, which must satisfy ``ok``."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (TypeError, ValueError):
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_eta = _bounded(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_rate = _bounded(float, lambda v: v >= 0.0, "a number >= 0")
_workers = _bounded(int, lambda v: v >= 1, "an integer >= 1")


def _float_list(text, number=float) -> list[float]:
    """Comma-separated numbers, each read by ``number``; a config file may
    give a JSON list instead."""
    tokens = text if isinstance(text, list) else str(text).split(",")
    try:
        values = [number(tok) for tok in tokens if tok != ""]
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidConfig, like bad config values; subparsers
    inherit the class."""

    def error(self, message):
        raise InvalidConfig(message)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="pairscreen",
        description="Two-stage pairwise-interaction testing with FDR control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the two-stage procedure on CSV data")
    pa.add_argument("--config", type=str, help="JSON config file; flags override it")
    pa.add_argument("--x", dest="x", type=str, help="covariate matrix CSV (header row)")
    pa.add_argument("--y", dest="y", type=str, help="response CSV (single column)")
    pa.add_argument("--adjust", type=str, help="optional adjustment-covariate CSV")
    pa.add_argument("--family", choices=["gaussian", "logistic"], help="working family")
    pa.add_argument("--alpha1", type=_rate, help="stage-1 rate (alpha = sqrt(alpha1 log p))")
    pa.add_argument("--eta", type=_eta, help="target FDR level in (0, 1)")
    pa.add_argument("--dominant", action="store_true", default=None,
                    help="recode covariates {0,1,2} -> {0,1} (carrier indicator)")
    pa.add_argument("--strict-cutoff", action="store_true", default=None,
                    help="reject with |T| > t_hat instead of >=")
    pa.add_argument("--adjust-in-stage1", action="store_true", default=None,
                    help="include adjustment covariates in stage-1 designs too")
    pa.add_argument("--workers", type=_workers, help="parallel workers for the pair loop")
    pa.add_argument("--out", type=str, help="output JSON report path")

    ps = sub.add_parser("simulate", help="run the seeded replicate harness")
    ps.add_argument("--config", type=str, help="JSON config file; flags override it")
    ps.add_argument("--family", choices=["gaussian", "logistic"], help="generating family")
    ps.add_argument("--n", type=int, help="sample size")
    ps.add_argument("--p", type=int, help="number of variables")
    ps.add_argument("--b", type=_float_list, help="signal sizes, comma separated")
    ps.add_argument("--alpha1", type=functools.partial(_float_list, number=_rate),
                    help="stage-1 rates, comma separated (0 = BH baseline)")
    ps.add_argument("--eta", type=_eta, help="target FDR level in (0, 1)")
    ps.add_argument("--reps", type=int, help="replicates per (alpha1, b) cell")
    ps.add_argument("--seed", type=int, help="base seed; replicate r uses seed + r")
    ps.add_argument("--misspecified", action="store_true", default=None,
                    help="attach misspecification terms to active pairs")
    ps.add_argument("--cov", choices=["identity", "ar1"], help="covariate covariance")
    ps.add_argument("--beta0", type=float, help="intercept (default -1 gaussian, -2 logistic)")
    ps.add_argument("--active-limit", type=int, help="candidate-set size for active mains")
    ps.add_argument("--workers", type=_workers, help="parallel workers over replicates")
    ps.add_argument("--out", type=str, help="output metrics CSV path")
    return parser, {"analyze": pa, "simulate": ps}


def _merge_config(args: argparse.Namespace, command: argparse.ArgumentParser):
    """Fill unset options from the JSON config file, if one was given.

    Each value goes through its option's ``type`` and ``choices``, as the
    flag's text would; a value that fails them is an InvalidConfig.
    """
    if not getattr(args, "config", None):
        return args
    path = Path(args.config)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise InvalidConfig(f"config file {path} must hold a JSON object")
    actions = {action.dest: action for action in command._actions if action.dest != "help"}
    for key, value in values.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise InvalidConfig(f"config file {path}: unknown option {key!r}")
        try:
            if action.nargs == 0 and not isinstance(value, bool):  # store_true flag
                raise ValueError(f"expected true or false, got {value!r}")
            if action.type is not None:
                value = action.type(value if isinstance(value, list) else str(value))
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"expected one of {', '.join(action.choices)}, got {value!r}")
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise InvalidConfig(f"config file {path}: option {key!r}: {exc}") from None
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)
    return args


def _require(args: argparse.Namespace, names: list[str]) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        opts = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise InvalidConfig(f"missing required options: {opts}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    _require(args, ["x", "y", "family", "alpha1", "eta", "out"])
    x, labels = load_csv_matrix(args.x)
    y, _ = load_csv_matrix(args.y)
    if y.shape[1] != 1:
        raise InvalidConfig(f"response file {args.y} must have exactly one column")
    adjust = None
    if args.adjust:
        adjust, _ = load_csv_matrix(args.adjust)
    if args.dominant:
        x = dominant_encode(x)
    data = Dataset(
        x=x,
        y=y[:, 0],
        family=family_from_name(args.family),
        adjust=adjust,
        labels=labels,
    )
    report = run_two_stage(
        data,
        alpha1=args.alpha1,
        eta=args.eta,
        strict_cutoff=bool(args.strict_cutoff),
        adjust_in_stage1=bool(args.adjust_in_stage1),
        workers=args.workers or 1,
    )
    write_report(report, data, args.out)
    return 0


def _metric_cell(value) -> str:
    return "" if value is None else format_number(value)


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, ["family", "n", "p", "b", "alpha1", "eta", "reps", "seed", "out"])
    out_rows: list[dict] = []
    aggregates: list[dict] = []
    for b in args.b:
        config = SimConfig(
            n=args.n,
            p=args.p,
            family=args.family,
            b=b,
            seed=args.seed,
            misspecified=bool(args.misspecified),
            cov_kind=args.cov or "identity",
            beta0=args.beta0,
            active_limit=args.active_limit,
        )
        rows = run_replicates(config, args.alpha1, args.eta, args.reps, workers=args.workers or 1)
        for row in rows:
            metrics = dataclasses.asdict(row.metrics) if row.metrics else {}
            out_rows.append(
                {
                    **{name: _metric_cell(value) for name, value in metrics.items()},
                    "alpha1": format_number(row.alpha1),
                    "b": format_number(b),
                    "rep": str(row.rep),
                    "seed": str(row.seed),
                    "error": row.error or "",
                }
            )
        for agg in aggregate_rows(rows):
            aggregates.append(
                {
                    "alpha1": format_number(agg.alpha1),
                    "b": format_number(b),
                    "rep": "mean",
                    "fdp": _metric_cell(agg.fdp_mean),
                    "power": _metric_cell(agg.power_mean),
                    "omega": _metric_cell(agg.omega_mean),
                    "p1": _metric_cell(agg.p1_mean),
                    "t_hat": _metric_cell(agg.t_hat_mean),
                    "rejections": _metric_cell(agg.rejections_mean),
                    "seed": str(args.seed),
                    "fdp_se": _metric_cell(agg.fdp_se),
                    "power_se": _metric_cell(agg.power_se),
                    "power_reps": str(agg.power_reps),
                    "failed_reps": str(agg.failed),
                }
            )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, _METRICS_COLUMNS, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(out_rows)
        writer.writerows(aggregates)
    return 0


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args, commands[args.command])
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_simulate(args)
    except FileNotFoundError as exc:
        print(f"error FILE_NOT_FOUND: {exc}", file=sys.stderr)
        return 1
    except PairscreenError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error INVALID_CONFIG: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
