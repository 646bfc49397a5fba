"""Command-line front end.

Two subcommands:

* ``pairscreen analyze`` runs the two-stage procedure on CSV inputs and
  writes a JSON report plus a rejected-pairs CSV.
* ``pairscreen simulate`` runs the seeded replicate harness and writes a
  metrics CSV (per-replicate rows followed by aggregate mean/SE rows).

Every option can also be supplied through ``--config FILE`` (a flat JSON
object in UTF-8, with or without a byte-order mark, keyed by the long
option names with dashes as underscores); explicit command-line flags
override config-file values.  The output paths are checked before any
input is read.  Exit status is 0 exactly when the requested outputs were
fully written; failures print ``error CODE: message`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .csvio import dominant_encode, format_number, load_csv_matrix
from .errors import InvalidConfig, PairscreenError
from .glm import family_from_name
from .pipeline import Dataset, _eta_ok, run_two_stage
from .report import rejected_csv_path, write_report
from .simulate import MetricsRow, SimConfig, aggregate_rows, run_replicates

__all__ = ["main"]

_METRICS_COLUMNS = [f.name for f in dataclasses.fields(MetricsRow)]


def _bounded(convert, ok, expected: str):
    """An option ``type``: ``convert(text)``, which must satisfy ``ok``."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value) and not isinstance(text, bool):  # a JSON true is not 1
                return value
        except (TypeError, ValueError):
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_eta = _bounded(float, _eta_ok, "a number in (0, 1)")
_rate = _bounded(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")
_finite = _bounded(float, math.isfinite, "a finite number")
_workers = _bounded(int, lambda v: v >= 1, "an integer >= 1")


def _float_list(text) -> list[float]:
    """Comma-separated distinct numbers, each read by ``_rate``; a config
    file may give a JSON list instead."""
    tokens = text if isinstance(text, list) else str(text).split(",")
    values = [_rate(tok) for tok in tokens if tok != ""]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected distinct numbers, got {text!r}")
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
    pa.add_argument("--workers", type=_workers, help="parallel workers for blocks of stage-2 fits")
    pa.add_argument("--out", type=str, help="output JSON report path")

    ps = sub.add_parser("simulate", help="run the seeded replicate harness")
    ps.add_argument("--config", type=str, help="JSON config file; flags override it")
    ps.add_argument("--family", choices=["gaussian", "logistic"], help="generating family")
    ps.add_argument("--n", type=int, help="sample size")
    ps.add_argument("--p", type=int, help="number of variables")
    ps.add_argument("--b", type=_float_list, help="signal sizes, comma separated")
    ps.add_argument("--alpha1", type=_float_list,
                    help="stage-1 rates, comma separated (0 = BH baseline)")
    ps.add_argument("--eta", type=_eta, help="target FDR level in (0, 1)")
    ps.add_argument("--reps", type=int, help="replicates per (alpha1, b) cell")
    ps.add_argument("--seed", type=int, help="base seed; replicate r uses seed + r")
    ps.add_argument("--misspecified", action="store_true", default=None,
                    help="attach misspecification terms to active pairs")
    ps.add_argument("--cov", choices=["identity", "ar1"], help="covariate covariance")
    ps.add_argument("--beta0", type=_finite, help="intercept (default -1 gaussian, -2 logistic)")
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
        with open(path, encoding="utf-8-sig") as fh:
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
            if action.nargs != 0 and isinstance(value, bool):  # str(True) is the text "True"
                raise ValueError(f"true or false is only the value of a flag, got {value!r}")
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


def _check_out(*paths) -> None:
    """Fail with an OSError (IO_ERROR) before any work when an output path
    is an existing directory or its parent directory is missing; nothing is
    opened, so a run that fails later leaves no partial output."""
    for path in map(Path, paths):
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
        if not path.absolute().parent.is_dir():
            raise OSError(f"output directory does not exist: {path.absolute().parent} (for {path})")


def _cmd_analyze(args: argparse.Namespace) -> int:
    _require(args, ["x", "y", "family", "alpha1", "eta", "out"])
    _check_out(args.out, rejected_csv_path(args.out))
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


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else format_number(value)


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, ["family", "n", "p", "b", "alpha1", "eta", "reps", "seed", "out"])
    _check_out(args.out)
    rows, aggregates = [], []
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
        b_rows = run_replicates(config, args.alpha1, args.eta, args.reps, workers=args.workers or 1)
        rows += b_rows
        aggregates += aggregate_rows(b_rows)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, _METRICS_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows + aggregates:
            writer.writerow({name: _cell(value) for name, value in dataclasses.asdict(row).items()})
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
    except OSError as exc:  # a directory, a permission error, a full disk
        print(f"error IO_ERROR: {exc}", file=sys.stderr)
        return 1
    except PairscreenError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error INVALID_CONFIG: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
