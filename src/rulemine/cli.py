"""Command line front end.

    rulemine mine    --input table.csv --schema cicy5 --out-dir out
    rulemine report  --input out/rules.json --top 10 --precision 7
    rulemine predict --input out/rules.json --known item5=5 --target h11

mine writes itemsets.csv, rules.csv, rules.json (with --format json),
and manifest.json into --out-dir. The manifest records everything needed
to reproduce the run; `mine --manifest out/manifest.json` replays it.
Exit codes: 0 success, 1 input/output failure, 2 argument validation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import time
from collections.abc import Iterator
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    IngestError,
    PredictionError,
    RulemineError,
    SchemaError,
    UnknownItemError,
    utf8_input,
)

# The engine is bound on first use (see __getattr__), and each command calls
# it as _cli.<name>, so a wrapper set on this module is the one called.
_cli = sys.modules[__name__]

ENGINE_NAME = "rulemine"

# The mine flags a manifest records, in manifest key order; replay
# restores exactly these.
RECORDED_FLAGS = (
    "input", "schema", "separator", "min_support", "min_confidence", "max_len",
    "workers", "ordering", "include_empty_lhs", "format", "precision",
)  # fmt: skip

# Each output's manifest key and file name. mine writes each under a
# temporary name in --out-dir and, once all are written, moves them into
# place in this order, the manifest last: a run that fails leaves the
# previous run's files as they were.
OUTPUTS = {
    "itemsets": "itemsets.csv", "rules_csv": "rules.csv",
    "rules_json": "rules.json", "manifest": "manifest.json",
}  # fmt: skip

# Every float64 is a multiple of 2**-1074, so its fixed-point expansion
# has at most 1074 decimals; a larger --precision only appends zeros.
MAX_PRECISION = 1074


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=ENGINE_NAME,
        description="Association-rule mining for discrete-valued tables.",
    )
    parser.add_argument(
        "--version", action="version", version=f"{ENGINE_NAME} {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser(
        "mine", help="mine frequent itemsets and strong rules from a CSV"
    )
    mine.add_argument("--input", help="CSV table with a header row")
    mine.add_argument(
        "--schema",
        default="generic",
        help="schema preset (cicy5, cicy6), 'generic', or a JSON schema file",
    )
    mine.add_argument("--separator", default=",", help="CSV field separator")
    mine.add_argument("--min-support", type=float, default=0.10)
    mine.add_argument("--min-confidence", type=float, default=0.80)
    mine.add_argument("--max-len", type=int, default=None)
    mine.add_argument("--workers", type=int, default=1)
    mine.add_argument(
        "--ordering", default="default", help="rule order: default, confidence, support"
    )
    mine.add_argument(
        "--no-empty-lhs",
        dest="include_empty_lhs",
        action="store_false",
        help="suppress rules with an empty left-hand side",
    )
    mine.add_argument("--out-dir", default=None, help="output directory (default: out)")
    mine.add_argument("--format", default="csv", help="csv, or json to add rules.json")
    mine.add_argument("--precision", type=int, default=4)
    mine.add_argument(
        "--manifest",
        help="replay a recorded run from its manifest.json "
        "(other flags are ignored except --out-dir)",
    )

    report = commands.add_parser("report", help="print the top rules of a previous run")
    report.add_argument("--input", required=True, help="rules.csv or rules.json")
    report.add_argument("--top", type=int, default=10)
    report.add_argument("--precision", type=int, default=4)
    report.add_argument(
        "--base-layout",
        action="store_true",
        help="restrict columns to rule,LHS,RHS,support,confidence,"
        "coverage,lift,count",
    )

    pred = commands.add_parser("predict", help="predict one column from a rules.json")
    pred.add_argument("--input", required=True, help="rules.json of a prior run")
    pred.add_argument(
        "--known",
        action="append",
        default=[],
        metavar="COLUMN=VALUE",
        help="known item, repeatable",
    )
    pred.add_argument(
        "--target", required=True, help="column to predict (label or source header)"
    )
    pred.add_argument("--top", type=int, default=None)
    return parser


def _check_precision(precision: object) -> None:
    if type(precision) is not int or not 0 <= precision <= MAX_PRECISION:
        raise ConfigError(f"--precision must be an integer in [0, {MAX_PRECISION}]")


def _check_path(flag: str, path: object) -> None:
    # open() raises ValueError, not OSError, on a NUL
    if not isinstance(path, str) or "\0" in path:
        raise ConfigError(f"{flag} must be a path, got {path!r}")


def _validate_mine_args(
    args: argparse.Namespace,
) -> tuple[MiningConfig, RuleConfig]:
    """Check the mine flags before any file is read and return the
    configs to mine with. MiningConfig and RuleConfig hold the range
    rules of the thresholds, --max-len, --ordering and include_empty_lhs;
    the checks here cover the flags no config holds. A replayed manifest
    may hold any JSON value, so types are checked along with ranges."""
    mining = _cli.MiningConfig(args.min_support, args.max_len)
    rule_config = _cli.RuleConfig(
        min_confidence=args.min_confidence,
        include_empty_lhs=args.include_empty_lhs,
        ordering=args.ordering,
    )
    if type(args.workers) is not int or args.workers < 1:
        raise ConfigError("--workers must be a positive integer")
    _check_precision(args.precision)
    if args.format not in ("csv", "json"):
        raise ConfigError("--format must be one of: csv, json")
    separator = args.separator  # csv rejects NUL before Python 3.11
    if not isinstance(separator, str) or len(separator) != 1 or separator == "\0":
        raise ConfigError("--separator must be a single character")
    if not args.input:
        raise ConfigError("--input is required")
    _check_path("--input", args.input)
    _check_path("--schema", args.schema)
    _check_path("--out-dir", args.out_dir)
    return mining, rule_config


def cmd_mine(args: argparse.Namespace) -> int:
    if args.manifest:
        args = _args_from_manifest(args)
    if args.out_dir is None:
        args.out_dir = "out"
    mining, rule_config = _validate_mine_args(args)
    # absolute paths let the manifest replay from any working directory
    args.input = os.path.abspath(args.input)
    if args.schema not in _cli.SCHEMA_PRESETS and args.schema != "generic":
        args.schema = os.path.abspath(args.schema)
    schema = _cli.resolve_schema(args.schema)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the manifest's "outputs": each file's path, None for one not written
    outputs = {key: str(out_dir / name) for key, name in OUTPUTS.items()}
    if args.format == "csv":
        outputs["rules_json"] = None

    stats: dict = {}
    timings: dict = {}
    with _stage(timings, "load_s"):
        db = _cli.load_csv(args.input, schema, separator=args.separator, stats=stats)
    with _stage(timings, "mine_s"):
        frequent = _cli.mine_frequent(db, mining, workers=args.workers)
    with _stage(timings, "rules_s"):
        rules = _cli.generate_rules(frequent, rule_config)

    staged = {
        key: out_dir / f".{name}.{os.getpid()}.tmp"
        for key, name in OUTPUTS.items()
        if outputs[key] is not None
    }
    try:
        with _stage(timings, "write_s"):
            _cli.write_itemsets(frequent, db.catalog, staged["itemsets"])
            _cli.write_rules_csv(
                rules, db.catalog, staged["rules_csv"], precision=args.precision
            )
            if "rules_json" in staged:
                sources = (
                    {label: source for source, label in schema.columns}
                    if schema is not None
                    else {}
                )
                _cli.write_rules_json(
                    rules,
                    db.catalog,
                    db.total,
                    staged["rules_json"],
                    column_sources=sources,
                    mining=dataclasses.asdict(mining),
                    rule_config=dataclasses.asdict(rule_config),
                )

        manifest = {
            "engine": ENGINE_NAME,
            "version": __version__,
            **{name: getattr(args, name) for name in RECORDED_FLAGS},
            "out_dir": str(out_dir),
            "outputs": outputs,
            "database": {
                "total": db.total,
                "items": len(db.catalog),
                "columns": list(db.catalog.columns),
                **stats,
            },
            "timings": timings,
        }
        with open(staged["manifest"], "w", encoding="utf-8", newline="\n") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        for key, path in outputs.items():
            if path is None:  # a stale one from an earlier run would outlive this run
                (out_dir / OUTPUTS[key]).unlink(missing_ok=True)
            else:
                os.replace(staged[key], path)
    finally:
        for temporary in staged.values():
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)

    print(
        f"{db.total} transactions, {len(frequent)} frequent itemsets, "
        f"{len(rules)} rules -> {out_dir}"
    )
    return 0


@contextlib.contextmanager
def _stage(timings: dict, key: str) -> Iterator[None]:
    """Time the block into timings[key], in seconds to the microsecond."""
    start = time.perf_counter()
    yield
    timings[key] = round(time.perf_counter() - start, 6)


def _args_from_manifest(args: argparse.Namespace) -> argparse.Namespace:
    """The recorded run's flags; cmd_mine validates them as it would a
    command line's. A manifest that is not a JSON object holding every
    recorded flag raises IngestError naming it."""
    path = args.manifest
    try:
        with open(path, "r", encoding="utf-8-sig") as handle, utf8_input(path):
            # manifests from before the flag was recorded replay as True
            recorded = {"include_empty_lhs": True, **json.load(handle)}
        replay = argparse.Namespace(**vars(args))
        for name in RECORDED_FLAGS:
            setattr(replay, name, recorded[name])
        if args.out_dir is None:  # not overridden: reuse the recorded directory
            replay.out_dir = recorded["out_dir"]
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise IngestError(f"{path}: not valid JSON: {exc}") from None
    except KeyError as exc:
        raise IngestError(f"{path}: missing key {exc.args[0]!r}") from None
    except TypeError:
        raise IngestError(f"{path}: manifest must be a JSON object") from None
    replay.manifest = None
    return replay


def cmd_report(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise ConfigError("--top must be non-negative")
    _check_precision(args.precision)
    _check_path("--input", args.input)
    path = args.input
    if path.endswith(".json"):
        from .rules import CSV_COLUMNS, CSV_COLUMNS_EXTENDED, rule_rows
        document = _cli.read_rules_json(path)
        extended = not args.base_layout
        header = CSV_COLUMNS_EXTENDED if extended else CSV_COLUMNS
        rules = document.rules[: args.top]
        rows = list(rule_rows(rules, document.catalog, args.precision, extended))
    else:
        from .rules import report_rows_from_csv
        header, rows = report_rows_from_csv(path, args.precision)
    rows = rows[: args.top]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    if args.top is not None and args.top < 0:
        raise ConfigError("--top must be non-negative")
    _check_path("--input", args.input)
    document = _cli.read_rules_json(args.input)
    catalog = document.catalog

    def label(column: str) -> str:
        # accept a source header (e.g. h11) for a mapped label (item1)
        if column not in catalog.columns:
            for name, source in document.column_sources.items():
                if source == column:
                    return name
        return column

    # a known token's column is looked up as the target is: "h13=0" is "item3=0"
    known_ids = [
        catalog.parse(label(column) + eq + value)
        for column, eq, value in (token.rpartition("=") for token in args.known)
    ]
    target = label(args.target)

    # predict reads only the rules that can vote; the rest stay unbuilt
    rules = document.rules.with_single_rhs_in(
        (item for item, (column, _) in enumerate(catalog) if column == target),
        known_ids,
    )
    predictions = _cli.predict(known_ids, rules, target, catalog)
    payload = {
        "target": target,
        "known": [catalog.render(i) for i in known_ids],
        "predictions": [
            {
                "value": p.value,
                "item": catalog.render(p.item),
                "confidence": p.confidence,
                "support": p.support,
                "rule": _cli.render_rule(p.rule, catalog),
            }
            for p in predictions[: args.top]  # all of them when --top is None
        ],
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not predictions:
        print(f"no rule matches the query (target {target!r})", file=sys.stderr)
    return 0


def __getattr__(name: str) -> object:
    """Bind a public name of the package on first use, and keep it here."""
    package = sys.modules[__package__]
    if name not in package._HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = {"mine": cmd_mine, "report": cmd_report, "predict": cmd_predict}
    try:
        return command[args.command](args)
    except (ConfigError, SchemaError, UnknownItemError, PredictionError) as exc:
        error, code = exc, 2
    except (OSError, RulemineError, UnicodeError) as exc:
        error, code = exc, 1
    # one line, even when a path in the message holds a line break
    print("error:", " ".join(str(error).splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
