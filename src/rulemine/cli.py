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
from .ingest import SCHEMA_PRESETS, load_csv, resolve_schema
from .miner import MiningConfig, mine_frequent, write_itemsets
from .predictor import predict
from .rules import (
    CSV_COLUMNS,
    CSV_COLUMNS_EXTENDED,
    ORDERINGS,
    RuleConfig,
    generate_rules,
    read_rules_json,
    render_rule,
    report_rows_from_csv,
    rule_rows,
    write_rules_csv,
    write_rules_json,
)

ENGINE_NAME = "rulemine"

# The mine flags a manifest records, in manifest key order; replay
# restores exactly these.
RECORDED_FLAGS = (
    "input", "schema", "separator", "min_support", "min_confidence", "max_len",
    "workers", "ordering", "include_empty_lhs", "format", "precision",
)  # fmt: skip

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
        help="schema preset (%s), 'generic', or a JSON schema file"
        % ", ".join(sorted(SCHEMA_PRESETS)),
    )
    mine.add_argument("--separator", default=",", help="CSV field separator")
    mine.add_argument("--min-support", type=float, default=0.10)
    mine.add_argument("--min-confidence", type=float, default=0.80)
    mine.add_argument("--max-len", type=int, default=None)
    mine.add_argument("--workers", type=int, default=1)
    mine.add_argument(
        "--ordering", choices=sorted(ORDERINGS), default="default"
    )
    mine.add_argument(
        "--no-empty-lhs",
        dest="include_empty_lhs",
        action="store_false",
        help="suppress rules with an empty left-hand side",
    )
    mine.add_argument("--out-dir", default=None, help="output directory (default: out)")
    mine.add_argument("--format", choices=("csv", "json"), default="csv")
    mine.add_argument("--precision", type=int, default=4)
    mine.add_argument(
        "--manifest",
        help="replay a recorded run from its manifest.json "
        "(other flags are ignored except --out-dir)",
    )

    report = commands.add_parser(
        "report", help="print the top rules of a previous run"
    )
    report.add_argument("--input", required=True, help="rules.csv or rules.json")
    report.add_argument("--top", type=int, default=10)
    report.add_argument("--precision", type=int, default=4)
    report.add_argument(
        "--base-layout",
        action="store_true",
        help="restrict columns to rule,LHS,RHS,support,confidence,"
        "coverage,lift,count",
    )

    pred = commands.add_parser(
        "predict", help="predict one column from a rules.json"
    )
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
    mining = MiningConfig(args.min_support, args.max_len)
    rule_config = RuleConfig(
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
    for flag, path in (
        ("--input", args.input),
        ("--schema", args.schema),
        ("--out-dir", args.out_dir),
    ):
        _check_path(flag, path)
    return mining, rule_config


def cmd_mine(args: argparse.Namespace) -> int:
    if args.manifest:
        args = _args_from_manifest(args)
    if args.out_dir is None:
        args.out_dir = "out"
    mining, rule_config = _validate_mine_args(args)
    # absolute paths let the manifest replay from any working directory
    args.input = os.path.abspath(args.input)
    if args.schema not in SCHEMA_PRESETS and args.schema != "generic":
        args.schema = os.path.abspath(args.schema)
    schema = resolve_schema(args.schema)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    stats: dict = {}
    t0 = time.perf_counter()
    db = load_csv(args.input, schema, separator=args.separator, stats=stats)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    frequent = mine_frequent(db, mining, workers=args.workers)
    t_mine = time.perf_counter() - t0

    t0 = time.perf_counter()
    rules = generate_rules(frequent, rule_config)
    t_rules = time.perf_counter() - t0

    itemsets_path = out_dir / "itemsets.csv"
    rules_csv_path = out_dir / "rules.csv"
    rules_json_path = out_dir / "rules.json" if args.format == "json" else None
    manifest_path = out_dir / "manifest.json"
    # Each output is written under a temporary name in out_dir and moved
    # into place once all are written, the manifest last, so a run that
    # fails leaves the previous run's files as they were.
    finals = [
        path
        for path in (itemsets_path, rules_csv_path, rules_json_path, manifest_path)
        if path is not None
    ]
    staged = {
        path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in finals
    }
    try:
        t0 = time.perf_counter()
        write_itemsets(frequent, db.catalog, staged[itemsets_path])
        write_rules_csv(
            rules, db.catalog, staged[rules_csv_path], precision=args.precision
        )
        if rules_json_path is not None:
            sources = (
                {label: source for source, label in schema.columns}
                if schema is not None
                else {}
            )
            write_rules_json(
                rules,
                db.catalog,
                db.total,
                staged[rules_json_path],
                column_sources=sources,
                mining=dataclasses.asdict(mining),
                rule_config=dataclasses.asdict(rule_config),
            )
        t_write = time.perf_counter() - t0

        manifest = {
            "engine": ENGINE_NAME,
            "version": __version__,
            **{name: getattr(args, name) for name in RECORDED_FLAGS},
            "out_dir": str(out_dir),
            "outputs": {
                "itemsets": str(itemsets_path),
                "rules_csv": str(rules_csv_path),
                "rules_json": (
                    str(rules_json_path) if rules_json_path is not None else None
                ),
                "manifest": str(manifest_path),
            },
            "database": {
                "total": db.total,
                "items": len(db.catalog),
                "columns": list(db.catalog.columns),
                **stats,
            },
            "timings": {
                "load_s": round(t_load, 6),
                "mine_s": round(t_mine, 6),
                "rules_s": round(t_rules, 6),
                "write_s": round(t_write, 6),
            },
        }
        with open(
            staged[manifest_path], "w", encoding="utf-8", newline="\n"
        ) as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        if rules_json_path is None:  # a stale one would outlive this run
            (out_dir / "rules.json").unlink(missing_ok=True)
        for path in finals:
            os.replace(staged[path], path)
    finally:
        for temporary in staged.values():
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)

    print(
        f"{db.total} transactions, {len(frequent)} frequent itemsets, "
        f"{len(rules)} rules -> {out_dir}"
    )
    return 0


def _args_from_manifest(args: argparse.Namespace) -> argparse.Namespace:
    """The recorded run's flags; cmd_mine validates them as it would a
    command line's. A manifest that is not a JSON object holding every
    recorded flag raises IngestError naming it."""
    path = args.manifest
    try:
        with open(path, "r", encoding="utf-8") as handle, utf8_input(path):
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
        document = read_rules_json(path)
        extended = not args.base_layout
        header = CSV_COLUMNS_EXTENDED if extended else CSV_COLUMNS
        rules = document.rules[: args.top]
        rows = list(rule_rows(rules, document.catalog, args.precision, extended))
    else:
        header, rows = report_rows_from_csv(path, args.precision)
    rows = rows[: args.top]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    if args.top is not None and args.top < 0:
        raise ConfigError("--top must be non-negative")
    _check_path("--input", args.input)
    document = read_rules_json(args.input)
    catalog = document.catalog

    known_ids = [catalog.parse(token) for token in args.known]

    target = args.target
    if target not in catalog.columns:
        # accept a source header (e.g. h11) for a mapped label (item1)
        for label, source in document.column_sources.items():
            if source == target:
                target = label
                break

    # predict reads only these; the rest of the file stays unbuilt
    rules = document.rules.with_single_rhs_in(
        item for item, (column, _) in enumerate(catalog) if column == target
    )
    predictions = predict(known_ids, rules, target, catalog)
    if args.top is not None:
        predictions = predictions[: args.top]
    payload = {
        "target": target,
        "known": [catalog.render(i) for i in known_ids],
        "predictions": [
            {
                "value": p.value,
                "item": catalog.render(p.item),
                "confidence": p.confidence,
                "support": p.support,
                "rule": render_rule(p.rule, catalog),
            }
            for p in predictions
        ],
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not predictions:
        print(
            f"no rule matches the query (target {target!r})", file=sys.stderr
        )
    return 0


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
