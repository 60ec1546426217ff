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
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    DatabaseError,
    IngestError,
    PredictionError,
    RulemineError,
    SchemaError,
    UnknownItemError,
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
    rule_row,
    write_rules_csv,
    write_rules_json,
)

ENGINE_NAME = "rulemine"


@dataclass
class RunManifest:
    """Record of one mine run, written alongside its outputs."""

    engine: str
    version: str
    input: str
    schema: str
    separator: str
    min_support: float
    min_confidence: float
    max_len: int | None
    workers: int
    ordering: str
    include_empty_lhs: bool
    format: str
    precision: int
    out_dir: str
    outputs: dict
    database: dict
    timings: dict

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(dataclasses.asdict(self), handle, indent=2)
            handle.write("\n")


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
        action="store_true",
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


def _validate_mine_args(args: argparse.Namespace) -> None:
    if not 0.0 < args.min_support <= 1.0:
        raise ConfigError("--min-support must lie in (0,1]")
    if not 0.0 < args.min_confidence <= 1.0:
        raise ConfigError("--min-confidence must lie in (0,1]")
    if args.max_len is not None and args.max_len < 1:
        raise ConfigError("--max-len must be a positive integer")
    if args.workers < 1:
        raise ConfigError("--workers must be a positive integer")
    if args.precision < 0:
        raise ConfigError("--precision must be non-negative")
    if len(args.separator) != 1:
        raise ConfigError("--separator must be a single character")
    if not args.input:
        raise ConfigError("--input is required")


def cmd_mine(args: argparse.Namespace) -> int:
    if args.manifest:
        args = _args_from_manifest(args)
    _validate_mine_args(args)
    schema = resolve_schema(args.schema)

    out_dir = Path("out" if args.out_dir is None else args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    stats: dict = {}
    t0 = time.perf_counter()
    db = load_csv(args.input, schema, separator=args.separator, stats=stats)
    t_load = time.perf_counter() - t0

    mining = MiningConfig(args.min_support, args.max_len)
    t0 = time.perf_counter()
    frequent = mine_frequent(db, mining, workers=args.workers)
    t_mine = time.perf_counter() - t0

    rule_config = RuleConfig(
        min_confidence=args.min_confidence,
        include_empty_lhs=not args.no_empty_lhs,
        ordering=args.ordering,
    )
    t0 = time.perf_counter()
    rules = generate_rules(frequent, rule_config)
    t_rules = time.perf_counter() - t0

    itemsets_path = out_dir / "itemsets.csv"
    rules_csv_path = out_dir / "rules.csv"
    rules_json_path = out_dir / "rules.json" if args.format == "json" else None
    manifest_path = out_dir / "manifest.json"

    t0 = time.perf_counter()
    write_itemsets(frequent, db.catalog, itemsets_path)
    write_rules_csv(
        rules, db.catalog, rules_csv_path, precision=args.precision
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
            rules_json_path,
            column_sources=sources,
            mining={"min_support": args.min_support, "max_len": args.max_len},
            rule_config={
                "min_confidence": args.min_confidence,
                "include_empty_lhs": not args.no_empty_lhs,
                "singleton_rhs": False,
                "ordering": args.ordering,
            },
        )
    t_write = time.perf_counter() - t0

    manifest = RunManifest(
        engine=ENGINE_NAME,
        version=__version__,
        input=str(args.input),
        schema=str(args.schema),
        separator=args.separator,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        max_len=args.max_len,
        workers=args.workers,
        ordering=args.ordering,
        include_empty_lhs=not args.no_empty_lhs,
        format=args.format,
        precision=args.precision,
        out_dir=str(out_dir),
        outputs={
            "itemsets": str(itemsets_path),
            "rules_csv": str(rules_csv_path),
            "rules_json": (
                str(rules_json_path) if rules_json_path is not None else None
            ),
            "manifest": str(manifest_path),
        },
        database={
            "total": db.total,
            "items": len(db.catalog),
            "columns": list(db.catalog.columns),
            **stats,
        },
        timings={
            "load_s": round(t_load, 6),
            "mine_s": round(t_mine, 6),
            "rules_s": round(t_rules, 6),
            "write_s": round(t_write, 6),
        },
    )
    manifest.write(manifest_path)

    print(
        f"{db.total} transactions, {len(frequent)} frequent itemsets, "
        f"{len(rules)} rules -> {out_dir}"
    )
    return 0


def _args_from_manifest(args: argparse.Namespace) -> argparse.Namespace:
    try:
        with open(args.manifest, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
    except OSError as exc:
        raise IngestError(f"cannot read {args.manifest}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"{args.manifest}: not valid JSON: {exc}") from None
    replay = argparse.Namespace(**vars(args))
    replay.input = recorded["input"]
    replay.schema = recorded["schema"]
    replay.separator = recorded["separator"]
    replay.min_support = recorded["min_support"]
    replay.min_confidence = recorded["min_confidence"]
    replay.max_len = recorded["max_len"]
    replay.workers = recorded["workers"]
    replay.ordering = recorded["ordering"]
    replay.format = recorded["format"]
    replay.precision = recorded["precision"]
    replay.no_empty_lhs = not recorded.get("include_empty_lhs", True)
    if args.out_dir is None:  # not overridden: reuse the recorded directory
        replay.out_dir = recorded["out_dir"]
    replay.manifest = None
    return replay


def _report_rows_from_csv(path: str, precision: int):
    import csv as _csv

    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = _csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty rule file") from None
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise IngestError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            for index, name in enumerate(header):
                if name in ("support", "confidence", "coverage", "lift",
                            "conviction", "leverage"):
                    try:
                        value = float(row[index])
                    except ValueError:
                        raise IngestError(
                            f"{path}:{reader.line_num}: {name} is not a "
                            f"number: {row[index]!r}"
                        ) from None
                    row[index] = f"{value:.{precision}f}"
            rows.append(row)
    return header, rows


def cmd_report(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise ConfigError("--top must be non-negative")
    if args.precision < 0:
        raise ConfigError("--precision must be non-negative")
    path = str(args.input)
    if path.endswith(".json"):
        document = read_rules_json(path)
        extended = not args.base_layout
        header = CSV_COLUMNS_EXTENDED if extended else CSV_COLUMNS
        rows = [
            rule_row(position, rule, document.catalog, args.precision, extended)
            for position, rule in enumerate(document.rules[: args.top], start=1)
        ]
    else:
        header, rows = _report_rows_from_csv(path, args.precision)
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
    document = read_rules_json(str(args.input))
    catalog = document.catalog

    known_ids = [catalog.parse(token) for token in args.known]

    target = args.target
    if target not in catalog.columns:
        # accept a source header (e.g. h11) for a mapped label (item1)
        for label, source in document.column_sources.items():
            if source == target:
                target = label
                break

    predictions = predict(known_ids, document.rules, target, catalog)
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
    try:
        if args.command == "mine":
            return cmd_mine(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "predict":
            return cmd_predict(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, SchemaError, UnknownItemError, PredictionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IngestError, DatabaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RulemineError as exc:  # anything else from the library
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
