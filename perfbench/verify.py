"""Checks of rulemine's outputs that use no rulemine code.

Counts are recounted with numpy straight from the generated columns and
every metric is re-derived from its four counts in exact rationals. The
thresholds follow the documented rule: a count passes a fraction f of a
base b iff count >= ceil(f * b - 1e-9). Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

OUTPUTS = ("itemsets.csv", "rules.csv", "rules.json")
CSV_HEADER = ["rule", "LHS", "RHS", "support", "confidence", "coverage", "lift", "count"]
REPORT_HEADER = CSV_HEADER + ["conviction", "leverage"]
METRICS = ("support", "confidence", "coverage", "lift", "conviction", "leverage")
PRECISION = 4
SAMPLE = 100


def min_count(fraction: float, base: int) -> int:
    return math.ceil(fraction * base - 1e-9)


def exact_metrics(lhs: int, rhs: int, joint: int, total: int) -> dict:
    """Every metric as the float nearest its exact rational value."""
    if joint == lhs:
        conviction = 1.0 if rhs == total else math.inf
    else:
        conviction = float(Fraction((total - rhs) * lhs, (lhs - joint) * total))
    return {
        "support": float(Fraction(joint, total)),
        "confidence": float(Fraction(joint, lhs)),
        "coverage": float(Fraction(lhs, total)),
        "lift": float(Fraction(joint * total, lhs * rhs)),
        "conviction": conviction,
        "leverage": float(Fraction(joint * total - lhs * rhs, total * total)),
    }


def render(tokens) -> str:
    return "{" + ",".join(tokens) + "}"


def output_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of each output file; a missing file hashes as None."""
    hashes = {}
    for name in OUTPUTS:
        path = out_dir / name
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return hashes


class Oracle:
    """Exact counts of `column=value` itemsets over the generated table."""

    def __init__(self, table: dict[str, np.ndarray]) -> None:
        self.table = table
        self.columns = list(table)
        self.total = len(table[self.columns[0]])
        self._masks: dict[str, np.ndarray] = {}

    def count(self, tokens) -> int:
        if not tokens:
            return self.total
        joint = np.ones(self.total, dtype=bool)
        for token in tokens:
            if token not in self._masks:
                column, _, value = token.rpartition("=")
                self._masks[token] = self.table[column] == int(value)
            joint &= self._masks[token]
        return int(np.count_nonzero(joint))

    def row_itemset(self, row: int, columns) -> tuple[str, ...]:
        return tuple(f"{c}={int(self.table[c][row])}" for c in columns)


def read_itemsets(path: Path) -> dict[frozenset, tuple[int, str]]:
    itemsets = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            rendered, count, support = line.rstrip("\n").split(",")
            itemsets[frozenset(rendered.split(" "))] = (int(count), support)
    return itemsets


def check_mine(
    out_dir: Path,
    oracle: Oracle,
    min_support: float,
    min_confidence: float,
    rng: np.random.Generator,
) -> list[str]:
    """Full check of one mine run's outputs, on seeded samples."""
    problems: list[str] = []
    missing = [name for name in OUTPUTS + ("manifest.json",) if not (out_dir / name).exists()]
    if missing:
        return [f"missing output {name}" for name in missing]
    total = oracle.total
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest["database"]["total"] != total:
        problems.append(f"manifest total {manifest['database']['total']} != {total}")

    itemsets = read_itemsets(out_dir / "itemsets.csv")
    keys = list(itemsets)
    for i in rng.choice(len(keys), size=min(SAMPLE, len(keys)), replace=False):
        tokens = keys[i]
        count, support = itemsets[tokens]
        expected = oracle.count(tokens)
        if count != expected or float(support) != float(Fraction(expected, total)):
            problems.append(f"itemset {sorted(tokens)}: {count},{support} != {expected}")
    # completeness: itemsets drawn from random rows are listed iff frequent
    threshold = min_count(min_support, total)
    for _ in range(SAMPLE):
        size = int(rng.integers(1, min(4, len(oracle.columns)) + 1))
        columns = rng.choice(oracle.columns, size=size, replace=False)
        tokens = frozenset(oracle.row_itemset(int(rng.integers(total)), columns))
        if (oracle.count(tokens) >= threshold) != (tokens in itemsets):
            problems.append(f"itemset {sorted(tokens)} listed wrongly")

    document = json.loads((out_dir / "rules.json").read_text(encoding="utf-8"))
    catalog = document["catalog"]
    rules = document["rules"]
    if document["total"] != total:
        problems.append(f"rules.json total {document['total']} != {total}")
    for i in rng.choice(len(rules), size=min(SAMPLE, len(rules)), replace=False):
        problems += _check_rule(rules[i], catalog, oracle, min_confidence)
    # completeness: every bipartition of sampled itemsets is a rule iff strong
    listed = {
        (frozenset(catalog[j] for j in r["lhs"]), frozenset(catalog[j] for j in r["rhs"]))
        for r in rules
    }
    for i in rng.choice(len(keys), size=min(SAMPLE // 4, len(keys)), replace=False):
        items = sorted(keys[i])
        joint = itemsets[keys[i]][0]
        for mask in range(1, 1 << len(items)):
            rhs = frozenset(t for b, t in enumerate(items) if mask >> b & 1)
            lhs = keys[i] - rhs
            if lhs and lhs not in itemsets:
                problems.append(f"itemsets.csv lacks {sorted(lhs)}, a subset of {items}")
                continue
            lhs_count = itemsets[lhs][0] if lhs else total
            if (joint >= min_count(min_confidence, lhs_count)) != ((lhs, rhs) in listed):
                problems.append(f"rule {sorted(lhs)} => {sorted(rhs)} listed wrongly")

    with open(out_dir / "rules.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[:1] != [CSV_HEADER]:
        problems.append(f"rules.csv header {rows[:1]}")
    if len(rows) - 1 != len(rules):
        problems.append(f"rules.csv has {len(rows) - 1} rules, rules.json {len(rules)}")
    for position, (row, rule) in enumerate(zip(rows[1:], rules), start=1):
        if row != _table_row(position, rule, catalog)[: len(CSV_HEADER)]:
            problems.append(f"rules.csv row {position} {row} disagrees with rules.json")
            break
    return problems


def _check_rule(rule: dict, catalog: list[str], oracle: Oracle, min_confidence: float) -> list[str]:
    lhs = [catalog[j] for j in rule["lhs"]]
    rhs = [catalog[j] for j in rule["rhs"]]
    counts = (oracle.count(lhs), oracle.count(rhs), oracle.count(lhs + rhs))
    name = f"rule {render(lhs)} => {render(rhs)}"
    if counts != (rule["lhs_count"], rule["rhs_count"], rule["count"]):
        return [f"{name}: counts {rule['lhs_count'], rule['rhs_count'], rule['count']} != {counts}"]
    if counts[2] < min_count(min_confidence, counts[0]):
        return [f"{name}: below min_confidence"]
    problems = []
    for metric, value in exact_metrics(*counts, oracle.total).items():
        got = math.inf if rule[metric] == "inf" else rule[metric]
        if got != value:
            problems.append(f"{name}: {metric} {got!r} != {value!r}")
    return problems


def _table_row(position: int, rule: dict, catalog: list[str]) -> list[str]:
    row = [str(position), render(catalog[j] for j in rule["lhs"]), render(catalog[j] for j in rule["rhs"])]
    values = {m: math.inf if rule[m] == "inf" else rule[m] for m in METRICS}
    row += [f"{values[m]:.{PRECISION}f}" for m in METRICS[:4]]
    row.append(str(rule["count"]))
    row += [f"{values[m]:.{PRECISION}f}" for m in METRICS[4:]]
    return row


class QueryOracle:
    """Expected `predict` and `report` answers from a verified rules.json."""

    def __init__(self, rules_json: Path) -> None:
        document = json.loads(rules_json.read_text(encoding="utf-8"))
        self.catalog = document["catalog"]
        self.rules = document["rules"]
        self.by_target: dict[str, list[dict]] = {}
        for rule in self.rules:
            if len(rule["rhs"]) == 1:
                column = self.catalog[rule["rhs"][0]].rpartition("=")[0]
                self.by_target.setdefault(column, []).append(rule)

    def predict(self, argv: list[str]) -> dict:
        known = [argv[i + 1] for i, a in enumerate(argv) if a == "--known"]
        target = argv[argv.index("--target") + 1]
        known_ids = {self.catalog.index(token) for token in known}
        best: dict[int, dict] = {}
        for rule in self.by_target.get(target, []):
            if not set(rule["lhs"]) <= known_ids:
                continue
            rank = (-rule["confidence"], -rule["support"], len(rule["lhs"]), rule["lhs"])
            item = rule["rhs"][0]
            if item not in best or rank < best[item][0]:
                best[item] = (rank, rule)
        ranked = [
            (int(self.catalog[item].rpartition("=")[2]), item, rule)
            for item, (_, rule) in best.items()
        ]
        ranked.sort(key=lambda p: (-p[2]["confidence"], -p[2]["support"], p[0]))
        return {
            "target": target,
            "known": known,
            "predictions": [
                {
                    "value": value,
                    "item": self.catalog[item],
                    "confidence": rule["confidence"],
                    "support": rule["support"],
                    "rule": render(self.catalog[j] for j in rule["lhs"])
                    + " => "
                    + render(self.catalog[j] for j in rule["rhs"]),
                }
                for value, item, rule in ranked
            ],
        }

    def report(self, top: int) -> list[list[str]]:
        rows = [_table_row(p, r, self.catalog) for p, r in enumerate(self.rules[:top], start=1)]
        return [REPORT_HEADER] + rows

    def check(self, argv: list[str], code, out: str, err: str) -> list[str]:
        """Problems with one call's exit code and output."""
        if code != 0 or "Traceback" in err:
            return [f"{argv[0]} exited {code}: {err.strip()[-300:]}"]
        if argv[0] == "predict":
            try:
                answer = json.loads(out)
            except json.JSONDecodeError:
                return [f"predict printed no JSON: {out[:200]!r}"]
            if answer != self.predict(argv):
                return [f"predict {argv[3:]} answered {out[:300]!r}"]
            return []
        lines = [line.split() for line in out.splitlines()]
        if lines != self.report(int(argv[argv.index("--top") + 1])):
            return [f"report printed {out[:300]!r}"]
        return []
