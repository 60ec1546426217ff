"""Association rules: metrics, ordering, rendering, and serialization.

Metrics are always computed from the four integer counts (lhs, rhs,
joint, total), never from previously rounded metrics, and each one uses
a single float division over exact integer products:

    support    = joint / total
    coverage   = lhs / total
    confidence = joint / lhs
    lift       = joint * total / (lhs * rhs)
    conviction = (total - rhs) * lhs / ((lhs - joint) * total)
    leverage   = (joint * total - lhs * rhs) / total**2

Conviction at confidence 1 is +inf when the consequent is non-universal
and 1 when it is (0/0 read as "independent"). Infinity serializes as the
token "inf" in both CSV and JSON.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
import operator
import os
import reprlib
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ConfigError, IngestError, MetricError, SchemaError, utf8_input
from .items import ItemCatalog, ItemId, Itemset, parse_item, valid_threshold


class Metrics(NamedTuple):
    support: float
    confidence: float
    coverage: float
    lift: float
    conviction: float
    leverage: float


def compute_metrics(
    lhs_count: int, rhs_count: int, joint_count: int, total: int
) -> Metrics:
    """Full metric block from exact counts; rejects impossible counts."""
    for name, value in (
        ("lhs_count", lhs_count),
        ("rhs_count", rhs_count),
        ("joint_count", joint_count),
        ("total", total),
    ):
        if not isinstance(value, int) or isinstance(value, bool):
            raise MetricError(f"{name} must be an int, got {value!r}")
    if total <= 0:
        raise MetricError("total must satisfy total >= 1")
    if lhs_count < 1:
        raise MetricError("lhs_count must satisfy lhs_count >= 1")
    if rhs_count < 1:
        raise MetricError("rhs_count must satisfy rhs_count >= 1")
    if joint_count < 0:
        raise MetricError("joint_count must satisfy joint_count >= 0")
    if joint_count > lhs_count:
        raise MetricError("counts must satisfy joint_count <= lhs_count")
    if joint_count > rhs_count:
        raise MetricError("counts must satisfy joint_count <= rhs_count")
    if lhs_count > total or rhs_count > total:
        raise MetricError("counts must satisfy lhs_count, rhs_count <= total")
    return Metrics(*_metrics(lhs_count, rhs_count, joint_count, total))


def _metrics(
    lhs_count: int, rhs_count: int, joint_count: int, total: int
) -> tuple[float, float, float, float, float, float]:
    """The metric block, in Metrics order, of counts already checked."""
    support = joint_count / total
    coverage = lhs_count / total
    confidence = joint_count / lhs_count
    lift = joint_count * total / (lhs_count * rhs_count)
    if joint_count == lhs_count:  # confidence is exactly 1
        conviction = 1.0 if rhs_count == total else math.inf
    else:
        conviction = (
            (total - rhs_count) * lhs_count / ((lhs_count - joint_count) * total)
        )
    leverage = (joint_count * total - lhs_count * rhs_count) / (total * total)
    return support, confidence, coverage, lift, conviction, leverage


class AssociationRule(NamedTuple):
    """lhs => rhs with its joint count and full metric block.

    lhs and rhs are Itemsets carrying their own counts, so every metric
    can be re-derived exactly; lhs may be empty (count = total), rhs
    never is, and the two sides are disjoint.
    """

    lhs: Itemset
    rhs: Itemset
    count: int
    support: float
    confidence: float
    coverage: float
    lift: float
    conviction: float
    leverage: float


def render_side(items: Sequence[ItemId], catalog: ItemCatalog) -> str:
    return "{" + ",".join(map(catalog.render, items)) + "}"


def render_rule(rule: AssociationRule, catalog: ItemCatalog) -> str:
    return " => ".join(render_side(s.items, catalog) for s in (rule.lhs, rule.rhs))


def _key_default(rule: AssociationRule):
    # ascending LHS size, descending support, lexicographic items
    return (len(rule.lhs.items), -rule.count, rule.lhs.items, rule.rhs.items)


def _key_confidence(rule: AssociationRule):
    return (
        -rule.confidence,
        -rule.count,
        len(rule.lhs.items),
        rule.lhs.items,
        rule.rhs.items,
    )


def _key_support(rule: AssociationRule):
    return (-rule.count, len(rule.lhs.items), rule.lhs.items, rule.rhs.items)


ORDERINGS: dict[str, Callable[[AssociationRule], tuple]] = {
    "default": _key_default,
    "confidence": _key_confidence,
    "support": _key_support,
}


@dataclass(frozen=True)
class RuleConfig:
    """min_confidence in (0, 1]; include_empty_lhs and singleton_rhs are
    bools; ordering names a key of ORDERINGS.

    The range rules of the mine flags live here; a message about a value
    set by a flag uses the flag spelling, so the CLI raises it as it is."""

    min_confidence: float
    include_empty_lhs: bool = True
    singleton_rhs: bool = False
    ordering: str = "default"

    def __post_init__(self) -> None:
        if not valid_threshold(self.min_confidence):
            raise ConfigError("--min-confidence must lie in (0,1]")
        for name in ("include_empty_lhs", "singleton_rhs"):
            if type(getattr(self, name)) is not bool:
                raise ConfigError(f"{name} must be true or false")
        if not isinstance(self.ordering, str) or self.ordering not in ORDERINGS:
            known = ", ".join(sorted(ORDERINGS))
            raise ConfigError(f"--ordering must be one of: {known}")


CSV_COLUMNS = (
    "rule",
    "LHS",
    "RHS",
    "support",
    "confidence",
    "coverage",
    "lift",
    "count",
)
CSV_COLUMNS_EXTENDED = CSV_COLUMNS + ("conviction", "leverage")


def _fmt(precision: int) -> Callable[[float], str]:
    """A metric's cell text at precision decimals; math.inf renders as "inf"."""
    return f"{{:.{precision}f}}".format


def _side_texts(sides: list[Itemset], render: Callable[[Itemset], str]) -> list[str]:
    """render of each side, called once per side object in order of first
    appearance: rules from generate_rules share their mined Itemsets. Keyed
    by id, as (True,) == (1,); sides keeps each object alive, so no id is reused."""
    keys = list(map(id, sides))
    distinct = dict(zip(keys, sides))
    texts = dict(zip(distinct, map(render, distinct.values())))
    return list(map(texts.__getitem__, keys))


def rule_rows(
    rules: Iterable[AssociationRule],
    catalog: ItemCatalog,
    precision: int,
    extended: bool,
    cell: Callable[[str], str] = str,
) -> Iterator[list[str]]:
    """Each rule as the cells of a rules table row (CSV_COLUMNS, plus
    conviction and leverage when extended), numbered from 1, built by
    column. Each side object is rendered, then passed through cell, once,
    in rule order (a rule's LHS, then its RHS): an id outside the catalog
    raises UnknownItemError at the first rule that holds one."""
    lhs, rhs, count, *metrics = list(zip(*rules)) or [()] * len(AssociationRule._fields)
    sides = list(itertools.chain.from_iterable(zip(lhs, rhs)))
    sides = _side_texts(sides, lambda side: cell(render_side(side.items, catalog)))
    fmt = _fmt(precision)
    texts = [list(map(fmt, values)) for values in metrics[: 4 + 2 * extended]]
    numbers, lhs, rhs = map(str, range(1, len(count) + 1)), sides[::2], sides[1::2]
    return map(list, zip(numbers, lhs, rhs, *texts[:4], map(str, count), *texts[4:]))


def write_rules_csv(
    rules: Sequence[AssociationRule],
    catalog: ItemCatalog,
    path: str | os.PathLike,
    precision: int = 4,
) -> None:
    """The rules table (CSV_COLUMNS), one rule per line: rule_rows' cells
    as csv.writer(lineterminator="\n") writes them, each distinct side cell
    quoted by it once and each line one join."""
    # writerow returns what the file's write returns: here the line itself
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    rows = rule_rows(rules, catalog, precision, False, lambda cell: line([cell])[:-1])
    text = "\n".join([",".join(CSV_COLUMNS), *map(",".join, rows)])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text + "\n")


@dataclass(frozen=True)
class RuleSetDocument:
    """Everything a rules JSON file carries, reconstructed on load."""

    catalog: ItemCatalog
    total: int
    rules: StoredRules
    column_sources: dict[str, str]
    mining: dict
    rule_config: dict


# a rules.json rule's keys, in the order its writer spells and its reader checks them
_RULE_KEYS = ("lhs", "rhs", "lhs_count", "rhs_count", "count", *Metrics._fields)
_rule_values = operator.itemgetter(*_RULE_KEYS)


def write_rules_json(
    rules: Sequence[AssociationRule],
    catalog: ItemCatalog,
    total: int,
    path: str | os.PathLike,
    column_sources: dict[str, str] | None = None,
    mining: dict | None = None,
    rule_config: dict | None = None,
) -> None:
    """Full-fidelity export: exact counts, full-precision metrics, and the
    catalog, so the file stands alone for prediction. The bytes are those of
    json.dump(document, indent=2, allow_nan=False) plus a newline, document
    holding the header keys, then "rules". Before the file is opened, every
    count and metric passes _are_counts or _are_metrics, read_rules_json's
    rules (else ValueError names the rule; rules.csv renders any float), and
    each side object's ids are rendered once, every LHS before every RHS,
    checked by the catalog. The rules are streamed from one template: json's
    indenting encoder is pure Python."""
    lhs, rhs, count, *metrics = list(zip(*rules)) or [()] * len(AssociationRule._fields)
    counts = [[side.count for side in lhs], [side.count for side in rhs], count]
    for key, column in zip(_RULE_KEYS[2:], counts + metrics):
        ok, problem = (_are_counts, "a non-negative int") if "count" in key else (
            partial(_are_metrics, inf=key == "conviction"), "JSON compliant")
        for index, value in enumerate(() if ok(column) else column):  # walk if it fails
            if not ok([value]):
                raise ValueError(f"rule {index}: {key} {value!r} is not {problem}")

    def ids(side: Itemset) -> str:  # as json.dumps(indent=2) lays them out in a rule
        text = ",\n        ".join(map(str, map(catalog.check, side.items)))
        return f"[\n        {text}\n      ]" if text else "[]"

    texts = _side_texts([*lhs, *rhs], ids)
    sides = texts[: len(lhs)], texts[len(lhs) :]
    header = json.dumps(
        {
            "total": total,
            "catalog": [catalog.render(i) for i in range(len(catalog))],
            "column_sources": column_sources or {},
            "mining": mining or {},
            "rule_config": rule_config or {},
            "rules": [],
        },
        indent=2,
        allow_nan=False,
    )
    text, seps = float.__repr__, itertools.chain([""], itertools.repeat(",\n"))
    objects = (
        f"""{sep}    {{
      "lhs": {lhs_ids},
      "rhs": {rhs_ids},
      "lhs_count": {lhs_count},
      "rhs_count": {rhs_count},
      "count": {joint},
      "support": {text(support)},
      "confidence": {text(confidence)},
      "coverage": {text(coverage)},
      "lift": {text(lift)},
      "conviction": {'"inf"' if conviction == math.inf else text(conviction)},
      "leverage": {text(leverage)}
    }}"""
        for sep, lhs_ids, rhs_ids, lhs_count, rhs_count, joint, support, confidence,
        coverage, lift, conviction, leverage in zip(seps, *sides, *counts, *metrics)
    )  # fmt: skip
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header[: -len("]\n}")] + ("\n" if lhs else ""))  # up to "rules": [
        handle.writelines(objects)
        handle.write(("\n  ]" if lhs else "]") + "\n}\n")


def _rule_from_json(rule: dict) -> AssociationRule:
    """The rule a checked rule object holds. Metrics are converted by float,
    which reads "inf" as math.inf, not re-derived from the counts."""
    lhs, rhs, lhs_count, rhs_count, count, *metrics = _rule_values(rule)
    lhs, rhs = Itemset(tuple(lhs), lhs_count), Itemset(tuple(rhs), rhs_count)
    return AssociationRule(lhs, rhs, count, *map(float, metrics))


class StoredRules(Sequence[AssociationRule]):
    """The rules of a rules JSON file: a read-only sequence over their
    checked rule objects that builds a rule only when it is read. len()
    builds nothing and a slice builds only its own rules. Compares equal
    to a tuple of the same rules."""

    __slots__ = ("_objects", "_by_rhs")

    def __init__(self, objects: list[dict]) -> None:
        self._objects = objects
        self._by_rhs: dict[ItemId, list[int]] | None = None  # built on first use

    def __len__(self) -> int:
        return len(self._objects)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(_rule_from_json, self._objects[index]))
        return _rule_from_json(self._objects[index])

    def __iter__(self) -> Iterator[AssociationRule]:
        return map(_rule_from_json, self._objects)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, StoredRules)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def with_single_rhs_in(
        self, items: Iterable[ItemId], known: Iterable[ItemId]
    ) -> StoredRules:
        """The rules whose RHS is one item of `items` and whose LHS lies
        within `known`, in file order: the rules predict lets vote, picked
        without building any rule. The first call builds an index of rule
        positions by single RHS item, which every later call reuses."""
        if (by_rhs := self._by_rhs) is None:
            by_rhs = {}
            for position, rule in enumerate(self._objects):
                if len(rhs := rule["rhs"]) == 1:
                    by_rhs.setdefault(rhs[0], []).append(position)
            self._by_rhs = by_rhs  # one assignment: a racing thread builds its own
        known, objects = frozenset(known), self._objects
        voters = [
            position
            for item in frozenset(items)
            for position in by_rhs.get(item, ())
            if known.issuperset(objects[position]["lhs"])
        ]
        return StoredRules([objects[position] for position in sorted(voters)])


def _is_number(value: object) -> bool:
    """A JSON number that float() takes: not a bool, nor an int past the
    float range."""
    try:
        return type(value) is float or (type(value) is int and math.isfinite(value))
    except OverflowError:  # an int past the float range
        return False


def _is_metric(name: str, value: object) -> bool:
    """The rule both rules readers apply to a number or a string float()
    takes: finite, or "inf" as the writers spell an infinite conviction."""
    return name == "conviction" if value == "inf" else math.isfinite(float(value))


def _are_counts(values: Sequence[object]) -> bool:
    """rules.json's count rule, for its writer and reader: ints, not bools, >= 0."""
    return {*map(type, values)} <= {int} and min(values, default=0) >= 0


def _are_metrics(values: Sequence[object], inf: bool = False) -> bool:
    """rules.json's metric rule, for its writer and reader: floats, each finite
    or, if inf, +inf. A sum that overflows gives False too: then test each."""
    top = math.inf if inf else math.nextafter(math.inf, 0)
    return {*map(type, values)} <= {float} and -math.inf < sum(values) <= top


def _rule_fault(rule: object, catalog_size: int) -> str | None:
    """One rule object's first fault in _RULE_KEYS order (its item ids once
    both sides are lists), or None."""
    if type(rule) is not dict:
        got = reprlib.repr(rule)
        return f"malformed rules document: a rule must be a JSON object, got {got}"
    for key in _RULE_KEYS:
        if key not in rule:
            return f"missing key {key!r}"
        value, alternative = rule[key], ' or "inf"' if key == "conviction" else ""
        if key in ("lhs", "rhs"):
            ok, problem = type(value) is list, f"{key} must be a list"
            problem = f"malformed rules document: {problem}"
        elif "count" in key:
            ok, problem = _are_counts([value]), f"{key} must be a non-negative integer"
        elif value == "inf" and alternative or _is_number(value):
            ok, problem = _is_metric(key, value), f"{key} must be finite{alternative}"
        else:
            ok, problem = False, f"{key} must be a number{alternative}"
        if not ok:
            return f"{problem}, got {reprlib.repr(value)}"
        for item in rule["lhs"] + value if key == "rhs" else ():
            if type(item) is not int:
                return f"item id {item!r} is not an integer"
            if not 0 <= item < catalog_size:
                return f"item id {item!r} is not in the {catalog_size}-item catalog"
    return None


def _check_rules(path: str | os.PathLike, rules: object, catalog_size: int) -> None:
    """Check every rule object of a rules document. A valid one takes one
    pass: a test of each key of _RULE_KEYS over all rules' values at once.
    If a test fails, the rules are walked once, in order, and the first with
    a fault raises IngestError "<path>: rule <i>: <its first, by _rule_fault>".
    A valid file with int metrics, or a sum that overflows, is walked once."""
    if type(rules) is not list:
        raise IngestError(f"{path}: malformed rules document: rules must be a list")
    # KeyError or TypeError: a rule lacks a key or is no object, or a side is
    # not iterable; the walk below then names the fault
    try:
        columns = [list(map(operator.itemgetter(key), rules)) for key in _RULE_KEYS]
        sides, counts, metrics = columns[0] + columns[1], columns[2:5], columns[5:]
        ids = list(itertools.chain.from_iterable(sides))
        at = Metrics._fields.index("conviction")  # whose +inf is the string "inf"
        metrics[at] = list(filter(partial(operator.ne, "inf"), metrics[at]))
        # Types are tested apart from the range, because 1.0 and True equal 1
        # and hash alike; with only ints, the range test cannot meet an
        # unhashable id.
        valid = (
            not {*map(type, sides)} - {list}
            and not {*map(type, ids)} - {int}
            and frozenset(range(catalog_size)).issuperset(ids)
            and all(map(_are_counts, counts))
            and all(map(_are_metrics, metrics))
        )
    except (KeyError, TypeError):
        valid = False
    for index, rule in enumerate(() if valid else rules):
        if (problem := _rule_fault(rule, catalog_size)) is not None:
            raise IngestError(f"{path}: rule {index}: {problem}")


def report_rows_from_csv(path: str, precision: int) -> tuple[list, list]:
    """The header and rows of a rules CSV for report, each metric cell
    rendered at precision; IngestError "<path>:<line>: <problem>"."""
    fmt = _fmt(precision)
    with open(path, "r", encoding="utf-8-sig", newline="") as handle, utf8_input(path):
        reader = csv.reader(handle)

        def fault(problem: str) -> IngestError:
            return IngestError(f"{path}:{reader.line_num}: {problem}")

        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty rule file")
            metrics = [(i, h) for i, h in enumerate(header) if h in Metrics._fields]
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise fault(f"expected {len(header)} fields, got {len(row)}")
                for index, name in metrics:
                    try:
                        value = float(cell := row[index])
                    except ValueError:
                        raise fault(f"{name} is not a number: {cell!r}") from None
                    if not _is_metric(name, cell):
                        alternative = ' or "inf"' if name == "conviction" else ""
                        raise fault(f"{name} must be finite{alternative}, got {cell!r}")
                    row[index] = fmt(value)
                rows.append(row)
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise fault(str(exc)) from None
    return header, rows


# (bytes, checked document) of the last successful read_rules_json; each
# assignment is one tuple, so a thread sees a whole entry or none
_last_read: tuple[bytes, RuleSetDocument] | None = None


def read_rules_json(path: str | os.PathLike) -> RuleSetDocument:
    """Load a write_rules_json file. Every rule is checked here, but built
    only when read from the document's rules. A file that is not valid
    JSON, lacks a required key, holds a value of the wrong shape or type,
    a total below 1 or a metric that is not finite (bar an "inf"
    conviction), or names an item id outside its catalog raises
    IngestError naming the path, and the rule when one is at fault.

    The process keeps one file's bytes and checked document alive, those
    of its last successful read: a read of the same bytes, from any path,
    returns that document without parsing or checking it again, with
    fresh copies of column_sources, mining and rule_config. Other bytes,
    and every read in a fresh process, are parsed in full."""
    global _last_read
    with open(path, "rb") as handle:
        data = handle.read()
    last = _last_read
    if last is None or last[0] != data:
        last = _last_read = None  # never two documents alive; a failure keeps none
        last = _last_read = (data, _parse_rules_json(path, data))
    document = last[1]
    return replace(
        document,
        column_sources=copy.deepcopy(document.column_sources),
        mining=copy.deepcopy(document.mining),
        rule_config=copy.deepcopy(document.rule_config),
    )


def _parse_rules_json(path: str | os.PathLike, data: bytes) -> RuleSetDocument:
    """The checked document of a rules JSON file's bytes."""
    with utf8_input(path):  # the text open(path, encoding="utf-8-sig") reads
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise IngestError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise IngestError(f"{path}: rules document must be a JSON object")
    try:
        catalog = ItemCatalog(tuple(map(parse_item, document["catalog"])))
        total = document["total"]
        if type(total) is not int or total < 1:
            raise IngestError(
                f"{path}: total must be a positive integer, got {reprlib.repr(total)}"
            )
        rules = document["rules"]
        _check_rules(path, rules, len(catalog))
        return RuleSetDocument(
            catalog=catalog,
            total=total,
            rules=StoredRules(rules),
            column_sources=dict(document.get("column_sources") or {}),
            mining=dict(document.get("mining") or {}),
            rule_config=dict(document.get("rule_config") or {}),
        )
    except KeyError as exc:
        raise IngestError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError, SchemaError) as exc:
        raise IngestError(f"{path}: malformed rules document: {exc}") from None
