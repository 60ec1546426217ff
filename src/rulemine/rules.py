"""Association rule generation, metrics, and serialization.

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

import csv
import itertools
import json
import math
import operator
import os
import reprlib
from dataclasses import dataclass
from functools import partial, reduce
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    FrequentSetError,
    IngestError,
    MetricError,
    SchemaError,
    utf8_input,
)
from .miner import BLOCK_BYTES, FrequentSets, Itemset, _as_keys, _ceil_share
from .miner import valid_threshold
from .txdb import ItemCatalog, ItemId, parse_item


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


def generate_rules(
    frequent: FrequentSets, config: RuleConfig
) -> list[AssociationRule]:
    """Emit every strong bipartition of every frequent itemset.

    Z = X | Y (Y non-empty; X = {} only if include_empty_lhs, Y one item
    if singleton_rhs) gives X => Y iff N(Z) >= _ceil_share(min_confidence,
    N(X)), meets_threshold's bound, computed once per distinct count. The
    splits of a block of a level's rows are tested at once: the j-subsets
    are gathered by one table of positions and found by searchsorted over
    the j-itemsets' keys. Sides are the mined Itemsets. A count that is no
    int in [0, total] raises FrequentSetError; so does the first missing
    subset in level, row and split order (LHS size, then positions), and
    MetricError the first subset counted below its itemset or kept rule
    with a side of count 0. Levels hold sorted ids in [0, 2**32 - 1).
    """
    total = frequent.total
    every = [Itemset((), total), *frequent]  # the empty set, then level order
    counts = [itemset.count for itemset in every]
    if not ({*map(type, counts)} == {int} and min(counts) >= 0 < total == max(counts)):
        frequent.itemsets()  # raises FrequentSetError naming the first bad count
    # -1 pads the counts for missing subsets; past 2**62 they stay Python ints
    counts = np.array(counts + [-1], np.int64 if total < 1 << 62 else object)
    distinct, inverse = np.unique(counts, return_inverse=True)
    shares = [_ceil_share(config.min_confidence, n) for n in distinct.tolist()]
    needed = np.array(shares, counts.dtype)[inverse]
    starts = np.cumsum([1, 0, *map(len, frequent.levels[1:])]).tolist()
    keys, out = [None], []
    for k, level in enumerate(frequent.levels[1:], start=1):
        rows = np.array([s.items for s in level], np.intp).reshape(len(level), k)
        if rows.size and not 0 <= rows.min() <= rows.max() < 0xFFFFFFFF:
            raise FrequentSetError(f"level {k} holds an id outside [0, 2**32 - 1)")
        # with a last key of 0xFFFFFFFF ids, every search lands on a key
        keys.append(_as_keys(np.vstack([rows, np.full((1, k), 0xFFFFFFFF)])))
        # subsets by size, then lexicographic: column i's complement is full - i
        by_size = [list(itertools.combinations(range(k), j)) for j in range(k + 1)]
        subsets, full = sum(by_size, []), (1 << k) - 1
        smallest_lhs = max((k - 1) * config.singleton_rhs, 1 - config.include_empty_lhs)
        tested = slice(sum(map(len, by_size[:smallest_lhs])), full)  # LHS columns
        # found takes 2**k intps a row, the ids of one size a few times that
        per_block = max(1, BLOCK_BYTES // (8 << k))
        for first in range(starts[k], starts[k + 1], per_block):
            block = rows[first - starts[k] :][:per_block].astype(">u4")  # as _as_keys
            found = [np.zeros((len(block), 1), np.intp)]  # indices into every
            for j in range(1, k):
                wanted = _as_keys(block[:, by_size[j]].reshape(-1, j))
                at = np.searchsorted(keys[j], wanted)
                at = np.where(keys[j][at] == wanted, at + starts[j], len(every))
                found.append(at.reshape(len(block), -1))
            found = np.hstack([*found, np.arange(first, first + len(block))[:, None]])
            lhs = counts[found]
            joint = lhs[:, full:]
            if (lhs < joint).any():
                row, column = divmod(int((lhs < joint).argmax()), full + 1)
                items = every[first + row].items
                subset = tuple(items[p] for p in subsets[column])
                if found[row, column] == len(every):
                    raise FrequentSetError(
                        f"frequent sets are not downward closed: missing subset "
                        f"{subset} of itemset {items}"
                    )
                raise MetricError(
                    f"counts must satisfy joint_count <= lhs_count: itemset {items} "
                    f"({joint[row, 0]}), subset {subset} ({lhs[row, column]})"
                )
            kept_rows, kept = np.nonzero(joint >= needed[found[:, tested]])
            sides = full, kept + tested.start, full - tested.start - kept
            for z, x, y in zip(*(found[kept_rows, c].tolist() for c in sides)):
                (items, count), lhs_side, rhs_side = every[z], every[x], every[y]
                if not lhs_side.count or not rhs_side.count:  # so count is 0 too
                    raise MetricError(
                        f"counts must satisfy lhs_count, rhs_count >= 1: "
                        f"itemset {items}"
                    )
                metrics = _metrics(lhs_side.count, rhs_side.count, count, total)
                out.append(AssociationRule(lhs_side, rhs_side, count, *metrics))
    out.sort(key=ORDERINGS[config.ordering])
    return out


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


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"  # math.inf renders as the token "inf"


def _once_per_side(
    render: Callable[[Sequence[ItemId]], str],
) -> Callable[[Sequence[ItemId]], str]:
    """render, run once per side object: rules from generate_rules share
    their mined Itemsets. Each entry holds its side, so no id is reused.
    (Keyed by value, (True,) would reuse the text of (1,) unchecked.)"""
    rendered: dict[int, tuple[Sequence[ItemId], str]] = {}

    def side(items: Sequence[ItemId]) -> str:
        if (entry := rendered.get(id(items))) is None:
            entry = rendered[id(items)] = (items, render(items))
        return entry[1]

    return side


def _fmt_column(values: Sequence[float], precision: int) -> list[str]:
    """_fmt of each value, once per float64 bit pattern (-0.0 and NaN too)."""
    bits = np.array(values, np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = list(map(f"{{:.{precision}f}}".format, distinct.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def rule_rows(
    rules: Iterable[AssociationRule],
    catalog: ItemCatalog,
    precision: int,
    extended: bool,
    cell: Callable[[str], str] = str,
) -> Iterator[list[str]]:
    """Each rule as the cells of a rules table row (CSV_COLUMNS, plus
    conviction and leverage when extended), numbered from 1, built by
    column: each side is rendered, then passed through cell, once."""
    lhs, rhs, count, *metrics = list(zip(*rules)) or [()] * len(AssociationRule._fields)
    side = _once_per_side(lambda items: cell(render_side(items, catalog)))
    lhs, rhs = (map(side, map(operator.attrgetter("items"), s)) for s in (lhs, rhs))
    texts = [_fmt_column(values, precision) for values in metrics[: 4 + 2 * extended]]
    numbers = map(str, range(1, len(count) + 1))
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


def _json_ids(items: Sequence[ItemId], catalog: ItemCatalog) -> str:
    """An id list as json.dumps(indent=2) renders it inside a rule; each
    id must be one of the catalog's."""
    if not items:
        return "[]"
    ids = map(str, map(catalog.check, items))
    return "[\n        " + ",\n        ".join(ids) + "\n      ]"


def write_rules_json(
    rules: Sequence[AssociationRule],
    catalog: ItemCatalog,
    total: int,
    path: str | os.PathLike,
    column_sources: dict[str, str] | None = None,
    mining: dict | None = None,
    rule_config: dict | None = None,
) -> None:
    """Full-fidelity export: exact counts, full-precision metrics, and
    the catalog itself, so the file stands alone for prediction.

    The bytes are those of json.dump(document, indent=2, allow_nan=False)
    plus a newline, where document holds the header keys and then
    "rules". The header goes through json.dumps; each rule is streamed
    from one template (ids and counts as ints, metrics as float repr,
    infinite conviction as "inf"), because json's indenting encoder is
    its pure-Python one. A NaN metric, or an infinite one other than
    conviction, raises ValueError as json would. Each side's id list is
    rendered once.
    """
    ids = _once_per_side(partial(_json_ids, catalog=catalog))
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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if not rules:
            handle.write(header + "\n")
            return
        handle.write(header[: -len("[]\n}")] + "[\n")
        separator = ""
        for rule in rules:
            floats = (
                rule.support, rule.confidence, rule.coverage, rule.lift, rule.leverage
            )  # fmt: skip
            if not all(map(math.isfinite, floats)) or math.isnan(rule.conviction):
                raise ValueError("Out of range float values are not JSON compliant")
            support, confidence, coverage, lift, leverage = map(float.__repr__, floats)
            conviction = (
                '"inf"'
                if math.isinf(rule.conviction)
                else float.__repr__(rule.conviction)
            )
            handle.write(
                f"""{separator}    {{
      "lhs": {ids(rule.lhs.items)},
      "rhs": {ids(rule.rhs.items)},
      "lhs_count": {rule.lhs.count},
      "rhs_count": {rule.rhs.count},
      "count": {rule.count},
      "support": {support},
      "confidence": {confidence},
      "coverage": {coverage},
      "lift": {lift},
      "conviction": {conviction},
      "leverage": {leverage}
    }}"""
            )
            separator = ",\n"
        handle.write("\n  ]\n}\n")


def _rule_from_json(rule: dict) -> AssociationRule:
    """The rule a checked rule object holds. Metrics are converted to
    float, not re-derived from the counts."""
    conviction = rule["conviction"]
    return AssociationRule(
        Itemset(tuple(rule["lhs"]), rule["lhs_count"]),
        Itemset(tuple(rule["rhs"]), rule["rhs_count"]),
        rule["count"],
        float(rule["support"]),
        float(rule["confidence"]),
        float(rule["coverage"]),
        float(rule["lift"]),
        math.inf if conviction == "inf" else float(conviction),
        float(rule["leverage"]),
    )


class StoredRules(Sequence[AssociationRule]):
    """The rules of a rules JSON file: a read-only sequence over their
    checked rule objects that builds a rule only when it is read. len()
    builds nothing and a slice builds only its own rules. Compares equal
    to a tuple of the same rules."""

    __slots__ = ("_objects",)

    def __init__(self, objects: list[dict]) -> None:
        self._objects = objects

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

    def with_single_rhs_in(self, items: Iterable[ItemId]) -> StoredRules:
        """The rules whose RHS is one item of `items`, in file order,
        picked without building any rule."""
        wanted = frozenset(items)
        return StoredRules(
            [
                rule
                for rule in self._objects
                if len(rhs := rule["rhs"]) == 1 and rhs[0] in wanted
            ]
        )


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


def _check_rules(path: str | os.PathLike, rules: object, catalog_size: int) -> None:
    """Check every rule object of a rules document, one key at a time
    across all rules. Each test runs over all of a key's values at once;
    only a test that fails walks them again to find the first rule at
    fault, which raises IngestError "<path>: rule <i>: <problem>"."""
    if type(rules) is not list:
        raise IngestError(f"{path}: malformed rules document: rules must be a list")

    def reject(column: list, ok: Callable[[object], bool], problem: str) -> None:
        for index, value in enumerate(column):
            if not ok(value):
                raise IngestError(
                    f"{path}: rule {index}: {problem}, got {reprlib.repr(value)}"
                )

    def values(key: str) -> list:
        try:
            return list(map(operator.itemgetter(key), rules))
        except (KeyError, TypeError):  # a rule lacks the key or is no object
            reject(rules, lambda rule: type(rule) is dict,
                   "malformed rules document: a rule must be a JSON object")  # fmt: skip
            index = next(i for i, rule in enumerate(rules) if key not in rule)
            raise IngestError(f"{path}: rule {index}: missing key {key!r}") from None

    sides = []
    for key in ("lhs", "rhs"):
        column = values(key)
        if not set(map(type, column)) <= {list}:
            reject(column, lambda side: type(side) is list,
                   f"malformed rules document: {key} must be a list")  # fmt: skip
        sides.append(column)
    lhs, rhs = sides
    ids = reduce(operator.iadd, lhs + rhs, [])
    # Types are tested apart from the range, because 1.0 and True equal 1
    # and hash alike; with only ints, the range test cannot meet an
    # unhashable id.
    if not (
        set(map(type, ids)) <= {int} and frozenset(range(catalog_size)).issuperset(ids)
    ):
        for index, items in enumerate(map(operator.add, lhs, rhs)):
            for item in items:
                if type(item) is not int:
                    problem = "not an integer"
                elif not 0 <= item < catalog_size:
                    problem = f"not in the {catalog_size}-item catalog"
                else:
                    continue
                raise IngestError(
                    f"{path}: rule {index}: item id {item!r} is {problem}"
                )
    for key in ("lhs_count", "rhs_count", "count"):
        column = values(key)
        if not set(map(type, column)) <= {int} or min(column, default=0) < 0:
            reject(column, lambda count: type(count) is int and count >= 0,
                   f"{key} must be a non-negative integer")  # fmt: skip
    for key in Metrics._fields:
        column = numbers = values(key)
        inf = ("inf",) if key == "conviction" else ()  # written for an infinite one
        if inf and "inf" in column:
            numbers = list(filter(partial(operator.ne, "inf"), column))
        # one C-level pass per test; an overflowing sum only means "look closer"
        if set(map(type, numbers)) <= {float} and math.isfinite(sum(numbers)):
            continue
        alternative = ' or "inf"' if inf else ""
        reject(column, lambda value: value in inf or _is_number(value),
               f"{key} must be a number{alternative}")  # fmt: skip
        reject(column, partial(_is_metric, key),
               f"{key} must be finite{alternative}")  # fmt: skip


def report_rows_from_csv(path: str, precision: int) -> tuple[list, list]:
    """The header and rows of a rules CSV for report, each metric cell
    rendered at precision; IngestError "<path>:<line>: <problem>"."""
    with open(path, "r", encoding="utf-8", newline="") as handle, utf8_input(path):
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty rule file")
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise IngestError(
                        f"{path}:{reader.line_num}: expected {len(header)} "
                        f"fields, got {len(row)}"
                    )
                for index, name in enumerate(header):
                    if name in Metrics._fields:
                        try:
                            value = float(row[index])
                        except ValueError:
                            raise IngestError(
                                f"{path}:{reader.line_num}: {name} is not a "
                                f"number: {row[index]!r}"
                            ) from None
                        if not _is_metric(name, row[index]):
                            alternative = ' or "inf"' if name == "conviction" else ""
                            raise IngestError(
                                f"{path}:{reader.line_num}: {name} must be "
                                f"finite{alternative}, got {row[index]!r}"
                            )
                        row[index] = _fmt(value, precision)
                rows.append(row)
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise IngestError(f"{path}:{reader.line_num}: {exc}") from None
    return header, rows


def read_rules_json(path: str | os.PathLike) -> RuleSetDocument:
    """Load a write_rules_json file. Every rule is checked here, but built
    only when read from the document's rules. A file that is not valid
    JSON, lacks a required key, holds a value of the wrong shape or type,
    a total below 1 or a metric that is not finite (bar an "inf"
    conviction), or names an item id outside its catalog raises
    IngestError naming the path, and the rule when one is at fault."""
    with open(path, "r", encoding="utf-8") as handle, utf8_input(path):
        try:
            document = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise IngestError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise IngestError(f"{path}: rules document must be a JSON object")
    try:
        catalog = ItemCatalog(
            tuple(parse_item(token) for token in document["catalog"])
        )
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
