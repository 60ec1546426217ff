"""Item ids, their catalog, and itemsets; this module imports no numpy.

An item is a (column, value) pair, e.g. ("item5", 4), interned into a
dense integer id. The catalog orders ids by column of first appearance,
then ascending value, so ids and every artifact derived from them are
byte-deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import SchemaError, UnknownItemError

ItemId = int

# Would collide with "label=value" tokens, comma-separated exports, or
# the brace-wrapped rule rendering.
_LABEL_FORBIDDEN = set("={},")


# int() also takes underscores, surrounding blanks and other scripts'
# digits ("1_0", " 7", "１２"). Text that int() takes and that holds no
# character but these is exactly an optional sign then ASCII digits.
_SIGN_AND_DIGITS = "+-0123456789"


def parse_int(text: str) -> int:
    """The integer that text spells as an optional sign then ASCII
    digits; ValueError for any other text."""
    value = int(text)
    if text.strip(_SIGN_AND_DIGITS):
        raise ValueError(f"not an optional sign then ASCII digits: {text!r}")
    return value


def _check_label(label: object) -> str:
    if not isinstance(label, str) or not label:
        raise SchemaError(f"column label must be a non-empty string, got {label!r}")
    bad = _LABEL_FORBIDDEN.intersection(label)
    if bad or any(c.isspace() for c in label):
        raise SchemaError(
            f"column label {label!r} may not contain whitespace or any of '={{}},'"
        )
    return label


def _check_value(column: str, value: object) -> int:
    # bool is an int subclass; a True/False cell is almost certainly a bug
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(
            f"value for column {column!r} must be an int, got {value!r}"
        )
    return value


def parse_item(token: str) -> tuple[str, int]:
    """Split a "column=value" token (the inverse of ItemCatalog.render);
    raises ValueError on a token with no column or a value that is not
    an optional sign then ASCII digits."""
    column, eq, raw = token.rpartition("=")
    if not eq or not column:
        raise ValueError(
            f"malformed item token {token!r}, expected '<column>=<int>'"
        )
    try:
        return column, parse_int(raw)
    except ValueError:
        raise ValueError(f"item token {token!r} has a non-integer value") from None


def valid_threshold(value: object) -> bool:
    """A number in (0, 1]; True is an int, but no threshold."""
    return isinstance(value, (int, float)) and value is not True and 0 < value <= 1


@dataclass(frozen=True)
class ItemCatalog:
    """Interning table between (column, value) pairs and dense item ids."""

    entries: tuple[tuple[str, int], ...]
    _index: dict[tuple[str, int], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        index: dict[tuple[str, int], int] = {}
        for item_id, (column, value) in enumerate(self.entries):
            _check_label(column)
            _check_value(column, value)
            if (column, value) in index:
                raise SchemaError(f"duplicate catalog entry {column}={value}")
            index[(column, value)] = item_id
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.entries)

    def check(self, item_id: ItemId) -> ItemId:
        """item_id itself; UnknownItemError unless it is an int id of this
        catalog (not a bool, and not negative)."""
        if type(item_id) is not int or not 0 <= item_id < len(self.entries):
            raise UnknownItemError(f"unknown item id {item_id!r}")
        return item_id

    def column(self, item_id: ItemId) -> str:
        return self.entries[self.check(item_id)][0]

    def value(self, item_id: ItemId) -> int:
        return self.entries[self.check(item_id)][1]

    def render(self, item_id: ItemId) -> str:
        column, value = self.entries[self.check(item_id)]
        return f"{column}={value}"

    def id_of(self, column: str, value: int) -> ItemId:
        try:
            return self._index[(column, value)]
        except KeyError:
            raise UnknownItemError(f"unknown item {column}={value}") from None

    def parse(self, token: str) -> ItemId:
        """Map a "column=value" token back to its id."""
        try:
            column, value = parse_item(token)
        except ValueError as exc:
            raise UnknownItemError(str(exc)) from None
        return self.id_of(column, value)

    @cached_property
    def columns(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(column for column, _ in self.entries))


class Itemset(NamedTuple):
    """A sorted, duplicate-free tuple of item ids plus its exact count.

    count is None only on fresh candidates that have not been counted
    yet. The empty itemset is representable (for rule generation) but is
    never produced by mining.
    """

    items: tuple[ItemId, ...]
    count: int | None = None
