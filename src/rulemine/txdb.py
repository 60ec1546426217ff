"""Transaction database stored as a vertical bitmap index.

Key ideas:

- An item is a (column, value) pair, e.g. ("item5", 4), interned into a
  dense integer id. The catalog orders ids by column of first appearance,
  then ascending value, so ids and every artifact derived from them are
  byte-deterministic for a given input.
- The table is stored as one read-only matrix of little-endian uint64
  words, `words`: row j is item j's bitmap, bit i % 64 of its word
  i // 64 mirrors membership in row i, and the bits past total are zero.
  It is the only stored form of the table: support counting is a chain
  of ANDs plus one popcount, and the horizontal rows (`transactions`)
  are unpacked from it only when asked for.
- One private builder packs each column's bitmaps in one scatter;
  build_database (rows) and build_database_from_columns (a mapping)
  adapt their input to it under one value rule.
- Databases are frozen after construction.

A row's transaction id is its ordinal (0..total-1), which is also its
bit position, so no id is stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateTidError,
    EmptyDatabaseError,
    SchemaError,
    UnknownItemError,
)

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


class Transaction(NamedTuple):
    """One row, as the set of item ids it contains (sorted ascending)."""

    tid: int
    items: tuple[ItemId, ...]


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


@dataclass(frozen=True, eq=False)
class TransactionDatabase:
    """Immutable table stored as one bitmap row of `words` per item;
    row i has tid i."""

    catalog: ItemCatalog
    words: np.ndarray
    item_counts: tuple[int, ...]
    total: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return (
            self.catalog == other.catalog
            and self.total == other.total
            and self.item_counts == other.item_counts
            and np.array_equal(self.words, other.words)
        )

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        """The horizontal rows, unpacked from the bitmaps on every call.

        Costs O(total * items) time and memory; meant for the oracle and
        for export, not for mining.
        """
        member = np.unpackbits(
            self.words.view(np.uint8), axis=1, count=self.total, bitorder="little"
        )
        return tuple(
            Transaction(tid, tuple(np.flatnonzero(row).tolist()))
            for tid, row in enumerate(member.T)
        )

    def support_count(self, itemset: Iterable[ItemId]) -> int:
        """Exact number of transactions containing every item in itemset.

        The empty itemset is contained in every transaction, so its
        count is total. Each id goes through catalog.check.
        """
        ids = list(map(self.catalog.check, itemset))
        if not ids:
            return self.total
        rows = self.words[ids]  # AND is idempotent: repeats need no dedup
        return int(np.bitwise_count(np.bitwise_and.reduce(rows)).sum())


def _int_array(column: str, values: Sequence[object]) -> np.ndarray:
    """The value rule of both builders: each value is an int, not a bool.
    int64 when all fit, else object; SchemaError names the first bad."""
    if not set(map(type, values)) <= {int}:
        for value in values:
            _check_value(column, value)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # values beyond int64 stay Python ints
        return np.array(values, dtype=object)


def _build(
    columns: Sequence[tuple[str, np.ndarray, np.ndarray]], total: int
) -> TransactionDatabase:
    """The one builder: (label, row positions, integer values) per
    column, in catalog column order. One scatter per column ORs each
    cell's bit into its value's row, so a row may hold several values of
    one column and a repeated (position, value) pair sets its bit once."""
    if total == 0:
        raise EmptyDatabaseError("cannot build a database from zero rows")
    n_words = -(-total // 64)
    entries: list[tuple[str, int]] = []
    blocks = [np.zeros((0, n_words), dtype="<u8")]
    for label, positions, values in columns:
        uniq, inverse = np.unique(values, return_inverse=True)
        entries.extend((label, value) for value in uniq.tolist())
        block = np.zeros((len(uniq), n_words), dtype="<u8")
        bits = np.left_shift(np.uint64(1), (positions & 63).astype(np.uint64))
        np.bitwise_or.at(block, (inverse, positions >> 6), bits)
        blocks.append(block)
    words = np.concatenate(blocks)
    words.flags.writeable = False
    return TransactionDatabase(
        catalog=ItemCatalog(tuple(entries)),
        words=words,
        item_counts=tuple(np.bitwise_count(words).sum(axis=1).tolist()),
        total=total,
    )


def build_database(
    rows: Iterable[tuple[int, Iterable[tuple[str, int]]]]
    | Mapping[str, Sequence[int]],
) -> TransactionDatabase:
    """Build a database from (tid, [(column, value), ...]) rows, or from
    a mapping of columns as build_database_from_columns takes it.

    Each row's tid must be its ordinal, the int 0, 1, 2, ... in input
    order; DuplicateTidError names the first row whose tid is not.
    Columns take catalog order from their first appearance in row order.
    Within a row, repeated identical pairs collapse (a transaction is a
    set). Also raises EmptyDatabaseError, or SchemaError (for a bad
    value or label, after the last row).
    """
    if isinstance(rows, Mapping):
        return build_database_from_columns(rows)
    # label -> [positions, values]; positions stays None while the
    # column has had exactly one cell in each row, whose position is
    # then its index in values
    cells: dict[str, list] = {}
    position = -1  # stays -1 when there are no rows
    for position, (tid, row_items) in enumerate(rows):
        if type(tid) is not int or tid != position:
            raise DuplicateTidError(
                f"row {position} has tid {tid!r}; a row's tid must be its "
                f"ordinal, {position}"
            )
        for column, value in row_items:
            column_cells = cells.get(column)
            if column_cells is None:
                column_cells = cells[column] = [None, []]
            positions, values = column_cells
            if positions is None:
                if len(values) == position:
                    values.append(value)
                    continue
                positions = column_cells[0] = list(range(len(values)))
            positions.append(position)
            values.append(value)
    total = position + 1
    shared = np.arange(total)
    columns = [
        (
            column,
            shared[: len(values)] if positions is None
            else np.array(positions, dtype=np.int64),
            _int_array(column, values),
        )
        for column, (positions, values) in cells.items()
    ]
    cells.clear()  # free the lists before _build's per-column temporaries
    return _build(columns, total)


def build_database_from_columns(
    columns: Mapping[str, Sequence[int]],
) -> TransactionDatabase:
    """Columnar input: a mapping of label to equal-length integer
    columns, no missing cells.

    Produces exactly what build_database would for the row-wise form of
    the same table, under the same value rule: an integer ndarray is
    taken as it is, and any other column must hold only ints.
    """
    if not columns:
        raise EmptyDatabaseError("at least one column is required")
    total = len(next(iter(columns.values())))
    positions = np.arange(total)
    arrays = []
    for name, values in columns.items():
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
            values = _int_array(name, values)
        if values.ndim != 1:
            raise SchemaError(f"column {name!r} must be one-dimensional")
        if len(values) != total:
            raise SchemaError(
                f"column {name!r} has {len(values)} rows, expected {total}"
            )
        arrays.append((name, positions, values))
    return _build(arrays, total)
