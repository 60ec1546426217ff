"""Transaction database stored as a vertical bitmap index.

Key ideas:

- Item ids are those of the database's catalog, a rulemine.items.ItemCatalog.
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

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DuplicateTidError, EmptyDatabaseError, SchemaError
from .items import ItemCatalog, ItemId, _check_value


class Transaction(NamedTuple):
    """One row, as the set of item ids it contains (sorted ascending)."""

    tid: int
    items: tuple[ItemId, ...]


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
