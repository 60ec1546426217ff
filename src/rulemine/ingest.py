"""Turn discrete-valued CSV tables into transaction databases.

A schema names the table columns to encode, in order, and maps each
source header to the item label used everywhere downstream (reports,
exports, queries). Two presets cover Hodge-number tables of complete
intersection Calabi-Yau five- and six-folds; "generic" maps every header
to itself; anything else is read as a JSON schema file of the form

    {
      "name": "my-table",
      "columns": [["h11", "item1"], ["h21", "item2"]],
      "missing_policy": "drop_row",
      "missing_markers": ["", "NA", "?"]
    }

Cells equal to a missing marker (after stripping surrounding whitespace,
comparison is case-sensitive) are missing. Under drop_row a row with any
missing mapped cell is discarded; under partial_row the transaction
keeps the items that are present. Fully missing rows are always dropped.
Every other mapped cell must be an optional sign then ASCII digits.
Transaction ids are the 0-based ordinals of surviving rows.

Item ids follow the catalog order: column of first appearance among the
kept rows, then ascending value. Under drop_row every kept row holds
every column, so that is schema order. Under partial_row a column whose
cell is missing in the first kept rows comes after the columns that are
present there: a,b over the rows "NA,1", "2,1", "2,3" gives the columns
(b, a). That order is the one an export lists each row's items in, so
load_transactions of the export equals the database.

load_csv reads the rows on one of two paths, which give the same
database, row counts and errors. A clean table (one ASCII line per row,
every mapped cell an integer that fits int64, none missing) is parsed
whole by numpy's C parser and built from its columns, unless parse_int
takes one of its missing markers (such as "-1"); a marker it refuses,
such as "-" or "NA", could never be a parsed cell. Any other table is
read again from the start and streamed row by row through csv.reader,
which alone drops rows and names the cell at fault.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import EmptyDatabaseError, IngestError, SchemaError, utf8_input
from .items import _check_label, parse_int, parse_item
from .txdb import TransactionDatabase, build_database

DEFAULT_MISSING_MARKERS = frozenset({"", "NA", "?"})
MISSING_POLICIES = ("drop_row", "partial_row")
Row = tuple[int, list[tuple[str, int]]]  # (tid, [(label, value), ...])


@dataclass(frozen=True)
class SchemaConfig:
    """Column mapping plus missing-value handling for one table shape."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (source_header, item_label)
    missing_policy: str = "drop_row"
    missing_markers: frozenset[str] = DEFAULT_MISSING_MARKERS

    def __post_init__(self) -> None:
        columns, markers = self.columns, self.missing_markers
        if not isinstance(columns, (list, tuple)):
            raise SchemaError("'columns' must be a list of pairs")
        for entry in columns:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise SchemaError(
                    f"each column entry must be a [source, label] pair, got {entry!r}"
                )
        if not isinstance(markers, (list, tuple, set, frozenset)) or not all(  # no str
            isinstance(marker, str) for marker in markers
        ):
            raise SchemaError("'missing_markers' must be a list of strings")
        object.__setattr__(self, "columns", tuple(map(tuple, columns)))  # JSON lists
        object.__setattr__(self, "missing_markers", frozenset(markers))
        if not self.columns:
            raise SchemaError(f"schema {self.name!r} maps no columns")
        sources = [source for source, _ in self.columns]
        labels = [_check_label(label) for _, label in self.columns]
        for source in sources:
            if not isinstance(source, str) or not source:
                raise SchemaError(
                    f"schema {self.name!r}: source header must be a non-empty "
                    f"string, got {source!r}"
                )
        if len(set(sources)) != len(sources):
            raise SchemaError(f"schema {self.name!r} repeats a source header")
        if len(set(labels)) != len(labels):
            raise SchemaError(f"schema {self.name!r} repeats an item label")
        if self.missing_policy not in MISSING_POLICIES:
            raise SchemaError(
                f"missing_policy must be one of {MISSING_POLICIES}, "
                f"got {self.missing_policy!r}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.columns)


# Hodge-number table presets. Column order matters: under drop_row it
# fixes item ids.
CICY5_SCHEMA = SchemaConfig(
    name="cicy5",
    columns=(
        ("h11", "item1"),
        ("h21", "item2"),
        ("h13", "item3"),
        ("h14", "item4"),
        ("h22", "item5"),
        ("h23", "item6"),
    ),
)

CICY6_SCHEMA = SchemaConfig(
    name="cicy6",
    columns=(
        ("h11", "item1"),
        ("h12", "item2"),
        ("h13", "item3"),
        ("h14", "item4"),
        ("h15", "item5"),
        ("h22", "item6"),
        ("h23", "item7"),
        ("h24", "item8"),
        ("h33", "item9"),
    ),
)

SCHEMA_PRESETS = {"cicy5": CICY5_SCHEMA, "cicy6": CICY6_SCHEMA}


def load_schema_file(path: str | os.PathLike) -> SchemaConfig:
    """Read a JSON schema document; content errors raise SchemaError
    prefixed with the path."""
    with open(path, "r", encoding="utf-8-sig") as handle, utf8_input(path):
        try:
            document = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(document, dict) or "columns" not in document:
        raise SchemaError(f"{path}: schema document must map 'columns'")
    markers = document.get("missing_markers")
    try:
        return SchemaConfig(
            name=document.get("name") or os.path.splitext(os.path.basename(path))[0],
            columns=document["columns"],
            missing_policy=document.get("missing_policy", "drop_row"),
            missing_markers=DEFAULT_MISSING_MARKERS if markers is None else markers,
        )
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def resolve_schema(identifier: str) -> SchemaConfig | None:
    """Preset name, "generic", or a path to a schema file.

    "generic" gives None: load_csv then maps every column of the CSV
    header to itself.
    """
    if identifier in SCHEMA_PRESETS:
        return SCHEMA_PRESETS[identifier]
    if identifier == "generic":
        return None
    return load_schema_file(identifier)


def generic_schema(header: Sequence[str]) -> SchemaConfig:
    return SchemaConfig(
        name="generic", columns=tuple((h, h) for h in header)
    )


def load_csv(
    path: str | os.PathLike,
    schema: SchemaConfig | None = None,
    *,
    separator: str = ",",
    stats: dict | None = None,
) -> TransactionDatabase:
    """Encode a header-bearing CSV into a transaction database.

    schema=None derives a generic schema from the header. Unparseable
    non-missing cells raise IngestError with file, line, and column; a
    table with no surviving rows raises IngestError. When given, stats
    is filled with rows_read / rows_dropped / rows_kept.

    Two paths read the rows after the header. A clean table goes
    through np.loadtxt to build_database as whole columns, when
    _numpy_matrix proves that equal to the streamed path's result. Any
    other (a missing or bad cell, a short row, a non-ASCII line, ...)
    is read again from the start, each row going from csv.reader to
    build_database as it is read; only that path drops rows or raises
    for a cell.
    """
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None
    try:
        with handle, utf8_input(path):
            reader = csv.reader(handle, delimiter=separator)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty file, expected a header row")
            header = [cell.strip() for cell in header]
            if schema is None:
                schema = generic_schema(header)

            indices = []
            for source, _ in schema.columns:
                hits = [i for i, cell in enumerate(header) if cell == source]
                if not hits:
                    raise SchemaError(
                        f"{path}: schema {schema.name!r} references header "
                        f"{source!r} which is not in the file header"
                    )
                if len(hits) > 1:
                    raise SchemaError(
                        f"{path}: header {source!r} appears {len(hits)} times"
                    )
                indices.append(hits[0])

            matrix = _numpy_matrix(handle, schema, indices, separator)
            if matrix is not None:
                rows = dict(zip(schema.labels, matrix.T))
                if stats is not None:
                    total = len(matrix)
                    stats.update(rows_read=total, rows_dropped=0, rows_kept=total)
            else:
                if handle.seekable():  # numpy may have read past the header
                    handle.seek(0)
                    reader = csv.reader(handle, delimiter=separator)
                    next(reader)
                rows = _csv_rows(path, reader, schema, indices, stats)
            try:
                return build_database(rows)
            except EmptyDatabaseError:
                raise IngestError(
                    f"{path}: no rows survived the {schema.missing_policy!r} policy"
                ) from None
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise IngestError(f"{path}:{reader.line_num}: {exc}") from None


def _numpy_matrix(
    handle: TextIO, schema: SchemaConfig, indices: list[int], separator: str
) -> np.ndarray | None:
    """The mapped cells of the rows left in handle, parsed by np.loadtxt
    into one int64 column per schema column, or None unless they are
    proven equal to what _csv_rows would yield: every row kept, no cell
    missing.

    On ASCII text numpy and csv.reader split lines into the same cells
    and skip the same empty lines, and numpy's int64 parse takes exactly
    the cells that parse_int takes once stripped. numpy raises on any
    other cell (missing, short, non-integer or past int64) and warns on
    a table without rows; both give None. The rest is checked here:
    parse_int takes no missing marker, so no parsed cell is missing, and
    _proven_lines finds each row on one ASCII line with no NUL and no
    field past csv.field_size_limit(). numpy refuses a quote separator,
    equality is unproven for whitespace ones, and an input that cannot
    be read twice could not fall back.
    """
    if separator.isspace() or separator == '"' or not handle.seekable():
        return None
    for marker in schema.missing_markers:
        try:
            parse_int(marker)
        except ValueError:
            continue
        return None  # a parsed cell could be this missing marker
    tally: list[int] = []
    lines = _proven_lines(handle, csv.field_size_limit(), tally)
    try:
        with warnings.catch_warnings():
            # e.g. "input contained no data": any warning leaves it unproven
            warnings.simplefilter("error")
            matrix = np.loadtxt(
                lines, delimiter=separator, usecols=indices, dtype=np.int64,
                ndmin=2, comments=None, quotechar='"',
            )
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    return matrix if tally == [len(matrix)] else None


def _proven_lines(
    lines: Iterable[str], limit: int, tally: list[int]
) -> Iterator[str]:
    """Yield lines, and append the count of non-empty ones to tally at
    the end; stop early, with tally left empty, at a line that is not
    ASCII, holds NUL (csv rejects it before Python 3.11), or whose
    characters with those of the empty lines after it exceed limit."""
    filled = run = 0
    for line in lines:
        if line in ("\n", "\r\n", "\r"):  # empty: numpy and csv skip it
            run += len(line)
        else:
            filled += 1
            run = len(line)
        if run > limit or not line.isascii() or "\0" in line:
            return
        yield line
    tally.append(filled)


def _csv_rows(
    path: str | os.PathLike,
    reader: Iterator[list[str]],
    schema: SchemaConfig,
    indices: list[int],
    stats: dict | None,
) -> Iterator[Row]:
    """Yield (tid, [(label, value), ...]) for each row of the csv.reader
    that survives the missing policy, as it is read, each present cell
    parsed by parse_int; fill stats once the file is read. A cell at
    fault is named by the line its record starts on: a quoted cell may
    hold a line break, so that line comes from reader.line_num."""
    drop_row = schema.missing_policy == "drop_row"
    markers = schema.missing_markers
    labels = schema.labels
    sources = {label: source for source, label in schema.columns}
    pad = [""] * (max(indices) + 1)  # a short row's absent cells read as ""
    rows_read = rows_kept = 0
    start = reader.line_num + 1  # the line the next record starts on
    for record in reader:
        line, start = start, reader.line_num + 1
        if not record:
            continue  # blank line
        rows_read += 1
        record += pad[len(record):]
        cells = [record[index].strip() for index in indices]
        present = labels
        if not markers.isdisjoint(cells):
            if drop_row:
                continue
            kept = [pair for pair in zip(labels, cells) if pair[1] not in markers]
            if not kept:
                continue  # every cell missing, under partial_row
            present, cells = zip(*kept)
        items = []
        try:
            for label, cell in zip(present, cells):
                items.append((label, parse_int(cell)))
        except ValueError:  # the first cell at fault, in schema order
            raise IngestError(
                f"{path}:{line}: column {sources[label]!r}: cannot parse "
                f"{cell!r} as an integer"
            ) from None
        yield rows_kept, items
        rows_kept += 1
    if stats is not None:
        dropped = rows_read - rows_kept
        stats.update(rows_read=rows_read, rows_dropped=dropped, rows_kept=rows_kept)


def export_transactions(
    db: TransactionDatabase, path: str | os.PathLike
) -> None:
    """One line per transaction: tid, then rendered items in id order."""
    catalog = db.catalog
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for transaction in db.transactions:
            rendered = ",".join(catalog.render(i) for i in transaction.items)
            if rendered:
                handle.write(f"{transaction.tid},{rendered}\n")
            else:
                handle.write(f"{transaction.tid}\n")


def load_transactions(path: str | os.PathLike) -> TransactionDatabase:
    """Re-ingest an export_transactions file.

    Round-trip law: for any database, export followed by load yields an
    identical database (catalog, transactions, bitmaps, total). Item
    order inside each exported line is catalog order, so columns
    reappear in their original first-appearance order.
    """
    try:
        handle = open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None
    with handle, utf8_input(path):
        try:
            return build_database(_exported_rows(path, handle))
        except EmptyDatabaseError:
            raise IngestError(f"{path}: no transactions in file") from None


def _exported_rows(path: str | os.PathLike, lines: Iterable[str]) -> Iterator[Row]:
    """Yield (tid, [(column, value), ...]) for each non-blank line; its
    tid must be its ordinal among those lines."""
    ordinal = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        first, *tokens = line.split(",")
        try:
            tid = parse_int(first)
        except ValueError:
            raise IngestError(
                f"{path}:{lineno}: expected a transaction id, got {first!r}"
            ) from None
        if tid != ordinal:
            raise IngestError(
                f"{path}:{lineno}: transaction id {tid} is not the row's "
                f"ordinal, {ordinal}"
            )
        try:
            items = [parse_item(token) for token in tokens]
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from None
        yield tid, items
        ordinal += 1
