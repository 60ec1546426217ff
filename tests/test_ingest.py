from __future__ import annotations

import csv
import json
import os
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from rulemine import (
    CICY5_SCHEMA,
    CICY6_SCHEMA,
    SCHEMA_PRESETS,
    IngestError,
    SchemaConfig,
    SchemaError,
    build_database,
    build_database_from_columns,
    export_transactions,
    generic_schema,
    load_csv,
    load_schema_file,
    load_transactions,
    resolve_schema,
)
from rulemine import ingest
from rulemine.ingest import MISSING_POLICIES


def _write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic_table(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n1,3\n2,2\n")
    db = load_csv(path)
    assert db.total == 3
    # column groups in first-appearance order, values ascending inside
    assert [db.catalog.render(i) for i in range(len(db.catalog))] == [
        "a=1",
        "a=2",
        "b=2",
        "b=3",
    ]
    assert db.support_count((db.catalog.id_of("a", 1),)) == 2


def test_values_and_headers_are_stripped(tmp_path):
    path = _write(tmp_path, " a , b \n  1 ,\t2\n")
    db = load_csv(path)
    assert db.catalog.columns == ("a", "b")
    assert db.catalog.id_of("a", 1) == 0


def test_bom_is_ignored(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
    db = load_csv(path)
    assert db.catalog.columns == ("a", "b")


def test_drop_row_policy(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n,2\n1,NA\n3,?\n4,5\n")
    stats: dict = {}
    db = load_csv(path, stats=stats)
    assert stats == {"rows_read": 5, "rows_dropped": 3, "rows_kept": 2}
    assert db.total == 2
    # survivors are renumbered 0..n-1
    assert [t.tid for t in db.transactions] == [0, 1]
    assert db.catalog.id_of("a", 4) is not None


def test_partial_row_policy(tmp_path):
    path = _write(tmp_path, "a,b\n1,NA\n?,2\n1,2\n")
    schema = SchemaConfig(
        name="t", columns=(("a", "a"), ("b", "b")), missing_policy="partial_row"
    )
    db = load_csv(path, schema)
    assert db.total == 3
    assert [t.items for t in db.transactions] == [
        (db.catalog.id_of("a", 1),),
        (db.catalog.id_of("b", 2),),
        (db.catalog.id_of("a", 1), db.catalog.id_of("b", 2)),
    ]


def test_fully_missing_rows_always_drop(tmp_path):
    path = _write(tmp_path, "a,b\nNA,?\n1,2\n")
    schema = SchemaConfig(
        name="t", columns=(("a", "a"), ("b", "b")), missing_policy="partial_row"
    )
    stats: dict = {}
    db = load_csv(path, schema, stats=stats)
    assert stats["rows_dropped"] == 1
    assert db.total == 1


def test_custom_missing_markers(tmp_path):
    path = _write(tmp_path, "a,b\n1,-\n1,2\n")
    schema = SchemaConfig(
        name="t",
        columns=(("a", "a"), ("b", "b")),
        missing_markers=frozenset({"-"}),
    )
    db = load_csv(path, schema)
    assert db.total == 1
    # NA is no longer a marker, so it must now fail to parse
    bad = _write(tmp_path, "a,b\n1,NA\n", name="bad.csv")
    with pytest.raises(IngestError, match="cannot parse 'NA'"):
        load_csv(bad, schema)


def test_markers_are_case_sensitive(tmp_path):
    path = _write(tmp_path, "a\nna\n")
    with pytest.raises(IngestError, match="cannot parse 'na'"):
        load_csv(path)


def test_parse_error_carries_coordinates(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n1,x7\n")
    with pytest.raises(IngestError) as err:
        load_csv(path)
    message = str(err.value)
    assert f"{path}:3:" in message
    assert "column 'b'" in message
    assert "'x7'" in message


def test_short_records_read_as_missing(tmp_path):
    path = _write(tmp_path, "a,b\n1\n2,3\n")
    db = load_csv(path)  # drop_row drops the short row
    assert db.total == 1


def test_blank_lines_are_skipped(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n\n\n3,4\n")
    stats: dict = {}
    db = load_csv(path, stats=stats)
    assert stats["rows_read"] == 2
    assert db.total == 2


def test_missing_header_column(tmp_path):
    path = _write(tmp_path, "h11,h21\n1,2\n")
    with pytest.raises(SchemaError, match="'h13'"):
        load_csv(path, CICY5_SCHEMA)


def test_duplicate_header(tmp_path):
    path = _write(tmp_path, "a,a\n1,2\n")
    schema = SchemaConfig(name="t", columns=(("a", "a"),))
    with pytest.raises(SchemaError, match="appears 2 times"):
        load_csv(path, schema)


def test_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(IngestError, match="expected a header row"):
        load_csv(path)


def test_no_surviving_rows(tmp_path):
    path = _write(tmp_path, "a,b\nNA,2\n?,3\n")
    with pytest.raises(IngestError, match="no rows survived"):
        load_csv(path)


@pytest.mark.parametrize(
    "tail, message",
    [
        (b"\xff,1\n", "not UTF-8: "),
        (b"1," + b"9" * 200_000 + b"\n", ":30002: field larger than field limit"),
    ],
    ids=["non_utf8_byte", "oversized_field"],
)
def test_fault_deep_in_the_file(tmp_path, tail, message):
    # far past the first read buffer, so the fault arises while the row
    # builder is consuming rows; stats stay untouched
    path = tmp_path / "table.csv"
    path.write_bytes(b"a,b\n" + b"1,2\n" * 30_000 + tail)
    stats: dict = {}
    with pytest.raises(IngestError, match=message):
        load_csv(path, stats=stats)
    assert stats == {}


def test_missing_file():
    with pytest.raises(IngestError, match="cannot read"):
        load_csv("/nonexistent/table.csv")


def test_separator(tmp_path):
    path = _write(tmp_path, "a;b\n1;2\n3;4\n")
    db = load_csv(path, separator=";")
    assert db.total == 2
    assert db.catalog.columns == ("a", "b")


def test_schema_ignores_extra_columns(tmp_path):
    path = _write(tmp_path, "junk,a,notes\nxyz,1,hello\nabc,2,world\n")
    schema = SchemaConfig(name="t", columns=(("a", "a"),))
    db = load_csv(path, schema)
    assert db.total == 2
    assert db.catalog.columns == ("a",)


def test_preset_mappings():
    assert CICY5_SCHEMA.columns == (
        ("h11", "item1"),
        ("h21", "item2"),
        ("h13", "item3"),
        ("h14", "item4"),
        ("h22", "item5"),
        ("h23", "item6"),
    )
    assert CICY6_SCHEMA.columns == (
        ("h11", "item1"),
        ("h12", "item2"),
        ("h13", "item3"),
        ("h14", "item4"),
        ("h15", "item5"),
        ("h22", "item6"),
        ("h23", "item7"),
        ("h24", "item8"),
        ("h33", "item9"),
    )
    assert SCHEMA_PRESETS == {"cicy5": CICY5_SCHEMA, "cicy6": CICY6_SCHEMA}
    assert CICY6_SCHEMA.labels == tuple(f"item{i}" for i in range(1, 10))


def test_preset_renames_headers(tmp_path):
    path = _write(
        tmp_path,
        "h11,h21,h13,h14,h22,h23\n3,0,0,1000,4,2000\n",
    )
    db = load_csv(path, CICY5_SCHEMA)
    assert db.catalog.columns == tuple(f"item{i}" for i in range(1, 7))
    assert db.catalog.render(0) == "item1=3"


def test_schema_validation():
    with pytest.raises(SchemaError, match="maps no columns"):
        SchemaConfig(name="t", columns=())
    with pytest.raises(SchemaError, match="repeats a source header"):
        SchemaConfig(name="t", columns=(("a", "x"), ("a", "y")))
    with pytest.raises(SchemaError, match="repeats an item label"):
        SchemaConfig(name="t", columns=(("a", "x"), ("b", "x")))
    with pytest.raises(SchemaError, match="missing_policy"):
        SchemaConfig(name="t", columns=(("a", "a"),), missing_policy="skip")


def test_generic_schema():
    schema = generic_schema(["x", "y"])
    assert schema.name == "generic"
    assert schema.columns == (("x", "x"), ("y", "y"))


def test_resolve_schema(tmp_path):
    assert resolve_schema("cicy5") is CICY5_SCHEMA
    assert resolve_schema("cicy6") is CICY6_SCHEMA
    assert resolve_schema("generic") is None
    assert resolve_schema("generic", ["a"]).columns == (("a", "a"),)
    document = {"name": "mine", "columns": [["h11", "item1"]]}
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    schema = resolve_schema(str(path))
    assert schema.name == "mine"
    assert schema.columns == (("h11", "item1"),)


def test_schema_file_defaults(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text('{"columns": [["a", "x"], ["b", "y"]]}', encoding="utf-8")
    schema = load_schema_file(path)
    assert schema.name == "bare"  # falls back to the file stem
    assert schema.missing_policy == "drop_row"
    assert schema.missing_markers == frozenset({"", "NA", "?"})


def test_schema_file_full(tmp_path):
    document = {
        "name": "custom",
        "columns": [["a", "x"]],
        "missing_policy": "partial_row",
        "missing_markers": ["-", "none"],
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    schema = load_schema_file(path)
    assert schema.missing_policy == "partial_row"
    assert schema.missing_markers == frozenset({"-", "none"})


def test_schema_file_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_schema_file(bad_json)

    no_columns = tmp_path / "none.json"
    no_columns.write_text('{"name": "x"}', encoding="utf-8")
    with pytest.raises(SchemaError, match="must map 'columns'"):
        load_schema_file(no_columns)

    bad_entry = tmp_path / "entry.json"
    bad_entry.write_text('{"columns": [["a"]]}', encoding="utf-8")
    with pytest.raises(SchemaError, match=r"\[source, label\] pair"):
        load_schema_file(bad_entry)

    list_source = tmp_path / "source.json"
    list_source.write_text('{"columns": [[["a"], "x"]]}', encoding="utf-8")
    with pytest.raises(SchemaError, match="source header must be a non-empty string"):
        load_schema_file(list_source)


def test_export_exact_bytes(tmp_path):
    rows = [
        (0, [("a", 1), ("b", 2)]),
        (1, []),
        (2, [("b", 2)]),
    ]
    db = build_database(rows)
    path = tmp_path / "tx.txt"
    export_transactions(db, path)
    assert path.read_text(encoding="utf-8") == (
        "0,a=1,b=2\n"
        "1\n"
        "2,b=2\n"
    )


def test_export_load_round_trip(tmp_path):
    rows = [
        (10, [("a", 1), ("b", 2)]),
        (20, []),
        (35, [("a", 1), ("c", -3)]),
    ]
    db = build_database(rows)
    path = tmp_path / "tx.txt"
    export_transactions(db, path)
    again = load_transactions(path)
    assert again == db
    assert [t.tid for t in again.transactions] == [10, 20, 35]


def test_round_trip_from_csv(tmp_path):
    source = _write(tmp_path, "a,b\n1,2\n1,3\n2,2\n")
    db = load_csv(source)
    path = tmp_path / "tx.txt"
    export_transactions(db, path)
    assert load_transactions(path) == db


def test_load_transactions_errors(tmp_path):
    bad_tid = _write(tmp_path, "x,a=1\n", name="t1.txt")
    with pytest.raises(IngestError, match=r"t1\.txt:1: expected a transaction id"):
        load_transactions(bad_tid)

    bad_token = _write(tmp_path, "0,a1\n", name="t2.txt")
    with pytest.raises(IngestError, match="malformed item token 'a1'"):
        load_transactions(bad_token)

    bad_value = _write(tmp_path, "0,a=z\n", name="t3.txt")
    with pytest.raises(IngestError, match="non-integer value"):
        load_transactions(bad_value)

    empty = _write(tmp_path, "\n\n", name="t4.txt")
    with pytest.raises(IngestError, match="no transactions"):
        load_transactions(empty)


def test_negative_values_parse(tmp_path):
    path = _write(tmp_path, "a\n-5\n")
    db = load_csv(path)
    assert db.catalog.render(0) == "a=-5"


def test_sign_then_ascii_digits_parse(tmp_path):
    path = _write(tmp_path, 'a,b\n+7,-0\n"007",3\n')
    db = load_csv(path)
    assert [db.catalog.render(i) for i in range(len(db.catalog))] == [
        "a=7", "b=0", "b=3"
    ]


def _ab_schema(policy):
    return SchemaConfig(
        name="t", columns=(("a", "a"), ("b", "b")), missing_policy=policy
    )


@pytest.mark.parametrize(
    "cell", ["1_0", "\uff11\uff12", "\u0663", "1 0", '"1\n2"', "0x1", "1.0"]
)
@pytest.mark.parametrize("policy", MISSING_POLICIES)
def test_other_spellings_of_an_integer_are_rejected(tmp_path, cell, policy):
    path = _write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
    shown = cell.strip('"')
    with pytest.raises(IngestError) as err:
        load_csv(path, _ab_schema(policy))
    message = f"{path}:3: column 'b': cannot parse {shown!r} as an integer"
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row, policy, column, cell",
    [
        ("1_0,x", "drop_row", "a", "1_0"),
        ("x,1_0", "drop_row", "a", "x"),
        ("NA,1_0", "partial_row", "b", "1_0"),
        ("1,1_0", "partial_row", "b", "1_0"),
    ],
)
def test_first_cell_at_fault_is_named(tmp_path, row, policy, column, cell):
    path = _write(tmp_path, f"a,b\n{row}\n")
    with pytest.raises(IngestError, match=f"{column!r}: cannot parse {cell!r}"):
        load_csv(path, _ab_schema(policy))


@pytest.mark.parametrize(
    "line, message",
    [
        ("0,a=1_0", "item token 'a=1_0' has a non-integer value"),
        ("0,a=\uff11", "item token 'a=\uff11' has a non-integer value"),
        ("0,a= 1", "item token 'a= 1' has a non-integer value"),
        ("1_0,a=1", "expected a transaction id, got '1_0'"),
        ("\uff10,a=1", "expected a transaction id, got '\uff10'"),
    ],
)
def test_load_transactions_takes_only_sign_then_ascii_digits(tmp_path, line, message):
    path = _write(tmp_path, line + "\n", name="tx.txt")
    with pytest.raises(IngestError) as err:
        load_transactions(path)
    assert str(err.value) == f"{path}:1: {message}"


def _reference_load(path, schema, stats):
    """load_csv's documented rules, applied to the whole table at once."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        records = list(csv.reader(handle))
    header = [cell.strip() for cell in records[0]]
    indices = [header.index(source) for source, _ in schema.columns]
    rows = []
    rows_read = 0
    for lineno, record in enumerate(records[1:], start=2):
        if not record:
            continue  # blank lines are not rows
        rows_read += 1
        cells = [record[i].strip() if i < len(record) else "" for i in indices]
        missing = [cell in schema.missing_markers for cell in cells]
        if schema.missing_policy == "drop_row" and any(missing):
            continue
        items = []
        for (source, label), cell, absent in zip(schema.columns, cells, missing):
            if absent:
                continue
            try:
                items.append((label, int(cell)))
            except ValueError:
                raise IngestError(
                    f"{path}:{lineno}: column {source!r}: cannot parse "
                    f"{cell!r} as an integer"
                ) from None
        if items:  # a fully missing row is dropped under either policy
            rows.append((len(rows), items))
    stats.update(
        rows_read=rows_read, rows_dropped=rows_read - len(rows), rows_kept=len(rows)
    )
    if not rows:
        raise IngestError(
            f"{path}: no rows survived the {schema.missing_policy!r} policy"
        )
    return build_database(rows)


_int_cells = st.one_of(
    st.builds(
        lambda before, value, after: f"{before}{value}{after}",
        st.sampled_from(["", " ", "  "]),
        st.integers(-3, 12),
        st.sampled_from(["", " ", "\t"]),
    ),
    st.sampled_from(['"2"', '"2" ', '"2"3']),  # quoted spellings of 2 and 23
)
_cells = st.one_of(
    _int_cells,
    st.sampled_from(
        ["", "NA", "?", "-", "9223372036854775808", " -9223372036854775809", "abc"]
    ),
    # not integers, once csv has read them; some are whitespace-only lines
    st.sampled_from([' "2"', '""', " ", "\t", "\x0c"]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_streamed_load_matches_reference(tmp_path_factory, data):
    width = data.draw(st.integers(1, 4), label="columns")
    header = [f"c{i}" for i in range(width)]
    mapped = data.draw(st.permutations(header), label="schema order")
    mapped = mapped[: data.draw(st.integers(1, width), label="mapped")]
    schema = SchemaConfig(
        name="t",
        columns=tuple((source, f"x{source}") for source in mapped),
        missing_policy=data.draw(st.sampled_from(MISSING_POLICIES), label="policy"),
        missing_markers=data.draw(
            st.sampled_from(
                [{"", "NA", "?"}, {"-"}, {"", "NA", "?", "-"}, {"-1"}, {"0", ""}]
            ),
            label="markers",
        ),
    )
    # a record of no cells is a blank line; fewer than width is a short row
    records = data.draw(
        st.lists(st.lists(_cells, max_size=width + 1), max_size=8)
        | st.lists(st.lists(_int_cells, min_size=width, max_size=width), max_size=8),
        label="rows",
    )
    separator = data.draw(st.sampled_from([",", ";", "|"]), label="separator")
    line_end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    bom = data.draw(st.sampled_from(["", "\ufeff"]), label="bom")
    path = tmp_path_factory.mktemp("streamed") / "table.csv"

    def outcome(load, separator=","):
        # _reference_load reads commas: the same table is written with
        # the separator under test for load_csv only, at the same path
        lines = map(separator.join, [header] + records)
        path.write_bytes((bom + line_end.join(lines) + line_end).encode())
        stats: dict = {}
        try:
            result = load(path, schema, stats)
        except IngestError as exc:
            result = (type(exc), str(exc))
        return result, stats

    streamed = outcome(
        lambda p, s, stats: load_csv(p, s, separator=separator, stats=stats),
        separator,
    )
    assert streamed == outcome(_reference_load)


def test_clean_table_skips_the_streamed_path(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    path.write_bytes(
        b'\xef\xbb\xbfa;b;notes\r\n1;"2" ;text\r\n\r\n-3;+4;"x;y"\r\n'
    )
    expected = build_database_from_columns({"a": [1, -3], "b": [2, 4]})

    def streamed(*args):
        raise AssertionError("a clean table took the streamed path")

    monkeypatch.setattr(ingest, "_csv_rows", streamed)
    stats: dict = {}
    schema = SchemaConfig(name="t", columns=(("a", "a"), ("b", "b")))
    assert load_csv(path, schema, separator=";", stats=stats) == expected
    assert stats == {"rows_read": 2, "rows_dropped": 0, "rows_kept": 2}


def _outcome(path, schema):
    stats: dict = {}
    try:
        db = load_csv(path, schema, stats=stats)
    except IngestError as exc:
        return type(exc), str(exc), stats
    return db, stats


_A_ONLY = SchemaConfig(name="t", columns=(("a", "a"),))
_LIMIT = 131_072  # csv.field_size_limit() by default


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n\u09682,1\n",  # numpy's parser reads a Devanagari digit as 23602
        "a,b\n1,\x00\n",  # csv rejects NUL before Python 3.11
        "a,b\n1," + "x" * _LIMIT + "\n",
        "a,b\n" + " " * _LIMIT + "1,2\n",
        'a,b\n1,"' + "x" * (_LIMIT // 2) + "\n" + "x" * (_LIMIT // 2) + '"\n',
        'a,b\n1,"x\n' + "\n" * _LIMIT,
    ],
    ids=["non_ascii_digit", "nul", "long_field", "padded_cell", "long_multiline_field",
         "long_unclosed_field"],
)
def test_tables_numpy_would_misread_take_the_streamed_path(tmp_path, monkeypatch, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    either = _outcome(path, _A_ONLY)
    monkeypatch.setattr(ingest, "_numpy_matrix", lambda *args: None)
    assert either == _outcome(path, _A_ONLY)


@pytest.mark.parametrize("separator", ['"', "\t", " "], ids=["quote", "tab", "space"])
def test_quote_and_whitespace_separators(tmp_path, separator):
    path = _write(tmp_path, f"a{separator}b\n1{separator}2\n")
    assert load_csv(path, separator=separator) == build_database_from_columns(
        {"a": [1], "b": [2]}
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_unseekable_input_is_streamed(tmp_path):
    fifo = tmp_path / "table.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_text, args=("a,b\n1,NA\n2,3\n",), daemon=True
    )
    writer.start()
    stats: dict = {}
    db = load_csv(fifo, stats=stats)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert db == build_database([(0, [("a", 2), ("b", 3)])])
    assert stats == {"rows_read": 2, "rows_dropped": 1, "rows_kept": 1}


@pytest.mark.parametrize("action", ["error", "always"])
@pytest.mark.parametrize("data", ["", "\n\n", "\r\n\r\n"], ids=["header_only", "lf", "crlf"])
def test_table_without_data_rows_warns_nothing(tmp_path, data, action):
    path = _write(tmp_path, "a,b\n" + data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(IngestError, match="no rows survived the 'drop_row' policy"):
            load_csv(path)
    assert caught == []
