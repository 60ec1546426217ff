from __future__ import annotations

import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from rulemine import (
    DuplicateTidError,
    EmptyDatabaseError,
    ItemCatalog,
    SchemaError,
    Transaction,
    UnknownItemError,
    build_database,
    build_database_from_columns,
)
from rulemine.items import parse_int, parse_item


def test_build_interns_distinct_pairs():
    db = build_database(
        [
            (0, [("h11", 1)]),
            (1, [("h11", 2)]),
            (2, [("h11", 1)]),
        ]
    )
    assert len(db.catalog) == 2
    assert db.total == 3
    item = db.catalog.id_of("h11", 1)
    assert db.item_counts[item] == 2


def test_catalog_order_is_column_appearance_then_value():
    db = build_database(
        [
            (0, [("b", 5), ("a", -1)]),
            (1, [("a", 2), ("b", -3)]),
        ]
    )
    assert db.catalog.entries == (
        ("b", -3),
        ("b", 5),
        ("a", -1),
        ("a", 2),
    )
    assert db.catalog.columns == ("b", "a")


def test_catalog_columns_are_one_tuple_in_first_appearance_order():
    catalog = ItemCatalog((("b", 1), ("a", 0), ("b", 2), ("c", 7), ("a", 3)))
    assert catalog.columns == ("b", "a", "c")
    assert catalog.columns is catalog.columns
    assert catalog == ItemCatalog(catalog.entries)  # the kept tuple is no field


def test_column_first_seen_in_a_later_row():
    db = build_database(
        [
            (0, [("b", 3)]),
            (1, [("a", 2), ("b", 1)]),
            (2, [("c", 2**70), ("a", 2)]),
        ]
    )
    assert db.catalog.entries == (("b", 1), ("b", 3), ("a", 2), ("c", 2**70))
    assert db.transactions == (
        Transaction(0, (1,)),
        Transaction(1, (0, 2)),
        Transaction(2, (2, 3)),
    )
    assert db.item_counts == (1, 1, 2, 1)


def test_duplicate_tid_rejected():
    rows = [(0, [("a", 1)]), (0, [("a", 2)])]
    with pytest.raises(DuplicateTidError, match="row 1 has tid 0"):
        build_database(rows)


@pytest.mark.parametrize("bad", [True, 1.0, -1, "1", 2])
def test_tid_must_be_its_row_ordinal(bad):
    with pytest.raises(DuplicateTidError, match=f"row 1 has tid {bad!r}"):
        build_database([(0, [("a", 1)]), (bad, [("a", 2)]), (2, [])])


def test_tids_are_the_row_ordinals_and_are_not_stored():
    rows = [(0, [("a", 1)]), (1, [("a", 2)]), (2, [("a", 1)])]
    db = build_database(rows)
    assert [t.tid for t in db.transactions] == [0, 1, 2]
    assert [f.name for f in dataclasses.fields(db)] == [
        "catalog", "words", "item_counts", "total"
    ]
    with pytest.raises(DuplicateTidError, match="row 0 has tid 2"):
        build_database(rows[::-1])


def test_empty_row_set_rejected():
    with pytest.raises(EmptyDatabaseError):
        build_database([])


def test_columnar_build_needs_a_column():
    with pytest.raises(EmptyDatabaseError, match="at least one column is required"):
        build_database_from_columns({})


def test_database_is_unequal_to_a_foreign_type():
    db = build_database([(0, [("a", 1)])])
    assert db == build_database([(0, [("a", 1)])])
    for other in (None, db.catalog, "db"):
        assert db.__eq__(other) is NotImplemented
        assert db != other
        assert not db == other


def test_transaction_items_sorted_and_deduplicated():
    db = build_database([(0, [("b", 1), ("a", 1), ("b", 1)])])
    assert db.transactions == (Transaction(0, (0, 1)),)
    assert db.catalog.entries == (("b", 1), ("a", 1))


def test_empty_transaction_is_allowed():
    db = build_database([(0, []), (1, [("a", 4)])])
    assert db.total == 2
    assert db.transactions[0].items == ()
    assert db.support_count([]) == 2
    assert db.support_count([0]) == 1


def test_support_count_of_empty_itemset_is_total():
    db = build_database([(i, [("a", i % 2)]) for i in range(9)])
    assert db.support_count(()) == 9


def test_support_count_rejects_unknown_ids():
    # two items, so True and 1.0 equal a known id and only their type is wrong
    db = build_database([(0, [("a", 1), ("b", 1)])])
    for item_id in (5, len(db.catalog), -1, True, 1.0, "0"):
        with pytest.raises(UnknownItemError) as checked:
            db.catalog.check(item_id)
        with pytest.raises(UnknownItemError) as raised:
            db.support_count([item_id])
        assert str(raised.value) == str(checked.value)


def test_support_count_matches_horizontal_scan():
    rng = random.Random(991)
    for _ in range(25):
        db = helpers.random_database(rng, max_items=8, max_tx=32)
        ids = range(len(db.catalog))
        for i in ids:
            assert db.support_count([i]) == helpers.horizontal_count(db, [i])
        for i in ids:
            for j in ids:
                if i < j:
                    assert db.support_count([i, j]) == helpers.horizontal_count(
                        db, [i, j]
                    )


def test_vertical_bitmap_bit_positions_mirror_rows():
    db = build_database(
        [
            (0, [("a", 1)]),
            (1, [("b", 1)]),
            (2, [("a", 1), ("b", 1)]),
        ]
    )
    a = db.catalog.id_of("a", 1)
    b = db.catalog.id_of("b", 1)
    assert db.words[a].tolist() == [0b101]
    assert db.words[b].tolist() == [0b110]


@pytest.mark.parametrize("total", [1, 7, 8, 9, 63, 64, 65, 257])
def test_byte_boundary_popcounts(total):
    db = build_database([(i, [("a", 1)]) for i in range(total)])
    assert db.item_counts[0] == total
    assert db.support_count([0]) == total


@pytest.mark.parametrize("total", [1, 63, 64, 65, 127, 128, 129])
def test_words_are_zero_past_total_and_read_only(total):
    db = build_database(
        [(i, [("a", 1), ("b", i % 3)]) for i in range(total)]
    )
    assert db.words.dtype == np.dtype("<u8")
    assert db.words.shape == (len(db.catalog), -(-total // 64))
    bits = np.unpackbits(db.words.view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, total:].any()
    assert bits[db.catalog.id_of("a", 1), :total].all()
    assert not db.words.flags.writeable
    with pytest.raises(ValueError):
        db.words[0, 0] = 0


@pytest.mark.parametrize("position", [0, 63, 64, 128])
def test_databases_differing_in_one_bit_compare_unequal(position):
    def table(marked):
        return build_database(
            [(i, [("a", 1)] if i == marked else []) for i in range(130)]
        )

    db = table(position)
    assert db == table(position)
    other = table(position + 1)
    assert (other.catalog, other.total, other.item_counts) == (
        db.catalog,
        db.total,
        db.item_counts,
    )
    assert db != other
    with pytest.raises(TypeError):
        hash(db)


@pytest.mark.parametrize("total", [63, 64, 65, 127, 128, 129, 200])
def test_support_count_matches_horizontal_scan_across_word_boundaries(total):
    rng = random.Random(total)
    db = build_database(
        (tid, [(f"c{j}", 0) for j in range(6) if rng.random() < 0.7])
        for tid in range(total)
    )
    ids = range(len(db.catalog))
    for _ in range(40):
        itemset = rng.sample(ids, rng.randint(1, len(ids)))
        assert db.support_count(itemset) == helpers.horizontal_count(db, itemset)


@pytest.mark.parametrize(
    "x_values",
    [
        [3, 1, 3, 2, 1],
        [2**63, 1, -(2**63) - 1, 2**63, 1],
        np.array([2**64 - 1, 1, 2**63, 0, 1], dtype=np.uint64),
        np.array([3, 1, 2**70, 2, 1], dtype=object),
    ],
    ids=["list", "beyond-int64", "uint64", "object"],
)
def test_columnar_build_equals_row_build(x_values):
    columns = {"x": x_values, "y": [0, 0, 1, 1, 0]}
    via_columns = build_database_from_columns(columns)
    via_rows = build_database(
        (tid, [("x", int(x)), ("y", y)])
        for tid, (x, y) in enumerate(zip(columns["x"], columns["y"]))
    )
    assert via_columns == via_rows


def test_columnar_build_validates_shape():
    with pytest.raises(SchemaError):
        build_database_from_columns({"x": [1, 2], "y": [1]})
    with pytest.raises(EmptyDatabaseError):
        build_database_from_columns({"x": []})
    with pytest.raises(SchemaError):
        build_database_from_columns({"x": [1.5, 2.0]})
    with pytest.raises(SchemaError):
        build_database_from_columns({"x": np.array([True, False])})
    with pytest.raises(SchemaError):
        build_database_from_columns({"x": np.array([[1, 2], [3, 4]])})


def test_catalog_render_and_parse_round_trip():
    catalog = ItemCatalog((("item5", 4), ("item1", -3)))
    assert catalog.render(0) == "item5=4"
    assert catalog.parse("item5=4") == 0
    assert catalog.parse("item1=-3") == 1
    with pytest.raises(UnknownItemError):
        catalog.parse("item5=99")
    with pytest.raises(UnknownItemError):
        catalog.parse("no-equals-sign")
    with pytest.raises(UnknownItemError):
        catalog.parse("item5=4.5")
    with pytest.raises(UnknownItemError):
        catalog.render(17)


@pytest.mark.parametrize("raw, value", [("7", 7), ("+7", 7), ("-7", -7), ("007", 7)])
def test_parse_item_takes_a_sign_then_ascii_digits(raw, value):
    assert parse_item(f"a={raw}") == ("a", value)


@pytest.mark.parametrize(
    "raw", ["1_0", "\uff11\uff12", "\u0663", " 7", "7 ", "+", "", "1.0", "--1", "1\n2"]
)
def test_parse_item_rejects_other_spellings_of_an_integer(raw):
    with pytest.raises(ValueError, match="non-integer value"):
        parse_item(f"a={raw}")


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(st.text("0123456789+-_ \t\n\uff11\u0663", max_size=4), max_size=4)
)
def test_parse_int_is_one_sign_then_ascii_digits_rule(texts):
    strict = [re.fullmatch(r"[+-]?[0-9]+", text) is not None for text in texts]
    for text, ok in zip(texts, strict):
        if ok:
            assert parse_int(text) == int(text)
        else:
            with pytest.raises(ValueError):
                parse_int(text)


def test_label_validation():
    for bad in ("", "a=b", "a,b", "a b", "a{", 7):
        with pytest.raises(SchemaError):
            build_database([(0, [(bad, 1)])])
        with pytest.raises(SchemaError):
            build_database_from_columns({bad: [1]})


def test_values_must_be_plain_ints():
    with pytest.raises(SchemaError):
        build_database([(0, [("a", 1.5)])])
    with pytest.raises(SchemaError):
        build_database([(0, [("a", True)])])


def test_database_is_frozen(uniform_ab_db):
    with pytest.raises(Exception):
        uniform_ab_db.total = 5


def test_reference_fixture_contingency_counts(cicy5_db):
    catalog = cicy5_db.catalog
    item5_4 = catalog.id_of("item5", 4)
    item1_3 = catalog.id_of("item1", 3)
    item3_0 = catalog.id_of("item3", 0)
    item2_0 = catalog.id_of("item2", 0)
    assert cicy5_db.total == helpers.REFERENCE_TOTAL
    assert cicy5_db.support_count([item5_4]) == 1358
    assert cicy5_db.support_count([item1_3]) == 4812
    assert cicy5_db.support_count([item5_4, item1_3]) == 1312
    assert cicy5_db.support_count([item3_0]) == 11899
    assert cicy5_db.support_count([item2_0]) == 12147


def test_reference_fixture_background_items_stay_infrequent(cicy5_db):
    named = {("item5", 4), ("item1", 3), ("item3", 0), ("item2", 0)}
    for item_id, entry in enumerate(cicy5_db.catalog):
        if entry not in named:
            assert cicy5_db.item_counts[item_id] < helpers.REFERENCE_MIN_COUNT, entry
