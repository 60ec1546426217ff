"""A table shaped after the CICY 6-fold data, small enough for the
brute-force oracle.

helpers.write_cicy6_shaped_csv writes the cicy6 preset's nine Hodge
numbers with the paper's four constant columns (h12, h13, h14, h23 = 0).
Its other parameters are assumptions, not the paper's data: missing cells
in about 47% of the rows (the 5-fold share; the 6-fold one is not known),
always in the same four columns, and uniform values. These tests pin what
load_csv, the miner and the rule generator make of such a table today,
under both missing policies and on both ingest paths; CI mines the same
generator at the paper's 1,482,022 rows through the CLI.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import helpers
from rulemine import (
    CICY6_SCHEMA,
    MiningConfig,
    RuleConfig,
    brute_force_frequent,
    brute_force_rules,
    generate_rules,
    load_csv,
    mine_frequent,
)
from rulemine import ingest
from rulemine.ingest import DEFAULT_MISSING_MARKERS

ROWS = 2_000
SEED = 6
MINING = MiningConfig(0.05, max_len=4)
# just above the 1/3 a rule between two independent three-valued columns
# has, so the confidence test keeps some such rules and drops others
RULES = RuleConfig(0.34)


def _catalog(labels):
    """Catalog entries of the generated table, its columns in `labels`
    order: one value 0 for a constant column, else 0, 1 and 2."""
    sources = dict(map(reversed, CICY6_SCHEMA.columns))
    return tuple(
        (label, value)
        for label in labels
        for value in ((0,) if sources[label] in helpers.CICY6_CONSTANT else (0, 1, 2))
    )


@pytest.mark.parametrize("policy", ["drop_row", "partial_row"])
def test_paper_shaped_table_matches_the_oracle(tmp_path, policy):
    path = tmp_path / "cicy6.csv"
    incomplete = helpers.write_cicy6_shaped_csv(path, ROWS, SEED)
    assert 0.40 * ROWS < incomplete < 0.54 * ROWS
    stats: dict = {}
    db = load_csv(path, replace(CICY6_SCHEMA, missing_policy=policy), stats=stats)

    # Under drop_row every incomplete row goes, and the catalog is in schema
    # order. Under partial_row every row keeps h11 and the constants, and
    # the first row lacks the other four, so their columns come last.
    dropped = incomplete if policy == "drop_row" else 0
    kept = ROWS - dropped
    assert stats == {"rows_read": ROWS, "rows_dropped": dropped, "rows_kept": kept}
    assert db.total == kept
    labels = CICY6_SCHEMA.labels
    if policy == "partial_row":
        labels = tuple(f"item{column}" for column in (1, 2, 3, 4, 7, 5, 6, 8, 9))
    assert db.catalog.entries == _catalog(labels)
    assert len(db.catalog) == 19

    frequent = mine_frequent(db, MINING)
    assert frequent == brute_force_frequent(db, MINING)
    assert frequent.max_size == 4
    rules = generate_rules(frequent, RULES)
    assert rules == brute_force_rules(db, MINING, RULES)
    assert {rule.confidence == 1 for rule in rules} == {True, False}


def test_paper_shaped_clean_table_loads_alike_on_both_paths(tmp_path, monkeypatch):
    path = tmp_path / "cicy6.csv"
    assert helpers.write_cicy6_shaped_csv(path, ROWS, SEED, missing=0) == 0
    numpy_stats: dict = {}
    on_numpy = load_csv(path, CICY6_SCHEMA, stats=numpy_stats)

    # a marker that spells an integer sends the table down the streamed path
    streamed_calls = []
    csv_rows = ingest._csv_rows
    monkeypatch.setattr(
        ingest, "_csv_rows", lambda *args: streamed_calls.append(1) or csv_rows(*args)
    )
    forced = replace(CICY6_SCHEMA, missing_markers=DEFAULT_MISSING_MARKERS | {"-1"})
    streamed_stats: dict = {}
    streamed = load_csv(path, forced, stats=streamed_stats)
    assert streamed_calls == [1]
    assert streamed == on_numpy
    assert numpy_stats == {"rows_read": ROWS, "rows_dropped": 0, "rows_kept": ROWS}
    assert streamed_stats == numpy_stats
    assert on_numpy.catalog.entries == _catalog(CICY6_SCHEMA.labels)
