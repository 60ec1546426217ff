from __future__ import annotations

import math
import os
import tempfile
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from rulemine import (
    Itemset,
    MiningConfig,
    RuleConfig,
    Transaction,
    brute_force_frequent,
    brute_force_rules,
    build_database,
    candidate_gen,
    compute_metrics,
    count_candidates,
    export_transactions,
    generate_rules,
    load_transactions,
    mine_frequent,
    predict,
    read_rules_json,
    write_rules_json,
)

# items are (column, value) pairs over a small universe so that random
# rows collide often enough to make itemsets frequent
_ITEM_POOL = [(f"c{j}", v) for j in range(4) for v in range(3)]

table_rows = st.lists(
    st.frozensets(st.sampled_from(_ITEM_POOL), max_size=6),
    min_size=1,
    max_size=24,
)


def _to_database(rows):
    return build_database([(tid, sorted(items)) for tid, items in enumerate(rows)])


databases = table_rows.map(_to_database)

supports = st.sampled_from((0.1, 0.3, 0.5, 0.75, 1.0))
confidences = st.sampled_from((0.5, 0.8, 1.0))


@settings(max_examples=60, deadline=None)
@given(rows=table_rows)
def test_derived_transactions_are_the_input_rows(rows):
    # the oracle scans db.transactions, which the database unpacks from
    # its bitmaps; pin them to the raw rows
    db = _to_database(rows)
    assert db.transactions == tuple(
        Transaction(tid, tuple(sorted({db.catalog.id_of(c, v) for c, v in items})))
        for tid, items in enumerate(rows)
    )


@settings(max_examples=60, deadline=None)
@given(db=databases, min_support=supports)
def test_miner_matches_oracle(db, min_support):
    config = MiningConfig(min_support)
    assert mine_frequent(db, config) == brute_force_frequent(db, config)


@settings(max_examples=40, deadline=None)
@given(
    db=databases,
    min_support=supports,
    min_confidence=confidences,
    include_empty=st.booleans(),
    singleton=st.booleans(),
)
def test_rules_match_oracle(db, min_support, min_confidence, include_empty, singleton):
    mining = MiningConfig(min_support)
    rule_config = RuleConfig(
        min_confidence,
        include_empty_lhs=include_empty,
        singleton_rhs=singleton,
    )
    expected = brute_force_rules(db, mining, rule_config)
    actual = generate_rules(mine_frequent(db, mining), rule_config)
    assert actual == expected


@settings(max_examples=60, deadline=None)
@given(db=databases, min_support=supports)
def test_downward_closure_and_antimonotonicity(db, min_support):
    frequent = mine_frequent(db, MiningConfig(min_support))
    counts = frequent.counts()
    for itemset in frequent:
        items = itemset.items
        if len(items) < 2:
            continue
        for drop in range(len(items)):
            subset = items[:drop] + items[drop + 1 :]
            assert subset in counts
            assert itemset.count <= counts[subset]


@settings(max_examples=60, deadline=None)
@given(db=databases, min_support=supports)
def test_candidates_cover_next_level(db, min_support):
    frequent = mine_frequent(db, MiningConfig(min_support))
    for k in range(2, frequent.max_size + 1):
        candidates = {c.items for c in candidate_gen(frequent.levels[k - 1])}
        assert {s.items for s in frequent.levels[k]} <= candidates


@settings(max_examples=40, deadline=None)
@given(db=databases)
def test_raising_support_shrinks_the_result(db):
    loose = {s.items for s in mine_frequent(db, MiningConfig(0.2))}
    tight = {s.items for s in mine_frequent(db, MiningConfig(0.6))}
    assert tight <= loose


@settings(max_examples=25, deadline=None)
@given(db=databases, min_support=supports)
def test_parallel_counting_equals_serial(db, min_support):
    frequent = mine_frequent(db, MiningConfig(min_support), workers=1)
    forked = mine_frequent(db, MiningConfig(min_support), workers=3)
    assert frequent == forked


@st.composite
def counting_cases(draw):
    """A database and candidates of mixed sizes: first in sorted order, so
    shared prefixes form runs, then the same ones shuffled, so a prefix
    recurs in several separate runs."""
    db = draw(databases)
    assume(len(db.catalog) > 0)
    ids = st.sets(st.integers(0, len(db.catalog) - 1), min_size=1, max_size=5)
    keys = draw(st.lists(ids.map(lambda s: tuple(sorted(s))), max_size=16))
    shuffled = draw(st.permutations(keys))
    return db, [Itemset(key) for key in sorted(keys) + shuffled]


@settings(max_examples=80, deadline=None)
@given(case=counting_cases())
def test_count_candidates_matches_support_count(case):
    db, candidates = case
    assert count_candidates(db, candidates) == [
        Itemset(c.items, db.support_count(c.items)) for c in candidates
    ]


@settings(max_examples=40, deadline=None)
@given(db=databases)
def test_export_load_round_trip(db):
    fd, path = tempfile.mkstemp(suffix=".txt")
    os.close(fd)
    try:
        export_transactions(db, path)
        assert load_transactions(path) == db
    finally:
        os.unlink(path)


@settings(max_examples=25, deadline=None)
@given(db=databases, min_support=supports, min_confidence=confidences)
def test_rules_json_round_trip(db, min_support, min_confidence):
    frequent = mine_frequent(db, MiningConfig(min_support))
    rules = generate_rules(frequent, RuleConfig(min_confidence))
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        write_rules_json(rules, db.catalog, frequent.total, path)
        document = read_rules_json(path)
    finally:
        os.unlink(path)
    assert document.rules == tuple(rules)
    assert document.total == frequent.total
    assert document.catalog == db.catalog


@st.composite
def count_tuples(draw):
    total = draw(st.integers(min_value=1, max_value=10 ** 6))
    lhs = draw(st.integers(min_value=1, max_value=total))
    rhs = draw(st.integers(min_value=1, max_value=total))
    joint = draw(st.integers(min_value=0, max_value=min(lhs, rhs)))
    return lhs, rhs, joint, total


def _close(value: float, exact: Fraction) -> bool:
    if exact == 0:
        return abs(value) <= 1e-12
    return abs(value - float(exact)) <= 1e-12 * abs(float(exact))


@settings(max_examples=300, deadline=None)
@given(counts=count_tuples())
def test_metric_identities_against_exact_arithmetic(counts):
    lhs, rhs, joint, total = counts
    m = compute_metrics(lhs, rhs, joint, total)
    assert _close(m.support, Fraction(joint, total))
    assert _close(m.confidence, Fraction(joint, lhs))
    assert _close(m.coverage, Fraction(lhs, total))
    assert _close(m.lift, Fraction(joint * total, lhs * rhs))
    assert _close(m.leverage, Fraction(joint * total - lhs * rhs, total * total))
    if joint == lhs:
        assert m.conviction == (1.0 if rhs == total else math.inf)
    else:
        assert _close(
            m.conviction, Fraction((total - rhs) * lhs, (lhs - joint) * total)
        )


@settings(max_examples=25, deadline=None)
@given(db=databases, min_confidence=confidences)
def test_predictions_are_witnessed_and_ranked(db, min_confidence):
    catalog = db.catalog
    if not catalog.columns:  # all transactions empty: nothing to predict
        return
    frequent = mine_frequent(db, MiningConfig(0.2))
    rules = generate_rules(frequent, RuleConfig(min_confidence))
    target = catalog.columns[0]
    for known_id in range(len(catalog)):
        if catalog.column(known_id) == target:
            continue
        known = frozenset((known_id,))
        predictions = predict(known, rules, target, catalog)
        ranks = [(-p.confidence, -p.support, p.value) for p in predictions]
        assert ranks == sorted(ranks)
        assert len({p.value for p in predictions}) == len(predictions)
        for p in predictions:
            witness = p.rule
            assert witness.rhs.items == (p.item,)
            assert catalog.column(p.item) == target
            assert frozenset(witness.lhs.items) <= known
            matching = [
                r
                for r in rules
                if r.rhs.items == (p.item,)
                and frozenset(r.lhs.items) <= known
            ]
            assert witness.confidence == max(r.confidence for r in matching)
