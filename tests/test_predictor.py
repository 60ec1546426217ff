from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from rulemine import (
    AssociationRule,
    ItemCatalog,
    Itemset,
    MiningConfig,
    PredictionError,
    RuleConfig,
    UnknownItemError,
    build_database,
    build_database_from_columns,
    compute_metrics,
    generate_rules,
    mine_frequent,
    predict,
)
from rulemine.rules import StoredRules


def _rule(lhs, lhs_count, rhs, rhs_count, joint, total):
    return AssociationRule(
        lhs=Itemset(tuple(lhs), lhs_count),
        rhs=Itemset(tuple(rhs), rhs_count),
        count=joint,
        **compute_metrics(lhs_count, rhs_count, joint, total)._asdict(),
    )


@pytest.fixture()
def headline_setup():
    """Two known items jointly pin the target almost surely.

    The database has item3=0 and item5=5 together in 2443 rows, 2429 of
    which also carry item1=3, so the witnessing rule has confidence
    2429/2443 = 0.994269..., which prints as 0.9943. Each single-item
    LHS is strictly weaker, so the pair must win the witness contest.
    """
    n = 12433
    item1 = [3 if t < 2429 or 6000 <= t < 8383 else 90 + t % 7 for t in range(n)]
    item3 = [0 if t < 2443 or t >= 9000 else 70 + t % 11 for t in range(n)]
    item5 = [5 if t < 3000 else 80 + t % 9 for t in range(n)]
    db = build_database_from_columns(
        {"item1": item1, "item3": item3, "item5": item5}
    )
    frequent = mine_frequent(db, MiningConfig(0.10))
    rules = generate_rules(frequent, RuleConfig(0.80))
    return db, rules


def test_headline_prediction(headline_setup):
    db, rules = headline_setup
    catalog = db.catalog
    known = [catalog.id_of("item3", 0), catalog.id_of("item5", 5)]
    predictions = predict(known, rules, "item1", catalog)
    assert predictions
    top = predictions[0]
    assert top.value == 3
    assert f"{top.confidence:.4f}" == "0.9943"
    witness = top.rule
    assert witness.lhs.count == 2443
    assert witness.count == 2429
    assert set(witness.lhs.items) == set(known)


def test_witness_prefers_confidence_over_support(headline_setup):
    db, rules = headline_setup
    catalog = db.catalog
    known = [catalog.id_of("item3", 0), catalog.id_of("item5", 5)]
    [top, *_] = predict(known, rules, "item1", catalog)
    # the single-item LHS {item5=5} also implies item1=3 but at lower
    # confidence (2429+ joint over 2443+... its lhs is wider); whatever
    # the pool offers, the chosen witness must be the confidence maximum
    candidates = [
        r
        for r in rules
        if r.rhs.items == (top.item,)
        and frozenset(r.lhs.items) <= frozenset(known)
    ]
    assert top.rule.confidence == max(r.confidence for r in candidates)


def test_empty_ruleset_gives_empty_answer(headline_setup):
    db, _ = headline_setup
    known = [db.catalog.id_of("item3", 0)]
    assert predict(known, [], "item1", db.catalog) == []


def test_unknown_target_column_gives_empty_answer(headline_setup):
    db, rules = headline_setup
    catalog = db.catalog
    known = [catalog.id_of("item3", 0)]
    assert predict(known, rules, "no_such_column", catalog) == []


def test_target_among_known_is_rejected(headline_setup):
    db, rules = headline_setup
    catalog = db.catalog
    known = [catalog.id_of("item1", 3)]
    with pytest.raises(PredictionError, match="item1"):
        predict(known, rules, "item1", catalog)


def test_unknown_item_ids_are_rejected(headline_setup):
    db, rules = headline_setup
    with pytest.raises(UnknownItemError):
        predict([10 ** 6], rules, "item1", db.catalog)
    with pytest.raises(UnknownItemError):
        predict([-1], rules, "item1", db.catalog)


def test_bool_item_ids_are_rejected():
    # bool is an int subclass, yet True and False name no item
    db = build_database_from_columns({"a": [3, 4, 3], "b": [1, 1, 2]})
    with pytest.raises(UnknownItemError):
        db.catalog.render(True)
    with pytest.raises(UnknownItemError):
        db.catalog.column(False)
    with pytest.raises(UnknownItemError):
        db.support_count([True])
    with pytest.raises(UnknownItemError):
        predict([True], [], "b", db.catalog)
    # nor do a mix of types, which sort cannot order, or a list, which
    # frozenset cannot hash
    with pytest.raises(UnknownItemError):
        db.support_count(["x", 1])
    with pytest.raises(UnknownItemError):
        predict([[1]], [], "a", db.catalog)


def test_functional_dependency_is_recovered():
    # b is a pure function of a; mining plus prediction must read it back
    rows = [(t, [("a", t % 3), ("b", t % 3 + 10)]) for t in range(30)]
    db = build_database(rows)
    frequent = mine_frequent(db, MiningConfig(0.2))
    rules = generate_rules(frequent, RuleConfig(0.9))
    catalog = db.catalog
    for residue in range(3):
        known = [catalog.id_of("a", residue)]
        predictions = predict(known, rules, "b", catalog)
        assert predictions[0].value == residue + 10
        assert predictions[0].confidence == 1.0


def test_non_singleton_rhs_rules_are_ignored():
    total = 100
    catalog_db = build_database(
        [(t, [("a", 1), ("b", 2), ("c", 3)]) for t in range(total)]
    )
    catalog = catalog_db.catalog
    a, b, c = (catalog.id_of(k, v) for k, v in (("a", 1), ("b", 2), ("c", 3)))
    wide = _rule([a], 100, [b, c], 100, 100, total)
    assert predict([a], [wide], "b", catalog) == []
    narrow = _rule([a], 100, [b], 100, 100, total)
    assert [p.value for p in predict([a], [narrow], "b", catalog)] == [2]


def test_lhs_must_be_contained_in_known():
    total = 50
    db = build_database(
        [(t, [("a", 1), ("b", 2), ("c", 3)]) for t in range(total)]
    )
    catalog = db.catalog
    a, b, c = (catalog.id_of(k, v) for k, v in (("a", 1), ("b", 2), ("c", 3)))
    needs_both = _rule([a, b] if a < b else [b, a], 50, [c], 50, 50, total)
    assert predict([a], [needs_both], "c", catalog) == []
    assert [p.value for p in predict([a, b], [needs_both], "c", catalog)] == [3]


def test_empty_lhs_rules_always_apply():
    total = 40
    db = build_database([(t, [("a", 1), ("b", 2)]) for t in range(total)])
    catalog = db.catalog
    b = catalog.id_of("b", 2)
    baseline = _rule([], total, [b], 38, 38, total)
    predictions = predict([], [baseline], "b", catalog)
    assert [p.value for p in predictions] == [2]
    assert predictions[0].confidence == 38 / 40


def test_candidates_rank_by_confidence_then_support_then_value():
    total = 100
    rows = []
    for t in range(total):
        rows.append((t, [("a", 1), ("b", t % 4)]))
    db = build_database(rows)
    catalog = db.catalog
    a = catalog.id_of("a", 1)
    ids = {v: catalog.id_of("b", v) for v in range(4)}
    rules = [
        _rule([a], 100, [ids[0]], 80, 80, total),  # confidence 0.80
        _rule([a], 100, [ids[1]], 60, 60, total),  # confidence 0.60
        _rule([], 100, [ids[2]], 60, 60, total),   # confidence 0.60, same
        _rule([a], 100, [ids[3]], 90, 90, total),  # confidence 0.90
    ]
    predictions = predict([a], rules, "b", catalog)
    assert [p.value for p in predictions] == [3, 0, 1, 2]
    # values 1 and 2 tie on confidence; support breaks the tie: both
    # witnesses have support 0.60 here, so ascending value decides
    assert predictions[2].value == 1 and predictions[3].value == 2


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
def test_tied_witnesses_rank_by_value_before_lhs_length(descending):
    # the larger value's witness has the shorter LHS; the catalog may list
    # the target's values in either order, so ids need not follow values
    values = (5, 2) if descending else (2, 5)
    catalog = ItemCatalog((("a", 1), ("b", 1), *(("c", v) for v in values)))
    c2, c5 = catalog.id_of("c", 2), catalog.id_of("c", 5)
    long_lhs = _rule([0, 1], 50, [c2], 40, 40, 100)
    short_lhs = _rule([0], 50, [c5], 40, 40, 100)
    assert (long_lhs.confidence, long_lhs.support) == (
        short_lhs.confidence, short_lhs.support
    )
    for rules in ([long_lhs, short_lhs], [short_lhs, long_lhs]):
        predictions = predict([0, 1], rules, "c", catalog)
        assert [(p.value, p.rule) for p in predictions] == [
            (2, long_lhs), (5, short_lhs)
        ]


def test_best_witness_per_candidate_wins():
    total = 100
    rows = [(t, [("a", 1), ("b", 2), ("c", 5)]) for t in range(total)]
    db = build_database(rows)
    catalog = db.catalog
    a = catalog.id_of("a", 1)
    b = catalog.id_of("b", 2)
    c = catalog.id_of("c", 5)
    weak = _rule([a, b] if a < b else [b, a], 100, [c], 90, 85, total)
    strong = _rule([a], 100, [c], 90, 88, total)
    predictions = predict([a, b], [weak, strong], "c", catalog)
    assert len(predictions) == 1
    assert predictions[0].rule == strong


def test_a_witness_tie_keeps_the_earlier_rule():
    # same LHS, confidence and support; only the lift differs, which the
    # witness rank does not read, so the rule first in order witnesses
    catalog = ItemCatalog((("a", 1), ("c", 5)))
    first = _rule([0], 100, [1], 90, 80, 200)
    second = _rule([0], 100, [1], 120, 80, 200)
    assert first.lift != second.lift
    for rules in ([first, second], [second, first]):
        (prediction,) = predict([0], rules, "c", catalog)
        assert prediction.rule is rules[0]


# Three columns of three values; ids 0-2 are a, 3-5 b, 6-8 c.
_CATALOG = ItemCatalog(tuple((column, value) for column in "abc" for value in range(3)))
_IDS = st.integers(0, len(_CATALOG) - 1)
_SIDE = st.lists(_IDS, unique=True, max_size=3).map(sorted)
# few metric values, so witnesses tie on confidence and support
_SHARES = st.sampled_from([0.25, 0.5, 1.0])


@st.composite
def _rule_objects(draw) -> list[dict]:
    """Checked rule objects: single- and multi-item RHSs, empty LHSs,
    LHSs holding an item of any column, and copies of a rule that differ
    only in a metric no witness test reads, in any file order."""
    rules = [
        {
            "lhs": draw(_SIDE),
            "rhs": draw(_SIDE.filter(bool)),
            "lhs_count": 4,
            "rhs_count": 4,
            "count": 2,
            "support": draw(_SHARES),
            "confidence": draw(_SHARES),
            "coverage": 0.5,
            "lift": draw(st.sampled_from([1.0, 2.0])),
            "conviction": draw(st.sampled_from([1.5, "inf"])),
            "leverage": 0.0,
        }
        for _ in range(draw(st.integers(0, 25)))
    ]
    copies = draw(st.lists(st.sampled_from(rules), max_size=6)) if rules else []
    lifts = st.sampled_from([1.0, 2.0, 3.0])
    rules += [{**rule, "lift": draw(lifts)} for rule in copies]
    return draw(st.permutations(rules))


@st.composite
def _queries(draw) -> tuple[list[int], str, list[int]]:
    """(known ids, target column, the column's ids in any order, some
    twice); the known ids may hold an item of the target column."""
    known = draw(st.lists(_IDS, unique=True, max_size=4))
    target = draw(st.sampled_from(["a", "b", "c", "no_such_column"]))
    column = [item for item, (name, _) in enumerate(_CATALOG) if name == target]
    twice = draw(st.lists(st.sampled_from(column), max_size=2)) if column else []
    return known, target, draw(st.permutations(column + twice))


def _answer(known, rules, target):
    try:
        return predict(known, rules, target, _CATALOG)
    except PredictionError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(objects=_rule_objects(), queries=st.lists(_queries(), min_size=1, max_size=6))
def test_rules_narrowed_to_the_voters_predict_as_all_rules(objects, queries):
    # one StoredRules answers every query, so later calls reuse its index
    stored = StoredRules(objects)
    every = tuple(stored)
    for known, target, targets in queries:
        voters = stored.with_single_rhs_in(targets, known)
        assert _answer(known, voters, target) == _answer(known, every, target)
        assert voters == tuple(
            rule
            for rule in every
            if len(rule.rhs.items) == 1
            and rule.rhs.items[0] in targets
            and set(rule.lhs.items) <= set(known)
        )


def test_threads_indexing_one_rule_set_at_once_each_see_every_voter():
    # the first call builds the index of rules by RHS item; threads that
    # call at once may each build one, but none may read one half filled
    objects = [
        {"lhs": [n % 3] if n % 4 else [], "rhs": [n % 9] if n % 5 else [3, 6]}
        for n in range(4000)
    ]
    targets, known = range(3, 9), [0, 1]
    voters = sum(
        len(rule["rhs"]) == 1 and rule["rhs"][0] in targets and set(rule["lhs"]) <= set(known)
        for rule in objects
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            stored, start = StoredRules(objects), threading.Barrier(4)

            def count_voters(_) -> int:
                start.wait(timeout=60)
                return len(stored.with_single_rhs_in(targets, known))

            with ThreadPoolExecutor(4) as pool:
                assert list(pool.map(count_voters, range(4), timeout=60)) == [voters] * 4
    finally:
        sys.setswitchinterval(interval)
