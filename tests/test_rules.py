from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rulemine import (
    ORDERINGS,
    AssociationRule,
    ConfigError,
    FrequentSets,
    FrequentSetError,
    IngestError,
    ItemCatalog,
    Itemset,
    MetricError,
    Metrics,
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
    read_rules_json,
    render_rule,
    render_side,
    write_itemsets,
    write_rules_csv,
    write_rules_json,
)
from rulemine import cli
from rulemine import rules as rules_module
from rulemine.miner import meets_threshold
from rulemine.oracle import brute_force_rules
from rulemine.rules import CSV_COLUMNS, CSV_COLUMNS_EXTENDED, rule_rows


def test_reference_metric_block():
    m = compute_metrics(1358, 4812, 1312, 12433)
    assert m.support == 1312 / 12433
    assert m.confidence == 1312 / 1358
    assert m.coverage == 1358 / 12433
    assert m.lift == 1312 * 12433 / (1358 * 4812)
    # the four published decimals
    assert f"{m.support:.4f}" == "0.1055"
    assert f"{m.confidence:.4f}" == "0.9661"
    assert f"{m.coverage:.4f}" == "0.1092"
    assert f"{m.lift:.4f}" == "2.4962"


def test_empty_lhs_metrics_are_exact():
    for rhs in (1, 7, 4812, 12433):
        m = compute_metrics(12433, rhs, rhs, 12433)
        assert m.confidence == m.support
        assert m.coverage == 1.0
        assert m.lift == 1.0
        assert m.leverage == 0.0


def test_conviction_cases():
    assert compute_metrics(5, 5, 5, 10).conviction == math.inf
    assert compute_metrics(5, 10, 5, 10).conviction == 1.0
    finite = compute_metrics(4, 6, 3, 10).conviction
    assert finite == 1.6
    exact = Fraction((10 - 6) * 4, (4 - 3) * 10)
    assert finite == pytest.approx(float(exact), rel=1e-12)
    # independence means conviction 1 regardless of counts
    assert compute_metrics(5, 4, 2, 10).conviction == 1.0


def test_negative_dependence_has_conviction_below_one():
    m = compute_metrics(5, 8, 3, 10)
    assert m.conviction < 1.0
    assert m.lift < 1.0
    assert m.leverage < 0.0


def test_metric_validation():
    with pytest.raises(MetricError, match="joint_count <= lhs_count"):
        compute_metrics(3, 5, 4, 10)
    with pytest.raises(MetricError, match="joint_count <= rhs_count"):
        compute_metrics(5, 3, 4, 10)
    with pytest.raises(MetricError, match="lhs_count, rhs_count <= total"):
        compute_metrics(11, 3, 2, 10)
    with pytest.raises(MetricError, match="lhs_count >= 1"):
        compute_metrics(0, 3, 0, 10)
    with pytest.raises(MetricError, match="rhs_count >= 1"):
        compute_metrics(3, 0, 0, 10)
    with pytest.raises(MetricError, match="total >= 1"):
        compute_metrics(1, 1, 1, 0)
    with pytest.raises(MetricError, match="must be an int"):
        compute_metrics(3.0, 5, 2, 10)
    with pytest.raises(MetricError, match="must be an int"):
        compute_metrics(True, 5, 1, 10)


def test_metric_validation_rejects_a_negative_joint_count():
    with pytest.raises(MetricError, match="joint_count >= 0"):
        compute_metrics(3, 5, -1, 10)


def _mined_rules(db, min_support=0.5, **rule_kwargs):
    frequent = mine_frequent(db, MiningConfig(min_support))
    return generate_rules(frequent, RuleConfig(**rule_kwargs))


def test_uniform_db_rule_list(uniform_ab_db):
    rules = _mined_rules(uniform_ab_db, min_confidence=0.8)
    catalog = uniform_ab_db.catalog
    assert [render_rule(r, catalog) for r in rules] == [
        "{} => {a=1}",
        "{} => {a=1,b=1}",
        "{} => {b=1}",
        "{a=1} => {b=1}",
        "{b=1} => {a=1}",
    ]
    for rule in rules:
        assert rule.count == 4
        assert rule.support == 1.0
        assert rule.confidence == 1.0
        assert rule.lift == 1.0
        assert rule.conviction == 1.0  # consequent is universal here
        assert rule.leverage == 0.0
    assert rules[0].lhs.count == 4  # empty LHS carries the total


def test_exclude_empty_lhs(uniform_ab_db):
    rules = _mined_rules(uniform_ab_db, min_confidence=0.8, include_empty_lhs=False)
    catalog = uniform_ab_db.catalog
    assert [render_rule(r, catalog) for r in rules] == [
        "{a=1} => {b=1}",
        "{b=1} => {a=1}",
    ]


def test_singleton_rhs_filter(uniform_ab_db):
    rules = _mined_rules(uniform_ab_db, min_confidence=0.8, singleton_rhs=True)
    assert all(len(r.rhs.items) == 1 for r in rules)
    assert len(rules) == 4  # drops only {} => {a=1,b=1}


def test_bipartition_counts():
    rows = [(t, [("a", 1), ("b", 1), ("c", 1)]) for t in range(4)]
    db = build_database(rows)
    every = _mined_rules(db, min_confidence=0.5)
    # one frequent set per subset: 3 singles, 3 pairs, 1 triple
    assert len(every) == 3 * 1 + 3 * 3 + 1 * 7
    proper = _mined_rules(db, min_confidence=0.5, include_empty_lhs=False)
    assert len(proper) == 3 * 0 + 3 * 2 + 1 * 6


def test_confidence_threshold_is_epsilon_safe():
    # {a=1} => {b=1} has confidence exactly 2/3
    rows = [
        (0, [("a", 1), ("b", 1)]),
        (1, [("a", 1), ("b", 1)]),
        (2, [("a", 1)]),
    ]
    db = build_database(rows)
    frequent = mine_frequent(db, MiningConfig(0.5))
    catalog = db.catalog

    kept = generate_rules(frequent, RuleConfig(min_confidence=2 / 3))
    assert "{a=1} => {b=1}" in [render_rule(r, catalog) for r in kept]

    dropped = generate_rules(frequent, RuleConfig(min_confidence=0.67))
    assert "{a=1} => {b=1}" not in [render_rule(r, catalog) for r in dropped]


def test_ordering_policies():
    rows = [(t, [("a", 1), ("b", 1), ("c", 1)][: 1 + t % 3]) for t in range(9)]
    db = build_database(rows)
    frequent = mine_frequent(db, MiningConfig(0.3))
    default = generate_rules(frequent, RuleConfig(0.3))
    assert default == sorted(default, key=ORDERINGS["default"])
    for name in ("confidence", "support"):
        ordered = generate_rules(frequent, RuleConfig(0.3, ordering=name))
        assert ordered == sorted(default, key=ORDERINGS[name])
        assert sorted(ordered, key=ORDERINGS["default"]) == default


@pytest.mark.parametrize("ordering", ["lexical", ["default"], None])
def test_unknown_ordering_rejected(ordering):
    message = "--ordering must be one of: confidence, default, support"
    with pytest.raises(ConfigError, match=message):
        RuleConfig(0.8, ordering=ordering)


@pytest.mark.parametrize("min_confidence", [0.0, 1.2, True])
def test_min_confidence_validation(min_confidence):
    with pytest.raises(ConfigError, match=r"min-confidence must lie in \(0,1\]"):
        RuleConfig(min_confidence)
    RuleConfig(1.0)


@pytest.mark.parametrize("flag", ["include_empty_lhs", "singleton_rhs"])
@pytest.mark.parametrize("value", ["no", 1, 0, None])
def test_rule_config_flags_must_be_bools(flag, value):
    with pytest.raises(ConfigError, match=f"{flag} must be true or false"):
        RuleConfig(0.8, **{flag: value})
    RuleConfig(0.8, **{flag: False})


def test_rules_require_counts():
    frequent = FrequentSets(((), (Itemset((0,), None),)), 4)
    with pytest.raises(FrequentSetError, match="has no count"):
        generate_rules(frequent, RuleConfig(0.5))


def test_rules_require_downward_closure():
    levels = ((), (Itemset((0,), 3),), (Itemset((0, 1), 2),))
    frequent = FrequentSets(levels, 4)
    with pytest.raises(FrequentSetError, match="not downward closed"):
        generate_rules(frequent, RuleConfig(0.5))


def test_rules_reject_count_out_of_range():
    frequent = FrequentSets(((), (Itemset((0,), 9),)), 4)
    with pytest.raises(FrequentSetError, match="outside"):
        generate_rules(frequent, RuleConfig(0.5))


def _pair_sets(count_a, count_b, joint, total=4):
    """Frequent sets {a}, {b}, {a,b} with the given counts."""
    levels = ((), (Itemset((0,), count_a), Itemset((1,), count_b)), (Itemset((0, 1), joint),))
    return FrequentSets(levels, total)


@pytest.mark.parametrize(
    "frequent, error, match",
    [
        # the joint count exceeds the lhs count of {b} => {a} ...
        (_pair_sets(4, 3, 4), MetricError, r"joint_count <= lhs_count: itemset \(0, 1\)"),
        # ... or its rhs count, which is the lhs count of {a} => {b}
        (_pair_sets(3, 4, 4), MetricError, r"joint_count <= lhs_count: itemset \(0, 1\)"),
        # {a} => {b} with lhs count 0 clears any confidence
        (_pair_sets(0, 2, 0), MetricError, r"lhs_count, rhs_count >= 1: itemset \(0, 1\)"),
        (_pair_sets(2, 2.0, 2), FrequentSetError, r"count 2\.0 of itemset \(1,\) is not an int"),
        (_pair_sets(True, 2, 1), FrequentSetError, r"count True of itemset \(0,\) is not an int"),
    ],
)
def test_rules_reject_impossible_counts(frequent, error, match):
    with pytest.raises(error, match=match):
        generate_rules(frequent, RuleConfig(0.5))


def test_rules_reject_a_consequent_of_count_0():
    # only a confidence below the epsilon keeps a rule of joint count 0
    with pytest.raises(MetricError, match="rhs_count >= 1"):
        generate_rules(_pair_sets(2, 0, 0), RuleConfig(1e-10))


def test_rule_sides_are_the_mined_itemsets(cicy5_db):
    frequent = mine_frequent(cicy5_db, MiningConfig(0.10))
    mined = {itemset.items: itemset for itemset in frequent}
    rules = generate_rules(frequent, RuleConfig(0.5, include_empty_lhs=False))
    assert rules
    for rule in rules:
        assert rule.lhs is mined[rule.lhs.items]
        assert rule.rhs is mined[rule.rhs.items]


def _keeps_pair_rule(joint, lhs_count, total, min_confidence):
    """Whether generate_rules keeps {a=1} => {b=1} on a table where the pair
    has this joint count and {a=1} this lhs count; the rules must equal the
    oracle's."""
    rows = [[("a", 1), ("b", 1)]] * joint + [[("a", 1)]] * (lhs_count - joint)
    rows += [[("c", 1)]] * (total - len(rows))
    db = build_database(enumerate(rows))
    mining, config = MiningConfig(0.05), RuleConfig(min_confidence)
    rules = generate_rules(mine_frequent(db, mining), config)
    assert rules == brute_force_rules(db, mining, config)
    return "{a=1} => {b=1}" in [render_rule(rule, db.catalog) for rule in rules]


@pytest.mark.parametrize("min_confidence", [0.1, 0.3, 2 / 3, 0.76, 0.9, 1.0, 1e-10, 1e-12])
def test_largest_lhs_count_is_where_meets_threshold_stops(min_confidence):
    # joint count 3 of 40 rows; every lhs count from 3 to 40
    joint, total = 3, 40
    for lhs_count in range(joint, total + 1):
        assert _keeps_pair_rule(joint, lhs_count, total, min_confidence) is (
            meets_threshold(joint, lhs_count, min_confidence)
        )


@pytest.mark.parametrize("lhs_count, kept", [(29, True), (30, True), (31, False)])
def test_confidence_bound_on_the_epsilon_boundary(lhs_count, kept):
    # {a=1} => {b=1} has joint count 3; at lhs count 30 its confidence is
    # exactly the threshold 0.1
    assert _keeps_pair_rule(3, lhs_count, 40, 0.1) is kept is meets_threshold(3, lhs_count, 0.1)


def test_confidence_on_the_threshold_despite_float_noise():
    # 0.28 * 25 is 7.000000000000001, so a plain lhs_count * min_confidence
    # <= joint drops this rule of confidence exactly 0.28; 24 and 26 bracket it
    assert [_keeps_pair_rule(7, lhs_count, 40, 0.28) for lhs_count in (24, 25, 26)] == [
        True, True, False
    ]


def _rule(lhs, rhs):
    metrics = compute_metrics(3, 3, 3, 4)
    return AssociationRule(Itemset(lhs, 3), Itemset(rhs, 3), 3, *metrics)


_WRITERS = {
    "csv": lambda rules, catalog, path: write_rules_csv(rules, catalog, path),
    "json": lambda rules, catalog, path: write_rules_json(rules, catalog, 4, path),
    "rule_rows": lambda rules, catalog, path: list(rule_rows(rules, catalog, 4, True)),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("bad", [2, -1, True, 1.0, "0"])
def test_writers_reject_an_id_outside_the_catalog(tmp_path, writer, bad):
    # the bad side repeats, and the writer is called twice: no rendered
    # side is reused without its check
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    rules = [_rule((0,), (1,)), _rule((bad,), (1,)), _rule((bad,), (1,))]
    for _ in range(2):
        with pytest.raises(UnknownItemError, match="unknown item id"):
            _WRITERS[writer](rules, catalog, tmp_path / "rules")
        with pytest.raises(UnknownItemError, match="unknown item id"):
            _WRITERS[writer](rules[:1] + [_rule((0,), (bad,))], catalog, tmp_path / "rules")


@pytest.mark.parametrize("writer, named", [("csv", 5), ("rule_rows", 5), ("json", 7)])
def test_writers_name_the_first_bad_side_they_meet(tmp_path, writer, named):
    # rule 0's RHS and rule 1's LHS hold ids outside the catalog: the rules
    # table renders each rule's LHS then its RHS, rule by rule, so it meets
    # rule 0's first; rules.json renders every LHS, then every RHS
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    rules = [_rule((0,), (5,)), _rule((7,), (1,))]
    with pytest.raises(UnknownItemError, match=rf"^unknown item id {named}$"):
        _WRITERS[writer](rules, catalog, tmp_path / "rules")


@pytest.mark.parametrize("bad", [2, -1, True])
def test_write_itemsets_rejects_an_id_outside_the_catalog(tmp_path, bad):
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    frequent = FrequentSets(((), (Itemset((0,), 3), Itemset((bad,), 3))), 4)
    with pytest.raises(UnknownItemError, match="unknown item id"):
        write_itemsets(frequent, catalog, tmp_path / "itemsets.csv")


@pytest.mark.parametrize("writer", ["csv", "json"])
def test_writers_take_list_sides(tmp_path, writer):
    catalog = ItemCatalog((("a", 1), ("b", 1), ("c", 1)))
    a, bc = [0], [1, 2]  # each list is the side of two rules
    lists = [_rule(a, bc), _rule([], [1]), _rule(a, bc)]
    tuples = [_rule((0,), (1, 2)), _rule((), (1,)), _rule((0,), (1, 2))]
    _WRITERS[writer](lists, catalog, tmp_path / "lists")
    _WRITERS[writer](tuples, catalog, tmp_path / "tuples")
    assert (tmp_path / "lists").read_bytes() == (tmp_path / "tuples").read_bytes()


def test_write_rules_csv_exact_bytes(tmp_path, uniform_ab_db):
    rules = _mined_rules(uniform_ab_db, min_confidence=0.8)
    path = tmp_path / "rules.csv"
    write_rules_csv(rules, uniform_ab_db.catalog, path)
    assert path.read_text(encoding="utf-8") == (
        "rule,LHS,RHS,support,confidence,coverage,lift,count\n"
        "1,{},{a=1},1.0000,1.0000,1.0000,1.0000,4\n"
        '2,{},"{a=1,b=1}",1.0000,1.0000,1.0000,1.0000,4\n'
        "3,{},{b=1},1.0000,1.0000,1.0000,1.0000,4\n"
        "4,{a=1},{b=1},1.0000,1.0000,1.0000,1.0000,4\n"
        "5,{b=1},{a=1},1.0000,1.0000,1.0000,1.0000,4\n"
    )


def test_rule_rows_extended_renders_inf():
    rows = [
        (0, [("a", 1), ("b", 1)]),
        (1, [("a", 1), ("b", 1)]),
        (2, [("a", 1), ("b", 1)]),
        (3, [("c", 1)]),
    ]
    db = build_database(rows)
    rules = _mined_rules(db, min_confidence=0.8)
    cells = ["0.7500", "1.0000", "0.7500", "1.3333", "3", "inf", "0.1875"]
    assert list(rule_rows(rules, db.catalog, 4, True)) == [
        ["1", "{a=1}", "{b=1}", *cells],
        ["2", "{b=1}", "{a=1}", *cells],
    ]


def test_csv_precision_parameter(tmp_path, uniform_ab_db):
    rules = _mined_rules(uniform_ab_db, min_confidence=0.8)
    path = tmp_path / "rules.csv"
    write_rules_csv(rules[:1], uniform_ab_db.catalog, path, precision=2)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "1,{},{a=1},1.00,1.00,1.00,1.00,4"


def test_json_round_trip(tmp_path):
    rows = [
        (0, [("a", 1), ("b", 1)]),
        (1, [("a", 1), ("b", 1)]),
        (2, [("a", 1), ("b", 1)]),
        (3, [("c", 1)]),
    ]
    db = build_database(rows)
    frequent = mine_frequent(db, MiningConfig(0.5))
    rules = generate_rules(frequent, RuleConfig(0.8))
    assert any(math.isinf(r.conviction) for r in rules)

    path = tmp_path / "rules.json"
    write_rules_json(
        rules,
        db.catalog,
        frequent.total,
        path,
        column_sources={"a": "h11"},
        mining={"min_support": 0.5},
        rule_config={"min_confidence": 0.8},
    )
    document = read_rules_json(path)
    assert document.total == 4
    assert document.catalog == db.catalog
    assert document.rules == tuple(rules)
    assert document.column_sources == {"a": "h11"}
    assert document.mining == {"min_support": 0.5}
    assert document.rule_config == {"min_confidence": 0.8}


def test_json_keeps_full_precision(tmp_path, cicy5_db):
    frequent = mine_frequent(cicy5_db, MiningConfig(0.10))
    rules = generate_rules(frequent, RuleConfig(0.80))
    path = tmp_path / "rules.json"
    write_rules_json(rules, cicy5_db.catalog, frequent.total, path)
    document = read_rules_json(path)
    assert document.rules == tuple(rules)  # float equality, not approx


def test_stored_rules_index_as_a_tuple_does(tmp_path, cicy5_db):
    path = tmp_path / "rules.json"
    rules = _write_rules(path, cicy5_db, 0.80)
    stored = read_rules_json(path).rules
    assert len(rules) >= 2
    for index in (0, 1, len(rules) - 1, -1, -len(rules)):
        assert stored[index] == rules[index]
    for index in (len(rules), -len(rules) - 1):
        with pytest.raises(IndexError):
            stored[index]


def test_stored_rules_are_unequal_to_a_foreign_type(tmp_path, cicy5_db):
    path = tmp_path / "rules.json"
    rules = _write_rules(path, cicy5_db, 0.80)
    stored = read_rules_json(path).rules
    assert stored == rules
    for other in (list(rules), None, "rules"):
        assert stored.__eq__(other) is NotImplemented
        assert stored != other
        assert not stored == other


def _write_rules(path, db, min_confidence: float, **header) -> tuple:
    """Write the rules of db at support 0.10 and min_confidence; return them."""
    frequent = mine_frequent(db, MiningConfig(0.10))
    rules = tuple(generate_rules(frequent, RuleConfig(min_confidence)))
    write_rules_json(rules, db.catalog, frequent.total, path, **header)
    return rules


def test_a_rewrite_with_the_old_size_and_mtime_is_read_anew(tmp_path, cicy5_db):
    # the kept document is found by the file's whole contents, so neither
    # size, mtime nor inode can make a rewritten file read as the old one
    path = tmp_path / "rules.json"
    rules = _write_rules(path, cicy5_db, 0.80, mining={"min_support": 0.5})
    assert read_rules_json(path).mining == {"min_support": 0.5}
    before = path.stat()
    path.write_bytes(path.read_bytes().replace(b'"min_support": 0.5', b'"min_support": 0.6'))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        before.st_size, before.st_mtime_ns, before.st_ino
    )
    document = read_rules_json(path)
    assert document.mining == {"min_support": 0.6}
    assert document.rules == rules
    swapped = tmp_path / "swapped.json"
    fewer = _write_rules(swapped, cicy5_db, 0.95)
    os.replace(swapped, path)
    assert len(fewer) < len(rules)
    assert read_rules_json(path).rules == fewer


def test_files_with_the_same_bytes_read_alike(tmp_path, cicy5_db):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    _write_rules(one, cicy5_db, 0.80, column_sources={"item1": "h11"})
    two.write_bytes(one.read_bytes())
    assert read_rules_json(one) == read_rules_json(two)
    assert read_rules_json(two) == read_rules_json(one)


def test_a_kept_document_equals_a_fresh_parse(tmp_path, cicy5_db, monkeypatch):
    path, copy = tmp_path / "rules.json", tmp_path / "copy.json"
    header = {
        "column_sources": {"item1": "h11"},
        "mining": {"min_support": 0.1},
        "rule_config": {"min_confidence": 0.8},
    }
    _write_rules(path, cicy5_db, 0.80, **header)
    copy.write_bytes(path.read_bytes())
    first = read_rules_json(path)
    kept = read_rules_json(path)
    assert kept.catalog is first.catalog  # not parsed again
    monkeypatch.setattr(rules_module, "_last_read", None)
    fresh = read_rules_json(copy)
    assert fresh.catalog is not kept.catalog
    assert kept == fresh
    assert tuple(kept.rules) == tuple(fresh.rules) and kept.total == fresh.total
    assert (kept.column_sources, kept.mining, kept.rule_config) == tuple(header.values())


@pytest.mark.parametrize(
    "bad, message",
    [
        (b"{", "not valid JSON: Expecting property name"),
        (b"\xff", "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"catalog": ["a=1"], "total": 1, "rules": [1]}', "rule 0: malformed rules document"),
    ],
    ids=["json", "utf8", "rule"],
)
def test_a_malformed_file_fails_every_read(tmp_path, cicy5_db, bad, message):
    good, path = tmp_path / "good.json", tmp_path / "rules.json"
    rules = _write_rules(good, cicy5_db, 0.80)
    path.write_bytes(good.read_bytes())
    assert read_rules_json(path).rules == rules
    path.write_bytes(bad)  # the same path, straight after a good read
    for _ in range(2):
        with pytest.raises(IngestError) as failure:
            read_rules_json(path)
        assert str(failure.value).startswith(f"{path}: {message}")
        assert read_rules_json(good).rules == rules
    path.write_bytes(good.read_bytes())
    assert read_rules_json(path).rules == rules


def test_a_file_with_faults_in_two_rules_names_the_first_rule(tmp_path):
    # rule 1's lhs is no list, a fault of an earlier key than rule 0's
    # leverage; the rules are walked in order, so rule 0 is named
    rule = {
        "lhs": [0], "rhs": [1], "lhs_count": 4, "rhs_count": 4, "count": 4,
        "support": 1.0, "confidence": 1.0, "coverage": 1.0, "lift": 1.0,
        "conviction": 1.0, "leverage": 0.0,
    }  # fmt: skip
    rules = [{**rule, "leverage": None}, {**rule, "lhs": 0}]
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"total": 4, "catalog": ["a=1", "b=1"], "rules": rules}))
    with pytest.raises(IngestError) as failure:
        read_rules_json(path)
    assert str(failure.value) == f"{path}: rule 0: leverage must be a number, got None"


def test_changes_to_a_document_do_not_reach_the_next_read(tmp_path):
    path = tmp_path / "rules.json"
    header = {
        "column_sources": {"a": ["h11", {"deep": 1}]},
        "mining": {"min_support": 0.5, "nested": {"list": [1, 2]}},
        "rule_config": {"orderings": ["default"]},
    }
    document = {"catalog": ["a=1"], "total": 1, **header, "rules": []}
    path.write_text(json.dumps(document), encoding="utf-8")
    for _ in range(2):
        document = read_rules_json(path)
        assert (
            document.column_sources, document.mining, document.rule_config
        ) == tuple(header.values())
        document.column_sources["a"][1]["deep"] = 2
        document.column_sources["b"] = "h12"
        document.mining["nested"]["list"].append(3)
        document.mining["min_support"] = 0.9
        document.rule_config["orderings"].clear()
        with pytest.raises(TypeError):
            document.rules[0] = None


def test_threads_reading_two_files_get_their_own_documents(tmp_path, cicy5_db):
    paths = [tmp_path / "many.json", tmp_path / "few.json"]
    expected = {
        paths[0]: _write_rules(paths[0], cicy5_db, 0.80),
        paths[1]: _write_rules(paths[1], cicy5_db, 0.95),
    }

    def read_alternately(start: int) -> list:
        order = paths[start:] + paths[:start]
        return [
            read_rules_json(path).rules == expected[path]
            for _ in range(10)
            for path in order
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            answers = list(pool.map(read_alternately, [0, 1, 0, 1], timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert answers == [[True] * 20] * 4


def test_render_side_and_rule(cicy5_db):
    catalog = cicy5_db.catalog
    a = catalog.id_of("item5", 4)
    b = catalog.id_of("item1", 3)
    assert render_side((), catalog) == "{}"
    assert render_side((a,), catalog) == "{item5=4}"
    rule = AssociationRule(
        lhs=Itemset((a,), 1358),
        rhs=Itemset((b,), 4812),
        count=1312,
        **compute_metrics(1358, 4812, 1312, 12433)._asdict(),
    )
    assert render_rule(rule, catalog) == "{item5=4} => {item1=3}"


# Column labels: non-empty, no whitespace and none of "={},", any script.
_LABELS = st.text(
    st.characters(blacklist_categories=("Cs", "Z", "Cc"), blacklist_characters="={},"),
    min_size=1,
    max_size=6,
).filter(lambda label: not any(c.isspace() for c in label))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=6)


@st.composite
def _rule_exports(draw):
    """(rules, catalog, total, keywords) for write_rules_json: empty rule
    lists, empty LHSs, infinite conviction and non-ASCII labels and sources
    all occur."""
    labels = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
    catalog = ItemCatalog(
        tuple(
            (label, value)
            for label in labels
            for value in draw(st.lists(st.integers(-3, 2**70), min_size=1, max_size=3, unique=True))
        )
    )
    ids = st.lists(st.integers(0, len(catalog) - 1), max_size=3, unique=True).map(sorted).map(tuple)
    counts = st.integers(0, 10**12)
    rules = draw(
        st.lists(
            st.builds(
                AssociationRule,
                lhs=st.builds(Itemset, ids, counts),
                rhs=st.builds(Itemset, ids.filter(bool), counts),
                count=counts,
                support=_FLOATS,
                confidence=_FLOATS,
                coverage=_FLOATS,
                lift=_FLOATS,
                conviction=_FLOATS | st.just(math.inf),
                leverage=_FLOATS,
            ),
            max_size=4,
        )
    )
    keywords = {
        "column_sources": draw(st.dictionaries(st.sampled_from(labels), st.text(max_size=6))),
        "mining": draw(st.dictionaries(st.text(max_size=6), _SCALARS, max_size=3)),
        "rule_config": draw(st.dictionaries(st.text(max_size=6), _SCALARS, max_size=3)),
    }
    return rules, catalog, draw(st.integers(1, 10**12)), keywords  # a readable total is >= 1


@settings(max_examples=200, deadline=None)
@given(export=_rule_exports())
def test_write_rules_json_bytes_match_json_dumps(tmp_path_factory, export):
    rules, catalog, total, keywords = export
    path = tmp_path_factory.mktemp("json") / "rules.json"
    write_rules_json(rules, catalog, total, path, **keywords)
    document = {
        "total": total,
        "catalog": [catalog.render(i) for i in range(len(catalog))],
        **keywords,
        "rules": [
            {
                "lhs": list(rule.lhs.items),
                "rhs": list(rule.rhs.items),
                "lhs_count": rule.lhs.count,
                "rhs_count": rule.rhs.count,
                "count": rule.count,
                "support": rule.support,
                "confidence": rule.confidence,
                "coverage": rule.coverage,
                "lift": rule.lift,
                "conviction": "inf" if math.isinf(rule.conviction) else rule.conviction,
                "leverage": rule.leverage,
            }
            for rule in rules
        ],
    }
    expected = json.dumps(document, indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def _cli(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


@settings(max_examples=100, deadline=None)
@given(export=_rule_exports(), data=st.data())
def test_queries_match_the_full_rule_list(tmp_path_factory, export, data):
    # report and predict build only the rules they print or use; their
    # answers must be those computed over every rule of the file.
    rules, catalog, total, keywords = export
    rules = rules * data.draw(st.integers(1, 4))  # past the drawn list's 4 rules
    path = tmp_path_factory.mktemp("json") / "rules.json"
    write_rules_json(rules, catalog, total, path, **keywords)

    top = data.draw(st.integers(0, len(rules) + 2))
    precision = data.draw(st.integers(0, 12))
    extended = data.draw(st.booleans())
    argv = ["report", f"--input={path}", f"--top={top}", f"--precision={precision}"]
    code, out = _cli(argv + ([] if extended else ["--base-layout"]))
    assert code == 0
    header, *rows = (line.split() for line in out.splitlines())
    assert header == list(CSV_COLUMNS_EXTENDED if extended else CSV_COLUMNS)
    assert rows == list(rule_rows(rules[:top], catalog, precision, extended))

    known = data.draw(st.lists(st.integers(0, len(catalog) - 1), max_size=3))
    target = data.draw(st.sampled_from(catalog.columns))
    argv = ["predict", f"--input={path}", f"--target={target}"]
    code, out = _cli(argv + [f"--known={catalog.render(item)}" for item in known])
    try:
        expected = predict(known, rules, target, catalog)
    except PredictionError:
        assert code == 2
        return
    assert code == 0
    assert json.loads(out)["predictions"] == [
        {
            "value": p.value,
            "item": catalog.render(p.item),
            "confidence": p.confidence,
            "support": p.support,
            "rule": render_rule(p.rule, catalog),
        }
        for p in expected
    ]


@pytest.mark.parametrize(
    "field, value",
    [
        ("support", math.nan),
        ("lift", math.inf),
        ("leverage", -math.inf),
        ("conviction", math.nan),
        ("conviction", -math.inf),
    ],
)
def test_write_rules_json_rejects_non_finite_metrics(tmp_path, field, value):
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    metrics = compute_metrics(3, 3, 3, 4)._replace(**{field: value})
    rule = AssociationRule(Itemset((0,), 3), Itemset((1,), 3), 3, *metrics)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_rules_json([rule], catalog, 4, tmp_path / "rules.json")


def _with_count(rule, key, value):
    """rule with its lhs_count, rhs_count or count replaced by value."""
    if key == "count":
        return rule._replace(count=value)
    name = key.removesuffix("_count")
    return rule._replace(**{name: getattr(rule, name)._replace(count=value)})


_BAD_RULE_VALUES = [
    *(
        pytest.param(key, value, "non-negative int", id=f"{key}-{value!r}")
        for key in ("lhs_count", "rhs_count", "count")
        for value in (True, -1, 3.0, np.int64(3))
    ),
    pytest.param("support", True, "not JSON compliant", id="bool-metric"),
    pytest.param("lift", 3, "not JSON compliant", id="int-metric"),
    pytest.param("confidence", math.nan, "not JSON compliant", id="nan-metric"),
]


@pytest.mark.parametrize("key, value, problem", _BAD_RULE_VALUES)
def test_write_rules_json_refuses_before_opening_the_file(tmp_path, key, value, problem):
    # the fault is in the last of three rules: nothing may be written before
    # it is found, so an earlier file at the path keeps its bytes
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    rules = [_rule((0,), (1,)), _rule((1,), (0,)), _rule((0,), (1,))]
    if key in Metrics._fields:
        rules[2] = rules[2]._replace(**{key: value})
    else:
        rules[2] = _with_count(rules[2], key, value)
    path = tmp_path / "rules.json"
    path.write_bytes(b"earlier")
    with pytest.raises(ValueError, match=f"^rule 2: {key} .*{problem}"):
        write_rules_json(rules, catalog, 4, path)
    assert path.read_bytes() == b"earlier"


def test_write_rules_json_checks_ids_before_opening_the_file(tmp_path):
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    rules = [_rule((0,), (1,)), _rule((1,), (0,)), _rule((0,), (2,))]
    path = tmp_path / "rules.json"
    path.write_bytes(b"earlier")
    with pytest.raises(UnknownItemError, match="unknown item id 2"):
        write_rules_json(rules, catalog, 4, path)
    assert path.read_bytes() == b"earlier"


def test_write_rules_json_keeps_metrics_whose_sum_overflows(tmp_path):
    # each column is tested by its sum first; an overflowing sum of finite
    # metrics must be looked at value by value, not refused
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    rules = [_rule((0,), (1,))._replace(lift=1e308, leverage=-1e308)] * 2
    path = tmp_path / "rules.json"
    write_rules_json(rules, catalog, 4, path)
    assert read_rules_json(path).rules == tuple(rules)


_BAD_COUNTS = st.sampled_from([True, False, -1, 3.0, np.int64(3), None])
_BAD_METRICS = st.sampled_from([True, 1, math.nan, math.inf, -math.inf, np.float64(0.5)])


@settings(max_examples=200, deadline=None)
@given(export=_rule_exports(), data=st.data())
def test_write_rules_json_writes_only_what_reads_back(tmp_path_factory, export, data):
    # values the reader refuses, or json cannot hold, mixed into drawn rules:
    # the writer raises and leaves no file, or the file reads back as the rules
    rules, catalog, total, keywords = export
    for _ in range(data.draw(st.integers(0, 3)) if rules else 0):
        index = data.draw(st.integers(0, len(rules) - 1))
        key = data.draw(st.sampled_from(["lhs_count", "rhs_count", "count", *Metrics._fields]))
        if key in Metrics._fields:
            rules[index] = rules[index]._replace(**{key: data.draw(_BAD_METRICS)})
        else:
            rules[index] = _with_count(rules[index], key, data.draw(_BAD_COUNTS))
    path = tmp_path_factory.mktemp("json") / "rules.json"
    try:
        write_rules_json(rules, catalog, total, path, **keywords)
    except ValueError:
        assert not path.exists()
        return
    assert read_rules_json(path).rules == tuple(rules)


@pytest.mark.parametrize(
    "total, count",
    [(4, None), (4, True), (4, -1), (4, 2.5), (0, 3), (True, 1)],
)
def test_write_itemsets_refuses_counts_before_opening_the_file(tmp_path, total, count):
    # the counts rows(k) refuses; an earlier file at the path keeps its bytes
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    frequent = FrequentSets(((), (Itemset((0,), 1), Itemset((1,), count))), total)
    path = tmp_path / "itemsets.csv"
    path.write_bytes(b"earlier")
    with pytest.raises(FrequentSetError):
        write_itemsets(frequent, catalog, path)
    with pytest.raises(FrequentSetError):
        frequent.rows(1)
    assert path.read_bytes() == b"earlier"


def test_write_itemsets_checks_ids_before_opening_the_file(tmp_path):
    # an id outside the catalog in the last itemset: the two lines before it
    # are rendered but never written
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    frequent = FrequentSets(((), (Itemset((0,), 3), Itemset((1,), 3), Itemset((5,), 3))), 4)
    path = tmp_path / "itemsets.csv"
    path.write_bytes(b"earlier")
    with pytest.raises(UnknownItemError, match="unknown item id 5"):
        write_itemsets(frequent, catalog, path)
    assert path.read_bytes() == b"earlier"


def test_rules_past_2_62_rows_are_those_of_the_scaled_down_set():
    # generate_rules keeps counts as Python ints from a total of 2**62 on;
    # every count times 2**60 gives the same splits and the same metrics,
    # since each metric is one correctly rounded ratio of the counts
    small = _frequent(
        4,
        [((0,), 3), ((1,), 2), ((2,), 4)],
        [((0, 1), 2), ((0, 2), 3), ((1, 2), 2)],
        [((0, 1, 2), 2)],
    )
    scale = 1 << 60
    large = FrequentSets(
        tuple(tuple(Itemset(s.items, s.count * scale) for s in level) for level in small.levels),
        small.total * scale,
    )
    assert large.total == 2**62
    config = RuleConfig(0.75)
    expected, rules = generate_rules(small, config), generate_rules(large, config)
    assert len(expected) >= 5
    assert [(r.lhs.items, r.rhs.items, r.count) for r in rules] == [
        (r.lhs.items, r.rhs.items, r.count * scale) for r in expected
    ]
    assert [r[3:] for r in rules] == [r[3:] for r in expected]


def _frequent(total, *levels):
    """FrequentSets over levels of (items, count) pairs."""
    itemsets = (tuple(Itemset(items, count) for items, count in level) for level in levels)
    return FrequentSets(((), *itemsets), total)


@pytest.mark.parametrize("block_bytes", [None, 1])  # None: the default blocks
@pytest.mark.parametrize(
    "frequent, config, error, match",
    [
        # (2,), (0,2) and (1,2) are missing: the first split in LHS-size
        # order to need one is {2} => {0,1}, with a two-item consequent
        (
            _frequent(4, [((0,), 3), ((1,), 3)], [((0, 1), 3)], [((0, 1, 2), 2)]),
            RuleConfig(0.5),
            FrequentSetError,
            r"not downward closed: missing subset \(2,\) of itemset \(0, 1, 2\)$",
        ),
        # faults of both kinds in one itemset: the missing (0,) comes before
        # (1,), whose count 3 is below the joint 4, in split order
        (
            _frequent(4, [((1,), 3)], [((0, 1), 4)]),
            RuleConfig(0.5),
            FrequentSetError,
            r"not downward closed: missing subset \(0,\) of itemset \(0, 1\)$",
        ),
        # the first subset counted below its itemset, in row then split order
        (
            _frequent(4, [((0,), 4), ((1,), 4), ((2,), 2)], [((0, 1), 4), ((0, 2), 3)]),
            RuleConfig(0.5),
            MetricError,
            r"joint_count <= lhs_count: itemset \(0, 2\) \(3\), subset \(2,\) \(2\)$",
        ),
        # a kept rule with a side of count 0 names its itemset
        (
            _frequent(
                4, [((0,), 2), ((1,), 2), ((2,), 0)], [((0, 1), 2), ((0, 2), 0), ((1, 2), 0)]
            ),
            RuleConfig(1e-10, include_empty_lhs=False),
            MetricError,
            r"lhs_count, rhs_count >= 1: itemset \(0, 2\)$",
        ),
    ],
)
def test_rules_name_the_first_fault(monkeypatch, block_bytes, frequent, config, error, match):
    if block_bytes is not None:
        monkeypatch.setattr("rulemine.miner.BLOCK_BYTES", block_bytes)
    with pytest.raises(error, match=match):
        generate_rules(frequent, config)


def _level(k):
    return rf"^level {k} is not sorted {k}-itemsets of increasing ids in \[0, 2\*\*32\)$"


@pytest.mark.parametrize(
    "frequent, match",
    [
        # each comment says what the set gives when no check of its levels
        # runs before the subset lookups: rules {0} => {0} and {} => {0, 0}
        (_frequent(4, [((0,), 4)], [((0, 0), 4)]), _level(2)),
        # rules {0} => {1} and {1} => {0}, and the itemset (1, 0)
        (_frequent(4, [((0,), 4), ((1,), 4)], [((1, 0), 4)]), _level(2)),
        # an unsorted level: the present subset (0,) was reported missing
        (_frequent(4, [((1,), 4), ((0,), 4)], [((0, 1), 4)]), _level(1)),
        # a repeated row: the rule {} => {0} twice
        (_frequent(4, [((0,), 4), ((0,), 4)]), _level(1)),
        # a 2-itemset in level 1: numpy's ValueError from a reshape
        (_frequent(4, [((0, 1), 4)]), _level(1)),
        # ids -1 and 2**32: refused by a bound of [0, 2**32 - 1)
        (_frequent(4, [((-1,), 4)]), _level(1)),
        (_frequent(4, [((2**32,), 4)]), _level(1)),
        # an id past int64: a bare OverflowError
        (_frequent(4, [((2**70,), 4)]), _level(1)),
        # a float id: the rule {} => {1.5}
        (_frequent(4, [((1.5,), 4)]), _level(1)),
        # a bool id: the rule {} => {True}
        (_frequent(4, [((True,), 4)]), _level(1)),
        # a bool total: the rule {} => {0} of total True
        (_frequent(True, [((0,), 1)]), r"^total must be a positive int, got True$"),
    ],
    ids=["id-twice", "ids-unsorted", "level-unsorted", "row-repeated", "row-too-long",
         "id-negative", "id-2**32", "id-2**70", "id-float", "id-bool", "total-bool"],  # fmt: skip
)
def test_malformed_levels_are_refused_before_any_lookup(frequent, match):
    with pytest.raises(FrequentSetError, match=match):
        generate_rules(frequent, RuleConfig(0.5))
    with pytest.raises(FrequentSetError, match=match):
        frequent.counts()


def test_a_shape_fault_in_a_later_level_comes_before_a_missing_subset():
    # (1,) is missing for (0, 1), but level 3 holds a 2-itemset
    frequent = _frequent(4, [((0,), 4)], [((0, 1), 4)], [((0, 1), 4)])
    with pytest.raises(FrequentSetError, match=r"^level 3 is not sorted"):
        generate_rules(frequent, RuleConfig(0.5))


def test_levels_that_keep_the_contract_are_accepted():
    pairs = [((0,), 4), ((1,), 3)], [((0, 1), 3)]
    expected = generate_rules(_frequent(4, *pairs), RuleConfig(0.5))
    assert expected
    # an empty trailing level changes nothing
    trailing = _frequent(4, *pairs, [])
    assert generate_rules(trailing, RuleConfig(0.5)) == expected
    assert trailing.counts() == {(): 4, (0,): 4, (1,): 3, (0, 1): 3}
    # the largest id, 2**32 - 1, gives the rules of the set with it relabelled
    top = 2**32 - 1
    relabelled = _frequent(4, [((0,), 4), ((top,), 3)], [((0, top), 3)])
    rules = generate_rules(relabelled, RuleConfig(0.5))

    def back(side):
        return side._replace(items=tuple(1 if i == top else i for i in side.items))

    assert [r._replace(lhs=back(r.lhs), rhs=back(r.rhs)) for r in rules] == expected
    assert relabelled.counts() == {(): 4, (0,): 4, (top,): 3, (0, top): 3}


def _dense_frequent():
    """Long frequent itemsets: 8 columns that each copy a latent value on
    {0,1,2} with probability 0.8, over 400 rows."""
    rng = np.random.default_rng(3)
    z = rng.integers(0, 3, 400)
    columns = {
        f"c{c}": np.where(rng.random(400) < 0.8, z, rng.integers(0, 3, 400))
        for c in range(8)
    }
    return mine_frequent(build_database_from_columns(columns), MiningConfig(0.05))


@pytest.mark.parametrize("block_bytes", [1, 100, 5000])
@pytest.mark.parametrize(
    "config",
    [RuleConfig(0.6), RuleConfig(0.3, include_empty_lhs=False), RuleConfig(0.5, singleton_rhs=True)],
)
def test_rules_do_not_depend_on_the_block_size(monkeypatch, block_bytes, config):
    # 1 byte gives blocks of one row; the rules must be the same as with the
    # default blocks, which hold whole levels here
    frequent = _dense_frequent()
    assert frequent.max_size == 8
    expected = generate_rules(frequent, config)
    assert len(expected) > 1000
    monkeypatch.setattr("rulemine.miner.BLOCK_BYTES", block_bytes)
    assert generate_rules(frequent, config) == expected


# A label with a quote, so that a side cell is quoted with it doubled.
_QUOTED_CATALOG = ItemCatalog((('a"b', 1), ("c", 1), ("c", 22), ('"', -3)))
_SIDES = [(), (0,), (1, 2), [3], [0, 1, 3], (0, 1, 2, 3)]
_METRICS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, 0.5]) | st.floats()


@st.composite
def _csv_rules(draw):
    """Rules over _QUOTED_CATALOG whose sides repeat (the same objects) and
    may be lists, with any float metrics, -0.0, infinities and NaN."""
    sides = [Itemset(items, draw(st.integers(0, 99))) for items in _SIDES]
    side = st.sampled_from(sides)
    rule = st.builds(
        AssociationRule,
        side,
        side.filter(lambda itemset: len(itemset.items) > 0),
        st.integers(0, 10**20),
        *[_METRICS] * len(Metrics._fields),
    )
    return draw(st.lists(rule, max_size=12))


@settings(max_examples=200, deadline=None)
@given(rules=_csv_rules(), precision=st.integers(0, 17), extended=st.booleans())
def test_rules_table_matches_a_row_at_a_time_reference(tmp_path_factory, rules, precision, extended):
    def side(itemset):
        entries = [_QUOTED_CATALOG.entries[item] for item in itemset.items]
        return "{" + ",".join(f"{column}={value}" for column, value in entries) + "}"

    def row(position, rule):
        metrics = [rule.support, rule.confidence, rule.coverage, rule.lift]
        cells = [str(position), side(rule.lhs), side(rule.rhs)]
        cells += [format(value, f".{precision}f") for value in metrics] + [str(rule.count)]
        if extended:
            cells += [format(value, f".{precision}f") for value in (rule.conviction, rule.leverage)]
        return cells

    expected = [row(position, rule) for position, rule in enumerate(rules, start=1)]
    assert list(rule_rows(rules, _QUOTED_CATALOG, precision, extended)) == expected

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(row[: len(CSV_COLUMNS)] for row in expected)
    path = tmp_path_factory.mktemp("csv") / "rules.csv"
    write_rules_csv(rules, _QUOTED_CATALOG, path, precision=precision)
    assert path.read_bytes() == text.getvalue().encode("utf-8")
