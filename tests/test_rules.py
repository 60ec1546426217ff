from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rulemine import (
    ORDERINGS,
    AssociationRule,
    ConfigError,
    FrequentSets,
    FrequentSetError,
    ItemCatalog,
    Itemset,
    MetricError,
    MiningConfig,
    PredictionError,
    RuleConfig,
    build_database,
    compute_metrics,
    generate_rules,
    mine_frequent,
    predict,
    read_rules_json,
    render_rule,
    render_side,
    write_rules_csv,
    write_rules_json,
)
from rulemine import cli
from rulemine.rules import CSV_COLUMNS, CSV_COLUMNS_EXTENDED, rule_row


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


def test_unknown_ordering_rejected():
    with pytest.raises(ConfigError, match="unknown ordering"):
        RuleConfig(0.8, ordering="lexical")


def test_min_confidence_validation():
    with pytest.raises(ConfigError, match=r"min-confidence must lie in \(0,1\]"):
        RuleConfig(0.0)
    with pytest.raises(ConfigError):
        RuleConfig(1.2)
    RuleConfig(1.0)


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


def test_write_rules_csv_extended_renders_inf(tmp_path):
    rows = [
        (0, [("a", 1), ("b", 1)]),
        (1, [("a", 1), ("b", 1)]),
        (2, [("a", 1), ("b", 1)]),
        (3, [("c", 1)]),
    ]
    db = build_database(rows)
    rules = _mined_rules(db, min_confidence=0.8)
    path = tmp_path / "rules.csv"
    write_rules_csv(rules, db.catalog, path, extended=True)
    assert path.read_text(encoding="utf-8") == (
        "rule,LHS,RHS,support,confidence,coverage,lift,count,conviction,leverage\n"
        "1,{a=1},{b=1},0.7500,1.0000,0.7500,1.3333,3,inf,0.1875\n"
        "2,{b=1},{a=1},0.7500,1.0000,0.7500,1.3333,3,inf,0.1875\n"
    )


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
    assert rows == [
        rule_row(position, rule, catalog, precision, extended)
        for position, rule in enumerate(rules[:top], start=1)
    ]

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
    [("support", math.nan), ("lift", math.inf), ("leverage", -math.inf), ("conviction", math.nan)],
)
def test_write_rules_json_rejects_non_finite_metrics(tmp_path, field, value):
    catalog = ItemCatalog((("a", 1), ("b", 1)))
    metrics = compute_metrics(3, 3, 3, 4)._replace(**{field: value})
    rule = AssociationRule(Itemset((0,), 3), Itemset((1,), 3), 3, *metrics)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_rules_json([rule], catalog, 4, tmp_path / "rules.json")
