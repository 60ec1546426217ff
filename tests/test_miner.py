from __future__ import annotations

import random

import pytest

import helpers
from rulemine import (
    ConfigError,
    Itemset,
    MiningConfig,
    brute_force_frequent,
    build_database,
    candidate_gen,
    count_candidates,
    meets_threshold,
    min_count,
    mine_frequent,
    write_itemsets,
)


def test_min_count_epsilon_rule():
    # 0.1 * 12433 is 1243.3000000000002 in floats; the threshold must be
    # 1244 either way.
    assert min_count(0.10, 12433) == 1244
    assert min_count(1.0, 5) == 5
    assert min_count(0.5, 10) == 5
    assert min_count(0.3, 10) == 3
    assert min_count(0.2, 5) == 1
    assert min_count(1.0, 12433) == 12433


def test_is_frequent_boundary():
    assert meets_threshold(1244, 12433, 0.10)
    assert not meets_threshold(1243, 12433, 0.10)
    assert meets_threshold(5, 5, 1.0)
    assert not meets_threshold(4, 5, 1.0)


def test_mining_config_validation():
    with pytest.raises(ConfigError):
        MiningConfig(0.0)
    with pytest.raises(ConfigError):
        MiningConfig(1.5)
    with pytest.raises(ConfigError):
        MiningConfig(-0.1)
    with pytest.raises(ConfigError):
        MiningConfig(0.5, max_len=0)
    MiningConfig(1.0, max_len=None)  # boundary values are fine
    MiningConfig(0.5, max_len=3)


def test_uniform_db_levels(uniform_ab_db):
    frequent = mine_frequent(uniform_ab_db, MiningConfig(0.5))
    assert frequent.total == 4
    assert frequent.levels == (
        (),
        (Itemset((0,), 4), Itemset((1,), 4)),
        (Itemset((0, 1), 4),),
    )
    assert len(frequent) == 3
    assert frequent.max_size == 2
    assert frequent.counts() == {(): 4, (0,): 4, (1,): 4, (0, 1): 4}


def _level(*itemsets):
    return [Itemset(tuple(items), 10) for items in itemsets]


def test_candidate_gen_joins_shared_prefixes():
    level = _level((1, 2), (1, 3), (2, 3))
    assert [c.items for c in candidate_gen(level)] == [(1, 2, 3)]
    assert all(c.count is None for c in candidate_gen(level))


def test_candidate_gen_prunes_missing_subsets():
    level = _level((1, 2), (1, 3))
    # {1,2,3} would need {2,3} to be frequent
    assert candidate_gen(level) == []


def test_candidate_gen_textbook_square():
    level = _level((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert [c.items for c in candidate_gen(level)] == [
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    ]


def test_candidate_gen_output_is_lexicographically_sorted():
    rng = random.Random(7)
    for _ in range(20):
        db = helpers.random_database(rng, max_items=9, max_tx=40)
        frequent = mine_frequent(db, MiningConfig(0.2))
        for level in frequent.levels[1:]:
            candidates = [c.items for c in candidate_gen(level)]
            assert candidates == sorted(candidates)


def test_candidate_gen_rejects_mixed_sizes():
    with pytest.raises(ConfigError):
        candidate_gen([Itemset((1,), 3), Itemset((1, 2), 3)])


def test_count_candidates_exact_and_order_preserving(cicy5_db):
    catalog = cicy5_db.catalog
    item5_4 = catalog.id_of("item5", 4)
    item1_3 = catalog.id_of("item1", 3)
    item3_0 = catalog.id_of("item3", 0)
    candidates = [
        Itemset(tuple(sorted((item5_4, item1_3)))),
        Itemset(tuple(sorted((item5_4, item3_0)))),
    ]
    counted = count_candidates(cicy5_db, candidates)
    assert [c.items for c in counted] == [c.items for c in candidates]
    assert counted[0].count == 1312
    assert counted[1].count == 824


def test_count_candidates_rejects_empty_itemset(uniform_ab_db):
    with pytest.raises(ConfigError):
        count_candidates(uniform_ab_db, [Itemset(())])


def test_mine_frequent_levels_are_sorted_and_closed():
    rng = random.Random(13)
    for _ in range(15):
        db = helpers.random_database(rng, max_items=9, max_tx=48)
        frequent = mine_frequent(db, MiningConfig(0.25))
        counts = frequent.counts()
        for k, level in enumerate(frequent.levels[1:], start=1):
            keys = [s.items for s in level]
            assert keys == sorted(keys)
            assert all(len(key) == k for key in keys)
        for itemset in frequent:
            items = itemset.items
            for drop in range(len(items)):
                subset = items[:drop] + items[drop + 1 :]
                assert subset in counts


def test_mine_matches_oracle_spot_checks():
    rng = random.Random(99)
    for min_support in (0.15, 0.35, 0.6):
        db = helpers.random_database(rng, max_items=10, max_tx=50)
        config = MiningConfig(min_support)
        mined = mine_frequent(db, config)
        reference = brute_force_frequent(db, config)
        assert mined.levels == reference.levels
        assert mined.total == reference.total


def test_max_len_caps_itemset_size(uniform_ab_db):
    frequent = mine_frequent(uniform_ab_db, MiningConfig(0.5, max_len=1))
    assert frequent.max_size == 1
    assert [s.items for s in frequent] == [(0,), (1,)]


def test_no_frequent_items_leaves_single_empty_level():
    db = build_database([(i, [("a", i)]) for i in range(10)])
    frequent = mine_frequent(db, MiningConfig(0.5))
    assert frequent.levels == ((),)
    assert list(frequent) == []
    assert len(frequent) == 0


def test_workers_validation(uniform_ab_db):
    with pytest.raises(ConfigError):
        mine_frequent(uniform_ab_db, MiningConfig(0.5), workers=0)


def test_mining_is_deterministic():
    rng = random.Random(1234)
    db = helpers.random_database(rng)
    first = mine_frequent(db, MiningConfig(0.2))
    second = mine_frequent(db, MiningConfig(0.2))
    assert first == second


def test_threshold_monotonicity():
    rng = random.Random(555)
    db = helpers.random_database(rng, max_items=8, max_tx=40)
    loose = {s.items for s in mine_frequent(db, MiningConfig(0.2))}
    tight = {s.items for s in mine_frequent(db, MiningConfig(0.5))}
    assert tight <= loose


def test_write_itemsets_format(tmp_path, uniform_ab_db):
    frequent = mine_frequent(uniform_ab_db, MiningConfig(0.5))
    path = tmp_path / "itemsets.csv"
    write_itemsets(frequent, uniform_ab_db.catalog, path)
    assert path.read_text(encoding="utf-8") == (
        "a=1,4,1.0\n"
        "b=1,4,1.0\n"
        "a=1 b=1,4,1.0\n"
    )
