from __future__ import annotations

import os
import random
import threading
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from rulemine import (
    ConfigError,
    Itemset,
    MiningConfig,
    RuleConfig,
    UnknownItemError,
    brute_force_frequent,
    build_database,
    candidate_gen,
    count_candidates,
    generate_rules,
    meets_threshold,
    min_count,
    mine_frequent,
    write_itemsets,
)
from rulemine import miner
from rulemine.miner import join_prefix


def test_min_count_is_at_least_one():
    # a product at or below the epsilon used to give a threshold of 0
    assert min_count(1e-12, 3) == 1
    assert min_count(1e-9, 1) == 1
    # the ratio test keeps no floor: a joint count of 0 must still end the
    # rule generator's search for the largest lhs count
    assert meets_threshold(0, 3, 1e-12)


def test_tiny_support_keeps_no_itemset_of_count_0():
    rows = [(0, [("a", 0), ("b", 0)]), (1, [("a", 1), ("b", 1)]),
            (2, [("a", 2), ("b", 0)])]  # fmt: skip
    db = build_database(rows)
    config = MiningConfig(1e-12)
    frequent = mine_frequent(db, config)
    assert [s.items for s in frequent.levels[2]] == [(0, 3), (1, 4), (2, 3)]
    assert all(s.count >= 1 for s in frequent)
    assert len(frequent) == 8
    assert frequent == brute_force_frequent(db, config)
    assert len(generate_rules(frequent, RuleConfig(0.5))) == 7


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"min_support": 0.0}, r"min-support must lie in \(0,1\]"),
        ({"min_support": 1.5}, r"min-support must lie in \(0,1\]"),
        ({"min_support": -0.1}, r"min-support must lie in \(0,1\]"),
        ({"min_support": True}, r"min-support must lie in \(0,1\]"),
        ({"min_support": 0.5, "max_len": 0}, "max-len must be a positive integer"),
        ({"min_support": 0.5, "max_len": True}, "max-len must be a positive integer"),
    ],
    ids=["zero", "above-one", "negative", "bool-support", "zero-len", "bool-len"],
)
def test_mining_config_validation(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        MiningConfig(**kwargs)
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


@st.composite
def join_cases(draw):
    """Sorted, duplicate-free k-tuples over a small universe, k >= 1."""
    universe = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(4, universe)))
    keys = draw(st.sets(st.sampled_from(list(combinations(range(universe), k)))))
    return universe, k, sorted(keys)


@settings(max_examples=200, deadline=None)
@given(case=join_cases())
@example(case=(3, 1, []))
@example(case=(7, 1, [(1,), (4,), (6,)]))
def test_join_prefix_matches_brute_force(case):
    universe, k, keys = case
    present = set(keys)
    expected = [
        joined
        for joined in combinations(range(universe), k + 1)
        if all(subset in present for subset in combinations(joined, k))
    ]
    assert list(join_prefix(keys)) == expected


# ids that differ in every byte of a uint32, in order, so a level keyed
# by little-endian or signed bytes would sort and search wrongly
WIDE_IDS = (0, 255, 256, 65_535, 65_536, 16_777_216, 2**32 - 1)


def _matrix(keys, k):
    return np.array(keys, np.intp).reshape(len(keys), k)


@settings(max_examples=200, deadline=None)
@given(case=join_cases(), wide=st.booleans())
@example(case=(3, 2, []), wide=False)  # an empty level
@example(case=(7, 1, [(1,), (4,), (6,)]), wide=True)  # k=1: the empty prefix
@example(case=(5, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), wide=True)  # one group
@example(case=(7, 2, list(combinations(range(7), 2))), wide=True)
def test_matrix_join_matches_join_prefix_and_brute_force(case, wide):
    universe, k, keys = case
    ids = WIDE_IDS[:universe] if wide else range(universe)
    keys = [tuple(ids[i] for i in key) for key in keys]
    present = set(keys)
    expected = [
        joined
        for joined in combinations(ids, k + 1)
        if all(subset in present for subset in combinations(joined, k))
    ]
    joined = candidate_gen(_matrix(keys, k))
    assert joined.dtype == np.intp and joined.shape == (len(expected), k + 1)
    assert list(map(tuple, joined.tolist())) == list(join_prefix(keys)) == expected
    assert [c.items for c in candidate_gen([Itemset(key) for key in keys])] == expected


def test_matrix_join_rejects_ids_outside_uint32():
    for keys in [[(-1,), (0,)], [(0,), (2**32,)]]:
        with pytest.raises(ConfigError, match=r"\[0, 2\*\*32\)"):
            candidate_gen(_matrix(keys, 1))


def test_count_candidates_matrix_input_checks(uniform_ab_db):
    with pytest.raises(ConfigError, match="empty itemset"):
        count_candidates(uniform_ab_db, np.empty((3, 0), np.intp))
    for rows in [[[2]], [[-1]], [[0, 5]]]:
        with pytest.raises(UnknownItemError):
            count_candidates(uniform_ab_db, np.array(rows, np.intp))
    counted = count_candidates(uniform_ab_db, np.array([[0], [1], [0]], np.intp))
    assert counted[0] == Itemset((0,), 4)
    assert all(type(i) is int for c in counted for i in (*c.items, c.count))
    assert counted[1:] == [Itemset((1,), 4), Itemset((0,), 4)]
    empty = count_candidates(uniform_ab_db, np.empty((0, 2), np.intp))
    assert not empty and len(empty) == 0 and list(empty) == []


def test_count_candidates_matrix_matches_itemset_path():
    db = _database_of(130, 7, seed=11)
    keys = list(combinations(range(len(db.catalog)), 3))
    counted = count_candidates(db, _matrix(keys, 3))
    assert list(counted) == count_candidates(db, [Itemset(key) for key in keys])
    assert list(counted) == _exact(db, counted)


@pytest.mark.parametrize("max_len", [None, 2])
def test_mine_frequent_counts_each_level_through_the_module_globals(
    monkeypatch, max_len
):
    # a traced mine swaps wrappers in for these two globals and reads
    # len(result), its truthiness and result[0].items from each count
    db = _database_of(64, 6, seed=2)
    config = MiningConfig(0.2, max_len=max_len)
    joins, counts = [], []
    join, count = miner.candidate_gen, miner.count_candidates

    def recording_join(level, workers):
        joins.append(level)
        return join(level, workers)

    def recording_count(db, candidates, workers):
        counts.append(count(db, candidates, workers))
        return counts[-1]

    monkeypatch.setattr(miner, "candidate_gen", recording_join)
    monkeypatch.setattr(miner, "count_candidates", recording_count)
    frequent = mine_frequent(db, config)
    monkeypatch.undo()
    assert frequent == brute_force_frequent(db, config)
    assert frequent.max_size == (max_len or 3)
    # every join gives candidates here, so each is counted once; without
    # max_len the level-4 candidates are counted and all fail
    assert len(joins) == len(counts) == (3 if max_len is None else 1)
    sizes = [len(candidate_gen(list(level))) for level in frequent.levels[1:]]
    assert [len(result) for result in counts] == sizes[: len(joins)]
    for k, result in enumerate(counts, start=2):
        assert result and len(result[0].items) == k
        assert type(result[0].count) is int


def _database_of(total: int, n_items: int, seed: int):
    rng = random.Random(seed)
    rows = [
        (tid, [(f"c{j}", 1) for j in range(n_items) if rng.random() < 0.6])
        for tid in range(total)
    ]
    return build_database(rows)


def _exact(db, candidates):
    return [Itemset(c.items, db.support_count(c.items)) for c in candidates]


@pytest.mark.parametrize("total", [63, 64, 65, 127, 128, 129])
def test_count_candidates_at_word_boundaries(total):
    # the all-ones row fills its last word past total; those bits must
    # never reach a count, for single items or padded mixed sizes
    db = _database_of(total, 6, seed=total)
    n_items = len(db.catalog)
    singles = [Itemset((i,)) for i in range(n_items)]
    counted = count_candidates(db, singles)
    assert counted == _exact(db, singles)
    assert all(type(c.count) is int for c in counted)  # not numpy scalars
    rng = random.Random(total)
    mixed = [
        Itemset(tuple(sorted(rng.sample(range(n_items), rng.randint(1, 4)))))
        for _ in range(40)
    ]
    assert count_candidates(db, mixed) == _exact(db, mixed)


def test_count_candidates_across_blocks(monkeypatch):
    db = _database_of(200, 8, seed=3)
    row_bytes = 8 * -(-db.total // 64)
    monkeypatch.setattr(miner, "BLOCK_BYTES", 3 * row_bytes)  # 3 per block
    # keys of mixed sizes, the 3-item ones with prefix (0, 1) spanning
    # the first block boundary (after 3) and the second (after 6)
    keys = [(0,), (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 1, 6),
            (0, 2), (2, 3, 4), (2, 3, 5), (5,), (1, 2, 3, 4)]  # fmt: skip
    candidates = [Itemset(key) for key in keys]
    assert count_candidates(db, candidates) == _exact(db, candidates)


class _SerialThread:
    """Stands in for threading.Thread in the miner: records each thread
    asked for and runs its target on this thread when joined."""

    started: list[_SerialThread] = []

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.started.append(self)

    def join(self):
        self.target(*self.args)


@pytest.fixture
def serial_threads(monkeypatch):
    monkeypatch.setattr(_SerialThread, "started", [])
    monkeypatch.setattr(miner, "Thread", _SerialThread)
    return _SerialThread.started


@pytest.fixture
def no_threads(monkeypatch):
    def refuse(target, args):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(miner, "Thread", refuse)


@pytest.fixture
def eight_cpus(monkeypatch):
    # so that workers 3 and 7 start that many threads on any machine
    monkeypatch.setattr(miner, "_usable_cpus", lambda: 8)


@pytest.mark.parametrize(
    "workers, blocks, parts",
    [(2, 11, 2), (3, 11, 3), (7, 11, 7), (7, 7, 7), (7, 2, 2), (7, 1, 1), (7, 0, 1),
     (1, 11, 1)],  # fmt: skip
)
def test_blocks_run_in_contiguous_even_runs(eight_cpus, workers, blocks, parts):
    bounds = list(range(0, 3 * blocks + 1, 3))
    results = miner._run_blocks(
        bounds, workers, lambda start, stop: (start, stop, threading.current_thread())
    )
    blocks_run = [(start, stop) for start, stop, _ in results]
    assert blocks_run == list(zip(bounds, bounds[1:]))
    runs: list[list] = []  # [thread, blocks] in order
    for _, _, thread in results:
        if not runs or runs[-1][0] is not thread:
            runs.append([thread, 0])
        runs[-1][1] += 1
    assert len({id(thread) for thread, _ in runs}) == len(runs) == min(parts, blocks)
    if runs:
        assert runs[0][0] is threading.current_thread()  # the first run is ours
    assert {size for _, size in runs} <= {blocks // parts, -(-blocks // parts)}


def test_an_error_in_a_run_is_raised_after_every_run_ends(eight_cpus):
    done = []

    def body(start, stop):
        if start == 4:
            raise ValueError("block 4")
        done.append(start)

    # runs of blocks 0-2, 3-5 and 6-8: the second stops at block 4
    with pytest.raises(ValueError, match="block 4"):
        miner._run_blocks(list(range(10)), 3, body)
    assert sorted(done) == [0, 1, 2, 3, 6, 7, 8]


def _row_bytes(db):
    return db.words.itemsize * db.words.shape[1]


# candidate counts: empty, one, fewer blocks (of 3) than workers, blocks
# that split evenly and unevenly into runs
COUNT_SIZES = [0, 1, 5, 21, 31, 56]


@pytest.mark.parametrize("workers", [2, 3, 7])
@pytest.mark.parametrize("n_keys", COUNT_SIZES)
def test_threaded_count_matches_serial(monkeypatch, eight_cpus, workers, n_keys):
    db = _database_of(200, 8, seed=3)
    keys = list(combinations(range(len(db.catalog)), 3))[:n_keys]
    table = _matrix(keys, 3)
    serial = count_candidates(db, table)
    monkeypatch.setattr(miner, "BLOCK_BYTES", 3 * _row_bytes(db))  # 3 per block
    threaded = count_candidates(db, table, workers)
    assert threaded.rows is table
    assert threaded.counts.dtype == serial.counts.dtype
    assert threaded.counts.tolist() == serial.counts.tolist()
    assert list(threaded) == _exact(db, threaded)
    itemsets = [Itemset(key) for key in keys]
    assert count_candidates(db, itemsets, workers) == list(serial)


def _random_level(n_items, k, seed):
    """A sorted random two-thirds of the k-subsets of n_items ids."""
    rng = random.Random(seed)
    keys = [key for key in combinations(range(n_items), k) if rng.random() < 0.67]
    return _matrix(keys, k)


@pytest.mark.parametrize("workers", [2, 3, 7])
@pytest.mark.parametrize(
    "level",
    [_random_level(12, 1, 0), _random_level(12, 2, 1), _random_level(12, 3, 2),
     _random_level(9, 4, 3), _matrix([], 2), _matrix([(3, 5)], 2),
     _matrix([(0, 1, 2), (0, 1, 3)], 3)],
    ids=["k1", "k2", "k3", "k4", "empty", "single", "one-pair"],
)  # fmt: skip
def test_threaded_join_matches_serial(monkeypatch, eight_cpus, workers, level):
    serial = candidate_gen(level)
    k = level.shape[1]
    # 4 joined rows a block; at k=1 the first row alone has 11 partners
    monkeypatch.setattr(miner, "BLOCK_BYTES", 4 * 8 * (k + 1))
    threaded = candidate_gen(level, workers)
    assert threaded.dtype == np.intp and threaded.shape == (len(serial), k + 1)
    assert threaded.tolist() == serial.tolist()
    assert [tuple(row) for row in serial.tolist()] == list(
        join_prefix([tuple(row) for row in level.tolist()])
    )
    itemsets = [Itemset(tuple(row)) for row in level.tolist()]
    assert candidate_gen(itemsets, workers) == candidate_gen(itemsets)


@pytest.mark.parametrize("workers", [2, 7])
def test_threaded_mine_matches_serial(monkeypatch, eight_cpus, workers):
    db = _database_of(150, 9, seed=5)
    config = MiningConfig(0.15)
    serial = mine_frequent(db, config)
    monkeypatch.setattr(miner, "BLOCK_BYTES", 2 * _row_bytes(db))
    assert mine_frequent(db, config, workers=workers) == serial
    assert serial == brute_force_frequent(db, config)


def test_bad_ids_raise_before_any_thread_starts(monkeypatch, no_threads, eight_cpus):
    db = _database_of(200, 8, seed=3)
    monkeypatch.setattr(miner, "BLOCK_BYTES", _row_bytes(db))  # 1 per block
    table = _matrix([(0, 1), (1, 2), (2, 3), (3, len(db.catalog))], 2)
    with pytest.raises(UnknownItemError):
        count_candidates(db, table, 4)
    with pytest.raises(ConfigError, match=r"\[0, 2\*\*32\)"):
        candidate_gen(_matrix([(-1, 2), (0, 1), (0, 2), (1, 2)], 2), 4)
    with pytest.raises(ConfigError, match="empty itemset"):
        count_candidates(db, np.empty((4, 0), np.intp), 4)


@pytest.mark.parametrize("workers", [100_000, 2**62])
def test_threads_are_capped_by_cpus_and_blocks(monkeypatch, serial_threads, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    db = _database_of(200, 8, seed=3)
    monkeypatch.setattr(miner, "BLOCK_BYTES", 3 * _row_bytes(db))
    keys = list(combinations(range(len(db.catalog)), 2))
    expected = [db.support_count(key) for key in keys]
    started = []
    assert count_candidates(db, _matrix(keys, 2), workers).counts.tolist() == expected
    started.append(len(serial_threads))
    assert count_candidates(db, _matrix(keys[:6], 2), workers)  # 2 blocks
    started.append(len(serial_threads))
    level = _random_level(12, 2, 1)
    assert candidate_gen(level, workers).tolist() == candidate_gen(level).tolist()
    started.append(len(serial_threads))
    # the calling thread does one run: 3 CPUs start 2 threads, 2 blocks 1
    assert started == [2, 3, 5]
    mined = mine_frequent(db, MiningConfig(0.2), workers=workers)
    assert mined == brute_force_frequent(db, MiningConfig(0.2))
    assert len(serial_threads) > 5


def test_count_candidates_rejects_unknown_items(uniform_ab_db):
    for items in [(2,), (-1,), (0, 5)]:
        with pytest.raises(UnknownItemError):
            count_candidates(uniform_ab_db, [Itemset(items)])


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


@pytest.mark.parametrize("workers", [0, -1, True, False, 2.0, "2"])
def test_workers_validation(uniform_ab_db, workers):
    with pytest.raises(ConfigError, match="workers must be a positive integer"):
        mine_frequent(uniform_ab_db, MiningConfig(0.5), workers=workers)


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
