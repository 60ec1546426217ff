"""Level-wise frequent itemset mining over the bitmap index, and rule generation.

The classical algorithm: level 1 keeps every item whose count reaches
the support threshold; level k+1 candidates come from joining frequent
k-itemsets that share a (k-1)-prefix, pruned by downward closure (every
k-subset must itself be frequent); candidates are counted exactly
against the item bitmaps and filtered. Inside the loop a level is a
lexicographically sorted (n, k) intp matrix of item ids: the join pairs
rows within each prefix group with np.repeat, the prune looks subsets up
with np.searchsorted, and counting reads the database's uint64 word
matrix (db.words) as it is stored, ANDs each candidate's item rows in
one chain and counts blocks of candidates with np.bitwise_count. Itemset
records are built only for the rows that clear the threshold. Levels
stay in lexicographic item-id order throughout, so output order is
deterministic.

generate_rules tests every split of every frequent itemset. It finds a
block of rows' subsets among the smaller levels by the prune's own keys
and lookup (_as_keys, _find), and the rules it keeps share the mined
Itemsets as their sides.

The rounding lives in exactly one place, _ceil_share, which min_count,
meets_threshold, the rule generator and the brute-force oracle all go
through: an itemset is frequent iff count >= max(1, ceil(min_support *
total - EPS)). The subtraction keeps exactly-representable thresholds
exact when the product picks up float noise (0.1 * 12433 =
1243.3000000000002 must still mean 1244, not 1245, and 1.0 * total must
mean total); the floor of 1 keeps an itemset no row holds out of the
levels however small min_support is.

With workers > 1, threads (at most one per usable CPU) take the blocks
of candidate_gen and count_candidates from one shared queue: numpy's
gathers, ANDs, searchsorted and np.bitwise_count release the GIL. Each
block writes only its own rows, so the output does not depend on workers.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass
from threading import Thread
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, EmptyDatabaseError, FrequentSetError, MetricError
from .errors import UnknownItemError
from .items import ItemCatalog, ItemId, Itemset, valid_threshold
from .rules import ORDERINGS, AssociationRule, RuleConfig, _metrics
from .txdb import TransactionDatabase

EPS = 1e-9


def _ceil_share(share: float, base: int) -> int:
    """Smallest count whose ratio to base reaches share, up to EPS."""
    return math.ceil(share * base - EPS)


def min_count(min_support: float, total: int) -> int:
    """Smallest transaction count that clears min_support; at least 1."""
    return max(1, _ceil_share(min_support, total))


def meets_threshold(count: int, base: int, threshold: float) -> bool:
    """True iff count/base >= threshold, up to the shared epsilon."""
    return count >= _ceil_share(threshold, base)


@dataclass(frozen=True)
class MiningConfig:
    """min_support in (0, 1]; max_len caps itemset size (None = unlimited).

    The range rules of the mine flags live here; their messages use the
    flag spelling, so the CLI raises them as they are."""

    min_support: float
    max_len: int | None = None

    def __post_init__(self) -> None:
        if not valid_threshold(self.min_support):
            raise ConfigError("--min-support must lie in (0,1]")
        if self.max_len is not None and (
            type(self.max_len) is not int or self.max_len < 1
        ):
            raise ConfigError("--max-len must be a positive integer")


@dataclass(frozen=True)
class FrequentSets:
    """All frequent itemsets, levels[k] holding the k-itemsets.

    levels[0] is always the empty tuple: the empty itemset is not mined,
    its count is the database total carried separately for rule
    generation. rows(k) is the one check of level k: order, ids and counts.
    """

    levels: tuple[tuple[Itemset, ...], ...]
    total: int

    def __iter__(self) -> Iterator[Itemset]:
        for level in self.levels[1:]:
            yield from level

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels[1:])

    @property
    def max_size(self) -> int:
        return len(self.levels) - 1

    def _counts(self, k: int) -> list[int]:
        """Level k's counts, for rows(k) and write_itemsets to check alike."""
        total, level = self.total, self.levels[k]
        if not isinstance(total, int) or isinstance(total, bool) or total <= 0:
            raise FrequentSetError(f"total must be a positive int, got {total!r}")
        counts = [itemset.count for itemset in level]
        if not ({*map(type, counts)} <= {int} and 0 <= min(counts, default=0)
                and max(counts, default=0) <= total):  # fmt: skip
            for items, count in level:
                if count is None:
                    raise FrequentSetError(f"itemset {items} has no count")
                about = f"count {count!r} of itemset {items} is"
                if not isinstance(count, int) or isinstance(count, bool):
                    raise FrequentSetError(f"{about} not an int")
                if not 0 <= count <= total:
                    raise FrequentSetError(f"{about} outside [0, total={total}]")
        return counts

    def rows(self, k: int) -> tuple[np.ndarray, list[int]]:
        """Level k as its (n, k) intp id matrix and its n counts. FrequentSetError
        names the total unless it is an int >= 1, the itemset of a count no int
        in [0, total] (walked only if a one-pass test fails), and the level
        unless its rows are sorted k-itemsets of increasing ids in [0, 2**32)."""
        counts, ids = self._counts(k), _id_matrix([s.items for s in self.levels[k]], k)
        if ids is not None and len(ids) and k:
            step = ids[1:] - ids[:-1]  # a row's first change from the row before grows
            lead = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
            rising = (ids[:, 1:] > ids[:, :-1]).all() and (lead > 0).all()
            ids = ids if rising and 0 <= ids.min() and ids.max() <= 0xFFFFFFFF else None
        if ids is None or len(ids) and not k:
            raise FrequentSetError(
                f"level {k} is not sorted {k}-itemsets of increasing ids in [0, 2**32)"
            )
        return ids, counts

    def counts(self) -> dict[tuple[ItemId, ...], int]:
        """Item tuple to count, each level checked by rows(k); () to total."""
        levels = [self.rows(k) for k in range(len(self.levels))]
        pairs = (zip(map(tuple, ids.tolist()), counts) for ids, counts in levels)
        return dict(itertools.chain([((), self.total)], *pairs))


def _id_matrix(keys: Sequence[tuple[ItemId, ...]], width: int) -> np.ndarray | None:
    """The keys as an (n, width) intp matrix; None unless each key holds
    width ids, each an int (not a bool) that intp holds."""
    ids = [*itertools.chain.from_iterable(keys)]
    if {*map(len, keys)} <= {width} and [*map(type, ids)].count(int) == len(ids):
        with contextlib.suppress(OverflowError):  # an id past intp
            return np.array(ids, np.intp).reshape(len(keys), width)
    return None


def _as_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row: its ids as big-endian uint32s, whose bytes
    (memcmp) order is the rows' lexicographic order."""
    rows = np.ascontiguousarray(rows, dtype=">u4")
    return rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()


def _find(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The index of each wanted key among the sorted keys (maybe none), or -1."""
    at = np.searchsorted(keys, wanted)
    return np.where(len(keys) and keys.take(at, mode="clip") == wanted, at, -1)


# Levels are joined, and candidates counted, in blocks of about this many
# bytes of joined rows or of bitmap words, which bounds the temporaries
# whatever the number of rows.
BLOCK_BYTES = 1 << 19


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(
    bounds: Sequence[int], workers: int, body: Callable[[int, int], object]
) -> list:
    """[body(start, stop) for each pair of consecutive bounds], in order,
    run by the calling thread and min(workers, usable CPUs, blocks) - 1
    started threads. Each takes the next block index from one shared
    itertools.count(), whose next() is one C call under the GIL, so no
    block is taken twice. A thread stops at its first exception; the
    first in block order is raised once every thread has ended."""
    results: list = [None] * (len(bounds) - 1)
    taken = itertools.count()

    def run() -> None:
        while (index := next(taken)) < len(results):
            try:
                results[index] = body(bounds[index], bounds[index + 1])
            except BaseException as error:
                results[index] = error
                return

    cap = min(workers, len(results), _usable_cpus())
    threads = [Thread(target=run) for _ in range(1, cap)]
    for thread in threads:
        thread.start()
    run()
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def candidate_gen(
    level: np.ndarray | Sequence[Itemset], workers: int = 1
) -> np.ndarray | list[Itemset]:
    """Join frequent k-itemsets sharing a (k-1)-prefix, then prune.

    The level is a lexicographically sorted (n, k) intp matrix of item
    ids; the result is the sorted matrix of (k+1)-candidates whose
    k-subsets are all rows of it. Rows sharing their first k-1 ids form
    a group (at k=1 the empty prefix is one group), and each row is
    paired with every later row of its group. The k-subsets that drop
    one of the last two ids are the joined rows; each other one is
    looked up among the level's rows. The level is joined and pruned in
    blocks of rows that give about BLOCK_BYTES of joined rows each, on
    up to workers threads, and the kept rows of the blocks are stacked
    in order. A sorted sequence of k-Itemsets gives the same candidates
    as Itemsets with counts unset.
    """
    if not isinstance(level, np.ndarray):
        if not level:
            return []
        if (table := _id_matrix([s.items for s in level], len(level[0].items))) is None:
            raise ConfigError("candidate_gen requires itemsets of one size and int ids")
        joined = candidate_gen(table, workers)
        return list(map(Itemset, map(tuple, joined.tolist())))
    n, k = level.shape
    if n and (level.min() < 0 or level.max() > 0xFFFFFFFF):
        raise ConfigError("candidate item ids must lie in [0, 2**32)")
    first = np.ones(n, bool)
    first[1:] = (level[1:, :-1] != level[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=n)
    later = np.repeat(starts + sizes, sizes) - np.arange(1, n + 1)
    keys = _as_keys(level)

    def join(start: int, stop: int) -> np.ndarray:
        pairs = later[start:stop]
        left = np.repeat(np.arange(start, stop), pairs)
        offset = np.arange(len(left)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        joined = np.empty((len(left), k + 1), np.intp)
        joined[:, :k] = level[left]
        joined[:, k] = level[left + 1 + offset, k - 1]
        for m in range(k - 1):
            subsets = _as_keys(np.delete(joined, m, axis=1))
            joined = joined[_find(keys, subsets) >= 0]
        return joined

    # the last row of a group has no partner, so every cut lies below n
    before = np.cumsum(later) - later
    per_block = max(1, BLOCK_BYTES // (np.dtype(np.intp).itemsize * (k + 1)))
    targets = np.arange(per_block, later.sum(), per_block)
    cuts = np.unique(np.searchsorted(before, targets)).tolist()
    blocks = _run_blocks([0, *cuts, n], workers, join)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@dataclass(frozen=True, eq=False)
class CountedLevel(Sequence[Itemset]):
    """Counted candidates, an (n, k) matrix and its n counts; an Itemset
    is built only when one is indexed."""

    rows: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return Itemset(tuple(self.rows[index].tolist()), self.counts[index].item())


def count_candidates(
    db: TransactionDatabase,
    candidates: np.ndarray | Sequence[Itemset],
    workers: int = 1,
) -> CountedLevel | list[Itemset]:
    """Count each candidate exactly, preserving order.

    An (n, k) intp matrix of item ids gives a CountedLevel. The db.words
    rows of a candidate's k items are ANDed in one chain, k-1 ANDs, and
    the bits counted with np.bitwise_count, a block of candidates at a
    time; the blocks run on up to workers threads, each writing its own
    slice of the counts. A sequence of Itemsets gives a list of Itemsets
    with their counts; its keys become one matrix, shorter keys
    left-padded with their own first item (x & x is x), so keys of any
    mix of sizes line up.
    """
    words = db.words
    if not isinstance(candidates, np.ndarray):
        keys = [c.items for c in candidates]
        if not all(keys):
            raise ConfigError("cannot count the empty itemset as a candidate")
        width = max(map(len, keys), default=1)
        padded = [key[:1] * (width - len(key)) + key for key in keys]
        if (table := _id_matrix(padded, width)) is None:
            raise UnknownItemError(f"candidate item ids must lie in [0, {len(words)})")
        counted = count_candidates(db, table, workers)
        return list(map(Itemset, keys, counted.counts.tolist()))
    if candidates.shape[1] == 0:
        raise ConfigError("cannot count the empty itemset as a candidate")
    if candidates.size and (candidates.min() < 0 or candidates.max() >= len(words)):
        raise UnknownItemError(f"candidate item ids must lie in [0, {len(words)})")
    count_type = np.min_scalar_type(db.total)  # a count never exceeds total
    per_block = max(1, BLOCK_BYTES // (words.itemsize * words.shape[1]))
    counts = np.empty(len(candidates), count_type)

    def count(start: int, stop: int) -> None:
        block = candidates[start:stop]
        hits = words[block[:, 0]]
        for column in range(1, block.shape[1]):
            hits &= words[block[:, column]]
        counts[start:stop] = np.bitwise_count(hits).sum(1, count_type)

    _run_blocks([*range(0, len(counts), per_block), len(counts)], workers, count)
    return CountedLevel(candidates, counts)


def mine_frequent(
    db: TransactionDatabase, config: MiningConfig, workers: int = 1
) -> FrequentSets:
    """Run the level-wise mining loop; levels end at the last non-empty one.

    workers, a positive integer, caps the threads that join and count
    each level; the result does not depend on it. Each level's
    candidate_gen and count_candidates are called once, from this
    thread, through the module globals."""
    if db.total <= 0:
        raise EmptyDatabaseError("cannot mine an empty database")
    if type(workers) is not int or workers < 1:
        raise ConfigError("workers must be a positive integer")
    threshold = min_count(config.min_support, db.total)
    counts = np.array(db.item_counts)
    level = np.flatnonzero(counts >= threshold)[:, None]
    counts = counts[level[:, 0]]
    levels: list[tuple[Itemset, ...]] = [()]
    while len(level):
        levels.append(tuple(map(Itemset, map(tuple, level.tolist()), counts.tolist())))
        if level.shape[1] == config.max_len:
            break
        candidates = candidate_gen(level, workers=workers)
        if not len(candidates):
            break
        counted = count_candidates(db, candidates, workers=workers)
        kept = counted.counts >= threshold
        level, counts = candidates[kept], counted.counts[kept]
    return FrequentSets(tuple(levels), db.total)


def generate_rules(
    frequent: FrequentSets, config: RuleConfig
) -> list[AssociationRule]:
    """Emit every strong bipartition of every frequent itemset.

    Z = X | Y (Y non-empty; X = {} only if include_empty_lhs, Y one item
    if singleton_rhs) gives X => Y iff N(Z) >= _ceil_share(min_confidence,
    N(X)), meets_threshold's bound, computed once per distinct count. The
    splits of a block of a level's rows are tested at once: the j-subsets
    are gathered by one table of positions and found by searchsorted over
    the j-itemsets' keys by _find. Sides are the mined Itemsets. rows(k)
    checks every level first, raising FrequentSetError; then so does the
    first missing subset in level, row and split order (LHS size, then
    positions), and MetricError the first subset counted below its
    itemset or kept rule with a side of count 0.
    """
    total = frequent.total
    levels = [frequent.rows(k) for k in range(len(frequent.levels))]
    every = [Itemset((), total), *frequent]  # the empty set, then level order
    counts = [total, *itertools.chain.from_iterable(c for _, c in levels)]
    # -1 pads the counts for missing subsets; past 2**62 they stay Python ints
    counts = np.array(counts + [-1], np.int64 if total < 1 << 62 else object)
    distinct, inverse = np.unique(counts, return_inverse=True)
    shares = [_ceil_share(config.min_confidence, n) for n in distinct.tolist()]
    needed = np.array(shares, counts.dtype)[inverse]
    starts = np.cumsum([1, *(len(c) for _, c in levels)]).tolist()
    keys, out = [None], []
    for k, (rows, _) in enumerate(levels[1:], start=1):
        keys.append(_as_keys(rows))
        # subsets by size, then lexicographic: column i's complement is full - i
        by_size = [list(itertools.combinations(range(k), j)) for j in range(k + 1)]
        subsets, full = sum(by_size, []), (1 << k) - 1
        smallest_lhs = max((k - 1) * config.singleton_rhs, 1 - config.include_empty_lhs)
        tested = slice(sum(map(len, by_size[:smallest_lhs])), full)  # LHS columns
        # found takes 2**k intps a row, the ids of one size a few times that
        per_block = max(1, BLOCK_BYTES // (8 << k))
        for first in range(starts[k], starts[k + 1], per_block):
            block = rows[first - starts[k] :][:per_block].astype(">u4")  # as _as_keys
            found = [np.zeros((len(block), 1), np.intp)]  # into every, -1 if missing
            for j in range(1, k):
                wanted = _as_keys(block[:, by_size[j]].reshape(-1, j))
                at = _find(keys[j], wanted).reshape(len(block), -1)
                found.append(np.add(at, starts[j], out=at, where=at >= 0))  # -1 stays
            found = np.hstack([*found, np.arange(first, first + len(block))[:, None]])
            lhs = counts[found]
            joint = lhs[:, full:]
            if (lhs < joint).any():
                row, column = divmod(int((lhs < joint).argmax()), full + 1)
                items = every[first + row].items
                subset = tuple(items[p] for p in subsets[column])
                if found[row, column] < 0:
                    raise FrequentSetError(
                        f"frequent sets are not downward closed: missing subset "
                        f"{subset} of itemset {items}"
                    )
                raise MetricError(
                    f"counts must satisfy joint_count <= lhs_count: itemset {items} "
                    f"({joint[row, 0]}), subset {subset} ({lhs[row, column]})"
                )
            kept_rows, kept = np.nonzero(joint >= needed[found[:, tested]])
            sides = full, kept + tested.start, full - tested.start - kept
            for z, x, y in zip(*(found[kept_rows, c].tolist() for c in sides)):
                (items, count), lhs_side, rhs_side = every[z], every[x], every[y]
                if not lhs_side.count or not rhs_side.count:  # so count is 0 too
                    raise MetricError(
                        f"counts must satisfy lhs_count, rhs_count >= 1: "
                        f"itemset {items}"
                    )
                metrics = _metrics(lhs_side.count, rhs_side.count, count, total)
                out.append(AssociationRule(lhs_side, rhs_side, count, *metrics))
    out.sort(key=ORDERINGS[config.ordering])
    return out


def write_itemsets(
    frequent: FrequentSets, catalog: ItemCatalog, path: str | os.PathLike
) -> None:
    """One line per frequent itemset: rendered items (space separated), count,
    support at full precision; level order, lexicographic within. Every line is
    rendered before the file is opened, counts checked as by rows(k) and ids by
    the catalog; each catalog entry and distinct count's support only once."""
    names = [catalog.render(item_id) for item_id in range(len(catalog))]
    check, total, seen = catalog.check, frequent.total, {}
    lines = [
        f"{' '.join([names[check(i)] for i in items])},{count},"
        f"{seen.get(count) or seen.setdefault(count, repr(count / total))}\n"
        for k, level in enumerate(frequent.levels[1:], 1)
        for (items, _), count in zip(level, frequent._counts(k))
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(lines)
