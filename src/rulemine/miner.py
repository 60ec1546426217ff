"""Level-wise frequent itemset mining over the bitmap index.

The classical algorithm: level 1 keeps every item whose count reaches
the support threshold; level k+1 candidates come from joining frequent
k-itemsets that share a (k-1)-prefix, pruned by downward closure (every
k-subset must itself be frequent); candidates are counted exactly
against the vertical bitmaps and filtered. Levels stay in lexicographic
item-id order throughout, so output order is deterministic.

The threshold formula lives in exactly one place, min_count, which
meets_threshold, the rule generator and the brute-force oracle all go
through: an itemset is frequent iff count >= ceil(min_support * total -
EPS). The subtraction
keeps exactly-representable thresholds exact when the product picks up
float noise (0.1 * 12433 = 1243.3000000000002 must still mean 1244, not
1245, and 1.0 * total must mean total).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ConfigError, EmptyDatabaseError, FrequentSetError
from .txdb import ItemCatalog, ItemId, TransactionDatabase, popcount

EPS = 1e-9


def min_count(min_support: float, total: int) -> int:
    """Smallest transaction count that clears min_support."""
    return math.ceil(min_support * total - EPS)


def meets_threshold(count: int, base: int, threshold: float) -> bool:
    """True iff count/base >= threshold, up to the shared epsilon."""
    return count >= min_count(threshold, base)


@dataclass(frozen=True)
class MiningConfig:
    """min_support in (0, 1]; max_len caps itemset size (None = unlimited)."""

    min_support: float
    max_len: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.min_support, (int, float)) or not (
            0.0 < self.min_support <= 1.0
        ):
            raise ConfigError("min-support must lie in (0,1]")
        if self.max_len is not None and (
            not isinstance(self.max_len, int) or self.max_len < 1
        ):
            raise ConfigError("max-len must be a positive integer or omitted")


@dataclass(frozen=True)
class Itemset:
    """A sorted, duplicate-free tuple of item ids plus its exact count.

    count is None only on fresh candidates that have not been counted
    yet. The empty itemset is representable (for rule generation) but is
    never produced by mining.
    """

    items: tuple[ItemId, ...]
    count: int | None = None


@dataclass(frozen=True)
class FrequentSets:
    """All frequent itemsets, levels[k] holding the k-itemsets.

    levels[0] is always the empty tuple: the empty itemset is not mined,
    its count is the database total carried separately for rule
    generation. Each level is lexicographically sorted.
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

    def counts(self) -> dict[tuple[ItemId, ...], int]:
        """Lookup table from item tuple to count; includes the empty set.
        Raises FrequentSetError unless every count lies in [0, total]."""
        total = self.total
        if not isinstance(total, int) or total <= 0:
            raise FrequentSetError(f"total must be a positive int, got {total!r}")
        table: dict[tuple[ItemId, ...], int] = {(): total}
        for itemset in self:
            if itemset.count is None:
                raise FrequentSetError(f"itemset {itemset.items} has no count")
            if not 0 <= itemset.count <= total:
                raise FrequentSetError(
                    f"count {itemset.count} of itemset {itemset.items} is outside "
                    f"[0, total={total}]"
                )
            table[itemset.items] = itemset.count
        return table


def join_prefix(
    keys: Sequence[tuple[ItemId, ...]],
) -> Iterator[tuple[ItemId, ...]]:
    """The Apriori join and prune over sorted k-tuples of one size k.

    Yields, in lexicographic order, every (k+1)-tuple made by joining two
    keys that share their first k-1 items whose k-subsets are all keys.
    """
    present = set(keys)
    n = len(keys)
    k = len(keys[0]) if keys else 0
    for i in range(n):
        first = keys[i]
        prefix = first[:-1]
        for j in range(i + 1, n):
            second = keys[j]
            if second[:-1] != prefix:
                break  # sorted input keeps equal prefixes contiguous
            joined = first + (second[-1],)
            # dropping joined[-1] or joined[-2] gives first or second
            if all(
                joined[:m] + joined[m + 1 :] in present for m in range(k - 1)
            ):
                yield joined


def candidate_gen(level_k: Sequence[Itemset]) -> list[Itemset]:
    """Join frequent k-itemsets sharing a (k-1)-prefix, then prune.

    Input must be lexicographically sorted k-itemsets; output is the
    sorted list of (k+1)-candidates whose k-subsets are all present,
    counts unset.
    """
    if not level_k:
        return []
    k = len(level_k[0].items)
    keys = [s.items for s in level_k]
    if any(len(key) != k for key in keys):
        raise ConfigError("candidate_gen requires itemsets of uniform size")
    return [Itemset(joined) for joined in join_prefix(keys)]


def count_candidates(
    db: TransactionDatabase, candidates: Sequence[Itemset]
) -> list[Itemset]:
    """Annotate each candidate with its exact count, preserving order.

    Consecutive candidates that share all but their last item share one
    AND of that prefix (an Eclat prefix class), so each candidate costs
    one more AND and a popcount. The prefix bitmap is rebuilt whenever
    the prefix changes, which keeps the counts exact for any order and
    any mix of sizes.
    """
    vertical = db.vertical
    counted: list[Itemset] = []
    prefix: tuple[ItemId, ...] | None = None
    prefix_bitmap = -1
    for candidate in candidates:
        items = candidate.items
        if not items:
            raise ConfigError("cannot count the empty itemset as a candidate")
        if items[:-1] != prefix:
            prefix = items[:-1]
            prefix_bitmap = -1  # all rows
            for item_id in prefix:
                prefix_bitmap &= vertical[item_id]
        counted.append(
            Itemset(items, popcount(prefix_bitmap & vertical[items[-1]]))
        )
    return counted


def mine_frequent(
    db: TransactionDatabase, config: MiningConfig, workers: int = 1
) -> FrequentSets:
    """Run the level-wise mining loop; levels end at the last non-empty one.

    workers must be a positive integer and is otherwise ignored."""
    if db.total <= 0:
        raise EmptyDatabaseError("cannot mine an empty database")
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be a positive integer")
    threshold = min_count(config.min_support, db.total)
    level_1 = tuple(
        Itemset((item_id,), count)
        for item_id, count in enumerate(db.item_counts)
        if count >= threshold
    )
    levels: list[tuple[Itemset, ...]] = [(), level_1]
    if not level_1:
        return FrequentSets((levels[0],), db.total)
    k = 1
    while config.max_len is None or k < config.max_len:
        candidates = candidate_gen(levels[k])
        if not candidates:
            break
        counted = count_candidates(db, candidates)
        next_level = tuple(s for s in counted if s.count >= threshold)
        if not next_level:
            break
        levels.append(next_level)
        k += 1
    return FrequentSets(tuple(levels), db.total)


def write_itemsets(
    frequent: FrequentSets, catalog: ItemCatalog, path: str | os.PathLike
) -> None:
    """One line per frequent itemset: rendered items (space separated),
    count, support at full precision. Level order, lexicographic within."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for itemset in frequent:
            rendered = " ".join(catalog.render(i) for i in itemset.items)
            support = itemset.count / frequent.total  # type: ignore[operator]
            handle.write(f"{rendered},{itemset.count},{support!r}\n")
