"""Level-wise frequent itemset mining over the bitmap index.

The classical algorithm: level 1 keeps every item whose count reaches
the support threshold; level k+1 candidates come from joining frequent
k-itemsets that share a (k-1)-prefix, pruned by downward closure (every
k-subset must itself be frequent); candidates are counted exactly
against the item bitmaps and filtered. Counting reads the database's
uint64 word matrix (db.words) as it is stored, ANDs each candidate's
item rows in one chain and counts blocks of candidates with
np.bitwise_count. Levels stay in lexicographic item-id order
throughout, so output order is deterministic.

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
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyDatabaseError,
    FrequentSetError,
    UnknownItemError,
)
from .txdb import ItemCatalog, ItemId, TransactionDatabase

EPS = 1e-9


def min_count(min_support: float, total: int) -> int:
    """Smallest transaction count that clears min_support."""
    return math.ceil(min_support * total - EPS)


def meets_threshold(count: int, base: int, threshold: float) -> bool:
    """True iff count/base >= threshold, up to the shared epsilon."""
    return count >= min_count(threshold, base)


def valid_threshold(value: object) -> bool:
    """A number in (0, 1]; True is an int, but no threshold."""
    return isinstance(value, (int, float)) and value is not True and 0 < value <= 1


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


class Itemset(NamedTuple):
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
    The keys are grouped into tails by prefix. Dropping one of the last
    two items of prefix + (first, last) gives a key of the group, and
    dropping prefix item m gives a key iff last is a tail of (prefix
    without item m) + (first,); so the allowed last items are the later
    tails of the group intersected with those tail sets.
    """
    tails: dict[tuple[ItemId, ...], list[ItemId]] = {}
    for key in keys:
        tails.setdefault(key[:-1], []).append(key[-1])
    tail_sets = {prefix: frozenset(group) for prefix, group in tails.items()}
    for prefix, group in tails.items():
        drops = [prefix[:m] + prefix[m + 1 :] for m in range(len(prefix))]
        for i, first in enumerate(group):
            later = group[i + 1 :]
            allowed = set(later).intersection(
                *(tail_sets.get(drop + (first,), ()) for drop in drops)
            )
            if allowed:
                base = prefix + (first,)
                yield from (base + (last,) for last in later if last in allowed)


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
    return list(map(Itemset, join_prefix(keys)))


# Candidates are counted in blocks of about this many bytes of bitmap
# words, which bounds the temporaries whatever the number of rows.
BLOCK_BYTES = 1 << 19


def count_candidates(
    db: TransactionDatabase, candidates: Sequence[Itemset]
) -> list[Itemset]:
    """Annotate each candidate with its exact count, preserving order.

    Each block of candidates becomes a table of rows of db.words, shorter
    keys left-padded with their own first item (x & x is x), so keys of
    any mix of sizes line up. Each candidate's rows are ANDed in one
    chain, k-1 ANDs on a level of k-item keys, and the bits counted with
    np.bitwise_count.
    """
    words = db.words
    count_type = np.min_scalar_type(db.total)  # a count never exceeds total
    per_block = max(1, BLOCK_BYTES // (words.itemsize * words.shape[1]))
    counted: list[Itemset] = []
    for start in range(0, len(candidates), per_block):
        keys = [c.items for c in candidates[start : start + per_block]]
        lengths = np.fromiter(map(len, keys), np.intp, len(keys))
        if lengths.min() == 0:
            raise ConfigError("cannot count the empty itemset as a candidate")
        flat = np.fromiter(chain.from_iterable(keys), np.intp, int(lengths.sum()))
        if flat.min() < 0 or flat.max() >= len(words):
            raise UnknownItemError(f"candidate item ids must lie in [0, {len(words)})")
        width = int(lengths.max())
        firsts = flat[np.cumsum(lengths) - lengths]
        table = np.repeat(firsts[:, None], width, axis=1)
        table[np.arange(width) >= (width - lengths)[:, None]] = flat

        hits = words[table[:, 0]]
        for column in range(1, width):
            hits &= words[table[:, column]]
        counts = np.bitwise_count(hits).sum(axis=1, dtype=count_type)
        counted.extend(map(Itemset, keys, counts.tolist()))
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
