"""Shared fixture builders for the test suite."""

from __future__ import annotations

import random
from typing import Iterator, Sequence

import numpy as np

from rulemine import (
    CICY6_SCHEMA,
    ItemId,
    TransactionDatabase,
    build_database,
    build_database_from_columns,
)

REFERENCE_TOTAL = 12433
REFERENCE_MIN_COUNT = 1244  # frequency threshold at min_support 0.10


def cicy5_reference_columns() -> dict[str, np.ndarray]:
    """Six-column synthetic table with pinned contingency counts.

    Construction is analytic (no RNG): the named blocks realise
    N(item5=4)=1358, N(item1=3)=4812, N(item5=4 & item1=3)=1312,
    N(item3=0)=11899, N(item2=0)=12147, and every background item stays
    below the 0.10-support threshold of 1244 so no accidental frequent
    pairs appear. The missing-value exclusion windows of item2/item3 sit
    inside the item5=4 block, which keeps the pairs {item5=4,item2=0}
    and {item5=4,item3=0} infrequent too.
    """
    tid = np.arange(REFERENCE_TOTAL)
    item1 = np.where(
        (tid < 1312) | ((tid >= 1358) & (tid < 4858)), 3, 100 + tid % 8
    )
    item2 = np.where((tid >= 534) & (tid < 820), 1, 0)
    item3 = np.where(tid < 534, 7, 0)
    item4 = 1000 + tid % 11
    item5 = np.where(tid < 1358, 4, 100 + tid % 10)
    item6 = 2000 + tid % 11
    return {
        "item1": item1,
        "item2": item2,
        "item3": item3,
        "item4": item4,
        "item5": item5,
        "item6": item6,
    }


def cicy5_reference_db() -> TransactionDatabase:
    return build_database_from_columns(cicy5_reference_columns())


# A table shaped after the CICY 6-fold data. Only two facts come from
# PAPER.md: 1,482,022 rows of the nine Hodge numbers the cicy6 preset reads,
# and h12, h13, h14 and h23 being 0 in every row. The rest is assumed, not
# the paper's data: PAPER.md says the 6-fold Hodge numbers remain largely
# undetermined without giving a share, so the 47% of rows with missing cells
# is borrowed from the 5-fold table (about 53% known); which columns go
# missing (h15, h22, h24 and h33 together, h11 always known) is made up; and
# the five varying columns are uniform, not the real distribution.
CICY6_ROWS = 1_482_022
CICY6_CONSTANT = ("h12", "h13", "h14", "h23")
CICY6_SOMETIMES_MISSING = ("h15", "h22", "h24", "h33")


def write_cicy6_shaped_csv(
    path, rows: int, seed: int, values: int = 3, missing: float = 0.47
) -> int:
    """Write a seeded CSV of the assumed CICY 6-fold shape above and return
    the number of rows with missing cells. The columns outside CICY6_CONSTANT
    are uniform on 0..values-1; a share `missing` of the rows, the first
    row among them when missing > 0, holds NA in CICY6_SOMETIMES_MISSING.
    Rows are drawn in blocks, so a paper-sized table never sits in memory
    as Python strings."""
    rng = np.random.default_rng(seed)
    headers = [source for source, _ in CICY6_SCHEMA.columns]
    constant = [headers.index(h) for h in CICY6_CONSTANT]
    gaps = [headers.index(h) for h in CICY6_SOMETIMES_MISSING]
    texts = np.array([*map(str, range(values)), "NA"])  # cell code values is NA
    incomplete = 0
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(",".join(headers) + "\n")
        for start in range(0, rows, 1 << 16):
            cells = rng.integers(0, values, (min(1 << 16, rows - start), len(headers)))
            cells[:, constant] = 0
            lacking = rng.random(len(cells)) < missing
            lacking[0] |= start == 0 and missing > 0
            cells[np.ix_(lacking, gaps)] = values
            incomplete += int(lacking.sum())
            handle.writelines(",".join(row) + "\n" for row in texts[cells].tolist())
    return incomplete


def random_database(
    rng: random.Random,
    max_items: int = 12,
    max_tx: int = 64,
    max_tx_size: int = 8,
) -> TransactionDatabase:
    """A database of random item subsets within the given bounds."""
    n_items = rng.randint(2, max_items)
    n_tx = rng.randint(1, max_tx)
    rows = []
    for tid in range(n_tx):
        size = rng.randint(1, min(max_tx_size, n_items))
        members = rng.sample(range(n_items), size)
        rows.append((tid, [(f"c{j}", 0) for j in members]))
    return build_database(rows)


def horizontal_count(db: TransactionDatabase, itemset) -> int:
    """Independent count by scanning the horizontal rows."""
    wanted = frozenset(itemset)
    return sum(1 for t in db.transactions if wanted <= frozenset(t.items))


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
    tails of the group intersected with those tail sets. With k = 1 the
    prefix is empty and every pair is allowed.
    """
    tails: dict[tuple[ItemId, ...], list[ItemId]] = {}
    for key in keys:
        tails.setdefault(key[:-1], []).append(key[-1])
    tail_sets = {prefix: frozenset(group) for prefix, group in tails.items()}
    for prefix, group in tails.items():
        drops = [prefix[:m] + prefix[m + 1 :] for m in range(len(prefix))]
        for i, first in enumerate(group):
            later = group[i + 1 :]
            if drops:
                allowed = set(later).intersection(
                    *(tail_sets.get(drop + (first,), ()) for drop in drops)
                )
                later = [last for last in later if last in allowed]
            base = prefix + (first,)
            for last in later:
                yield base + (last,)
