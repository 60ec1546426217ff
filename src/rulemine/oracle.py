"""Brute-force reference implementations used to cross-check the miner.

The oracle enumerates every itemset over the catalog (no joins, no
pruning, no early termination) and counts each one by a horizontal scan
of the transactions, so it shares no mining logic with the engine. The
database stores only bitmaps; the rows it scans are unpacked from them
(`TransactionDatabase.transactions`), and a property test pins those
rows to the raw input rows.
The frequency comparison and the metric formulas are deliberately the
same single-source functions the engine uses; those are the contract,
not the thing under test. Enumeration is capped at 24 catalog items to
keep the 2^n sweep bounded.
"""

from __future__ import annotations

import itertools

from .errors import OracleBoundError
from .miner import FrequentSets, Itemset, MiningConfig, meets_threshold, min_count
from .rules import ORDERINGS, AssociationRule, RuleConfig, compute_metrics
from .txdb import TransactionDatabase

ENUMERATION_BOUND = 24


def brute_force_frequent(
    db: TransactionDatabase, config: MiningConfig
) -> FrequentSets:
    """Exhaustively enumerate and count every itemset; keep the frequent."""
    n_items = len(db.catalog)
    if n_items > ENUMERATION_BOUND:
        raise OracleBoundError(
            f"catalog has {n_items} items, oracle enumerates at most "
            f"{ENUMERATION_BOUND}"
        )
    threshold = min_count(config.min_support, db.total)
    transactions = [frozenset(t.items) for t in db.transactions]
    limit = n_items if config.max_len is None else min(config.max_len, n_items)
    levels: list[tuple[Itemset, ...]] = [()]
    for size in range(1, limit + 1):
        level = []
        for combo in itertools.combinations(range(n_items), size):
            wanted = frozenset(combo)
            count = sum(1 for row in transactions if wanted <= row)
            if count >= threshold:
                level.append(Itemset(combo, count))
        levels.append(tuple(level))
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
    return FrequentSets(tuple(levels), db.total)


def brute_force_rules(
    db: TransactionDatabase, mining: MiningConfig, config: RuleConfig
) -> list[AssociationRule]:
    """Strong rules from brute-force frequent sets, same ordering policy."""
    frequent = brute_force_frequent(db, mining)
    counts = frequent.counts()
    out: list[AssociationRule] = []
    for itemset in frequent:
        items = itemset.items
        joint = itemset.count
        for rhs_size in range(1, len(items) + 1):
            for rhs in itertools.combinations(items, rhs_size):
                if config.singleton_rhs and rhs_size != 1:
                    continue
                lhs = tuple(i for i in items if i not in rhs)
                if not lhs and not config.include_empty_lhs:
                    continue
                if not meets_threshold(joint, counts[lhs], config.min_confidence):
                    continue
                metrics = compute_metrics(counts[lhs], counts[rhs], joint, db.total)
                out.append(
                    AssociationRule(
                        lhs=Itemset(lhs, counts[lhs]),
                        rhs=Itemset(rhs, counts[rhs]),
                        count=joint,
                        **metrics._asdict(),
                    )
                )
    out.sort(key=ORDERINGS[config.ordering])
    return out
