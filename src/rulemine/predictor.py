"""Predict one unknown column of a partially observed row from mined rules.

A rule votes for a candidate value v of the target column when its RHS
is exactly {target=v} and its whole LHS is contained in the known items.
The voters are put in one order: confidence descending, then support
descending, then ascending value, then shortest and lexicographically
smallest LHS, then rule order. Each candidate's witness is its first
voter in that order, and candidates rank as their witnesses do. No
matching rule means no prediction, which is a valid empty answer, not an
error. `rules` may be any rules, or only the voters
(StoredRules.with_single_rhs_in narrows them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PredictionError
from .items import ItemCatalog, ItemId
from .rules import AssociationRule


@dataclass(frozen=True)
class Prediction:
    """One candidate value for the target column with its witness."""

    item: ItemId
    value: int
    confidence: float
    support: float
    rule: AssociationRule


def predict(
    known_items: Iterable[ItemId],
    rules: Sequence[AssociationRule],
    target_column: str,
    catalog: ItemCatalog,
) -> list[Prediction]:
    """Rank candidate values of target_column given known items.

    known_items must be ids of the ruleset's catalog; the target column
    must not already be among them.
    """
    ids = list(known_items)
    for item_id in ids:  # catalog.column raises UnknownItemError
        if catalog.column(item_id) == target_column:
            raise PredictionError(
                f"target column {target_column!r} is already present among "
                f"the known items ({catalog.render(item_id)})"
            )
    known = frozenset(ids)

    voters = [
        rule
        for rule in rules
        if len(rule.rhs.items) == 1
        and catalog.column(rule.rhs.items[0]) == target_column
        and known.issuperset(rule.lhs.items)
    ]
    voters.sort(key=lambda rule: (  # stable: a tie keeps rule order
        -rule.confidence, -rule.support, catalog.value(rule.rhs.items[0]),
        len(rule.lhs.items), rule.lhs.items,
    ))
    best: dict[ItemId, AssociationRule] = {}
    for rule in voters:  # a value's first voter is its witness
        best.setdefault(rule.rhs.items[0], rule)
    return [
        Prediction(
            item=item_id,
            value=catalog.value(item_id),
            confidence=rule.confidence,
            support=rule.support,
            rule=rule,
        )
        for item_id, rule in best.items()
    ]
