"""Association-rule mining for discrete-valued tables.

Encode a table whose cells are small integers (the motivating use is
Hodge-number tables of complete intersection Calabi-Yau manifolds) into
transactions of column=value items, mine frequent itemsets with the
classical level-wise algorithm over vertical bitmaps, derive strong
implication rules with a full metric block, and optionally project rules
back into single-column predictions.

Each public name is imported from its module on first use, so `import
rulemine` loads no submodule and no numpy, and a command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_HOMES = {
    name: module
    for module, names in {
        "errors": """ConfigError DatabaseError DuplicateTidError
            EmptyDatabaseError FrequentSetError IngestError MetricError
            OracleBoundError PredictionError RulemineError SchemaError
            UnknownItemError""",
        "ingest": """CICY5_SCHEMA CICY6_SCHEMA SCHEMA_PRESETS SchemaConfig
            export_transactions generic_schema load_csv load_schema_file
            load_transactions resolve_schema""",
        "items": "ItemCatalog ItemId Itemset",
        "miner": """FrequentSets MiningConfig candidate_gen count_candidates
            generate_rules meets_threshold min_count mine_frequent
            write_itemsets""",
        "oracle": "ENUMERATION_BOUND brute_force_frequent brute_force_rules",
        "predictor": "Prediction predict",
        "rules": """ORDERINGS AssociationRule Metrics RuleConfig
            RuleSetDocument compute_metrics read_rules_json render_rule
            render_side write_rules_csv write_rules_json""",
        "txdb": """Transaction TransactionDatabase build_database
            build_database_from_columns""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    """Import a public name from its module, and keep it here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOMES[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
