"""Association-rule mining for discrete-valued tables.

Encode a table whose cells are small integers (the motivating use is
Hodge-number tables of complete intersection Calabi-Yau manifolds) into
transactions of column=value items, mine frequent itemsets with the
classical level-wise algorithm over vertical bitmaps, derive strong
implication rules with a full metric block, and optionally project rules
back into single-column predictions.
"""

from .errors import (
    ConfigError,
    DatabaseError,
    DuplicateTidError,
    EmptyDatabaseError,
    FrequentSetError,
    IngestError,
    MetricError,
    OracleBoundError,
    PredictionError,
    RulemineError,
    SchemaError,
    UnknownItemError,
)
from .ingest import (
    CICY5_SCHEMA,
    CICY6_SCHEMA,
    SCHEMA_PRESETS,
    SchemaConfig,
    export_transactions,
    generic_schema,
    load_csv,
    load_schema_file,
    load_transactions,
    resolve_schema,
)
from .miner import (
    FrequentSets,
    Itemset,
    MiningConfig,
    candidate_gen,
    count_candidates,
    meets_threshold,
    min_count,
    mine_frequent,
    write_itemsets,
)
from .oracle import ENUMERATION_BOUND, brute_force_frequent, brute_force_rules
from .predictor import Prediction, predict
from .rules import (
    ORDERINGS,
    AssociationRule,
    Metrics,
    RuleConfig,
    RuleSetDocument,
    compute_metrics,
    generate_rules,
    read_rules_json,
    render_rule,
    render_side,
    write_rules_csv,
    write_rules_json,
)
from .txdb import (
    ItemCatalog,
    ItemId,
    Transaction,
    TransactionDatabase,
    build_database,
    build_database_from_columns,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationRule",
    "CICY5_SCHEMA",
    "CICY6_SCHEMA",
    "ConfigError",
    "DatabaseError",
    "DuplicateTidError",
    "EmptyDatabaseError",
    "ENUMERATION_BOUND",
    "FrequentSetError",
    "FrequentSets",
    "IngestError",
    "ItemCatalog",
    "ItemId",
    "Itemset",
    "MetricError",
    "Metrics",
    "MiningConfig",
    "ORDERINGS",
    "OracleBoundError",
    "Prediction",
    "PredictionError",
    "RuleConfig",
    "RuleSetDocument",
    "RulemineError",
    "SCHEMA_PRESETS",
    "SchemaConfig",
    "SchemaError",
    "Transaction",
    "TransactionDatabase",
    "UnknownItemError",
    "brute_force_frequent",
    "brute_force_rules",
    "build_database",
    "build_database_from_columns",
    "candidate_gen",
    "compute_metrics",
    "count_candidates",
    "export_transactions",
    "generate_rules",
    "generic_schema",
    "load_csv",
    "load_schema_file",
    "load_transactions",
    "meets_threshold",
    "min_count",
    "mine_frequent",
    "predict",
    "read_rules_json",
    "render_rule",
    "render_side",
    "resolve_schema",
    "write_itemsets",
    "write_rules_csv",
    "write_rules_json",
]
