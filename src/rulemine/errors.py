"""Exception taxonomy.

Everything raised on purpose derives from RulemineError so callers can
catch the library in one clause. The CLI maps subclasses to exit codes:
validation problems (schema content, bad thresholds, unknown items,
predictor misuse) exit 2, data and I/O problems exit 1.
"""

import contextlib
import os


class RulemineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RulemineError):
    """A threshold or option is outside its documented domain."""


class SchemaError(RulemineError):
    """A schema or catalog definition is malformed."""


class IngestError(RulemineError):
    """An input file cannot be turned into transactions."""


class DatabaseError(RulemineError):
    """A transaction database cannot be built or queried as asked."""


class DuplicateTidError(DatabaseError):
    """A row's transaction id is not its ordinal (a duplicate, a gap or
    not an int)."""


class EmptyDatabaseError(DatabaseError):
    """No transactions survived construction."""


class UnknownItemError(DatabaseError):
    """An item id or (column, value) pair is not in the catalog."""


class FrequentSetError(RulemineError):
    """A FrequentSets instance is inconsistent (bad counts, not closed)."""


class MetricError(RulemineError):
    """Support counts passed to compute_metrics violate their ordering."""


class OracleBoundError(RulemineError):
    """The catalog is too large for brute-force enumeration."""


class PredictionError(RulemineError):
    """A prediction query contradicts itself."""


@contextlib.contextmanager
def utf8_input(path: str | os.PathLike):
    """Context for reading path: bytes that do not decode raise
    IngestError naming the file, not a bare UnicodeDecodeError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8: {exc}") from None
