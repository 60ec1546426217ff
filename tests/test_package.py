"""The public namespace of the rulemine package and the modules each use of
it loads."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rulemine

# Every public name, by the module that defines it.
PUBLIC = {
    "errors": (
        "ConfigError", "DatabaseError", "DuplicateTidError", "EmptyDatabaseError",
        "FrequentSetError", "IngestError", "MetricError", "OracleBoundError",
        "PredictionError", "RulemineError", "SchemaError", "UnknownItemError",
    ),
    "ingest": (
        "CICY5_SCHEMA", "CICY6_SCHEMA", "SCHEMA_PRESETS", "SchemaConfig",
        "export_transactions", "generic_schema", "load_csv", "load_schema_file",
        "load_transactions", "resolve_schema",
    ),
    "miner": (
        "FrequentSets", "Itemset", "MiningConfig", "candidate_gen",
        "count_candidates", "meets_threshold", "min_count", "mine_frequent",
        "write_itemsets",
    ),
    "oracle": ("ENUMERATION_BOUND", "brute_force_frequent", "brute_force_rules"),
    "predictor": ("Prediction", "predict"),
    "rules": (
        "ORDERINGS", "AssociationRule", "Metrics", "RuleConfig", "RuleSetDocument",
        "compute_metrics", "generate_rules", "read_rules_json", "render_rule",
        "render_side", "write_rules_csv", "write_rules_json",
    ),
    "txdb": (
        "ItemCatalog", "ItemId", "Transaction", "TransactionDatabase",
        "build_database", "build_database_from_columns",
    ),
}  # fmt: skip
NAMES = {name for names in PUBLIC.values() for name in names}


def test_all_lists_the_pinned_names():
    assert len(NAMES) == 54
    assert set(rulemine.__all__) == NAMES
    assert NAMES <= set(dir(rulemine))


def test_each_name_is_the_object_its_module_defines():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"rulemine.{module_name}")
        for name in names:
            value = getattr(rulemine, name)
            assert value is getattr(module, name), name
            if name != "ItemId" and (inspect.isclass(value) or inspect.isfunction(value)):
                assert value.__module__ == module.__name__, name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from rulemine import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {
        name: getattr(rulemine, name) for name in NAMES
    }


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        rulemine.no_such_name


def test_submodules_import_through_the_package():
    from rulemine import cli, rules

    assert (cli.__name__, rules.__name__) == ("rulemine.cli", "rulemine.rules")


def _modules_after(code: str, *args: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(rulemine.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True,
    )  # fmt: skip
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_import_rulemine_loads_no_submodule_and_no_numpy():
    loaded = _modules_after("import rulemine")
    assert "rulemine" in loaded
    assert loaded.isdisjoint({"numpy", *(f"rulemine.{name}" for name in PUBLIC)})


def test_commands_do_not_load_the_oracle(tmp_path):
    (tmp_path / "table.csv").write_text("a,b\n1,1\n1,1\n1,2\n2,2\n", encoding="utf-8")
    code = """import sys
from rulemine import cli
root = sys.argv[1]
rules = f"{root}/out/rules.json"
mine = ["--input", f"{root}/table.csv", "--out-dir", f"{root}/out", "--format", "json"]
assert cli.main(["mine", *mine]) == 0
assert cli.main(["report", "--input", rules]) == 0
assert cli.main(["predict", "--input", rules, "--known", "a=1", "--target", "b"]) == 0
"""
    loaded = _modules_after(code, str(tmp_path))
    assert "rulemine.rules" in loaded and "rulemine.predictor" in loaded
    assert "rulemine.oracle" not in loaded


# numpy and the modules that need it
ENGINE = {"numpy", *(f"rulemine.{name}" for name in PUBLIC if name not in ("errors", "oracle"))}


@pytest.mark.parametrize("argv", [["--version"], ["mine", "--help"]])
def test_version_and_help_load_no_engine(argv):
    code = f"from rulemine import cli\nassert cli.main({argv!r}) == 0"
    loaded = _modules_after(code)
    assert "rulemine.cli" in loaded
    assert loaded.isdisjoint(ENGINE)


def test_each_command_loads_only_what_it_runs(tmp_path):
    (tmp_path / "table.csv").write_text("a,b\n1,1\n1,1\n1,2\n2,2\n", encoding="utf-8")
    mine = """import sys
from rulemine import cli
root = sys.argv[1]
argv = ["mine", "--input", f"{root}/table.csv", "--out-dir", f"{root}/out", "--format", "json"]
assert cli.main(argv) == 0
"""
    loaded = _modules_after(mine, str(tmp_path))
    assert {"rulemine.ingest", "rulemine.miner", "rulemine.rules"} <= loaded
    assert "rulemine.predictor" not in loaded
    queries = """import sys
from rulemine import cli
rules = f"{sys.argv[1]}/out/rules.json"
assert cli.main(["report", "--input", rules]) == 0
assert cli.main(["predict", "--input", rules, "--known", "a=1", "--target", "b"]) == 0
"""
    loaded = _modules_after(queries, str(tmp_path))
    assert {"rulemine.rules", "rulemine.predictor"} <= loaded
    assert "rulemine.ingest" not in loaded
