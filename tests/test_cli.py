from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rulemine import cli


UNIFORM = "a,b\n1,1\n1,1\n1,1\n1,1\n"


@pytest.fixture()
def uniform_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(UNIFORM, encoding="utf-8")
    return path


def _mine(uniform_csv, out_dir, *extra):
    return cli.main(
        ["mine", "--input", str(uniform_csv), "--out-dir", str(out_dir), *extra]
    )


def test_mine_end_to_end(uniform_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert _mine(uniform_csv, out) == 0
    stdout = capsys.readouterr().out
    assert stdout == f"4 transactions, 3 frequent itemsets, 5 rules -> {out}\n"
    assert (out / "itemsets.csv").is_file()
    assert (out / "rules.csv").is_file()
    assert (out / "manifest.json").is_file()
    assert not (out / "rules.json").exists()  # csv format by default
    rules_lines = (out / "rules.csv").read_text(encoding="utf-8").splitlines()
    assert len(rules_lines) == 6  # header + 5 rules
    assert rules_lines[1].startswith("1,{},{a=1},")


def test_mine_format_json(uniform_csv, tmp_path):
    out = tmp_path / "out"
    assert _mine(uniform_csv, out, "--format", "json") == 0
    document = json.loads((out / "rules.json").read_text(encoding="utf-8"))
    assert document["total"] == 4
    assert document["catalog"] == ["a=1", "b=1"]
    assert len(document["rules"]) == 5
    assert document["rule_config"]["min_confidence"] == 0.80


def test_mine_is_byte_deterministic(uniform_csv, tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert _mine(uniform_csv, out1, "--format", "json") == 0
    assert _mine(uniform_csv, out2, "--format", "json") == 0
    for name in ("itemsets.csv", "rules.csv", "rules.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_contents(uniform_csv, tmp_path):
    out = tmp_path / "out"
    _mine(uniform_csv, out, "--min-support", "0.5", "--workers", "2")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["engine"] == "rulemine"
    assert manifest["input"] == str(uniform_csv)
    assert manifest["schema"] == "generic"
    assert manifest["min_support"] == 0.5
    assert manifest["min_confidence"] == 0.8
    assert manifest["workers"] == 2
    assert manifest["include_empty_lhs"] is True
    assert manifest["database"]["total"] == 4
    assert manifest["database"]["items"] == 2
    assert manifest["database"]["rows_read"] == 4
    assert manifest["outputs"]["rules_csv"] == str(out / "rules.csv")
    assert manifest["outputs"]["rules_json"] is None
    assert set(manifest["timings"]) == {"load_s", "mine_s", "rules_s", "write_s"}


def test_manifest_replay_reproduces_outputs(uniform_csv, tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    _mine(
        uniform_csv,
        first,
        "--format",
        "json",
        "--min-support",
        "0.5",
        "--min-confidence",
        "0.6",
        "--ordering",
        "confidence",
        "--no-empty-lhs",
        "--precision",
        "6",
    )
    code = cli.main(
        [
            "mine",
            "--manifest",
            str(first / "manifest.json"),
            "--out-dir",
            str(again),
        ]
    )
    assert code == 0
    for name in ("itemsets.csv", "rules.csv", "rules.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
    replayed = json.loads((again / "manifest.json").read_text(encoding="utf-8"))
    assert replayed["ordering"] == "confidence"
    assert replayed["include_empty_lhs"] is False
    assert replayed["precision"] == 6


def test_manifest_replay_reuses_recorded_out_dir(uniform_csv, tmp_path):
    out = tmp_path / "recorded"
    _mine(uniform_csv, out)
    (out / "itemsets.csv").unlink()
    assert cli.main(["mine", "--manifest", str(out / "manifest.json")]) == 0
    assert (out / "itemsets.csv").is_file()


def test_manifest_replay_honours_explicit_default_out_dir(
    uniform_csv, tmp_path, monkeypatch
):
    recorded = tmp_path / "recorded"
    _mine(uniform_csv, recorded)
    workdir = tmp_path / "elsewhere"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = cli.main(
        ["mine", "--manifest", str(recorded / "manifest.json"), "--out-dir", "out"]
    )
    assert code == 0
    assert (workdir / "out" / "itemsets.csv").read_bytes() == (
        recorded / "itemsets.csv"
    ).read_bytes()


def test_manifest_replay_missing_file(tmp_path):
    code = cli.main(["mine", "--manifest", str(tmp_path / "none.json")])
    assert code == 1


def test_manifest_replay_from_another_directory(tmp_path, monkeypatch):
    recorded = tmp_path / "a"
    recorded.mkdir()
    (recorded / "table.csv").write_text("h11,h21\n1,2\n1,2\n1,3\n", encoding="utf-8")
    (recorded / "schema.json").write_text(
        '{"columns": [["h11", "x"], ["h21", "y"]]}', encoding="utf-8"
    )
    monkeypatch.chdir(recorded)
    argv = ["mine", "--input", "table.csv", "--schema", "schema.json", "--format", "json"]
    assert cli.main([*argv, "--out-dir", "out"]) == 0
    manifest = json.loads((recorded / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["input"] == str(recorded / "table.csv")
    assert manifest["schema"] == str(recorded / "schema.json")

    elsewhere = tmp_path / "b"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    manifest_path = recorded / "out" / "manifest.json"
    assert cli.main(["mine", "--manifest", str(manifest_path), "--out-dir", "again"]) == 0
    for name in ("itemsets.csv", "rules.csv", "rules.json"):
        assert (elsewhere / "again" / name).read_bytes() == (
            recorded / "out" / name
        ).read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: {k: v for k, v in m.items() if k != "schema"}, "missing key 'schema'"),
        (lambda m: {k: v for k, v in m.items() if k != "out_dir"}, "missing key 'out_dir'"),
        (lambda m: [m], "manifest must be a JSON object"),
        (lambda m: 7, "manifest must be a JSON object"),
    ],
    ids=["no_schema", "no_out_dir", "list", "number"],
)
def test_malformed_manifest_exits_1(uniform_csv, tmp_path, capsys, edit, message):
    _mine(uniform_csv, tmp_path / "out")
    path = tmp_path / "out" / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))))
    capsys.readouterr()
    assert cli.main(["mine", "--manifest", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_manifest_without_include_empty_lhs_replays_as_true(uniform_csv, tmp_path):
    _mine(uniform_csv, tmp_path / "out")
    path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["include_empty_lhs"]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    again = tmp_path / "again"
    assert cli.main(["mine", "--manifest", str(path), "--out-dir", str(again)]) == 0
    replayed = json.loads((again / "manifest.json").read_text(encoding="utf-8"))
    assert replayed["include_empty_lhs"] is True
    assert (again / "rules.csv").read_bytes() == (tmp_path / "out" / "rules.csv").read_bytes()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("min_support", "0.5", "--min-support must lie in (0,1]"),
        ("max_len", 2.5, "--max-len must be a positive integer"),
        ("workers", None, "--workers must be a positive integer"),
        ("precision", 2.0, "--precision must be an integer in [0, 1074]"),
        ("separator", [","], "--separator must be a single character"),
        ("ordering", ["default"], "--ordering must be one of: confidence, default, support"),
        ("input", 3, "--input must be a path, got 3"),
        ("schema", "a\0b", "--schema must be a path, got 'a\\x00b'"),
        ("schema", None, "--schema must be a path, got None"),
        ("out_dir", {}, "--out-dir must be a path, got {}"),
        ("min_support", True, "--min-support must lie in (0,1]"),
        ("min_confidence", True, "--min-confidence must lie in (0,1]"),
        ("max_len", True, "--max-len must be a positive integer"),
        ("workers", True, "--workers must be a positive integer"),
        ("precision", True, "--precision must be an integer in [0, 1074]"),
        ("format", "yaml", "--format must be one of: csv, json"),
        ("format", ["json"], "--format must be one of: csv, json"),
        ("include_empty_lhs", "no", "include_empty_lhs must be true or false"),
        ("include_empty_lhs", 0, "include_empty_lhs must be true or false"),
    ],
)
def test_manifest_with_mistyped_flag_exits_2(uniform_csv, tmp_path, capsys, flag, value, message):
    _mine(uniform_csv, tmp_path / "out")
    path = tmp_path / "out" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest[flag] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["mine", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_precision_out_of_range_exits_2(uniform_csv, tmp_path, capsys):
    assert _mine(uniform_csv, tmp_path / "out", "--precision", "1075") == 2
    assert cli.main(["report", "--input", str(tmp_path / "x.csv"), "--precision", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --precision must be an integer in [0, 1074]"] * 2


@pytest.mark.parametrize("name", ["rules.csv", "rules.json", "manifest.json", "table.csv", "schema.json"])
def test_non_utf8_file_exits_1(uniform_csv, tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"a,b\n\xff\xfe,1\n")
    argv = {
        "rules.csv": ["report", "--input", str(path)],
        "rules.json": ["predict", "--input", str(path), "--target", "a"],
        "manifest.json": ["mine", "--manifest", str(path)],
        "table.csv": ["mine", "--input", str(path), "--out-dir", str(tmp_path / "out")],
        "schema.json": ["mine", "--input", str(uniform_csv), "--schema", str(path)],
    }[name]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "can't decode byte 0xff" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["rules.csv", "rules.json", "manifest.json", "table.csv", "schema.json"])
def test_non_utf8_error_names_the_file(uniform_csv, tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"a,b\n\xff\xfe,1\n")
    argv = {
        "rules.csv": ["report", "--input", str(path)],
        "rules.json": ["predict", "--input", str(path), "--target", "a"],
        "manifest.json": ["mine", "--manifest", str(path)],
        "table.csv": ["mine", "--input", str(path), "--out-dir", str(tmp_path / "out")],
        "schema.json": ["mine", "--input", str(uniform_csv), "--schema", str(path)],
    }[name]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8: ")


def test_replayed_non_utf8_input_is_named(uniform_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert _mine(uniform_csv, out) == 0
    uniform_csv.write_bytes(b"a,b\n\xff,1\n")
    capsys.readouterr()
    assert cli.main(["mine", "--manifest", str(out / "manifest.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {uniform_csv}: not UTF-8: ")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["report", "--input"], 1),
        (["mine", "--manifest"], 1),
        (["mine", "--input", "table.csv", "--schema"], 2),
    ],
    ids=["rules_json", "manifest", "schema"],
)
def test_json_nested_past_the_recursion_limit_is_invalid(tmp_path, capsys, argv, code):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert cli.main([*argv, str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON: maximum recursion depth")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["report", "mine"])
def test_csv_with_an_oversized_field_exits_1(tmp_path, capsys, command):
    path = tmp_path / "table.csv"
    path.write_text('a,b\n1,"' + "x" * 200_000 + "\n", encoding="utf-8")
    argv = [command, "--input", str(path)]
    assert cli.main(argv + (["--out-dir", str(tmp_path / "out")] if command == "mine" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: field larger than field limit")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data", ["", "\n\n"], ids=["header_only", "blank_lines"])
def test_mine_on_a_table_without_data_rows_prints_one_error(tmp_path, capsys, data):
    path = tmp_path / "table.csv"
    path.write_text("a,b\n" + data, encoding="utf-8")
    assert cli.main(["mine", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: no rows survived the 'drop_row' policy\n"
    )


@pytest.mark.parametrize("markers", ['"NA"', "5", '[["NA"]]'])
def test_schema_with_non_list_missing_markers_exits_2(uniform_csv, tmp_path, capsys, markers):
    schema = tmp_path / "schema.json"
    schema.write_text(
        '{"columns": [["a", "a"]], "missing_markers": %s}' % markers, encoding="utf-8"
    )
    assert cli.main(["mine", "--input", str(uniform_csv), "--schema", str(schema)]) == 2
    assert capsys.readouterr().err == (
        f"error: {schema}: 'missing_markers' must be a list of strings\n"
    )


def test_failed_mine_keeps_the_previous_outputs(uniform_csv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert _mine(uniform_csv, out, "--format", "json") == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def write_part_then_fail(rules, catalog, total, path, **keywords):
        Path(path).write_text("{", encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_rules_json", write_part_then_fail)
    capsys.readouterr()
    # --precision 2 changes rules.csv and the manifest, were they rewritten
    assert _mine(uniform_csv, out, "--format", "json", "--precision", "2") == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_csv_run_removes_a_stale_rules_json(uniform_csv, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert _mine(uniform_csv, out, "--format", "json") == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def fail(*args, **keywords):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "write_rules_csv", fail)
        assert _mine(uniform_csv, out) == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    assert _mine(uniform_csv, out) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "itemsets.csv", "manifest.json", "rules.csv"
    ]  # fmt: skip
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"]["rules_json"] is None
    capsys.readouterr()
    assert cli.main(["report", "--input", str(out / "rules.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


GOLDEN = Path(__file__).parent / "golden"


def test_golden_outputs_are_byte_identical(tmp_path):
    # The expected files were written by the generator that tested every
    # split and by json.dump(indent=2); the outputs must not change.
    out = tmp_path / "out"
    argv = [
        "mine", "--input", str(GOLDEN / "table.csv"), "--schema", str(GOLDEN / "schema.json"),
        "--out-dir", str(out), "--format", "json", "--min-support", "0.2", "--min-confidence", "0.6",
    ]  # fmt: skip
    assert cli.main(argv) == 0
    for name in ("itemsets.csv", "rules.csv", "rules.json"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["report", "--top", "5"], "report_top5.txt"),
        (["predict", "--known", "größe=0", "--known", "x=2", "--target", "farbe"], "predict.json"),
    ],
    ids=["report", "predict"],
)
def test_golden_queries_are_byte_identical(capsys, argv, expected):
    # The expected stdout was written by the reader that built every rule
    # of the file.
    argv = [argv[0], "--input", str(GOLDEN / "rules.json"), *argv[1:]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="utf-8")


def test_missing_input_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code = cli.main(["mine", "--input", str(missing)])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_input_flag_is_required_without_manifest(capsys):
    assert cli.main(["mine"]) == 2
    assert "--input is required" in capsys.readouterr().err


def test_threshold_validation_exits_2(uniform_csv, capsys):
    code = cli.main(
        ["mine", "--input", str(uniform_csv), "--min-support", "0"]
    )
    assert code == 2
    assert "--min-support must lie in (0,1]" in capsys.readouterr().err

    code = cli.main(
        ["mine", "--input", str(uniform_csv), "--min-support", "1.5"]
    )
    assert code == 2
    assert "--min-support must lie in (0,1]" in capsys.readouterr().err

    code = cli.main(
        ["mine", "--input", str(uniform_csv), "--min-confidence", "-0.2"]
    )
    assert code == 2
    assert "--min-confidence must lie in (0,1]" in capsys.readouterr().err

    code = cli.main(
        ["mine", "--input", str(uniform_csv), "--max-len", "0"]
    )
    assert code == 2
    code = cli.main(
        ["mine", "--input", str(uniform_csv), "--workers", "0"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "setting, message",
    [
        (("--min-support", "0"), "--min-support must lie in (0,1]"),
        (("--min-confidence", "2"), "--min-confidence must lie in (0,1]"),
        (("--max-len", "0"), "--max-len must be a positive integer"),
    ],
)
@pytest.mark.parametrize("missing", ["--input", "--schema"])
def test_settings_are_checked_before_any_file_is_read(
    uniform_csv, tmp_path, capsys, missing, setting, message
):
    paths = {"--input": str(uniform_csv), "--schema": "generic"}
    paths[missing] = str(tmp_path / "missing.file")
    argv = ["mine", "--out-dir", str(tmp_path / "out"), *setting]
    for flag, path in paths.items():
        argv += [flag, path]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_argparse_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["mine", "--nope"]) == 2
    assert cli.main(["mine", "--input", "x", "--ordering", "zigzag"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "rulemine 0.1.0"


def test_workers_flag_matches_serial(uniform_csv, tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "forked"
    _mine(uniform_csv, out1, "--format", "json")
    _mine(uniform_csv, out2, "--format", "json", "--workers", "2")
    for name in ("itemsets.csv", "rules.csv", "rules.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_tiny_min_support_mines_no_itemset_of_count_0(tmp_path, capsys):
    # min_support * total is below the epsilon: the threshold is 1, not 0
    table = tmp_path / "table.csv"
    table.write_text("a,b\n0,0\n1,1\n2,0\n", encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(
        ["mine", "--input", str(table), "--out-dir", str(out), "--format", "json",
         "--min-support", "1e-12", "--min-confidence", "0.5"]
    )  # fmt: skip
    assert code == 0
    assert capsys.readouterr().out == f"3 transactions, 8 frequent itemsets, 7 rules -> {out}\n"
    lines = (out / "itemsets.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8
    assert all(int(line.split(",")[1]) >= 1 for line in lines)


def test_separator_flag(tmp_path):
    table = tmp_path / "semi.csv"
    table.write_text("a;b\n1;1\n1;1\n", encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(
        [
            "mine",
            "--input",
            str(table),
            "--separator",
            ";",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "rules.csv").read_text(encoding="utf-8").count("\n") == 6


def test_multi_character_separator_exits_2(uniform_csv, tmp_path, capsys):
    code = _mine(uniform_csv, tmp_path / "out", "--separator", ";;")
    assert code == 2
    assert "--separator must be a single character" in capsys.readouterr().err


def test_max_len_flag(uniform_csv, tmp_path):
    out = tmp_path / "out"
    _mine(uniform_csv, out, "--max-len", "1")
    itemsets = (out / "itemsets.csv").read_text(encoding="utf-8").splitlines()
    assert itemsets == ["a=1,4,1.0", "b=1,4,1.0"]


def test_no_empty_lhs_flag(uniform_csv, tmp_path):
    out = tmp_path / "out"
    _mine(uniform_csv, out, "--no-empty-lhs")
    lines = (out / "rules.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header + the two one-item implications
    assert all("{}" not in line for line in lines[1:])


def test_mine_precision_flag(uniform_csv, tmp_path):
    out = tmp_path / "out"
    _mine(uniform_csv, out, "--precision", "2")
    lines = (out / "rules.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "1,{},{a=1},1.00,1.00,1.00,1.00,4"


def test_cicy5_schema_renames_columns(tmp_path):
    table = tmp_path / "hodge.csv"
    table.write_text(
        "h11,h21,h13,h14,h22,h23\n"
        "3,0,0,1000,4,2000\n"
        "3,0,0,1001,4,2001\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = cli.main(
        [
            "mine",
            "--input",
            str(table),
            "--schema",
            "cicy5",
            "--out-dir",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    document = json.loads((out / "rules.json").read_text(encoding="utf-8"))
    assert "item1=3" in document["catalog"]
    assert document["column_sources"]["item1"] == "h11"


def test_report_from_csv(uniform_csv, tmp_path, capsys):
    out = tmp_path / "out"
    _mine(uniform_csv, out)
    capsys.readouterr()
    code = cli.main(
        ["report", "--input", str(out / "rules.csv"), "--top", "2"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == [
        "rule", "LHS", "RHS", "support", "confidence", "coverage", "lift",
        "count",
    ]
    assert lines[1].split()[1] == "{}"


def test_report_from_json(uniform_csv, tmp_path, capsys):
    out = tmp_path / "out"
    _mine(uniform_csv, out, "--format", "json")
    capsys.readouterr()
    code = cli.main(
        [
            "report",
            "--input",
            str(out / "rules.json"),
            "--top",
            "1",
            "--precision",
            "2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["conviction", "leverage"]
    assert "1.00" in lines[1]

    code = cli.main(
        [
            "report",
            "--input",
            str(out / "rules.json"),
            "--base-layout",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "count"
    assert len(lines) == 6


def test_report_top_zero(uniform_csv, tmp_path, capsys):
    out = tmp_path / "out"
    _mine(uniform_csv, out)
    capsys.readouterr()
    assert cli.main(["report", "--input", str(out / "rules.csv"), "--top", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1


def test_report_missing_file(tmp_path):
    assert cli.main(["report", "--input", str(tmp_path / "no.csv")]) == 1


def _one_rule_document(rules: int = 1, omit: str | None = None, **fields) -> str:
    """A rules document with `rules` copies of one rule, the last of them
    with `fields` replaced and `omit` deleted."""
    rule = {
        "lhs": [0], "rhs": [1], "lhs_count": 4, "rhs_count": 4, "count": 4,
        "support": 1.0, "confidence": 1.0, "coverage": 1.0, "lift": 1.0,
        "conviction": 1.0, "leverage": 0.0,
    }  # fmt: skip
    last = {key: value for key, value in {**rule, **fields}.items() if key != omit}
    document = {"total": 4, "catalog": ["a=1", "b=1"], "rules": [rule] * (rules - 1) + [last]}
    return json.dumps(document)


@pytest.mark.parametrize(
    "content, message",
    [
        ("{not json", "not valid JSON"),
        ('{"total": 4, "rules": []}', "missing key 'catalog'"),
        ('{"total": 4, "catalog": ["a=1"]}', "missing key 'rules'"),
        ('{"total": 4, "catalog": ["a=1"], "rules": [5]}', "malformed rules document"),
        ('{"total": 4, "catalog": ["a=1"], "rules": [{"lhs": 3}]}',
         "malformed rules document"),
        ('{"total": 4, "catalog": ["a=1"], "rules": [{"lhs": [], "lhs_count": 4, "rhs": 0}]}',
         "malformed rules document"),
        ('{"total": 4, "catalog": ["a=x"], "rules": []}',
         "item token 'a=x' has a non-integer value"),
        ('{"total": 4, "catalog": [1], "rules": []}', "malformed rules document"),
        ('{"total": 4, "catalog": ["a=1", "a=1"], "rules": []}',
         "duplicate catalog entry a=1"),
        ('{"total": 4, "catalog": ["a=1", "b=1"], "rules": [{"lhs": [0.0], "rhs": [1], '
         '"lhs_count": 4, "rhs_count": 4, "count": 4, "support": 1.0, "confidence": 1.0, '
         '"coverage": 1.0, "lift": 1.0, "conviction": 1.0, "leverage": 0.0}]}',
         "rule 0: item id 0.0 is not an integer"),
        ('{"total": 4, "catalog": ["a=1", "b=1"], "rules": [{"lhs": [], "rhs": [true], '
         '"lhs_count": 4, "rhs_count": 4, "count": 4, "support": 1.0, "confidence": 1.0, '
         '"coverage": 1.0, "lift": 1.0, "conviction": 1.0, "leverage": 0.0}]}',
         "rule 0: item id True is not an integer"),
        (_one_rule_document(count="lots"),
         "rule 0: count must be a non-negative integer, got 'lots'"),
        (_one_rule_document(lhs_count=-7),
         "rule 0: lhs_count must be a non-negative integer, got -7"),
        (_one_rule_document(rhs_count=True),
         "rule 0: rhs_count must be a non-negative integer, got True"),
        (_one_rule_document(count=4.0),
         "rule 0: count must be a non-negative integer, got 4.0"),
        (_one_rule_document(support="0.5"), "rule 0: support must be a number, got '0.5'"),
        (_one_rule_document(leverage=None), "rule 0: leverage must be a number, got None"),
        (_one_rule_document(lift=10**400), "rule 0: lift must be a number, got 1000"),
        (_one_rule_document(conviction="Infinity"),
         "rule 0: conviction must be a number or \"inf\", got 'Infinity'"),
        (_one_rule_document(omit="count"), "rule 0: missing key 'count'"),
        (_one_rule_document(rules=2, confidence=[1.0]),
         "rule 1: confidence must be a number, got [1.0]"),
        ('{"total": 4, "catalog": ["a=1"], "rules": {}}', "rules must be a list"),
        (_one_rule_document(support=math.nan), "rule 0: support must be finite, got nan"),
        (_one_rule_document(lift=math.inf), "rule 0: lift must be finite, got inf"),
        (_one_rule_document(rules=2, leverage=-math.inf),
         "rule 1: leverage must be finite, got -inf"),
        (_one_rule_document(coverage=0.5).replace("0.5", "1e400"),
         "rule 0: coverage must be finite, got inf"),
        (_one_rule_document(conviction=math.inf),
         "rule 0: conviction must be finite or \"inf\", got inf"),
        (_one_rule_document().replace('"total": 4', '"total": "x"'),
         "total must be a positive integer, got 'x'"),
        (_one_rule_document().replace('"total": 4', '"total": 0'),
         "total must be a positive integer, got 0"),
        (_one_rule_document().replace('"total": 4', '"total": true'),
         "total must be a positive integer, got True"),
    ],
)
def test_malformed_rules_json_exits_1(tmp_path, capsys, content, message):
    path = tmp_path / "rules.json"
    path.write_text(content, encoding="utf-8")
    for argv in (
        ["report", "--input", str(path)],
        ["predict", "--input", str(path), "--target", "a"],
    ):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and message in err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda cells: cells[:3] + ["abc"] + cells[4:], "support is not a number: 'abc'"),
        (lambda cells: cells[:-1], "expected 8 fields, got 7"),
        (lambda cells: cells[:3] + ["nan"] + cells[4:], "support must be finite, got 'nan'"),
        (lambda cells: cells[:4] + ["inf"] + cells[5:], "confidence must be finite, got 'inf'"),
        (lambda cells: cells[:5] + ["-inf"] + cells[6:], "coverage must be finite, got '-inf'"),
        (lambda cells: cells[:6] + ["1e400"] + cells[7:], "lift must be finite, got '1e400'"),
    ],
    ids=["non_numeric_metric", "short_row", "nan", "inf", "minus_inf", "overflow"],
)
def test_malformed_rules_csv_exits_1(uniform_csv, tmp_path, capsys, corrupt, message):
    out = tmp_path / "out"
    _mine(uniform_csv, out)
    path = out / "rules.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = ",".join(corrupt(lines[1].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["report", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:2: {message}\n"


@pytest.mark.parametrize(
    "conviction, message",
    [
        ("inf", None),
        ("-inf", "conviction must be finite or \"inf\", got '-inf'"),
        ("nan", "conviction must be finite or \"inf\", got 'nan'"),
        ("1e400", "conviction must be finite or \"inf\", got '1e400'"),
    ],
)
def test_rules_csv_conviction_may_be_inf(tmp_path, capsys, conviction, message):
    path = tmp_path / "rules.csv"
    path.write_text(
        "rule,LHS,RHS,support,confidence,coverage,lift,count,conviction,leverage\n"
        f"1,{{a=1}},{{b=1}},0.5,1.0,0.5,2.0,2,{conviction},0.25\n",
        encoding="utf-8",
    )
    code = cli.main(["report", "--input", str(path)])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and captured.out.splitlines()[1].split()[-2] == "inf"
    else:
        assert code == 1
        assert captured.err == f"error: {path}:2: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["report"],
        ["predict", "--known", "a=0", "--target", "b"],
    ],
    ids=["report", "predict"],
)
def test_rules_json_with_unknown_item_id_exits_1(tmp_path, capsys, argv):
    table = tmp_path / "table.csv"
    table.write_text("a,b\n0,0\n0,0\n1,1\n1,1\n", encoding="utf-8")
    out = tmp_path / "out"
    _mine(table, out, "--format", "json")
    path = out / "rules.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    assert len(document["catalog"]) == 4
    document["rules"][0]["lhs"] = [99]
    path.write_text(json.dumps(document), encoding="utf-8")
    capsys.readouterr()
    assert cli.main([argv[0], "--input", str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}: rule 0: item id 99 is not in the 4-item catalog\n"
    )


def test_predict_flow(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(
        "a,b\n" + "".join(f"{t % 3},{t % 3 + 10}\n" for t in range(30)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    cli.main(
        [
            "mine",
            "--input",
            str(table),
            "--out-dir",
            str(out),
            "--format",
            "json",
            "--min-support",
            "0.2",
            "--min-confidence",
            "0.9",
        ]
    )
    capsys.readouterr()
    code = cli.main(
        [
            "predict",
            "--input",
            str(out / "rules.json"),
            "--known",
            "a=1",
            "--target",
            "b",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "b"
    assert payload["known"] == ["a=1"]
    assert payload["predictions"][0]["value"] == 11
    assert payload["predictions"][0]["confidence"] == 1.0
    assert "=>" in payload["predictions"][0]["rule"]


def test_calls_in_one_process_share_no_flag_values(tmp_path, capsys):
    # the parser is built once per process: one call's --known values must
    # not reach the next, and a bad flag must not change later calls
    assert cli.build_parser() is cli.build_parser()
    table = tmp_path / "table.csv"
    table.write_text(
        "a,b,c\n" + "".join(f"{t % 3},{t % 3 + 10},{t % 3 + 20}\n" for t in range(30)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert _mine(table, out, "--format", "json", "--min-support", "0.2") == 0
    predict = ["predict", "--input", str(out / "rules.json"), "--target", "c"]
    capsys.readouterr()
    assert cli.main(predict + ["--known", "a=1", "--known", "b=11"]) == 0
    assert json.loads(capsys.readouterr().out)["known"] == ["a=1", "b=11"]
    assert cli.main(predict) == 0
    assert json.loads(capsys.readouterr().out)["known"] == []
    for _ in range(2):
        assert cli.main(predict + ["--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert cli.main(["report", "--input", str(out / "rules.json"), "--top", "-1"]) == 2
        assert capsys.readouterr().err == "error: --top must be non-negative\n"
        assert _mine(table, tmp_path / "bad", "--min-support", "2") == 2
        assert capsys.readouterr().err == "error: --min-support must lie in (0,1]\n"
        assert cli.main(predict + ["--known", "a=2"]) == 0
        assert json.loads(capsys.readouterr().out)["known"] == ["a=2"]


def test_predict_accepts_source_header(tmp_path, capsys):
    table = tmp_path / "hodge.csv"
    table.write_text(
        "h11,h21,h13,h14,h22,h23\n"
        + "".join(f"3,0,0,{1000 + t % 2},4,2000\n" for t in range(10)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    cli.main(
        [
            "mine",
            "--input",
            str(table),
            "--schema",
            "cicy5",
            "--out-dir",
            str(out),
            "--format",
            "json",
        ]
    )
    capsys.readouterr()
    code = cli.main(
        [
            "predict",
            "--input",
            str(out / "rules.json"),
            "--known",
            "item5=4",
            "--target",
            "h11",  # source header resolves to item1
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "item1"
    assert payload["predictions"][0]["value"] == 3


def test_predict_no_match_is_empty_success(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(UNIFORM, encoding="utf-8")
    out = tmp_path / "out"
    cli.main(
        [
            "mine",
            "--input",
            str(table),
            "--out-dir",
            str(out),
            "--format",
            "json",
        ]
    )
    capsys.readouterr()
    code = cli.main(
        [
            "predict",
            "--input",
            str(out / "rules.json"),
            "--known",
            "a=1",
            "--target",
            "zz",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["predictions"] == []
    assert "no rule matches" in captured.err


@pytest.mark.parametrize("token", ["a=1_0", "a=\uff11", "a= 1"])
def test_predict_known_takes_only_sign_then_ascii_digits(tmp_path, capsys, token):
    table = tmp_path / "table.csv"
    table.write_text(UNIFORM, encoding="utf-8")
    out = tmp_path / "out"
    assert _mine(table, out, "--format", "json") == 0
    capsys.readouterr()
    argv = ["predict", "--input", str(out / "rules.json"), "--target", "b"]
    assert cli.main(argv + ["--known", "a=1"]) == 0
    capsys.readouterr()
    assert cli.main(argv + ["--known", token]) == 2
    err = capsys.readouterr().err
    assert err == f"error: item token {token!r} has a non-integer value\n"


def test_predict_bad_tokens_exit_2(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(UNIFORM, encoding="utf-8")
    out = tmp_path / "out"
    cli.main(
        [
            "mine",
            "--input",
            str(table),
            "--out-dir",
            str(out),
            "--format",
            "json",
        ]
    )
    capsys.readouterr()
    rules = str(out / "rules.json")
    code = cli.main(
        ["predict", "--input", rules, "--known", "a-1", "--target", "b"]
    )
    assert code == 2
    assert "malformed item token" in capsys.readouterr().err

    code = cli.main(
        ["predict", "--input", rules, "--known", "a=9", "--target", "b"]
    )
    assert code == 2
    assert "unknown item" in capsys.readouterr().err

    code = cli.main(
        ["predict", "--input", rules, "--known", "a=1", "--target", "a"]
    )
    assert code == 2
    assert "already present" in capsys.readouterr().err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def _mutated(draw, value):
    """value with one part, at any depth, replaced by an arbitrary JSON
    value or deleted."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        copy = value.copy()
        key = draw(st.sampled_from(list(copy) if isinstance(copy, dict) else range(len(copy))))
        if draw(st.integers(0, 3)) == 0:
            del copy[key]
        else:
            copy[key] = draw(_mutated(copy[key]))
        return copy
    return draw(_JSON_VALUES)


def _json_bytes(value) -> bytes:
    return json.dumps(value).encode()


@st.composite
def _spliced(draw, content: bytes):
    """content with one slice replaced by arbitrary bytes."""
    start = draw(st.integers(0, len(content)))
    end = draw(st.integers(start, len(content)))
    return content[:start] + draw(st.binary(max_size=8)) + content[end:]


@pytest.fixture(scope="module")
def real_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("real")
    table = root / "table.csv"
    table.write_text("a,b\n0,0\n0,0\n1,1\n1,0\n", encoding="utf-8")
    argv = ["mine", "--input", str(table), "--out-dir", str(root / "out"), "--format", "json",
            "--min-support", "0.25", "--min-confidence", "0.5"]
    assert cli.main(argv) == 0
    return root


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_no_file_content_gives_a_traceback(real_outputs, capsys, data):
    name = data.draw(st.sampled_from(["rules.json", "rules.csv", "manifest.json"]))
    real = (real_outputs / "out" / name).read_bytes()
    contents = [st.binary(max_size=64), _spliced(real)]
    if name.endswith(".json"):
        contents += [_JSON_VALUES.map(_json_bytes), _mutated(json.loads(real)).map(_json_bytes)]
    content = data.draw(st.one_of(contents))
    path = real_outputs / name
    path.write_bytes(content)
    for argv in {
        "rules.json": [
            ["report", "--input", str(path)],
            ["predict", "--input", str(path), "--known", "a=0", "--target", "b"],
        ],
        "rules.csv": [["report", "--input", str(path)]],
        "manifest.json": [
            ["mine", "--manifest", str(path), "--out-dir", str(real_outputs / "replay")]
        ],
    }[name]:
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err


_NUMBERS = st.integers(-2, 12) | st.integers(-(2**70), 2**70)
# Each flag's values: ones the real_outputs run accepts, arbitrary text,
# and huge or negative ints. "OUT/" stands for the run's output directory.
_FLAG_VALUES = {
    "--input": st.sampled_from(["OUT/rules.json", "OUT/rules.csv", "OUT", "OUT/x.json", "OUT/\0.json"]),
    "--top": _NUMBERS.map(str),
    "--precision": _NUMBERS.map(str),
    "--known": st.sampled_from(["a=0", "a=1", "b=0", "b=7", "a", "=0"]),
    "--target": st.sampled_from(["a", "b", "c"]),
}
_QUERY_FLAGS = {
    "report": ["--input", "--top", "--precision", "--base-layout"],
    "predict": ["--input", "--known", "--target", "--top"],
}


@st.composite
def _query_argv(draw, out: Path) -> list[str]:
    """report or predict argv: the required flags, then real flags in any
    order and number, their values now and then arbitrary text, and at
    times an unknown flag, a lone flag or a stray word. A value follows
    its flag as "--flag=value" or as the next word."""
    command = draw(st.sampled_from(sorted(_QUERY_FLAGS)))
    flags = _QUERY_FLAGS[command]
    required = ["--input"] + (["--target"] if command == "predict" else [])
    argv = [command]
    for flag in required + draw(st.lists(st.sampled_from(flags), max_size=5)):
        if flag == "--base-layout":
            argv.append(flag)
            continue
        value = draw(_FLAG_VALUES[flag] | _FLAG_VALUES[flag] | st.text(max_size=10))
        value = value.replace("OUT", str(out))
        argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    if draw(st.integers(0, 4)) == 0:
        position = draw(st.integers(1, len(argv)))
        argv.insert(position, draw(st.sampled_from(["--bogus", "-x", "--", "--top"]) | st.text(max_size=6)))
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_no_query_argv_gives_a_traceback(real_outputs, capsys, data):
    argv = data.draw(_query_argv(real_outputs / "out"))
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_console_script_is_installed():
    exe = shutil.which("rulemine")
    assert exe, "console script should be on PATH after an editable install"
    result = subprocess.run(
        [exe, "--version"], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "rulemine 0.1.0"
