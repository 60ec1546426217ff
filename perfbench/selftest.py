"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Run from the root of a rulemine checkout. Checks that the generators are
deterministic per seed, that verification turns a corrupted or missing
output into a failure and accepts the program's real answers, that the
trace wrappers put the original attributes back, and that BENCHMARK.json
lists the metrics run.py prints. Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from rulemine import cli  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok   {message}")


def toy(rng: np.random.Generator) -> gen.Table:
    return gen.dense(rng, 300, 5)


def csv_bytes(table: gen.Table, work: Path) -> bytes:
    path = work / "table.csv"
    gen.write_csv(table, path)
    return path.read_bytes()


def check_generators(work: Path) -> None:
    makers = {
        "tall": lambda rng: gen.tall(rng, 200),
        "dense": lambda rng: gen.dense(rng, 200, 4),
        "wide": lambda rng: gen.wide(rng, 200, 6),
    }
    for name, make in makers.items():
        first = csv_bytes(make(np.random.default_rng(7)), work)
        again = csv_bytes(make(np.random.default_rng(7)), work)
        other = csv_bytes(make(np.random.default_rng(8)), work)
        expect(first == again and first != other, f"{name} CSV is a function of the seed")
    table = toy(np.random.default_rng(7))
    plans = [gen.query_plan(np.random.default_rng(s), table, "r.json") for s in (7, 7, 8)]
    expect(plans[0] == plans[1] != plans[2], "query plan is a function of the seed")


def mine(table: gen.Table, work: Path, out: str) -> Path:
    gen.write_csv(table, work / "table.csv")
    argv = ["mine", "--input", str(work / "table.csv"), "--out-dir", str(work / out),
            "--format", "json", "--min-support", "0.05", "--min-confidence", "0.6"]  # fmt: skip
    with contextlib.redirect_stdout(io.StringIO()):
        expect(cli.main(argv) == 0, f"toy mine into {out} exits 0")
    return work / out


def check_verification(work: Path) -> None:
    table = toy(np.random.default_rng(3))
    oracle = verify.Oracle(table)

    def problems(out: Path) -> list[str]:
        return verify.check_mine(out, oracle, 0.05, 0.6, np.random.default_rng(0))

    out = mine(table, work, "good")
    expect(problems(out) == [], "verification accepts the program's outputs")
    rules_csv = out / "rules.csv"
    original = rules_csv.read_text(encoding="utf-8")
    lines = original.splitlines(keepends=True)
    row = len(lines) // 2
    cells = lines[row].rstrip("\n").rsplit(",", 1)
    lines[row] = f"{cells[0]},{int(cells[1]) + 1}\n"
    rules_csv.write_text("".join(lines), encoding="utf-8")
    expect(problems(out) != [], "verification rejects a rules.csv with one count altered")
    expect(
        verify.output_hashes(out) != verify.output_hashes(mine(table, work, "again")),
        "an altered rules.csv is not byte-identical to a fresh run",
    )
    rules_csv.write_text(original, encoding="utf-8")
    (out / "rules.json").unlink()
    expect(problems(out) != [], "verification rejects a missing rules.json")

    out = mine(table, work, "query")
    queries = verify.QueryOracle(out / "rules.json")
    plan = gen.query_plan(np.random.default_rng(1), table, str(out / "rules.json"))
    answers = []
    for argv in plan:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        answers.append((argv, code, stdout.getvalue(), stderr.getvalue()))
    expect(not any(queries.check(*answer) for answer in answers), f"query verification accepts {len(plan)} real answers")
    expect(
        any(argv[0] == "predict" and json.loads(out)["predictions"] for argv, _, out, _ in answers),
        "some of those predict answers are not empty",
    )
    predict = next(argv for argv in plan if argv[0] == "predict")
    answer = queries.predict(predict)
    answer["predictions"].append({"value": 99})
    expect(queries.check(predict, 0, json.dumps(answer), "") != [], "query verification rejects a wrong answer")
    expect(queries.check(predict, 1, "", "error: x") != [], "query verification rejects a non-zero exit")


def check_tracing(work: Path) -> None:
    targets = [(importlib.import_module(m), a) for m, a, *_ in tracing.TARGETS]
    originals = [getattr(module, attr) for module, attr in targets]
    recorder = tracing.Recorder()
    table = toy(np.random.default_rng(4))
    with recorder.installed():
        wrapped = [getattr(module, attr) for module, attr in targets]
        expect(all(w is not o for w, o in zip(wrapped, originals)), "wrappers are installed inside the block")
        mine(table, work, "traced")
    expect(
        all(getattr(module, attr) is o for (module, attr), o in zip(targets, originals)),
        "wrappers restore the original attributes on exit",
    )
    names = {span[0] for span in recorder.spans}
    expect({"ingest.load_csv", "txdb.build_database", "miner.count_candidates",
            "rules.generate_rules", "rules.write_rules_json"} <= names,
           "a traced mine records the layer spans")  # fmt: skip
    try:
        with recorder.installed():
            raise RuntimeError
    except RuntimeError:
        pass
    expect(
        all(getattr(module, attr) is o for (module, attr), o in zip(targets, originals)),
        "wrappers are restored when the traced call raises",
    )


def check_benchmark_json() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        print("skip BENCHMARK.json is not in this directory")
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    expect(
        [[m["name"], m["unit"]] for m in spec["end_to_end"]] == [list(m) for m in run.END_TO_END],
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    expect(
        [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]]
        == [list(layer[:3]) for layer in run.LAYERS],
        "BENCHMARK.json per_layer matches run.LAYERS",
    )
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS), "workloads match")


def main() -> int:
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        check_generators(work)
        check_verification(work)
        check_tracing(work)
        check_benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work_root.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
