"""End-to-end and per-layer benchmark of the rulemine command line.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 30 --trace 0

Run from the root of a rulemine checkout; the program is imported from
./src. Every `mine` is the real CLI (`python -m rulemine.cli mine ...
--format json`) in a fresh child process, one at a time, reading a CSV
that this script generated from --seed and writing into a fresh,
absolute --out-dir. Queries (`predict`, `report --top 10`) come from one
closed-loop client child (query_loop.py) that calls `cli.main` against
the rules.json of the run's first mine. Each child's wall time and peak
RSS come from its own `os.wait4` rusage.

A run has three phases:

1. set-up: generate the table, write the CSV and the query plan. It is
   repeated after every round, rewriting the same bytes, and setup_s is
   the median, so that set-up too samples the whole run;
2. warm-up: one untimed mine, whose outputs are checked in full (see
   verify.py) and become the reference;
3. ROUNDS rounds, each of timed mines for its part of the workload's
   mining share of --seconds, then a query burst for its part of the
   rest. Every mine must exit 0 and write outputs byte-identical to the
   reference; every answer is checked against one derived from the
   reference rules. Interleaving makes both kinds sample the whole run.

On a shared host the machine's own speed can switch between two levels
about 1.5x apart for seconds at a time (a pure-Python loop shows it on
both CPUs of a 2-vCPU Xeon VM). A run's median or best mine or call then
depends on how long the fast level lasted, and moved by up to 30% between
runs; the upper quantiles sit on the slow level that every run reaches,
and stayed within about 3-10%. So the timings are mine_p75_s, the 75th
percentile of the run's timed mines, and predict_p90_ms and
report_p90_ms, the 90th percentiles of its calls.

With --trace 1 the mines alternate between the traced launcher
(tracing.py) and the plain CLI, the query client sends the plan once with
the layer wrappers installed, and the per-layer metrics are printed
instead of the end-to-end ones. Counts taken from the traced runs must
repeat exactly. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import verify

HERE = Path(__file__).resolve().parent
ROUNDS = 4
MIN_TRACED_PAIRS = 2
DEADLINE_S = 170.0
# wide runs the fork pool with as many workers as this process may use, at most 2
POOL_WORKERS = min(2, len(os.sched_getaffinity(0)))
# Apriori levels reported one by one; dense's 10 columns reach level 10
LEVELS = range(2, 11)


@dataclass(frozen=True)
class Workload:
    make: Callable[[np.random.Generator], gen.Table]
    min_support: float
    min_confidence: float
    workers: int
    mine_share: float  # share of --seconds spent mining; the rest is queries


WORKLOADS = {
    # ingest and bitmap build are nearly all of a mine: 9 narrow columns,
    # a few hundred itemsets and about a hundred rules
    "tall": Workload(lambda rng: gen.tall(rng, 100_000), 0.10, 0.80, 1, 0.7),
    # ~3.3k itemsets, mostly long, and ~15k rules: rule generation and the
    # writers dominate a mine, and every query reads a ~6 MB rules.json.
    # The thresholds sit at least 6 standard errors from every itemset
    # support and rule confidence the generator produces, so the counts do
    # not move with the seed.
    "dense": Workload(lambda rng: gen.dense(rng, 20_000, 10), 0.03, 0.76, 1, 0.5),
    # 170,016 level-4 candidates are counted and all fail; no rule is
    # kept, so writers idle; the only workload that runs the fork pool
    "wide": Workload(lambda rng: gen.wide(rng, 30_000, 24), 0.10, 0.90, POOL_WORKERS, 0.7),
}

# Per-layer metrics: (name, unit, better, end-to-end metric it should
# move, workload where it should move it). Times from mines are medians
# over the traced mines; query-layer times are medians per call.
LAYERS = (
    ("cli.startup_s", "s", "lower", "mine_p75_s", "tall, dense, wide"),
    ("cli.self_s", "s", "lower", "mine_p75_s", "tall, dense, wide"),
    ("cli.query_self_s", "s", "lower", "report_p90_ms", "dense"),
    ("ingest.load_csv.self_s", "s", "lower", "mine_p75_s", "tall"),
    ("ingest.rows_per_s", "1/s", "higher", "mine_p75_s", "tall"),
    ("txdb.build_database.s", "s", "lower", "mine_p75_s", "tall"),
    ("txdb.bitmap_bytes", "bytes", "lower", "peak_rss_mb", "tall"),
    ("miner.mine_frequent.s", "s", "lower", "mine_p75_s", "wide"),
    ("miner.candidate_gen.s", "s", "lower", "mine_p75_s", "wide"),
    ("miner.count_candidates.s", "s", "lower", "mine_p75_s", "wide"),
    *((f"miner.L{k}.count_s", "s", "lower", "mine_p75_s", "wide") for k in LEVELS),
    ("miner.candidates", "count", "lower", "mine_p75_s", "wide"),
    ("miner.kept", "count", "higher", "mine_p75_s", "wide"),
    ("miner.kept_per_candidate", "ratio", "higher", "mine_p75_s", "wide"),
    *((f"miner.L{k}.candidates", "count", "lower", "mine_p75_s", "wide") for k in LEVELS),
    *((f"miner.L{k}.kept", "count", "higher", "mine_p75_s", "wide") for k in LEVELS),
    ("miner.and_ops", "count", "lower", "mine_p75_s", "wide"),
    ("miner.and_bytes", "bytes", "lower", "mine_p75_s", "wide"),
    ("rules.generate_rules.s", "s", "lower", "mine_p75_s", "dense"),
    ("rules.bipartitions", "count", "lower", "mine_p75_s", "dense"),
    ("rules.kept", "count", "higher", "mine_p75_s", "dense"),
    ("rules.kept_per_bipartition", "ratio", "higher", "mine_p75_s", "dense"),
    ("miner.write_itemsets.s", "s", "lower", "mine_p75_s", "dense"),
    ("rules.write_rules_csv.s", "s", "lower", "mine_p75_s", "dense"),
    ("rules.write_rules_json.s", "s", "lower", "mine_p75_s", "dense"),
    ("rules.json_bytes", "bytes", "lower", "mine_p75_s", "dense"),
    ("rules.read_rules_json.s", "s", "lower", "predict_p90_ms", "dense"),
    ("predictor.predict.s", "s", "lower", "predict_p90_ms", "dense"),
    ("predictor.rules_scanned", "count", "lower", "predict_p90_ms", "dense"),
    ("trace.mine_s", "s", "lower", "mine_p75_s", "tall, dense, wide"),
    ("trace.overhead_s", "s", "lower", "mine_p75_s", "tall, dense, wide"),
)
# counts that must repeat exactly across runs of one seed
COUNTS = tuple(name for name, unit, *_ in LAYERS if unit in ("count", "bytes"))
END_TO_END = (
    ("mine_p75_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("predict_p90_ms", "ms"),
    ("report_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
)


class Child:
    """One child process in its own session. The session is killed at the
    run's deadline, or when the benchmark stops before reaping it."""

    def __init__(self, argv: list[str], env: dict, stderr: Path, deadline: float, pipes: bool = False):
        self.stderr_path = stderr
        pipe = subprocess.PIPE if pipes else subprocess.DEVNULL
        with open(stderr, "wb") as err:
            self.start = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, stdin=pipe, stdout=pipe, stderr=err, env=env,
                start_new_session=True, text=pipes,
            )  # fmt: skip
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.kill)
        self.timer.start()

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)

    def reap(self) -> tuple[float, int, float]:
        """Wait for the child; (wall seconds, exit code, peak RSS in MiB)."""
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        except BaseException:
            self.kill()
            self.proc.wait()
            raise
        finally:
            self.timer.cancel()
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, self.proc.returncode, usage.ru_maxrss / 1024  # ru_maxrss is in KiB

    def stderr(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace")


class Bench:
    def __init__(self, root: Path, work: Path, name: str, seed: int, seconds: float):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.csv = work / "input.csv"
        self.plan = work / "plan.json"
        self.reference = work / "mine-0"
        self.mines = 0
        self.attempted = 0
        self.failed = 0
        self.rss: list[float] = []
        self.reference_ok = False
        self.client: Child | None = None

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems[:5]:
            print(f"FAIL {what}: {problem}", file=sys.stderr)

    def close(self) -> None:
        if self.client is not None and self.client.proc.returncode is None:
            self.client.kill()
            self.client.reap()

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        start = time.perf_counter()
        self.table = self.spec.make(np.random.default_rng(self.seed))
        gen.write_csv(self.table, self.csv)
        plan = gen.query_plan(
            np.random.default_rng([self.seed, 1]), self.table, str(self.reference / "rules.json")
        )
        self.plan.write_text(json.dumps(plan), encoding="utf-8")
        return time.perf_counter() - start

    # -- mine ---------------------------------------------------------------

    def mine(self, spans: Path | None = None) -> tuple[float, bool]:
        """One mine child; (wall seconds, whether it was correct). The first
        is checked in full and is the reference; later ones must reproduce
        its bytes."""
        out = self.work / f"mine-{self.mines}"
        self.mines += 1
        spec = self.spec
        argv = [sys.executable, "-m", "rulemine.cli"]
        if spans is not None:
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans)]
        argv += [
            "mine", "--input", str(self.csv), "--out-dir", str(out), "--format", "json",
            "--min-support", str(spec.min_support),
            "--min-confidence", str(spec.min_confidence),
            "--workers", str(spec.workers),
        ]  # fmt: skip
        child = Child(argv, self.env, self.work / f"{out.name}.err", self.deadline)
        wall, code, rss_mb = child.reap()
        self.rss.append(rss_mb)
        self.attempted += 1
        problems = self._check_mine(out, code, child.stderr())
        if problems:
            self.fail(out.name, problems)
        if out != self.reference:
            shutil.rmtree(out, ignore_errors=True)
        return wall, not problems

    def _check_mine(self, out: Path, code: int, stderr: str) -> list[str]:
        if code != 0 or "Traceback" in stderr:
            return [f"exit {code}: {stderr.strip()[-300:]}"]
        try:
            if out == self.reference:
                self.oracle = verify.Oracle(self.table)
                rng = np.random.default_rng([self.seed, 2])
                problems = verify.check_mine(
                    out, self.oracle, self.spec.min_support, self.spec.min_confidence, rng
                )
                self.reference_ok = not problems
                self.hashes = verify.output_hashes(out)
                return problems
            if not self.reference_ok:
                return ["the reference outputs failed their check"]
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            if manifest["database"]["total"] != self.oracle.total:
                return [f"manifest total {manifest['database']['total']}"]
            changed = [
                name for name, digest in verify.output_hashes(out).items()
                if digest != self.hashes[name]
            ]  # fmt: skip
            return [f"{name} differs from the first run's" for name in changed]
        except Exception as exc:  # a malformed output is a failed operation
            return [f"unreadable output: {exc!r}"]

    # -- queries ------------------------------------------------------------

    def start_client(self, spans: Path | None = None) -> None:
        argv = [sys.executable, str(HERE / "query_loop.py"), str(self.plan), str(self.work / "queries.json")]
        if spans is not None:
            argv.append(str(spans))
        self.client = Child(argv, self.env, self.work / "queries.err", self.deadline, pipes=True)

    def burst(self, seconds: float) -> None:
        """Let the client send queries for `seconds` (one plan pass when traced)."""
        proc = self.client.proc
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.write(f"{seconds}\n")
            proc.stdin.flush()
        proc.stdout.readline()  # "done", or "" once the client has died

    def finish_client(self) -> dict[str, list[float]]:
        """Stop the client and check every answer; latencies by command."""
        with contextlib.suppress(BrokenPipeError):
            self.client.proc.stdin.close()
        _, code, rss_mb = self.client.reap()
        self.client.proc.stdout.close()
        self.rss.append(rss_mb)
        results = self.work / "queries.json"
        latencies = defaultdict(list)
        if code != 0 or not results.exists():
            self.attempted += 1
            self.fail("query client", [f"exit {code}: {self.client.stderr().strip()[-300:]}"])
            return latencies
        plan = json.loads(self.plan.read_text(encoding="utf-8"))
        oracle = verify.QueryOracle(self.reference / "rules.json") if self.reference_ok else None
        for index, call_s, code, out, err in json.loads(results.read_text(encoding="utf-8")):
            argv = plan[index]
            self.attempted += 1
            latencies[argv[0]].append(call_s)  # a failed call still took its time
            try:
                problems = oracle.check(argv, code, out, err) if oracle else ["no verified rules.json"]
            except Exception as exc:  # a malformed answer is a failed call
                problems = [f"unreadable answer: {exc!r}"]
            if problems:
                self.fail(argv[0], problems)
        return latencies

    # -- runs ---------------------------------------------------------------

    def run(self) -> dict:
        """End-to-end metrics. Mines and query bursts alternate over ROUNDS
        rounds, so both sample the whole run."""
        setups = [self.setup()]
        self.mine()
        self.start_client()
        mine_budget = self.spec.mine_share * self.seconds
        walls: list[float] = []
        for r in range(1, ROUNDS + 1):
            while len(walls) < r or sum(walls) + walls[-1] / 2 < mine_budget * r / ROUNDS:
                walls.append(self.mine()[0])
            self.burst((self.seconds - mine_budget) / ROUNDS)
            setups.append(self.setup())
        latencies = self.finish_client()  # empty only when the client failed
        return {
            "mine_p75_s": _upper_quantile(walls, 4),
            "peak_rss_mb": max(self.rss),
            "predict_p90_ms": 1e3 * _upper_quantile(latencies["predict"] or [0.0], 10),
            "report_p90_ms": 1e3 * _upper_quantile(latencies["report"] or [0.0], 10),
            "success_rate": 1 - self.failed / self.attempted,
            "setup_s": statistics.median(setups),
        }

    def run_traced(self) -> dict:
        """Per-layer metrics. Traced and plain mines alternate; counts must
        repeat exactly across the traced ones."""
        self.setup()
        self.mine()
        budget = self.spec.mine_share * self.seconds
        traced: list[dict] = []
        plain: list[float] = []
        spent = 0.0
        while len(plain) < MIN_TRACED_PAIRS or spent < budget:
            spans = self.work / f"spans-{self.mines}.json"
            wall, ok = self.mine(spans)
            if ok:
                traced.append(mine_layers(json.loads(spans.read_text(encoding="utf-8")), wall))
            plain.append(self.mine()[0])
            spent += wall + plain[-1]
        metrics: dict = {}
        if traced:
            for name in COUNTS:
                if len({m.get(name) for m in traced}) > 1:
                    self.fail("count repeat", [f"{name} varies: {[m.get(name) for m in traced]}"])
            metrics = {
                name: traced[0][name] if name in COUNTS else statistics.median(m[name] for m in traced)
                for name in traced[0]
            }
            metrics["trace.overhead_s"] = metrics["trace.mine_s"] - statistics.median(plain)
        spans = self.work / "spans-queries.json"
        self.start_client(spans)
        self.burst(0.0)
        self.finish_client()
        if spans.exists():
            metrics.update(query_layers(json.loads(spans.read_text(encoding="utf-8"))))
        return metrics


def _upper_quantile(values: list[float], n: int) -> float:
    """The (n-1)/n quantile: p75 for n=4, p90 for n=10."""
    return statistics.quantiles(values, n=n, method="inclusive")[-1] if len(values) > 1 else values[0]


def _span_tree(spans):
    children = defaultdict(list)
    by_name = defaultdict(list)
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        children[parent].append(index)
        by_name[name].append(index)

    def duration(index: int) -> float:
        return spans[index][2] - spans[index][1]

    def self_time(index: int) -> float:
        return duration(index) - sum(duration(c) for c in children[index])

    return by_name, duration, self_time


def mine_layers(spans: list, wall: float) -> dict:
    """Per-layer metrics of one traced mine from its spans and wall time."""
    by_name, duration, self_time = _span_tree(spans)

    def total(name: str) -> float:
        return sum(duration(i) for i in by_name[name])

    def attrs(name: str) -> dict:
        return spans[by_name[name][0]][4]

    main = by_name["cli.main"][0]
    load = by_name["ingest.load_csv"][0]
    rows = attrs("ingest.load_csv")["rows"]
    row_bytes = -(-rows // 8)
    levels = attrs("miner.mine_frequent")["levels"]
    kept = dict(enumerate(levels))
    candidates: dict[int, int] = defaultdict(int)
    count_s: dict[int, float] = defaultdict(float)
    for index in by_name["miner.count_candidates"]:
        k, n = spans[index][4]["k"], spans[index][4]["n"]
        candidates[k] += n
        count_s[k] += duration(index)
    n_candidates = sum(candidates.values())
    n_kept = sum(kept.get(k, 0) for k in candidates)
    and_ops = sum(n * (k - 1) for k, n in candidates.items())
    bipartitions = sum(n * ((1 << k) - 1) for k, n in kept.items())
    n_rules = attrs("rules.generate_rules")["kept"]
    metrics = {
        "cli.startup_s": wall - duration(main),
        "cli.self_s": self_time(main),
        "ingest.load_csv.self_s": self_time(load),
        "ingest.rows_per_s": rows / duration(load),
        "txdb.build_database.s": total("txdb.build_database"),
        "txdb.bitmap_bytes": attrs("ingest.load_csv")["items"] * row_bytes,
        "miner.mine_frequent.s": total("miner.mine_frequent"),
        "miner.candidate_gen.s": total("miner.candidate_gen"),
        "miner.count_candidates.s": total("miner.count_candidates"),
        "miner.candidates": n_candidates,
        "miner.kept": n_kept,
        "miner.kept_per_candidate": n_kept / n_candidates if n_candidates else 0.0,
        "miner.and_ops": and_ops,
        "miner.and_bytes": and_ops * row_bytes,
        "rules.generate_rules.s": total("rules.generate_rules"),
        "rules.bipartitions": bipartitions,
        "rules.kept": n_rules,
        "rules.kept_per_bipartition": n_rules / bipartitions if bipartitions else 0.0,
        "miner.write_itemsets.s": total("miner.write_itemsets"),
        "rules.write_rules_csv.s": total("rules.write_rules_csv"),
        "rules.write_rules_json.s": total("rules.write_rules_json"),
        "rules.json_bytes": attrs("rules.write_rules_json")["bytes"],
        "trace.mine_s": wall,
    }
    for k in LEVELS:
        metrics[f"miner.L{k}.count_s"] = count_s.get(k, 0.0)
        metrics[f"miner.L{k}.candidates"] = candidates.get(k, 0)
        metrics[f"miner.L{k}.kept"] = kept.get(k, 0)
    return metrics


def query_layers(spans: list) -> dict:
    """Per-call medians of the query layers from the traced query client."""
    by_name, duration, self_time = _span_tree(spans)
    predicts = by_name["predictor.predict"]
    return {
        "cli.query_self_s": statistics.median(self_time(i) for i in by_name["cli.main"]),
        "rules.read_rules_json.s": statistics.median(duration(i) for i in by_name["rules.read_rules_json"]),
        "predictor.predict.s": statistics.median(duration(i) for i in predicts),
        "predictor.rules_scanned": spans[predicts[0]][4]["rules"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "rulemine" / "cli.py").is_file():
        print("error: run from the root of a rulemine checkout (src/rulemine is missing)", file=sys.stderr)
        return 2
    work_root = root / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    bench = Bench(root, work, args.workload, args.seed, args.seconds)
    try:
        values = bench.run_traced() if args.trace else bench.run()
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work_root.rmdir()
    units = dict(END_TO_END) if not args.trace else {name: unit for name, unit, *_ in LAYERS}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        # a metric is missing only when the operations behind it failed
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
