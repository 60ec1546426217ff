"""Closed-loop query client: one client calls rulemine's cli.main in process.

    python perfbench/query_loop.py PLAN.json RESULTS.json [SPANS.json]

PLAN.json is a list of argv lists. The client first sends the first two
entries once, untimed, to warm caches and imports. Then, for each number
of seconds read from stdin, it sends calls for that long, continuing its
cycle through the plan, and answers "done" on stdout. It sends the next
call only after the previous one returned, and collects garbage before
each call, outside the timed region. At end of input it writes one
record per timed call to RESULTS.json: plan index, seconds, exit code
(None when cli.main raised), stdout and stderr.

With SPANS.json the layer wrappers are installed after the warm-up, each
burst sends the plan exactly once whatever its length, and the spans are
written there at exit.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
import traceback

from tracing import Recorder


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a traceback is a failed call, not a crash of the loop
            code = None
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def serve(plan, recorder: Recorder | None, commands, replies) -> list[list]:
    from rulemine import cli

    for argv in plan[:2]:
        call(cli, argv)
    results: list[list] = []
    with recorder.installed() if recorder else contextlib.nullcontext():
        for line in commands:
            seconds = float(line)
            start = time.perf_counter()
            for sent in range(1, sys.maxsize):
                index = len(results) % len(plan)
                gc.collect()
                with recorder.span("cli.main") if recorder else contextlib.nullcontext():
                    record = call(cli, plan[index])
                results.append([index, *record])
                if sent >= len(plan) if recorder else time.perf_counter() - start >= seconds:
                    break
            replies.write("done\n")
            replies.flush()
    return results


def main(argv: list[str]) -> int:
    plan_path, results_path = argv[0], argv[1]
    recorder = Recorder() if len(argv) > 2 else None
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    results = serve(plan, recorder, sys.stdin, sys.stdout)
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    if recorder is not None:
        recorder.dump(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
