"""Span recording around rulemine's layer boundaries, from outside the program.

`Recorder.installed()` swaps span-recording wrappers in for the module
attributes in TARGETS and puts the originals back on exit, so untraced
code never sees a wrapper. Spans stay in memory and are written once, at
exit. Each span is [name, start, end, parent index or -1, attrs].

Run as a script, this is the traced launcher for one CLI call:

    python perfbench/tracing.py SPANS.json mine --input t.csv ...

It records the whole `cli.main` call as a root span, so the child's wall
time minus that span is interpreter start-up plus imports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time


# (module, attribute, span name, attrs(result, arguments by name) or None).
# The span name is the module that defines the function, which is the layer.
# attrs must be cheap: it runs inside the caller's span.
TARGETS = (
    ("rulemine.cli", "load_csv", "ingest.load_csv",
     lambda r, a: {"rows": r.total, "items": len(r.catalog)}),
    ("rulemine.ingest", "build_database", "txdb.build_database", None),
    ("rulemine.cli", "mine_frequent", "miner.mine_frequent",
     lambda r, a: {"levels": [len(level) for level in r.levels]}),
    ("rulemine.miner", "candidate_gen", "miner.candidate_gen", None),
    ("rulemine.miner", "count_candidates", "miner.count_candidates",
     lambda r, a: {"k": len(r[0].items) if r else 0, "n": len(r)}),
    ("rulemine.cli", "generate_rules", "rules.generate_rules",
     lambda r, a: {"kept": len(r)}),
    ("rulemine.cli", "write_itemsets", "miner.write_itemsets", None),
    ("rulemine.cli", "write_rules_csv", "rules.write_rules_csv", None),
    ("rulemine.cli", "write_rules_json", "rules.write_rules_json",
     lambda r, a: {"bytes": os.path.getsize(a["path"])}),
    ("rulemine.cli", "read_rules_json", "rules.read_rules_json",
     lambda r, a: {"rules": len(r.rules)}),
    ("rulemine.cli", "predict", "predictor.predict",
     lambda r, a: {"rules": len(a["rules"])}),
)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
        )
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name: str, attrs=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:  # outside the span: not charged to the layer
                record[4] = attrs(result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, attrs in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from rulemine import cli

    recorder = Recorder()
    with recorder.installed(), recorder.span("cli.main"):
        code = cli.main(cli_argv)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
