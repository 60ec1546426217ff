"""Seeded input generators for the benchmark workloads.

Every table is a dict of column name -> int64 array, in header order. The
same seed gives the same arrays, the same CSV bytes and the same query
plan; the program under test only ever sees the written files.
"""

from __future__ import annotations

import numpy as np

Table = dict[str, np.ndarray]


def tall(rng: np.random.Generator, rows: int) -> Table:
    """col1 constant; col2..col9 i.i.d. on {0,1,2,3} with p=.35/.30/.20/.15."""
    table = {"col1": np.zeros(rows, dtype=np.int64)}
    for c in range(2, 10):
        table[f"col{c}"] = rng.choice(4, size=rows, p=[0.35, 0.30, 0.20, 0.15])
    return table


def dense(rng: np.random.Generator, rows: int, columns: int) -> Table:
    """A latent z uniform on {0,1,2}; each column copies z with p=0.75,
    else draws uniformly, so many long itemsets are frequent."""
    z = rng.integers(0, 3, rows)
    table = {}
    for c in range(1, columns + 1):
        copy = rng.random(rows) < 0.75
        table[f"col{c}"] = np.where(copy, z, rng.integers(0, 3, rows))
    return table


def wide(rng: np.random.Generator, rows: int, columns: int) -> Table:
    """Independent fair binary columns: every 3-itemset has support 1/8
    and every 4-itemset 1/16, so at min_support 0.10 the last level is
    counted in full and all of it fails."""
    return {f"col{c}": rng.integers(0, 2, rows) for c in range(1, columns + 1)}


def write_csv(table: Table, path) -> None:
    names = list(table)
    matrix = np.column_stack([table[name] for name in names])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(names) + "\n")
        np.savetxt(handle, matrix, fmt="%d", delimiter=",", newline="\n")


def query_plan(rng: np.random.Generator, table: Table, rules_json: str) -> list[list[str]]:
    """argv lists for cli.main: 12 predicts, each with three --known items
    from one seeded row and a --target column drawn independently, and a
    `report --top 10` after every second predict."""
    names = list(table)
    rows = len(table[names[0]])
    plan = []
    for n in range(12):
        row = int(rng.integers(rows))
        target = int(rng.integers(len(names)))
        others = [c for c in range(len(names)) if c != target]
        known = sorted(rng.choice(others, size=min(3, len(others)), replace=False))
        argv = ["predict", "--input", rules_json]
        for c in known:
            argv += ["--known", f"{names[c]}={int(table[names[c]][row])}"]
        plan.append(argv + ["--target", names[target]])
        if n % 2 == 1:
            plan.append(["report", "--input", rules_json, "--top", "10"])
    return plan
