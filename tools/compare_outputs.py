"""Largest change between two `memlqr all` output directories.

    python3 tools/compare_outputs.py OLD_DIR NEW_DIR

Every CSV file and every summary.json under OLD_DIR is paired with the
file at the same relative path under NEW_DIR, so two trees of per-seed
output directories compare as well.  Prints, over all file pairs, the
largest absolute and relative change of each summary.csv row, of each
summary.json check's full-precision `measured` and of each column of the
other CSV files, with the largest old magnitude beside it; then each file
whose parsed cells are all equal but whose bytes differ (line endings, say);
then every summary row or check whose pass/fail status differs.  Exits 1
when a status differs, when a file is missing from NEW or present only in
NEW, when a CSV header or row count differs, or when a summary.json names
other checks; a difference in bytes alone does not change the exit code.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def outputs(root: Path) -> list[Path]:
    return sorted([*root.rglob("*.csv"), *root.rglob("summary.json")])


def main(argv: list[str]) -> int:
    old_root, new_root = Path(argv[0]), Path(argv[1])
    worst: dict[str, list[float]] = {}  # key -> [max abs change, max rel change, max |old|]
    problems = []
    byte_only = []  # files whose cells are equal but whose bytes are not
    for old in outputs(old_root):
        new = new_root / old.relative_to(old_root)
        name = old.relative_to(old_root)
        if not new.is_file():
            problems.append(f"missing: {new}")
            continue
        if old.suffix == ".json":
            pairs = json_pairs(old, new, name, problems)
        else:
            pairs = csv_pairs(old, new, name, problems, byte_only)
        for key, x, y in pairs:
            x, y = float(x), float(y)
            d = abs(x - y)
            rel = d / abs(x) if x else (0.0 if d == 0 else float("inf"))
            w = worst.setdefault(key, [0.0, 0.0, 0.0])
            w[:] = max(w[0], d), max(w[1], rel), max(w[2], abs(x))
    problems += [f"only in new: {new}" for new in outputs(new_root)
                 if not (old_root / new.relative_to(new_root)).is_file()]
    print(f"{'row / file column':44s} {'max abs change':>15s} {'max rel change':>15s} {'max |old|':>12s}")
    for key, (d, rel, mag) in worst.items():
        print(f"{key:44s} {d:15.3e} {rel:15.3e} {mag:12.3e}")
    for line in byte_only:
        print(line)
    print("\n".join(problems) if problems else "no pass/fail status differs")
    return 1 if problems else 0


def csv_pairs(old: Path, new: Path, name: Path, problems: list[str], byte_only: list[str]):
    """(key, old cell, new cell) of one CSV pair, noting its problems and a bytes-only difference."""
    (head, a), (new_head, b) = read_csv(old), read_csv(new)
    if (head, a) == (new_head, b) and old.read_bytes() != new.read_bytes():
        byte_only.append(f"bytes differ, values equal: {name}")
    if len(b) != len(a):
        problems.append(f"rows: {name} {len(a)} -> {len(b)}")
    if new_head != head:
        problems.append(f"header: {name} {','.join(head)} -> {','.join(new_head)}")
        return []
    if old.name != "summary.csv":
        return [(f"{old.name} {head[c]}", x[c], y[c]) for x, y in zip(a, b) for c in range(len(head))]
    rows = {r[0]: r for r in b}
    problems += [f"status: {name} {r[0]} {r[3]} -> {rows.get(r[0], [None] * 4)[3]}"
                 for r in a if rows.get(r[0], [None] * 4)[3] != r[3]]
    return [(f"summary {r[0]}", r[1], rows[r[0]][1]) for r in a if r[0] in rows]



def json_pairs(old: Path, new: Path, name: Path, problems: list[str]):
    """(key, old measured, new measured) of each check two summary.json files share, noting their problems."""
    a, b = (json.loads(p.read_text())["checks"] for p in (old, new))
    if [c["name"] for c in a] != [c["name"] for c in b]:
        problems.append(f"checks: {name} {len(a)} -> {len(b)}")
    checks = {c["name"]: c for c in b}
    shared = [(c, checks[c["name"]]) for c in a if c["name"] in checks]
    problems += [f"status: {name} {c['name']} {c['passed']} -> {d['passed']}"
                 for c, d in shared if d["passed"] != c["passed"]]
    return [(f"summary.json {c['name']}", c["measured"], d["measured"]) for c, d in shared]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
