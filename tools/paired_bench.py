"""Compare two checkouts on one benchmark workload in alternating-order pairs.

    python3 tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload desk_all --seeds 31 32 33 [--json out.json]

For each seed, runs `python3 bench/run.py --workload W --seed S --trace 0` in
both checkouts, the parent first on odd seeds and the change first on even
ones, and prints each side's median and quartiles of every end-to-end metric,
the number of pairs the change wins on wall_s, and each side's failed and
attempted checks summed over all pairs.  A seed's runs need not attempt the
same number of checks on both sides, so the pooled sums weight each seed by
its iterations; the summary instead flags each seed where the change fails a
larger share of its checks than the parent does at that seed.  Each run's
failing check names are also read from its bench/results record, printed per
seed and side, and the summary names the seeds where the change fails a check
that the parent passes.  --json also writes the pairs and that summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path


def run(checkout: str, workload: str, seed: int) -> dict:
    cmd = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    line = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout.splitlines()[-1]
    rec = json.loads(line)
    details = json.loads((Path(checkout) / "bench" / "results" / f"{workload}.seed{seed}.trace0.json").read_text())
    return dict({k: m["value"] for k, m in rec["metrics"].items()}, attempted=rec["attempted"], failed=rec["failed"],
                failed_checks=details["failed_checks"])


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def summarize(pairs: list[dict]) -> dict:
    """Quartiles of every metric per side, the change's wall_s wins, the summed check counts,
    the seeds where the change fails a larger share of its checks, and per seed the checks
    that fail on the change's side only."""
    sides = ("parent", "change")
    metrics = [k for k in pairs[0]["parent"] if k not in ("attempted", "failed", "failed_checks")]
    summary = {k: {side: quartiles([pr[side][k] for pr in pairs]) for side in sides} for k in metrics}
    summary["wall_s"]["change_wins"] = f"{sum(pr['change']['wall_s'] < pr['parent']['wall_s'] for pr in pairs)}/{len(pairs)}"
    checks = {side: {k: sum(pr[side][k] for pr in pairs) for k in ("failed", "attempted")} for side in sides}
    checks["change_fails_larger_share"] = [
        pr["seed"] for pr in pairs
        if pr["change"]["failed"] * pr["parent"]["attempted"] > pr["parent"]["failed"] * pr["change"]["attempted"]]
    new = {pr["seed"]: sorted(set(pr["change"]["failed_checks"]) - set(pr["parent"]["failed_checks"]))
           for pr in pairs}
    checks["change_only_failures"] = {seed: names for seed, names in new.items() if names}
    summary["checks"] = checks
    return summary


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--json")
    a = p.parse_args()
    pairs = []
    for seed in a.seeds:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        pair = {"seed": seed, "first": order[0]}
        pair.update({side: run(getattr(a, side), a.workload, seed) for side in order})
        pairs.append(pair)
        print(f"seed {seed}: wall_s parent {pair['parent']['wall_s']:.4g} change {pair['change']['wall_s']:.4g}; "
              f"failed checks parent {pair['parent']['failed_checks']} change {pair['change']['failed_checks']}")
    summary = summarize(pairs)
    print(json.dumps(summary, indent=1))
    checks = summary["checks"]
    print("failed/attempted checks: " + ", ".join(f"{side} {checks[side]['failed']}/{checks[side]['attempted']}"
                                                  for side in ("parent", "change")))
    for seed in checks["change_fails_larger_share"]:
        print(f"FLAG: seed {seed}: the change fails a larger share of its checks than the parent")
    for seed, names in checks["change_only_failures"].items():
        print(f"FLAG: seed {seed}: the change fails {names}, which the parent passes")
    if a.json:
        with open(a.json, "w") as fh:
            json.dump({"workload": a.workload, "pairs": pairs, "summary": summary}, fh, indent=1)


if __name__ == "__main__":
    main()
