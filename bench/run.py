"""memlqr benchmark: run one workload (or all of them) and print every metric.

    python3 bench/run.py --workload fredholm_batch --seed 3 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced and traced; rewrites BENCHMARK.json

Each workload runs in a child process (bench/workloads.py) started with a
fixed BLAS thread count.  Set-up time is measured from spawning a child to
the moment it has imported memlqr, parsed the config and built the basis;
several set-up-only children give a median.  The last stdout line is one
JSON object: correct, attempted, failed and metrics.  Untraced runs report
the end-to-end metrics, traced runs the per-layer ones.  A full record
(environment, checks, spans) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "workloads.py"

# One BLAS thread is the plain baseline: on two cores the verification scans
# run about twice as fast single-threaded as with two OpenBLAS threads.
BLAS_THREADS = 1
SETUP_PROBES = 9
RUN_SECONDS = 25
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": RUN_SECONDS,
    "workloads": [
        {"name": "desk_all",
         "why": "the seven suites of `memlqr all` at configs/default.ini; the riccati-layer scans dominate"},
        {"name": "fredholm_batch",
         "why": "few large state-side Cholesky and block-LU factors at n=16, M=256, each reused across states"},
        {"name": "modal_forward",
         "why": "n=64, M=2048 stiff regime; Python time-stepping in kernels and forward, never optimal or riccati"},
    ],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.15},
        {"name": "checks_passed_frac", "unit": "frac", "better": "higher", "bound": 0.15},
    ],
    "per_layer": [
        {"name": "kernels.solve_Z_s", "unit": "s", "better": "lower"},
        {"name": "kernels.series_Z_check_s", "unit": "s", "better": "lower"},
        {"name": "kernels.table_mb_computed", "unit": "MiB", "better": "lower"},
        {"name": "forward.solve_volterra_s", "unit": "s", "better": "lower"},
        {"name": "forward.solve_voc_s", "unit": "s", "better": "lower"},
        {"name": "forward.simulate_damped_wave_s", "unit": "s", "better": "lower"},
        {"name": "forward.extend_state_s", "unit": "s", "better": "lower"},
        {"name": "optimal.solve_optimal_first_s", "unit": "s", "better": "lower"},
        {"name": "optimal.solve_optimal_repeat_s", "unit": "s", "better": "lower"},
        {"name": "optimal.value_function_first_s", "unit": "s", "better": "lower"},
        {"name": "optimal.value_function_repeat_s", "unit": "s", "better": "lower"},
        {"name": "optimal.u_plus_control_side_s", "unit": "s", "better": "lower"},
        {"name": "optimal.evaluate_cost_s", "unit": "s", "better": "lower"},
        {"name": "optimal.factor_mb_computed", "unit": "MiB", "better": "lower"},
        {"name": "optimal.factor_gflop_computed", "unit": "GFLOP", "better": "lower"},
        {"name": "experiments.kernels_s", "unit": "s", "better": "lower"},
        {"name": "experiments.forward_s", "unit": "s", "better": "lower"},
        {"name": "experiments.optimize_s", "unit": "s", "better": "lower"},
        {"name": "experiments.bellman_s", "unit": "s", "better": "lower"},
        {"name": "experiments.dissipation_s", "unit": "s", "better": "lower"},
        {"name": "experiments.riccati_s", "unit": "s", "better": "lower"},
        {"name": "experiments.closed_loop_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_frac", "unit": "frac", "better": "lower"},
    ],
}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


class BenchError(RuntimeError):
    """A child failed or the checkout cannot be benchmarked; no result is printed."""


def _blas_threads() -> int:
    return min(BLAS_THREADS, os.cpu_count() or 1)


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(_blas_threads())
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    env.pop("PYTHONPATH", None)  # memlqr comes from this checkout's src/ only
    return env


def _spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run one child to completion; return (spawn instant, its last JSON line)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=_child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(child: dict) -> dict[str, float]:
    """Per-layer values from the traced iterations: median self time per call, counts, overhead."""
    per_call: dict[str, list[float]] = {}
    for span in child["spans"]:
        name = span["name"]
        if "first" in span:
            name += "_first" if span["first"] else "_repeat"
        per_call.setdefault(name, []).append(child["self_s"][str(span["id"])])
    values = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name.endswith("_s"):
            values[name] = _median(per_call.get(name[:-2], []))
    values["kernels.table_mb_computed"] = child["table_mib_computed"]
    values["optimal.factor_mb_computed"] = child["factor_mib_computed"]
    values["optimal.factor_gflop_computed"] = child["factor_gflop_computed"]
    values["trace.overhead_frac"] = (_median(child["traced_iteration_s"])
                                     / _median(child["iteration_s"]) - 1.0)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """Set-up probes around the measured child; returns (result line, full record).

    Half the probes run before the child and half after, so the set-up
    samples span the run as the iterations do.
    """
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])

    def probe_setups(count: int) -> list[float]:
        times = []
        for _ in range(count):
            spawned, probe = _spawn(["--role", "setup", *common], PROBE_TIMEOUT_S)
            times.append(probe["ready"] - spawned)
        return times

    setups = probe_setups(SETUP_PROBES // 2)
    spawned, child = _spawn(["--role", "run", *common, "--seconds", str(seconds),
                             "--trace", str(int(trace))], CHILD_TIMEOUT_S)
    setups += [child["ready"] - spawned] + probe_setups(SETUP_PROBES - SETUP_PROBES // 2)

    if trace:
        metrics = layer_metrics(child)
        spec = SPEC["per_layer"]
    else:
        metrics = {
            "wall_s": _median(child["iteration_s"]),
            "setup_s": _median(setups),
            "peak_rss_mb": child["peak_rss_mib"],
            "checks_passed_frac": 1.0 - child["failed"] / child["attempted"],
        }
        spec = SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    record = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = dict(child, setup_s_samples=setups, seconds=seconds, trace=int(trace), tiny=tiny)
    details["environment"].update(nproc=os.cpu_count(), platform=platform.platform(),
                                  blas_threads=_blas_threads(),
                                  git_commit=_git_commit())
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload}.seed{seed}.trace{int(trace)}{'.tiny' if tiny else ''}.json"
    out.write_text(json.dumps(dict(details, result=record), indent=1) + "\n")
    return record, details


def _print_record(workload: str, trace: bool, record: dict, d: dict) -> None:
    print(f"# {workload} seed={d['seed']} trace={int(trace)} shape={d['shape']} "
          f"iterations={len(d['iteration_s']) + len(d['traced_iteration_s'])} "
          f"checks failed/attempted={record['failed']}/{record['attempted']} "
          f"failed_checks={d['failed_checks']} correct={record['correct']}")
    for name, m in record["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")


def _check_checkout() -> None:
    if not (ROOT / "src" / "memlqr" / "__init__.py").is_file():
        raise BenchError(f"no memlqr sources under {ROOT / 'src'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="memlqr benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload; omitted: all, untraced and traced, and BENCHMARK.json is rewritten")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="every workload at configs/quick.ini's shape")
    args = p.parse_args(argv)

    try:
        _check_checkout()
        if args.workload:
            record, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                           args.tiny)
            _print_record(args.workload, bool(args.trace), record, details)
            print(json.dumps(record))
            return 0
        for workload in WORKLOAD_NAMES:
            for trace in (False, True):
                _print_record(workload, trace,
                              *run_workload(workload, args.seed, args.seconds, trace, args.tiny))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
