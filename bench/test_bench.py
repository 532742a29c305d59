"""Self-test of the benchmark at configs/quick.ini's shape.

    python3 -m pytest bench/test_bench.py -q

It checks that every metric of BENCHMARK.json is emitted with its unit in
both modes, that the correctness gate runs, that the computed work counts
match the arrays the program really builds, and that a directory without
the program's sources makes the benchmark fail without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=170)


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.SPEC


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = run.SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    # the gate ran: every iteration produced checks, and the counts add up
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    record = json.loads((HERE / "results" / f"{workload}.seed1.trace{trace}.tiny.json").read_text())
    assert record["checks"] and record["attempted"] % len(record["checks"]) == 0
    assert record["failed_checks"] == sorted(c["name"] for c in record["checks"] if not c["passed"])
    assert result["correct"] == all(name in workloads.KNOWN_DEFECTS for name in record["failed_checks"])
    if trace:
        assert record["spans"] and all(s["end"] >= s["start"] for s in record["spans"])


def test_work_counts_match_the_program_arrays():
    ctx = workloads.Context("fredholm_batch", 0, tiny=True)
    from memlqr.forward import StateSnapshot, extend_state
    from memlqr.kernels import TimeGrid, solve_Z
    from memlqr.optimal import get_assembly, solve_optimal, u_plus_control_side, value_function

    n, M = ctx.cfg.n_modes, ctx.cfg.n_steps
    table = solve_Z(ctx.basis, TimeGrid(ctx.cfg.t_final, M))
    arrays = [v for v in vars(table).values() if hasattr(v, "nbytes")]
    assert len(arrays) == workloads.TABLE_ARRAYS
    assert sum(a.nbytes for a in arrays) / workloads.MIB == workloads.table_mb(n, M)

    held = 0
    state = StateSnapshot.initial([1.0] * n, [0.5] * n)
    for start in (0, M // 4):
        node_state = extend_state(state, None, start, table)
        solve_optimal(node_state, table)
        u_plus_control_side(node_state, table)
        value_function(node_state, table)
        asm = get_assembly(table, start)
        sizes = workloads.factor_sizes(n, M - start)
        factors = {"state_cholesky": asm._chol_state[0], "control_cholesky": asm._chol_control[0],
                   "block_lu": asm._lu_block[0]}
        for kind, factor in factors.items():
            assert factor.shape == (sizes[kind],) * 2
            held += factor.nbytes
    assert held / workloads.MIB == workloads.factor_counts(ctx)[0]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "desk_all", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
