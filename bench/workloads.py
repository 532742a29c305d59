"""One benchmark workload in its own process: set-up, timed iterations, checks, spans.

Started by ``run.py`` with the BLAS thread count already fixed in the
environment.  ``--role setup`` stops once memlqr is imported, the config is
parsed and the spectral basis is built, and reports that instant; ``--role
run`` then runs the named workload for ``--seconds`` and prints one JSON
object as its last stdout line.

Timing uses time.monotonic (CLOCK_MONOTONIC, shared by every process on the
host), so the parent can measure set-up from the moment it spawned us.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
RESULTS = Path(__file__).resolve().parent / "results"

# The two shapes every workload can run at: the real one, and quick.ini's
# for the self-test.  Fields are (config file, n_modes, n_steps); None keeps
# the config's own value.
SHAPES = {
    "desk_all": ("default.ini", None, None),
    "fredholm_batch": ("default.ini", 16, 256),
    "modal_forward": ("default.ini", 64, 2048),
}
TINY_SHAPE = ("quick.ini", None, None)

FREDHOLM_STATES = 4
MODAL_PAIRS = 2
SERIES_TERMS = 12

# Checks that fail at the commit that defined the benchmark because of a
# known program defect.  They still count as failed in `failed` and in
# checks_passed_frac; they only do not make a run incorrect.
KNOWN_DEFECTS = {
    "dissipation_equality_band": "ROADMAP item 2a: stiff initial layer in the W_theta finite difference",
}


def _import_memlqr() -> None:
    """Import memlqr from this checkout's src/ only, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import memlqr

    if Path(memlqr.__file__).resolve().parent != SRC / "memlqr":
        raise ImportError(f"memlqr imported from {memlqr.__file__}, not from {SRC}")


# ----------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": time.monotonic(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class NoTracer:
    """Tracing off: spans cost one no-op context manager."""

    def span(self, name: str, **attrs):
        return nullcontext()


# ----------------------------------------------------------------------------
# checks


@dataclasses.dataclass
class Check:
    name: str
    measured: float
    threshold: float
    passed: bool


def _le(name: str, measured: float, threshold: float) -> Check:
    measured = float(measured)
    return Check(name, measured, float(threshold), bool(measured <= threshold))


# ----------------------------------------------------------------------------
# workloads


class Context:
    """Everything set-up builds: the imported package, the config, the basis."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        _import_memlqr()
        from memlqr.config import DEFAULT_TOLERANCES, load_config
        from memlqr.spectral import build_basis

        cfg_name, n_modes, n_steps = TINY_SHAPE if tiny else SHAPES[workload]
        cfg = load_config(CONFIGS / cfg_name)
        overrides = {k: v for k, v in (("n_modes", n_modes), ("n_steps", n_steps)) if v is not None}
        self.cfg = dataclasses.replace(cfg, **overrides)
        self.basis = build_basis(self.cfg.n_modes)
        self.tol = DEFAULT_TOLERANCES
        self.workload = workload
        self.seed = seed
        self.out_dir = RESULTS / f"{workload}.seed{seed}.out"


def _seeded_control(ctx: Context, rng):
    """A sine-family control with analytic derivatives and seeded parameters."""
    from memlqr.config import build_control

    params = {
        "offset0": rng.uniform(0.2, 0.6), "offset1": -rng.uniform(0.2, 0.6),
        "amp0": rng.uniform(0.1, 0.4), "amp1": rng.uniform(0.1, 0.4),
        "freq0": rng.uniform(1.0, 4.0), "freq1": rng.uniform(1.0, 4.0),
    }
    return build_control(dataclasses.replace(ctx.cfg, control_preset="sine", control_params=params))


def desk_all(ctx: Context, tracer) -> list[Check]:
    """The seven suites of `memlqr all`, one run_suite call per suite."""
    from memlqr.experiments import COMMANDS, run_suite

    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    checks = []
    for name in COMMANDS:
        with tracer.span(f"experiments.{name.replace('-', '_')}"):
            results = run_suite(name, ctx.cfg, str(ctx.out_dir), seed=ctx.seed)
        checks += [Check(r.name, float(r.measured), float(r.threshold), bool(r.passed))
                   for res in results for r in res.rows]
    return checks


def fredholm_batch(ctx: Context, tracer) -> list[Check]:
    """Dense optimality solves for several states at start 0 and restarted at M/4."""
    import numpy as np
    from memlqr.config import build_initial_data
    from memlqr.forward import StateSnapshot, extend_state
    from memlqr.kernels import TimeGrid, solve_Z
    from memlqr.optimal import evaluate_cost, solve_optimal, u_plus_control_side, value_function

    grid = TimeGrid(ctx.cfg.t_final, ctx.cfg.n_steps)
    with tracer.span("kernels.solve_Z"):
        table = solve_Z(ctx.basis, grid)
    restart = ctx.cfg.n_steps // 4
    rng = np.random.default_rng(ctx.seed)
    seen = set()
    checks = []
    for i in range(FREDHOLM_STATES):
        v0, y0 = build_initial_data(ctx.cfg, seed=int(rng.integers(2**31)))
        state0 = StateSnapshot.initial(v0, y0)
        control = _seeded_control(ctx, rng).sample(grid)
        with tracer.span("forward.extend_state"):
            state1 = extend_state(state0, control, restart, table)
        for state in (state0, state1):
            node = state.tau_index
            first_opt = ("solve_optimal", node) not in seen
            first_val = ("value_function", node) not in seen
            seen |= {("solve_optimal", node), ("value_function", node)}
            with tracer.span("optimal.solve_optimal", first=first_opt):
                sol = solve_optimal(state, table)
            with tracer.span("optimal.u_plus_control_side"):
                u2 = u_plus_control_side(state, table)
            with tracer.span("optimal.value_function", first=first_val):
                W = value_function(state, table)
            with tracer.span("optimal.evaluate_cost"):
                J = evaluate_cost(state, sol.u_plus, table)
            tag = f"state{i}.node{node}"
            scale = 1.0 + float(np.max(np.abs(sol.u_plus.samples), initial=0.0))
            checks.append(_le(f"gradient_norm.{tag}", sol.residual, ctx.tol["gradient_scale"] * scale))
            checks.append(_le(f"value_vs_cost.{tag}", abs(W - J),
                              ctx.tol["value_consistency"] * (1.0 + abs(sol.W))))
            checks.append(_le(f"two_route_control.{tag}",
                              np.max(np.abs(sol.u_plus.samples - u2.samples)), ctx.tol["route_agreement"]))
    return checks


def modal_forward(ctx: Context, tracer) -> list[Check]:
    """Kernel table, series check and both forward routes in the stiff regime."""
    import numpy as np
    from memlqr.config import build_initial_data
    from memlqr.forward import (StateSnapshot, extend_state, hat_y_from_initial,
                                simulate_damped_wave, solve_voc, solve_volterra)
    from memlqr.kernels import TimeGrid, Z_oracle, series_Z_check, solve_Z

    grid = TimeGrid(ctx.cfg.t_final, ctx.cfg.n_steps)
    with tracer.span("kernels.solve_Z"):
        table = solve_Z(ctx.basis, grid)
    with tracer.span("kernels.series_Z_check"):
        series = series_Z_check(table, SERIES_TERMS)
    z_exact = np.array([Z_oracle(ctx.basis, k, grid.nodes) for k in range(ctx.basis.n_modes)])
    checks = [_le("kernel_oracle_max_error", np.max(np.abs(table.Z - z_exact)), ctx.tol["kernel_oracle"]),
              _le("series_error", series.final_error, ctx.tol["series"])]
    finite = [getattr(table, f.name) for f in dataclasses.fields(table)
              if isinstance(getattr(table, f.name), np.ndarray)]

    rng = np.random.default_rng(ctx.seed)
    d = ctx.basis.dmap_coeffs
    for i in range(MODAL_PAIRS):
        v, y = build_initial_data(ctx.cfg, seed=int(rng.integers(2**31)))
        control = _seeded_control(ctx, rng)
        # lifted compatible data: the trace of v0 is u(0)
        v0 = v + d @ control.u(0.0)
        v1 = 0.5 * y + d @ control.du(0.0)
        state = StateSnapshot.initial(v0, hat_y_from_initial(v0, v1, control.u(0.0), ctx.basis))
        u = control.sample(grid)
        with tracer.span("forward.solve_volterra"):
            tv = solve_volterra(state, u, table)
        with tracer.span("forward.solve_voc"):
            tc = solve_voc(state, u, table)
        with tracer.span("forward.simulate_damped_wave"):
            wave = simulate_damped_wave(v0, v1, control, table)
        with tracer.span("forward.extend_state"):
            later = extend_state(state, u, ctx.cfg.n_steps // 4, table)
        checks.append(_le(f"two_route_max_error.pair{i}", np.max(np.abs(tv.values - tc.values)),
                          ctx.tol["two_route"]))
        checks.append(_le(f"transformation_max_error.pair{i}", np.max(np.abs(wave.values - tv.values)),
                          ctx.tol["transformation"]))
        finite += [tv.values, tc.values, wave.values, later.xi]
    bad = sum(int(not np.all(np.isfinite(a))) for a in finite)
    checks.append(Check("non_finite_arrays", float(bad), 0.0, bad == 0))
    return checks


WORKLOADS = {"desk_all": desk_all, "fredholm_batch": fredholm_batch, "modal_forward": modal_forward}


# ----------------------------------------------------------------------------
# computed work counts (from array shapes, never measured)

MIB = float(2**20)
TABLE_ARRAYS = 11  # E, N, Z, Zp, Q and the alpha/beta pairs of Z, E and Q


def table_mb(n_modes: int, n_steps: int) -> float:
    return TABLE_ARRAYS * n_modes * (n_steps + 1) * 8 / MIB


def factor_sizes(n_modes: int, m: int) -> dict[str, int]:
    """Order of each dense factor of OperatorAssembly on a segment of m steps."""
    return {"state_cholesky": (m + 1) * n_modes,
            "block_lu": (m + 1) * (n_modes + 2),
            "control_cholesky": (m + 1) * 2}


def factor_counts(ctx: Context) -> tuple[float, float]:
    """(MiB, GFLOP) of the factors one fredholm_batch iteration forms.

    solve_optimal factors the state Cholesky, u_plus_control_side the control
    Cholesky and value_function the block LU, once per start node.  Cholesky
    costs N^3/3 flops, LU 2 N^3/3.
    """
    if ctx.workload != "fredholm_batch":
        return 0.0, 0.0
    mb = gflop = 0.0
    for start in (0, ctx.cfg.n_steps // 4):
        for kind, size in factor_sizes(ctx.cfg.n_modes, ctx.cfg.n_steps - start).items():
            mb += size * size * 8 / MIB
            gflop += (2.0 if kind == "block_lu" else 1.0) * size**3 / 3.0 / 1e9
    return mb, gflop


# ----------------------------------------------------------------------------
# the timed loop


def run(ctx: Context, seconds: float, trace: bool) -> dict:
    """Repeat the workload until `seconds` have passed.

    Untraced: every iteration is timed.  Traced: iterations alternate
    untraced/traced (untraced first) so the overhead compares like with like;
    at least one of each runs.
    """
    fn = WORKLOADS[ctx.workload]
    tracer = Tracer(f"{ctx.workload}.seed{ctx.seed}.{os.getpid()}") if trace else None
    plain_times, traced_times, plain_cpu, checks_per_iter = [], [], [], []
    t_end = time.monotonic() + seconds
    while True:
        traced = trace and len(plain_times) > len(traced_times)
        # KernelTable and its cached OperatorAssembly reference each other, so
        # the previous iteration's factors wait for the cycle collector; free
        # them here so peak RSS is that of one iteration, not of how many ran.
        gc.collect()
        t0, c0 = time.monotonic(), time.process_time()
        if traced:
            with tracer.span("iteration", index=len(traced_times)):
                checks = fn(ctx, tracer)
        else:
            checks = fn(ctx, NoTracer())
        (traced_times if traced else plain_times).append(time.monotonic() - t0)
        if not traced:
            plain_cpu.append(time.process_time() - c0)
        checks_per_iter.append(checks)
        done = not trace or traced_times
        if done and time.monotonic() >= t_end:
            break

    all_checks = [c for it in checks_per_iter for c in it]
    failed = [c for c in all_checks if not c.passed]
    out = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "shape": {"n_modes": ctx.cfg.n_modes, "t_final": ctx.cfg.t_final, "n_steps": ctx.cfg.n_steps},
        "iteration_s": plain_times,
        "traced_iteration_s": traced_times,
        "iteration_cpu_s": plain_cpu,
        "attempted": len(all_checks),
        "failed": len(failed),
        "correct": all(c.name in KNOWN_DEFECTS for c in failed),
        "checks": [dataclasses.asdict(c) for c in checks_per_iter[-1]],
        "failed_checks": sorted({c.name for c in failed}),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "table_mib_computed": table_mb(ctx.cfg.n_modes, ctx.cfg.n_steps),
    }
    out["factor_mib_computed"], out["factor_gflop_computed"] = factor_counts(ctx)
    if trace:
        out["spans"] = tracer.spans
        out["self_s"] = tracer.self_times()
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": {k: os.environ.get(k) for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--workload", choices=list(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    ctx = Context(args.workload, args.seed, args.tiny)
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    result = run(ctx, args.seconds, bool(args.trace))
    result["ready"] = ready
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
