"""Verification suites behind the CLI: build, check, report.

Every suite measures its quantities at the configured desk scale, writes CSV
artifacts plus a summary (one line per check: name, measured, threshold,
pass/fail), and reports success as a boolean.  Randomized probes draw from
seeded generators recorded in the summary, so identical configurations give
byte-identical output files.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, build_control, build_initial_data
from .forward import (
    ControlSignal,
    StateSnapshot,
    extend_state,
    hat_y_from_initial,
    simulate_damped_wave,
    solve_voc,
    solve_volterra,
)
from .kernels import TimeGrid, Z_oracle, series_Z_check, solve_Z, write_kernel_csv
from .optimal import (
    cost_gradient,
    evaluate_cost,
    get_assembly,
    solve_optimal,
    u_plus_control_side,
    value_function,
)
from .riccati import (
    bellman_check,
    chain_rule_scan,
    closed_loop_simulate,
    dissipation_residual,
    dissipation_scan,
    feedback_gain,
    riccati_residual,
    state_along_trajectory,
    terminal_P_check,
    value_scan_batch,
)
from .spectral import build_basis

__all__ = ["SummaryRow", "SuiteResult", "run_suite", "COMMANDS"]


@dataclass
class SummaryRow:
    name: str
    measured: float
    threshold: float
    passed: bool

    def format(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return f"{self.name},{self.measured:.12e},{self.threshold:.12e},{verdict}"


@dataclass
class SuiteResult:
    command: str
    rows: list
    artifacts: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _atomic_write(path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.12e}" if isinstance(x, float) else str(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


class _Workspace:
    """Shared basis/grid/table plus the configured state and control."""

    def __init__(self, cfg: ExperimentConfig, seed: int | None, tol_scale: float):
        self.cfg = cfg
        self.seed = cfg.seed if seed is None else seed
        self.tol_scale = tol_scale
        self.basis = build_basis(cfg.n_modes)
        self.grid = TimeGrid(cfg.t_final, cfg.n_steps)
        self.table = solve_Z(self.basis, self.grid)
        self.control = build_control(cfg)
        v0, y0 = build_initial_data(cfg, seed=self.seed)
        self.v0, self.y0 = v0, y0
        self.state = StateSnapshot.initial(v0, y0)

    def tol(self, name: str) -> float:
        return self.cfg.scaled_tolerance(name, self.tol_scale)

    def u_samples(self, start: int = 0) -> ControlSignal:
        return self.control.sample(self.grid, start)

    def probe_controls(self, count: int, start: int = 0):
        """Seeded smooth controls with offsets keeping them off the feedback."""
        rng = np.random.default_rng(self.seed + 1)
        t = self.grid.nodes[start:]
        out = []
        for _ in range(count):
            off = rng.uniform(0.4, 0.8, 2) * np.where(rng.random(2) < 0.5, -1.0, 1.0)
            amp = rng.uniform(0.1, 0.25, 2)
            w = rng.uniform(1.0, 4.0, 2)
            ph = rng.uniform(0.0, 2.0 * np.pi, 2)
            out.append(
                ControlSignal(start, np.stack([
                    off[0] + amp[0] * np.sin(w[0] * t + ph[0]),
                    off[1] + amp[1] * np.cos(w[1] * t + ph[1]),
                ], axis=1))
            )
        return out

    def warm_state(self, frac: float = 0.25) -> StateSnapshot:
        j = max(1, int(round(self.cfg.n_steps * frac)))
        return extend_state(self.state, self.u_samples(), j, self.table)


def _suite_kernels(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    errs = {}
    for M in (ws.cfg.n_steps // 2, ws.cfg.n_steps):
        grid = TimeGrid(ws.cfg.t_final, M)
        table = ws.table if M == ws.cfg.n_steps else solve_Z(ws.basis, grid)
        zex = np.array([Z_oracle(ws.basis, k, grid.nodes) for k in range(ws.basis.n_modes)])
        errs[M] = np.max(np.abs(table.Z - zex), axis=1)
    fine = errs[ws.cfg.n_steps]
    coarse = errs[ws.cfg.n_steps // 2]
    ratio = float(np.max(coarse) / max(np.max(fine), 1e-300))
    rows.append(SummaryRow("kernel_oracle_max_error", float(np.max(fine)), ws.tol("kernel_oracle"),
                           float(np.max(fine)) <= ws.tol("kernel_oracle")))
    rows.append(SummaryRow("kernel_oracle_refinement_ratio", ratio, 4.5, 3.5 <= ratio <= 4.5))

    rep = series_Z_check(ws.table, 12)
    rows.append(SummaryRow("series_error_k12", rep.final_error, ws.tol("series"),
                           rep.final_error <= ws.tol("series")))

    path = os.path.join(outdir, "kernels.csv")
    write_kernel_csv(ws.table, path)
    artifacts.append(path)
    epath = os.path.join(outdir, "kernel_errors.csv")
    _write_csv(epath, ["mode", "oracle_error_fine", "oracle_error_coarse"],
               [(k + 1, float(fine[k]), float(coarse[k])) for k in range(ws.basis.n_modes)])
    artifacts.append(epath)
    spath = os.path.join(outdir, "series.csv")
    _write_csv(spath, ["k", "max_error"], [(k, float(e)) for k, e in enumerate(rep.errors)])
    artifacts.append(spath)
    return SuiteResult("kernels", rows, artifacts)


def _suite_forward(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    u = ws.u_samples()

    # the two independent routes on the configured scenario
    tv = solve_volterra(ws.state, u, ws.table)
    tc = solve_voc(ws.state, u, ws.table)
    worst = float(np.max(np.abs(tv.values - tc.values)))
    rows.append(SummaryRow("two_route_max_error", worst, ws.tol("two_route"), worst <= ws.tol("two_route")))

    # transformation check with lifted compatible data
    if ws.control.ddu is not None:
        lift0 = ws.basis.dmap_coeffs @ ws.control.u(0.0)
        lift1 = ws.basis.dmap_coeffs @ ws.control.du(0.0)
        v0 = ws.v0 + lift0
        v1 = ws.y0 * 0.5 + lift1  # reuse the seeded profile as a velocity recipe
        yh = hat_y_from_initial(v0, v1, ws.control.u(0.0), ws.basis)
        wave = simulate_damped_wave(v0, v1, ws.control, ws.table)
        mem = solve_volterra(StateSnapshot.initial(v0, yh), u, ws.table)
        terr = float(np.max(np.abs(wave.values - mem.values)))
        rows.append(SummaryRow("transformation_max_error", terr, ws.tol("transformation"),
                               terr <= ws.tol("transformation")))
        traj = mem
    else:
        traj = solve_volterra(ws.state, u, ws.table)

    path = os.path.join(outdir, "trajectory.csv")
    header = ["t"] + [f"mode_{k+1}" for k in range(ws.cfg.n_modes)] + ["norm_H"]
    body = [
        (float(t),) + tuple(float(x) for x in traj.values[j]) + (float(np.linalg.norm(traj.values[j])),)
        for j, t in enumerate(ws.grid.nodes)
    ]
    _write_csv(path, header, body)
    artifacts.append(path)
    return SuiteResult("forward", rows, artifacts)


def _suite_optimize(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    sol = solve_optimal(ws.state, ws.table)
    scale = 1.0 + float(np.max(np.abs(sol.u_plus.samples), initial=0.0))
    rows.append(SummaryRow("gradient_norm_at_optimum", sol.residual, ws.tol("gradient_scale") * scale,
                           sol.residual <= ws.tol("gradient_scale") * scale))

    J = evaluate_cost(ws.state, sol.u_plus, ws.table)
    W2 = value_function(ws.state, ws.table)
    vtol = ws.tol("value_consistency") * (1.0 + abs(sol.W))
    rows.append(SummaryRow("value_vs_cost", abs(W2 - J), vtol, abs(W2 - J) <= vtol))

    u2 = u_plus_control_side(ws.state, ws.table)
    rdiff = float(np.max(np.abs(sol.u_plus.samples - u2.samples)))
    rows.append(SummaryRow("two_route_control", rdiff, ws.tol("route_agreement"),
                           rdiff <= ws.tol("route_agreement")))

    rng = np.random.default_rng(ws.seed + 3)
    slack = ws.tol("perturbation_slack")
    ok = True
    worst = 0.0
    for eps in (1e-2, 1e-3):
        for _ in range(10):
            du = rng.standard_normal(sol.u_plus.samples.shape)
            du /= np.sqrt(np.sum(du**2))
            J_pert = evaluate_cost(ws.state, ControlSignal(0, sol.u_plus.samples + eps * du), ws.table)
            worst = min(worst, J_pert - J)
            ok = ok and (J_pert >= J - slack)
    rows.append(SummaryRow("perturbation_min_excess", worst, slack, ok))

    path = os.path.join(outdir, "optimal_control.csv")
    _write_csv(path, ["t", "u0", "u1"],
               [(float(t), float(sol.u_plus.samples[j, 0]), float(sol.u_plus.samples[j, 1]))
                for j, t in enumerate(ws.grid.nodes)])
    artifacts.append(path)
    tpath = os.path.join(outdir, "optimal_trajectory.csv")
    _write_csv(tpath, ["t"] + [f"mode_{k+1}" for k in range(ws.cfg.n_modes)],
               [(float(t),) + tuple(float(x) for x in sol.v_plus.values[j])
                for j, t in enumerate(ws.grid.nodes)])
    artifacts.append(tpath)
    asm = get_assembly(ws.table, 0)
    state_cost = asm.inner_V(sol.v_plus.values, sol.v_plus.values)
    control_cost = asm.inner_U(sol.u_plus.samples, sol.u_plus.samples)
    # measured spectrum of the normal operator (reported, never asserted);
    # the nontrivial eigenvalues of both normal operators coincide, so the
    # cheap control-side one stands in for the state side
    evals = asm.control_normal_eigenvalues()
    rows.append(SummaryRow("normal_operator_condition", float(evals[-1] / evals[0]),
                           float("inf"), True))
    cpath = os.path.join(outdir, "cost_breakdown.csv")
    _write_csv(cpath, ["state_cost", "control_cost", "total", "value_function", "gradient_norm",
                       "normal_min_eig", "normal_max_eig"],
               [(float(state_cost), float(control_cost), float(J), float(W2), float(sol.residual),
                 float(evals[0]), float(evals[-1]))])
    artifacts.append(cpath)
    return SuiteResult("optimize", rows, artifacts)


def _suite_bellman(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    body = []
    worst_tail = 0.0
    worst_tel = 0.0
    states = [ws.state]
    for si, st in enumerate(states):
        for t0 in (ws.cfg.n_steps // 4, ws.cfg.n_steps // 2):
            rep = bellman_check(st, t0, ws.table)
            worst_tail = max(worst_tail, rep.tail_mismatch)
            worst_tel = max(worst_tel, rep.telescope_residual)
            body.append((si, t0, rep.tail_mismatch, rep.telescope_residual, rep.W_start, rep.W_restart))
    rows.append(SummaryRow("bellman_tail_mismatch", worst_tail, ws.tol("bellman"),
                           worst_tail <= ws.tol("bellman")))
    rows.append(SummaryRow("bellman_telescope_residual", worst_tel, ws.tol("bellman"),
                           worst_tel <= ws.tol("bellman")))
    path = os.path.join(outdir, "bellman.csv")
    _write_csv(path, ["state", "t0_index", "tail_mismatch", "telescope_residual", "W_start", "W_restart"],
               [(a, b, float(c), float(d), float(e), float(f)) for a, b, c, d, e, f in body])
    artifacts.append(path)
    return SuiteResult("bellman", rows, artifacts)


def _suite_dissipation(ws: _Workspace, outdir: str, n_probe: int = 50) -> SuiteResult:
    rows, artifacts = [], []
    sol = solve_optimal(ws.state, ws.table)
    rep_opt = dissipation_scan(ws.state, sol.u_plus, ws.table)
    band = ws.tol("dissipation_band")
    rows.append(SummaryRow("dissipation_equality_band", rep_opt.max_abs_r, band,
                           rep_opt.max_abs_r <= band))

    zero_state = bool(np.all(ws.v0 == 0.0) and np.all(ws.y0 == 0.0))
    probes = ws.probe_controls(n_probe)
    indices, Wmat, trajs = value_scan_batch(ws.state, probes, ws.table)
    min_r = np.inf
    escaped = True
    r_cols = []
    for c, u in enumerate(probes):
        _, r = dissipation_residual(Wmat[:, c], trajs[c], u, ws.grid.dt)
        r_cols.append(r)
        min_r = min(min_r, float(np.min(r)))
        if zero_state and np.all(np.abs(r) < 1e-14):
            continue  # zero data keeps every control trivially in band
        escaped = escaped and (float(np.max(np.abs(r))) > band)
    floor = ws.tol("dissipation_floor")
    rows.append(SummaryRow("dissipation_probe_floor", min_r, -floor, min_r >= -floor))
    rows.append(SummaryRow("dissipation_probes_escape_band", 1.0 if escaped else 0.0, 1.0, escaped))

    path = os.path.join(outdir, "dissipation.csv")
    header = ["t", "W_optimal", "dW_optimal", "r_optimal", "min_probe_r"]
    probe_min = np.min(np.stack(r_cols), axis=0) if r_cols else np.zeros_like(rep_opt.r)
    body = [
        (float(ws.grid.nodes[j]), float(rep_opt.W[j]), float(rep_opt.dW[j]), float(rep_opt.r[j]),
         float(probe_min[j]))
        for j in range(len(rep_opt.r))
    ]
    _write_csv(path, header, body)
    artifacts.append(path)
    return SuiteResult("dissipation", rows, artifacts)


def _suite_riccati(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    # chain-rule closure along the configured control from a warmed state
    warm = ws.warm_state()
    u_tail = ws.u_samples(warm.tau_index)
    rep = chain_rule_scan(warm, u_tail, ws.table)
    worst_chain = float(np.max(rep.relative)) if len(rep.relative) else 0.0
    tol = ws.tol("riccati_relative")
    rows.append(SummaryRow("chain_rule_closure", worst_chain, tol, worst_chain <= tol))

    # residual of the differential identity along the configured flow
    worst_res = 0.0
    body = []
    traj = solve_voc(ws.state, ws.u_samples(), ws.table)
    for si, frac in enumerate((0.125, 0.25, 0.375, 0.5, 0.75)):
        j = max(1, int(round(ws.cfg.n_steps * frac)))
        st = state_along_trajectory(ws.state, traj, j, ws.table)
        rr = riccati_residual(st, ws.table)
        worst_res = max(worst_res, rr.relative)
        body.append((si, st.tau_index, rr.p_prime, rr.cross, rr.gain_sq, rr.vhat_sq, rr.residual, rr.relative))
    rows.append(SummaryRow("riccati_relative_residual", worst_res, tol, worst_res <= tol))

    term = terminal_P_check(ws.table, seed=ws.seed)
    rows.append(SummaryRow("terminal_value_exact_zero", abs(term.value_at_T), 0.0, term.value_at_T == 0.0))
    rows.append(SummaryRow("terminal_one_panel_bound", term.value_near_T, term.near_T_bound,
                           term.value_near_T <= term.near_T_bound))

    path = os.path.join(outdir, "riccati.csv")
    _write_csv(path, ["state", "theta_index", "p_prime", "cross", "gain_sq", "vhat_sq", "residual", "relative"],
               [(a, b, float(c), float(d), float(e), float(f), float(g), float(h))
                for a, b, c, d, e, f, g, h in body])
    artifacts.append(path)
    cpath = os.path.join(outdir, "chain_rule.csv")
    _write_csv(cpath, ["theta_index", "fd", "formula", "residual", "relative"],
               [(int(rep.indices[j]), float(rep.fd[j]), float(rep.formula[j]),
                 float(rep.residual[j]), float(rep.relative[j])) for j in range(len(rep.indices))])
    artifacts.append(cpath)
    return SuiteResult("riccati", rows, artifacts)


def _suite_closed_loop(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    sol = solve_optimal(ws.state, ws.table)
    _traj, u_cl = closed_loop_simulate(ws.state, ws.table)
    wU = np.repeat(ws.grid.quad_weights, 2)
    d = (u_cl.samples - sol.u_plus.samples).reshape(-1)
    mismatch = float(np.sqrt(np.dot(wU * d, d)))
    rows.append(SummaryRow("closed_loop_l2_mismatch", mismatch, ws.tol("closed_loop"),
                           mismatch <= ws.tol("closed_loop")))

    # linearity of the gain in the state
    rng = np.random.default_rng(ws.seed + 6)
    i = max(1, ws.cfg.n_steps // 3)
    n = ws.cfg.n_modes

    def rand_state():
        xi = rng.standard_normal((i + 1, n))
        return StateSnapshot(i, xi[-1].copy(), xi, rng.standard_normal(n))

    worst_lin = 0.0
    for _ in range(5):
        s1, s2 = rand_state(), rand_state()
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        comb = StateSnapshot(i, a * s1.v_hat.coeffs + b * s2.v_hat.coeffs,
                             a * s1.xi + b * s2.xi, a * s1.y_hat.coeffs + b * s2.y_hat.coeffs)
        g = feedback_gain(comb, ws.table)
        gp = a * feedback_gain(s1, ws.table) + b * feedback_gain(s2, ws.table)
        worst_lin = max(worst_lin, float(np.max(np.abs(g - gp))))
    rows.append(SummaryRow("feedback_gain_linearity", worst_lin, ws.tol("feedback_linearity"),
                           worst_lin <= ws.tol("feedback_linearity")))

    path = os.path.join(outdir, "closed_loop.csv")
    _write_csv(path, ["t", "u_cl_0", "u_cl_1", "u_open_0", "u_open_1"],
               [(float(t), float(u_cl.samples[j, 0]), float(u_cl.samples[j, 1]),
                 float(sol.u_plus.samples[j, 0]), float(sol.u_plus.samples[j, 1]))
                for j, t in enumerate(ws.grid.nodes)])
    artifacts.append(path)
    return SuiteResult("closed-loop", rows, artifacts)


COMMANDS = {
    "kernels": _suite_kernels,
    "forward": _suite_forward,
    "optimize": _suite_optimize,
    "bellman": _suite_bellman,
    "dissipation": _suite_dissipation,
    "riccati": _suite_riccati,
    "closed-loop": _suite_closed_loop,
}


def run_suite(command: str, cfg: ExperimentConfig, outdir: str,
              seed: int | None = None, tol_scale: float = 1.0) -> list[SuiteResult]:
    """Run one named suite (or all) and write the per-suite summaries."""
    os.makedirs(outdir, exist_ok=True)
    ws = _Workspace(cfg, seed, tol_scale)
    names = list(COMMANDS) if command == "all" else [command]
    if any(n not in COMMANDS for n in names):
        raise ValueError(f"unknown command {command!r}; choose from {list(COMMANDS)} or 'all'")
    results = []
    all_rows = []
    for name in names:
        res = COMMANDS[name](ws, outdir)
        results.append(res)
        all_rows.extend(res.rows)
    lines = ["name,measured,threshold,status",
             f"# seed = {ws.seed}, tol_scale = {tol_scale:g}, n_modes = {cfg.n_modes}, "
             f"t_final = {cfg.t_final:g}, n_steps = {cfg.n_steps}"]
    lines += [row.format() for row in all_rows]
    _atomic_write(os.path.join(outdir, "summary.csv"), "\n".join(lines) + "\n")
    payload = {
        "seed": ws.seed,
        "tol_scale": tol_scale,
        "n_modes": cfg.n_modes,
        "t_final": cfg.t_final,
        "n_steps": cfg.n_steps,
        "checks": [
            {"name": r.name, "measured": r.measured, "threshold": r.threshold,
             "passed": bool(r.passed)}
            for r in all_rows
        ],
        "passed": all(r.passed for r in all_rows),
    }
    _atomic_write(os.path.join(outdir, "summary.json"), json.dumps(payload, indent=2) + "\n")
    return results
