"""Verification suites behind the CLI: build, check, report.

Every suite measures its quantities at the configured desk scale, writes CSV
artifacts plus a summary (one line per check: name, measured, threshold,
pass/fail), and reports success as a boolean.  Randomized probes draw from
seeded generators recorded in the summary, so identical configurations give
byte-identical output files.  Every artifact goes through one column writer
(_write_csv): LF line endings, written atomically.  The suites share one
workspace, which solves the optimum of the configured state once.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

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
from .kernels import TimeGrid, Z_oracle, series_Z_check, solve_Z
from .optimal import (
    OperatorAssembly,
    evaluate_cost,
    solve_optimal,
    u_plus_control_side,
    value_function,
)
from .riccati import (
    bellman_check,
    chain_rule_scan,
    closed_loop_simulate,
    feedback_gain,
    riccati_residual,
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


def _write_csv(outdir: str, name: str, header, columns) -> str:
    """Write equal-length 1-D columns to outdir/name atomically and return its path.

    An integer column prints with %d, every other column with %.12e.
    """
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.12e" for c in columns)
    lines = [",".join(header)] + [fmt % row for row in zip(*(c.tolist() for c in columns), strict=True)]
    path = os.path.join(outdir, name)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def _at_most(name: str, measured: float, threshold: float) -> SummaryRow:
    """The summary row of a check that passes when measured <= threshold."""
    return SummaryRow(name, measured, threshold, measured <= threshold)


class _Workspace:
    """Shared basis/grid/table plus the configured state, its optimum and the control."""

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

    @cached_property
    def optimum(self):
        """solve_optimal of the configured state, solved on first use."""
        return solve_optimal(self.state, self.table)

    def tol(self, name: str) -> float:
        return self.cfg.scaled_tolerance(name, self.tol_scale)

    def u_samples(self, start: int = 0) -> ControlSignal:
        return self.control.sample(self.grid, start)

    def probe_controls(self, count: int):
        """Seeded smooth controls on [0, T] with offsets keeping them off the feedback."""
        rng = np.random.default_rng(self.seed + 1)
        t = self.grid.nodes
        out = []
        for _ in range(count):
            off = rng.uniform(0.4, 0.8, 2) * np.where(rng.random(2) < 0.5, -1.0, 1.0)
            amp = rng.uniform(0.1, 0.25, 2)
            w = rng.uniform(1.0, 4.0, 2)
            ph = rng.uniform(0.0, 2.0 * np.pi, 2)
            samples = np.stack([off[0] + amp[0] * np.sin(w[0] * t + ph[0]),
                                off[1] + amp[1] * np.cos(w[1] * t + ph[1])], axis=1)
            out.append(ControlSignal(0, samples))
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
    rows.append(_at_most("kernel_oracle_max_error", float(np.max(fine)), ws.tol("kernel_oracle")))
    rows.append(SummaryRow("kernel_oracle_refinement_ratio", ratio, 4.5, 3.5 <= ratio <= 4.5))

    rep = series_Z_check(ws.table, 12)
    rows.append(_at_most("series_error_k12", rep.final_error, ws.tol("series")))

    modes = np.arange(1, ws.basis.n_modes + 1)
    tab = ws.table
    artifacts.append(_write_csv(outdir, "kernels.csv", ["mode", "t", "E", "N", "Z", "Zp", "Q"],
                                [np.repeat(modes, ws.grid.n_steps + 1), np.tile(ws.grid.nodes, ws.basis.n_modes),
                                 *(a.ravel() for a in (tab.E, tab.N, tab.Z, tab.Zp, tab.Q))]))
    artifacts.append(_write_csv(outdir, "kernel_errors.csv", ["mode", "oracle_error_fine", "oracle_error_coarse"],
                                [modes, fine, coarse]))
    artifacts.append(_write_csv(outdir, "series.csv", ["k", "max_error"],
                                [np.arange(len(rep.errors)), rep.errors]))
    return SuiteResult("kernels", rows, artifacts)


def _suite_forward(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    u = ws.u_samples()

    # the two independent routes on the configured scenario
    tv = solve_volterra(ws.state, u, ws.table)
    tc = solve_voc(ws.state, u, ws.table)
    worst = float(np.max(np.abs(tv.values - tc.values)))
    rows.append(_at_most("two_route_max_error", worst, ws.tol("two_route")))

    # transformation check with lifted compatible data
    lift0 = ws.basis.dmap_coeffs @ ws.control.u(0.0)
    lift1 = ws.basis.dmap_coeffs @ ws.control.du(0.0)
    v0 = ws.v0 + lift0
    v1 = ws.y0 * 0.5 + lift1  # reuse the seeded profile as a velocity recipe
    yh = hat_y_from_initial(v0, v1, ws.control.u(0.0), ws.basis)
    wave = simulate_damped_wave(v0, v1, ws.control, ws.table)
    traj = solve_volterra(StateSnapshot.initial(v0, yh), u, ws.table)
    terr = float(np.max(np.abs(wave.values - traj.values)))
    rows.append(_at_most("transformation_max_error", terr, ws.tol("transformation")))

    header = ["t"] + [f"mode_{k+1}" for k in range(ws.cfg.n_modes)] + ["norm_H"]
    artifacts.append(_write_csv(outdir, "trajectory.csv", header,
                                [ws.grid.nodes, *traj.values.T, [np.linalg.norm(v) for v in traj.values]]))
    return SuiteResult("forward", rows, artifacts)


def _suite_optimize(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    sol = ws.optimum
    scale = 1.0 + float(np.max(np.abs(sol.u_plus.samples), initial=0.0))
    rows.append(_at_most("gradient_norm_at_optimum", sol.residual, ws.tol("gradient_scale") * scale))

    J = evaluate_cost(ws.state, sol.u_plus, ws.table)
    W2 = value_function(ws.state, ws.table)
    vtol = ws.tol("value_consistency") * (1.0 + abs(sol.W))
    rows.append(_at_most("value_vs_cost", abs(W2 - J), vtol))

    u2 = u_plus_control_side(ws.state, ws.table)
    rdiff = float(np.max(np.abs(sol.u_plus.samples - u2.samples)))
    rows.append(_at_most("two_route_control", rdiff, ws.tol("route_agreement")))

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

    artifacts.append(_write_csv(outdir, "optimal_control.csv", ["t", "u0", "u1"],
                                [ws.grid.nodes, *sol.u_plus.samples.T]))
    artifacts.append(_write_csv(outdir, "optimal_trajectory.csv",
                                ["t"] + [f"mode_{k+1}" for k in range(ws.cfg.n_modes)],
                                [ws.grid.nodes, *sol.v_plus.values.T]))
    asm = OperatorAssembly(ws.table, 0)
    state_cost = asm.inner_V(sol.v_plus.values, sol.v_plus.values)
    control_cost = asm.inner_U(sol.u_plus.samples, sol.u_plus.samples)
    # condition bound of the normal operator (reported, never asserted): the
    # nontrivial eigenvalues of both normal operators coincide and
    # lambda_min >= 1, so the control side's lambda_max bounds the condition
    lam_max = asm.control_normal_max_eigenvalue()
    rows.append(SummaryRow("normal_operator_condition", lam_max, float("inf"), True))
    artifacts.append(_write_csv(outdir, "cost_breakdown.csv",
                                ["state_cost", "control_cost", "total", "value_function", "gradient_norm",
                                 "normal_max_eig"],
                                [[state_cost], [control_cost], [J], [W2], [sol.residual], [lam_max]]))
    return SuiteResult("optimize", rows, artifacts)


def _suite_bellman(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    t0s = np.array([ws.cfg.n_steps // 4, ws.cfg.n_steps // 2])
    reports = [bellman_check(ws.optimum, int(t0), ws.table) for t0 in t0s]
    cols = np.array([[rep.tail_mismatch, rep.telescope_residual, rep.W_start, rep.W_restart] for rep in reports]).T
    rows.append(_at_most("bellman_tail_mismatch", float(np.max(cols[0])), ws.tol("bellman")))
    rows.append(_at_most("bellman_telescope_residual", float(np.max(cols[1])), ws.tol("bellman")))
    artifacts.append(_write_csv(outdir, "bellman.csv",
                                ["state", "t0_index", "tail_mismatch", "telescope_residual", "W_start", "W_restart"],
                                [np.zeros_like(t0s), t0s, *cols]))
    return SuiteResult("bellman", rows, artifacts)


_N_PROBE = 50  # seeded probe controls of the dissipation suite


def _suite_dissipation(ws: _Workspace, outdir: str) -> SuiteResult:
    """The value identity panel by panel, for the optimum and the probes at once.

    With f = |v|^2 + |u|^2, the discrete problem's value satisfies, on each
    panel j, tau_j = (W_{j+1} - W_j)/dt + (f_j + f_{j+1})/2 >= 0 for every
    control, with equality along the optimum (Willems' storage function).
    """
    rows, artifacts = [], []
    # one scan: column 0 follows the optimal control, the rest the probes
    controls = [ws.optimum.u_plus] + ws.probe_controls(_N_PROBE)
    _, W, x = value_scan_batch(ws.state, controls, ws.table)
    u = np.stack([c.samples for c in controls], axis=1)  # (node, control, 2)
    f = np.sum(x[:, :, : ws.cfg.n_modes] ** 2, axis=2).T + np.sum(u**2, axis=2)
    dW = np.diff(W, axis=0) / ws.grid.dt
    tau = dW + 0.5 * (f[1:] + f[:-1])  # (panel, control)
    band = ws.tol("dissipation_band")
    rows.append(_at_most("dissipation_equality_band", float(np.max(np.abs(tau[:, 0]))), band))

    min_r = float(np.min(tau[:, 1:]))
    floor = ws.tol("dissipation_floor")
    rows.append(SummaryRow("dissipation_probe_floor", min_r, -floor, min_r >= -floor))
    # zero data keeps every control trivially in band
    peak = np.max(np.abs(tau[:, 1:]), axis=0)
    zero_state = bool(np.all(ws.v0 == 0.0) and np.all(ws.y0 == 0.0))
    escaped = bool(np.all((peak > band) | (zero_state & (peak < 1e-14))))
    rows.append(SummaryRow("dissipation_probes_escape_band", 1.0 if escaped else 0.0, 1.0, escaped))

    header = ["t", "W_optimal", "dW_optimal", "r_optimal", "min_probe_r"]
    artifacts.append(_write_csv(outdir, "dissipation.csv", header,
                                [ws.grid.nodes[:-1], W[:-1, 0], dW[:, 0], tau[:, 0],
                                 np.min(tau[:, 1:], axis=1)]))
    return SuiteResult("dissipation", rows, artifacts)


def _suite_riccati(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    # chain-rule closure along the configured control from a warmed state
    warm = ws.warm_state()
    u_tail = ws.u_samples(warm.tau_index)
    rep = chain_rule_scan(warm, u_tail, ws.table)
    worst_chain = float(np.max(rep.relative)) if len(rep.relative) else 0.0
    tol = ws.tol("riccati_relative")
    rows.append(_at_most("chain_rule_closure", worst_chain, tol))

    # residual of the differential identity along the configured flow
    traj = solve_voc(ws.state, ws.u_samples(), ws.table)
    thetas = np.array([max(1, int(round(ws.cfg.n_steps * frac))) for frac in (0.125, 0.25, 0.375, 0.5, 0.75)])
    reports = [riccati_residual(extend_state(ws.state, None, int(j), ws.table, trajectory=traj), ws.table)
               for j in thetas]
    res = np.array([[rr.p_prime, rr.cross, rr.gain_sq, rr.vhat_sq, rr.residual, rr.relative] for rr in reports]).T
    rows.append(_at_most("riccati_relative_residual", float(np.max(res[5])), tol))

    term = terminal_P_check(ws.table, seed=ws.seed)
    rows.append(SummaryRow("terminal_value_exact_zero", abs(term.value_at_T), 0.0, term.value_at_T == 0.0))
    rows.append(_at_most("terminal_one_panel_bound", term.value_near_T, term.near_T_bound))

    artifacts.append(_write_csv(outdir, "riccati.csv",
                                ["state", "theta_index", "p_prime", "cross", "gain_sq", "vhat_sq", "residual",
                                 "relative"], [np.arange(len(thetas)), thetas, *res]))
    artifacts.append(_write_csv(outdir, "chain_rule.csv", ["theta_index", "fd", "formula", "residual", "relative"],
                                [rep.indices, rep.fd, rep.formula, rep.residual, rep.relative]))
    return SuiteResult("riccati", rows, artifacts)


def _suite_closed_loop(ws: _Workspace, outdir: str) -> SuiteResult:
    rows, artifacts = [], []
    sol = ws.optimum
    _traj, u_cl = closed_loop_simulate(ws.state, ws.table)
    d = u_cl.samples - sol.u_plus.samples
    mismatch = float(np.sqrt(OperatorAssembly(ws.table, 0).inner_U(d, d)))
    rows.append(_at_most("closed_loop_l2_mismatch", mismatch, ws.tol("closed_loop")))

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
        comb = StateSnapshot(i, a * s1.v_hat + b * s2.v_hat,
                             a * s1.xi + b * s2.xi, a * s1.y_hat + b * s2.y_hat)
        g = feedback_gain(comb, ws.table)
        gp = a * feedback_gain(s1, ws.table) + b * feedback_gain(s2, ws.table)
        worst_lin = max(worst_lin, float(np.max(np.abs(g - gp))))
    rows.append(_at_most("feedback_gain_linearity", worst_lin, ws.tol("feedback_linearity")))

    artifacts.append(_write_csv(outdir, "closed_loop.csv", ["t", "u_cl_0", "u_cl_1", "u_open_0", "u_open_1"],
                                [ws.grid.nodes, *u_cl.samples.T, *sol.u_plus.samples.T]))
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
    """Run one named suite (or all) and write the per-suite summaries.

    Raises ValueError, before anything is written, for an unknown command or
    a tol_scale that is not finite and positive.
    """
    names = list(COMMANDS) if command == "all" else [command]
    if any(n not in COMMANDS for n in names):
        raise ValueError(f"unknown command {command!r}; choose from {list(COMMANDS)} or 'all'")
    if not (np.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(f"tol_scale must be finite and positive, got {tol_scale!r}")
    os.makedirs(outdir, exist_ok=True)
    ws = _Workspace(cfg, seed, tol_scale)
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
