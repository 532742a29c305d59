"""Acceptance gate: every top-level criterion at the stated desk scale.

Defaults: interval domain, 8 modes, horizon T = 0.5, 256 time steps.  Each
test prints one pass/fail line; tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

from memlqr import (
    ControlSignal,
    SmoothControl,
    StateSnapshot,
    TimeGrid,
    Z_oracle,
    bellman_check,
    build_basis,
    chain_rule_scan,
    closed_loop_simulate,
    evaluate_cost,
    extend_state,
    feedback_gain,
    hat_y_from_initial,
    riccati_residual,
    series_Z_check,
    simulate_damped_wave,
    solve_Z,
    solve_optimal,
    solve_voc,
    solve_volterra,
    u_plus_control_side,
    value_function,
    value_scan_batch,
)
from memlqr.optimal import OperatorAssembly
from memlqr.riccati import P_form

N_MODES = 8
T_FINAL = 0.5
N_STEPS = 256


def report(criterion, name, measured, threshold, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {name}: measured={measured:.3e} threshold={threshold:.3e} {status}")
    assert passed, f"criterion {criterion} ({name}): {measured:.3e} vs {threshold:.3e}"


@pytest.fixture(scope="module")
def basis():
    return build_basis(N_MODES)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(T_FINAL, N_STEPS)


@pytest.fixture(scope="module")
def table(basis, grid):
    return solve_Z(basis, grid)


def seeded_state(seed, n=N_MODES, decay=3.0):
    rng = np.random.default_rng(seed)
    idx = np.arange(1, n + 1, dtype=float)
    v = rng.standard_normal(n) / idx**decay
    y = rng.standard_normal(n) / idx**decay
    return StateSnapshot.initial(v / np.linalg.norm(v), y / np.linalg.norm(y))


def seeded_control(grid, seed, start=0, offsets=True):
    rng = np.random.default_rng(seed)
    t = grid.nodes[start:]
    off = rng.uniform(0.4, 0.8, 2) * np.where(rng.random(2) < 0.5, -1.0, 1.0) if offsets else np.zeros(2)
    amp = rng.uniform(0.1, 0.3, 2)
    w = rng.uniform(1.0, 4.0, 2)
    ph = rng.uniform(0.0, 2.0 * np.pi, 2)
    return ControlSignal(start, np.stack([
        off[0] + amp[0] * np.sin(w[0] * t + ph[0]),
        off[1] + amp[1] * np.cos(w[1] * t + ph[1]),
    ], axis=1))


C2_CONTROL = SmoothControl(
    u=lambda t: np.array([np.sin(2 * t), 0.5 * np.cos(3 * t) - 0.5]),
    du=lambda t: np.array([2 * np.cos(2 * t), -1.5 * np.sin(3 * t)]),
    ddu=lambda t: np.array([-4 * np.sin(2 * t), -4.5 * np.cos(3 * t)]),
)


# ----------------------------------------------------------------------------


def test_criterion_1_kernel_oracle(basis, table, grid):
    errs = {}
    for M in (N_STEPS // 2, N_STEPS):
        g = TimeGrid(T_FINAL, M)
        tab = table if M == N_STEPS else solve_Z(basis, g)
        zex = np.array([Z_oracle(basis, k, g.nodes) for k in range(N_MODES)])
        errs[M] = float(np.max(np.abs(tab.Z - zex)))
    report(1, "kernel oracle max error (256 steps)", errs[N_STEPS], 1e-4, errs[N_STEPS] <= 1e-4)
    ratio = errs[N_STEPS // 2] / errs[N_STEPS]
    report(1, "kernel oracle 128/256 error ratio", ratio, 4.5, 3.5 <= ratio <= 4.5)


def test_criterion_2_series_representation(table):
    rep = series_Z_check(table, 12)
    report(2, "series partial sum error (k_max=12)", rep.final_error, 1e-6, rep.final_error <= 1e-6)


def test_criterion_3_two_route_forward(basis):
    errs = {}
    for M in (64, 128, 256):
        g = TimeGrid(T_FINAL, M)
        tab = solve_Z(basis, g)
        worst = 0.0
        for k in range(10):
            st = seeded_state(300 + k)
            u = seeded_control(g, 400 + k, offsets=False)
            tv = solve_volterra(st, u, tab)
            tc = solve_voc(st, u, tab)
            worst = max(worst, float(np.max(np.abs(tv.values - tc.values))))
        errs[M] = worst
    report(3, "two-route forward max error (256 steps)", errs[256], 1e-4, errs[256] <= 1e-4)
    r1, r2 = errs[64] / errs[128], errs[128] / errs[256]
    order_ok = (2.5 <= r1 <= 6.0) and (2.5 <= r2 <= 6.0)
    report(3, "two-route refinement order ~ 2 (ratios)", min(r1, r2), 2.5, order_ok)


def test_criterion_4_transformation_fidelity(basis, table, grid):
    rng = np.random.default_rng(500)
    idx = np.arange(1, N_MODES + 1, dtype=float)
    w0 = rng.standard_normal(N_MODES) / idx**3
    w1 = rng.standard_normal(N_MODES) / idx**3
    lift0 = basis.dmap_coeffs @ C2_CONTROL.u(0.0)
    lift1 = basis.dmap_coeffs @ C2_CONTROL.du(0.0)
    v0, v1 = w0 + lift0, w1 + lift1
    yh = hat_y_from_initial(v0, v1, C2_CONTROL.u(0.0), basis)
    wave = simulate_damped_wave(v0, v1, C2_CONTROL, table)
    mem = solve_volterra(StateSnapshot.initial(v0, yh), C2_CONTROL.sample(grid), table)
    err = float(np.max(np.abs(wave.values - mem.values)))
    report(4, "wave vs memory-equation max modal error", err, 5e-4, err <= 5e-4)


def test_criterion_5_optimality(table, grid):
    st = seeded_state(600)
    sol = solve_optimal(st, table)
    scale = 1.0 + float(np.max(np.abs(sol.u_plus.samples)))
    report(5, "gradient norm at the optimum", sol.residual, 1e-8 * scale, sol.residual <= 1e-8 * scale)

    asm = OperatorAssembly(table, 0)
    J_star = evaluate_cost(st, sol.u_plus, table)
    rng = np.random.default_rng(601)
    worst = 0.0
    ok = True
    for eps in (1e-2, 1e-3):
        for _ in range(10):
            du = rng.standard_normal(sol.u_plus.samples.shape)
            du /= np.sqrt(asm.inner_U(du, du))
            J = evaluate_cost(st, ControlSignal(0, sol.u_plus.samples + eps * du), table)
            worst = min(worst, J - J_star)
            ok = ok and (J >= J_star - 1e-12)
    report(5, "perturbed cost excess (20 seeded directions)", worst, -1e-12, ok)


def test_criterion_6_value_consistency(table):
    st = seeded_state(700)
    sol = solve_optimal(st, table)
    W = value_function(st, table)
    J = evaluate_cost(st, sol.u_plus, table)
    tol = 1e-9 * (1.0 + W)
    report(6, "value function vs realized cost", abs(W - J), tol, abs(W - J) <= tol)
    u2 = u_plus_control_side(st, table)
    diff = float(np.max(np.abs(sol.u_plus.samples - u2.samples)))
    report(6, "state-side vs control-side optimal control", diff, 1e-9, diff <= 1e-9)


def test_criterion_7_bellman(basis, table):
    worst_tail = 0.0
    worst_tel = 0.0
    for k in range(5):
        st = seeded_state(800 + k)
        for t0 in (N_STEPS // 4, N_STEPS // 2):
            rep = bellman_check(solve_optimal(st, table), t0, table)
            worst_tail = max(worst_tail, rep.tail_mismatch)
            worst_tel = max(worst_tel, rep.telescope_residual)
    report(7, "restart tail-control mismatch", worst_tail, 1e-3, worst_tail <= 1e-3)
    report(7, "value telescoping residual", worst_tel, 1e-3, worst_tel <= 1e-3)

    tails = {}
    for M in (64, 128, 256):
        g = TimeGrid(T_FINAL, M)
        tab = solve_Z(basis, g)
        tails[M] = bellman_check(solve_optimal(seeded_state(800), tab), M // 4, tab).tail_mismatch
    r1, r2 = tails[64] / tails[128], tails[128] / tails[256]
    order_ok = (2.5 <= r1 <= 6.0) and (2.5 <= r2 <= 6.0)
    report(7, "restart mismatch refinement order ~ 2", min(r1, r2), 2.5, order_ok)


def test_criterion_8_feedback_law(table, grid):
    st = seeded_state(900)
    sol = solve_optimal(st, table)
    _traj, u_cl = closed_loop_simulate(st, table)
    wU = np.repeat(grid.segment_weights(0), 2)
    d = (u_cl.samples - sol.u_plus.samples).reshape(-1)
    mismatch = float(np.sqrt(np.dot(wU * d, d)))
    report(8, "closed-loop vs open-loop control (L2)", mismatch, 1e-3, mismatch <= 1e-3)

    rng = np.random.default_rng(901)
    i = N_STEPS // 3
    worst = 0.0
    for _ in range(5):
        xi1 = rng.standard_normal((i + 1, N_MODES))
        xi2 = rng.standard_normal((i + 1, N_MODES))
        s1 = StateSnapshot(i, xi1[-1].copy(), xi1, rng.standard_normal(N_MODES))
        s2 = StateSnapshot(i, xi2[-1].copy(), xi2, rng.standard_normal(N_MODES))
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        comb = StateSnapshot(i, a * s1.v_hat + b * s2.v_hat,
                             a * s1.xi + b * s2.xi, a * s1.y_hat + b * s2.y_hat)
        g = feedback_gain(comb, table)
        gp = a * feedback_gain(s1, table) + b * feedback_gain(s2, table)
        worst = max(worst, float(np.max(np.abs(g - gp))))
    report(8, "feedback gain linearity", worst, 1e-10, worst <= 1e-10)


def test_criterion_9_dissipation(table, grid):
    # the value identity panel by panel: tau_j = (W_{j+1} - W_j)/dt +
    # (f_j + f_{j+1})/2 with f = |v|^2 + |u|^2, zero along the optimum and
    # nonnegative for every control
    st = seeded_state(1000)
    sol = solve_optimal(st, table)
    controls = [sol.u_plus] + [seeded_control(grid, 1100 + k) for k in range(50)]
    _idx, W, x = value_scan_batch(st, controls, table)
    u = np.stack([c.samples for c in controls], axis=1)
    f = np.sum(x[:, :, :N_MODES] ** 2, axis=2).T + np.sum(u**2, axis=2)
    tau = np.diff(W, axis=0) / grid.dt + 0.5 * (f[1:] + f[:-1])
    max_abs_r = float(np.max(np.abs(tau[:, 0])))
    report(9, "equality band along the optimal control", max_abs_r, 5e-3, max_abs_r <= 5e-3)

    min_r = float(np.min(tau[:, 1:]))
    escaped = bool(np.all(np.max(np.abs(tau[:, 1:]), axis=0) > 5e-3))
    report(9, "probe residual floor (50 seeded controls)", min_r, -1e-8, min_r >= -1e-8)
    report(9, "no probe stays in the equality band", 1.0 if escaped else 0.0, 1.0, escaped)


def test_criterion_10_riccati(table, grid):
    worst_res = 0.0
    for k in range(5):
        st0 = seeded_state(1200 + k)
        warm = extend_state(st0, seeded_control(grid, 1300 + k), N_STEPS // 4, table)
        rr = riccati_residual(warm, table)
        worst_res = max(worst_res, rr.relative)
    report(10, "relative residual of the differential identity", worst_res, 5e-3, worst_res <= 5e-3)

    # the closure assumes a continuous control along the whole flow, so the
    # scan continues the same control that developed the history
    st0 = seeded_state(1400)
    u_full = seeded_control(grid, 1401)
    warm = extend_state(st0, u_full, N_STEPS // 4, table)
    u_tail = ControlSignal(warm.tau_index, u_full.samples[warm.tau_index :])
    rep = chain_rule_scan(warm, u_tail, table)
    worst_chain = float(np.max(rep.relative))
    report(10, "chain-rule closure along a trajectory", worst_chain, 5e-3, worst_chain <= 5e-3)

    rng = np.random.default_rng(1500)
    exact_zero = True
    for _ in range(3):
        xi = rng.standard_normal((N_STEPS + 1, N_MODES))
        s = StateSnapshot(N_STEPS, xi[-1].copy(), xi, rng.standard_normal(N_MODES))
        exact_zero = exact_zero and (P_form(s, s, table) == 0.0)
    report(10, "terminal quadratic form vanishes exactly", 0.0, 0.0, exact_zero)
