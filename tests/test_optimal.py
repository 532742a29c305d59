import numpy as np
import pytest
import scipy.linalg as sla
from dense_routes import dense_state_solve

from memlqr import (
    ControlSignal,
    SpectralBasis,
    StateSnapshot,
    TimeGrid,
    build_basis,
    cost_gradient,
    evaluate_cost,
    solve_Z,
    solve_optimal,
    solve_voc,
    u_plus_control_side,
    value_function,
)
from memlqr.forward import response_field
from memlqr.optimal import OperatorAssembly
from scipy.integrate import simpson

from memlqr.kernels import Z_oracle


@pytest.fixture(scope="module")
def basis():
    return build_basis(5)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(0.5, 48)


@pytest.fixture(scope="module")
def table(basis, grid):
    return solve_Z(basis, grid)


def random_state(rng, n, decay=2.0):
    v = rng.standard_normal(n) / np.arange(1, n + 1) ** decay
    y = rng.standard_normal(n) / np.arange(1, n + 1) ** decay
    return StateSnapshot.initial(v / np.linalg.norm(v), y / np.linalg.norm(y))


# ----------------------------------------------------------------------------
# h = Z x_v + Q x_s, one state component at a time


def test_gamma_zero(table, basis):
    n = basis.n_modes
    out = response_field(StateSnapshot.initial(np.zeros(n), np.zeros(n)), table)
    assert np.all(out == 0.0)


def test_gamma_unit_mode_is_Z_column(table, basis):
    # h reads the exact exponential sum of Z, not the Volterra table
    n = basis.n_modes
    out = response_field(StateSnapshot.initial(np.eye(n)[0], np.zeros(n)), table)
    assert np.all(out[:, 0] == table.Z_exact[0])
    assert np.all(out[:, 1:] == 0.0)


def test_gamma_matches_voc_without_forcing(table, grid, basis):
    # the (v_hat, xi) part of a restarted state is its solve_voc response
    # less that of its decayed seed alone
    rng = np.random.default_rng(0)
    n = basis.n_modes
    st0 = StateSnapshot.initial(rng.standard_normal(n), rng.standard_normal(n))
    from memlqr import extend_state

    u = ControlSignal(0, 0.3 * np.sin(np.stack([2 * grid.nodes, 3 * grid.nodes], axis=1)))
    mid = extend_state(st0, u, 16, table)
    gamma = response_field(StateSnapshot(16, mid.v_hat, mid.xi, np.zeros(n)), table)
    seed_only = StateSnapshot(16, np.zeros(n), np.zeros((17, n)), mid.y_hat)
    rest = solve_voc(mid, None, table).values - response_field(seed_only, table)
    assert np.max(np.abs(gamma - rest)) < 1e-14


def test_forcing_field_scalar_oracle(basis):
    # seed on one mode: per-mode integral of Z against the decay weight,
    # checked against fine quadrature of the closed-form resolvent
    grid = TimeGrid(0.5, 64)
    table = solve_Z(basis, grid)
    n = basis.n_modes
    y = np.zeros(n)
    y[1] = 1.0
    field = response_field(StateSnapshot.initial(np.zeros(n), y), table)
    t = grid.t_final
    s = np.linspace(0, t, 20_001)
    ref = simpson(Z_oracle(basis, 1, t - s) * np.exp(-s), x=s)
    assert abs(field[-1, 1] - ref) < 1e-7
    assert np.all(field[:, 0] == 0.0)


def test_build_h_full_state_equals_voc(table, basis):
    rng = np.random.default_rng(3)
    st = random_state(rng, basis.n_modes)
    h = response_field(st, table)
    voc = solve_voc(st, None, table)
    assert np.max(np.abs(h - voc.values)) == 0.0


def test_build_h_zero_state(table, basis):
    n = basis.n_modes
    st = StateSnapshot.initial(np.zeros(n), np.zeros(n))
    assert np.all(response_field(st, table) == 0.0)


# ----------------------------------------------------------------------------
# Lambda and adjoint


def test_lambda_zero_maps(table, grid, basis):
    asm = OperatorAssembly(table, 0)
    assert np.all(asm.apply_Lambda(np.zeros((grid.n_steps + 1, 2))) == 0.0)
    assert np.all(asm.apply_Lambda_star(np.zeros((grid.n_steps + 1, basis.n_modes))) == 0.0)


def test_lambda_causality(table, grid, basis):
    asm = OperatorAssembly(table, 0)
    u = np.zeros((grid.n_steps + 1, 2))
    u[20] = (1.0, -2.0)
    out = asm.apply_Lambda(u)
    assert np.all(out[:20] == 0.0)
    assert np.any(out[20:] != 0.0)
    # first row of the dense block is identically zero: (Lambda u)(tau) = 0
    assert np.all(asm.Lam[: basis.n_modes, :] == 0.0)


def test_lambda_adjoint_identity(table, grid, basis):
    asm = OperatorAssembly(table, 0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.standard_normal((grid.n_steps + 1, 2))
        v = rng.standard_normal((grid.n_steps + 1, basis.n_modes))
        lhs = asm.inner_V(asm.apply_Lambda(u), v)
        rhs = asm.inner_U(u, asm.apply_Lambda_star(v))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_lambda_impulse_reproduces_kernel_column(table, grid, basis):
    # a one-node impulse picks out the product-quadrature column of -K
    asm = OperatorAssembly(table, 0)
    l = 12
    u = np.zeros((grid.n_steps + 1, 2))
    u[l, 0] = 1.0
    out = asm.apply_Lambda(u)
    col = asm.Lam[:, 2 * l].reshape(grid.n_steps + 1, basis.n_modes)
    assert np.allclose(out, col, atol=1e-15)
    # and the column is the kernel samples scaled by the node weights
    from test_recurrences import weight_matrix

    k = 2
    Wk = weight_matrix(table.alpha_Z[k], table.beta_Z[k], grid.n_steps)
    lam_d = basis.eigenvalues[k] * basis.dmap_coeffs[k, 0]
    assert np.allclose(out[:, k], -lam_d * Wk[:, l], atol=1e-15)


# ----------------------------------------------------------------------------
# the optimality system


def test_solve_optimal_zero_state(table, basis):
    n = basis.n_modes
    sol = solve_optimal(StateSnapshot.initial(np.zeros(n), np.zeros(n)), table)
    assert sol.W == 0.0
    assert np.all(sol.u_plus.samples == 0.0)
    assert np.all(sol.v_plus.values == 0.0)


def test_optimal_beats_zero_control(table, grid, basis):
    rng = np.random.default_rng(5)
    st = random_state(rng, basis.n_modes)
    sol = solve_optimal(st, table)
    J0 = evaluate_cost(st, ControlSignal.zeros(grid), table)
    assert sol.W <= J0
    # J(0) is the uncontrolled energy of h
    asm = OperatorAssembly(table, 0)
    h = response_field(st, table)
    assert J0 == pytest.approx(asm.inner_V(h, h), rel=1e-12)


def test_gradient_vanishes_at_optimum(table, basis):
    rng = np.random.default_rng(6)
    st = random_state(rng, basis.n_modes)
    sol = solve_optimal(st, table)
    assert sol.residual <= 1e-10 * (1 + float(np.max(np.abs(sol.u_plus.samples))))


def test_gradient_at_zero_control(table, grid, basis):
    rng = np.random.default_rng(7)
    st = random_state(rng, basis.n_modes)
    asm = OperatorAssembly(table, 0)
    g = cost_gradient(st, ControlSignal.zeros(grid), table)
    h = response_field(st, table)
    assert np.allclose(g, 2.0 * asm.apply_Lambda_star(h), atol=1e-14)


def test_gradient_matches_finite_differences(table, grid, basis):
    rng = np.random.default_rng(8)
    st = random_state(rng, basis.n_modes)
    u = ControlSignal(0, 0.2 * rng.standard_normal((grid.n_steps + 1, 2)))
    g = cost_gradient(st, u, table)
    asm = OperatorAssembly(table, 0)
    for _ in range(4):
        du = rng.standard_normal(u.samples.shape)
        eps = 1e-5
        jp = evaluate_cost(st, ControlSignal(0, u.samples + eps * du), table)
        jm = evaluate_cost(st, ControlSignal(0, u.samples - eps * du), table)
        directional = (jp - jm) / (2 * eps)
        assert abs(directional - asm.inner_U(g, du)) < 1e-6 * (1 + abs(directional))


def test_optimal_cost_dominates_perturbations(table, grid, basis):
    rng = np.random.default_rng(9)
    st = random_state(rng, basis.n_modes)
    sol = solve_optimal(st, table)
    J_star = evaluate_cost(st, sol.u_plus, table)
    assert J_star == pytest.approx(sol.W, abs=1e-12)
    for eps in (1e-2, 1e-3):
        for _ in range(10):
            du = rng.standard_normal(sol.u_plus.samples.shape)
            du /= np.sqrt(np.sum(du**2))
            J = evaluate_cost(st, ControlSignal(0, sol.u_plus.samples + eps * du), table)
            assert J >= J_star - 1e-12


def test_two_route_optimal_control(table, basis):
    rng = np.random.default_rng(10)
    st = random_state(rng, basis.n_modes)
    sol = solve_optimal(st, table)
    u2 = u_plus_control_side(st, table)
    assert np.max(np.abs(sol.u_plus.samples - u2.samples)) < 1e-11


def test_value_function_routes(table, basis):
    rng = np.random.default_rng(11)
    st = random_state(rng, basis.n_modes)
    sol = solve_optimal(st, table)
    W = value_function(st, table)
    assert abs(W - sol.W) <= 1e-11 * (1 + abs(W))
    assert abs(W - evaluate_cost(st, sol.u_plus, table)) <= 1e-9 * (1 + abs(W))
    assert W >= 0.0


def test_value_function_zero(table, basis):
    n = basis.n_modes
    assert value_function(StateSnapshot.initial(np.zeros(n), np.zeros(n)), table) == 0.0


def test_cost_homogeneity(table, grid, basis):
    rng = np.random.default_rng(12)
    st = random_state(rng, basis.n_modes)
    u = ControlSignal(0, rng.standard_normal((grid.n_steps + 1, 2)))
    J = evaluate_cost(st, u, table)
    st2 = StateSnapshot.initial(2 * st.v_hat.coeffs, 2 * st.y_hat.coeffs)
    J2 = evaluate_cost(st2, ControlSignal(0, 2 * u.samples), table)
    assert J2 == pytest.approx(4 * J, rel=1e-12)


# ----------------------------------------------------------------------------
# apply_H


def test_apply_H_zero(table, grid, basis):
    g = np.zeros((grid.n_steps + 1, basis.n_modes))
    assert np.all(OperatorAssembly(table, 0).apply_H(g)[0] == 0.0)


def test_apply_H_identity_when_lambda_vanishes(grid):
    # a basis with zero boundary lift kills Lambda entirely
    n = 4
    eig = -((np.arange(1, n + 1) * np.pi) ** 2)
    dead = SpectralBasis(n, eig, np.zeros((n, 2)))
    table = solve_Z(dead, grid)
    rng = np.random.default_rng(13)
    g = rng.standard_normal((grid.n_steps + 1, n))
    assert np.max(np.abs(OperatorAssembly(table, 0).apply_H(g)[0] - g)) < 1e-13


def test_apply_H_residual(table, grid, basis):
    rng = np.random.default_rng(14)
    g = rng.standard_normal((grid.n_steps + 1, basis.n_modes))
    asm = OperatorAssembly(table, 0)
    phi = asm.apply_H(g)[0]
    lhs = phi + asm.apply_Lambda(asm.apply_Lambda_star(phi))
    assert np.max(np.abs(lhs - g)) <= 1e-10


def test_apply_H_agrees_with_spd_route(table, grid, basis):
    rng = np.random.default_rng(15)
    g = rng.standard_normal((grid.n_steps + 1, basis.n_modes))
    asm = OperatorAssembly(table, 0)
    assert np.max(np.abs(asm.apply_H(g)[0] - dense_state_solve(asm, g))) < 1e-10


# ----------------------------------------------------------------------------
# spectrum and continuity


def test_normal_operator_positive_definite(table, basis):
    asm = OperatorAssembly(table, 30)
    B = asm.scaled()
    A = np.eye((asm.m + 1) * basis.n_modes) + B @ B.T
    evals = sla.eigvalsh(A)
    assert evals.min() >= 1.0 - 1e-12


def test_optimal_control_node_to_node_variation(table, grid, basis):
    # continuity: adjacent samples differ by O(dt), no grid-scale oscillation
    rng = np.random.default_rng(16)
    st = random_state(rng, basis.n_modes)
    sol = solve_optimal(st, table)
    diffs = np.abs(np.diff(sol.u_plus.samples, axis=0)).max(axis=1)
    scale = np.abs(sol.u_plus.samples).max() + 1e-30
    assert diffs.max() / scale < 12 * grid.dt


def test_optimal_control_lipschitz_in_state(table, basis):
    rng = np.random.default_rng(17)
    st1 = random_state(rng, basis.n_modes)
    st2 = random_state(rng, basis.n_modes)
    sol1 = solve_optimal(st1, table)
    sol2 = solve_optimal(st2, table)
    du = np.abs(sol1.u_plus.samples - sol2.u_plus.samples).max()
    dstate = np.abs(st1.v_hat.coeffs - st2.v_hat.coeffs).max() + np.abs(
        st1.y_hat.coeffs - st2.y_hat.coeffs
    ).max()
    assert du <= 5.0 * dstate
