"""Every recurrence fast path against the dense reference it replaced.

The kernel and forward layers carry each history sum by exact exponential
recurrences.  The references below are the O(n M^2) loops they replaced,
kept here verbatim in their arithmetic; every comparison is a roundoff
bound, 1e-13 relative to 1 + max|reference|.  Draws follow test_properties:
n <= 6, M <= 48, T in [0.1, 2], any start node.
"""

import numpy as np
import pytest
from dense_routes import kernel_pairings
from hypothesis import given, settings
from hypothesis import strategies as st
from test_properties import problems, random_state

from memlqr import (
    ControlSignal,
    SmoothControl,
    TimeGrid,
    build_basis,
    extend_state,
    memory_functional,
    series_Z_check,
    simulate_damped_wave,
    solve_volterra,
    solve_Z,
)
from memlqr.forward import control_field
from memlqr.kernels import product_convolution, product_weights

RTOL = 1e-13


def assert_close(fast, ref, rtol=RTOL):
    assert np.all(np.isfinite(fast))
    assert np.max(np.abs(fast - ref), initial=0.0) <= rtol * (1.0 + np.max(np.abs(ref), initial=0.0))


# ----------------------------------------------------------------------------
# the dense references


def reference_Z(table):
    dt, M = table.grid.dt, table.grid.n_steps
    N, E = table.N, table.E
    denom = 1.0 - 0.5 * dt * N[:, 0]
    Z = np.zeros_like(E)
    Z[:, 0] = 1.0
    for j in range(1, M + 1):
        s = 0.5 * N[:, j] * Z[:, 0]
        if j > 1:
            s = s + np.einsum("kl,kl->k", N[:, j - 1 : 0 : -1], Z[:, 1:j])
        Z[:, j] = (E[:, j] + dt * s) / denom
    return Z


def reference_series_errors(table, k_max):
    dt, M = table.grid.dt, table.grid.n_steps
    N, Z = table.N, table.Z
    term = table.E.copy()
    total = term.copy()
    errors = [np.max(np.abs(total - Z))]
    for _ in range(k_max):
        nxt = np.zeros_like(term)
        for j in range(1, M + 1):
            s = 0.5 * N[:, j] * term[:, 0] + 0.5 * N[:, 0] * term[:, j]
            if j > 1:
                s = s + np.einsum("kl,kl->k", N[:, j - 1 : 0 : -1], term[:, 1:j])
            nxt[:, j] = dt * s
        term = nxt
        total = total + term
        errors.append(np.max(np.abs(total - Z)))
    return np.array(errors)


def conv_product(alpha, beta, density):
    """Causal product convolution of a sampled density against tabled weights."""
    m = len(density) - 1
    out = np.zeros_like(density, dtype=float)
    for j in range(1, m + 1):
        rev = slice(j, 0, -1)
        out[j] = np.dot(density[:j], alpha[rev]) + np.dot(density[1 : j + 1], beta[rev])
    return out


def weight_matrix(alpha, beta, m):
    """Dense (m+1)x(m+1) node-weight matrix of the causal product convolution, by a gap gather."""
    W = np.zeros((m + 1, m + 1))
    if m == 0:
        return W
    j = np.arange(m + 1)[:, None]
    l = np.arange(m + 1)[None, :]
    gap = j - l
    left = np.where(gap >= 1, alpha[np.clip(gap, 0, len(alpha) - 1)], 0.0)
    right = np.where((gap >= 0) & (l >= 1), beta[np.clip(gap + 1, 0, len(beta) - 1)], 0.0)
    return left + right


def reference_convolution(alpha, beta, density):
    """(m+1, n) per-mode conv_product of density columns against table weights."""
    return np.stack([conv_product(alpha[k], beta[k], density[:, k]) for k in range(density.shape[1])], axis=1)


def reference_volterra(state, u, table):
    grid = table.grid
    m = grid.n_steps - state.tau_index
    dt = grid.dt
    seed = state.y_hat.coeffs - memory_functional(state.xi, grid)
    E = table.E[:, : m + 1]
    N = table.N[:, : m + 1]
    alpha_E, beta_E = product_weights(table.panel_E, grid)
    ctrl = reference_convolution(alpha_E, beta_E, u.samples @ table.basis.ad_coeffs.T)
    F = E.T * state.v_hat.coeffs[None, :] + (E - N).T * seed[None, :] - ctrl
    denom = 1.0 - 0.5 * dt * N[:, 0]
    v = np.zeros((m + 1, table.n_modes))
    v[0] = state.v_hat.coeffs
    for j in range(1, m + 1):
        s = 0.5 * N[:, j] * v[0]
        if j > 1:
            s = s + np.einsum("kl,lk->k", N[:, j - 1 : 0 : -1], v[1:j])
        v[j] = (F[j] + dt * s) / denom
    return v


def reference_wave(v0, v1, control, table):
    grid, basis = table.grid, table.basis
    dt, t = grid.dt, grid.nodes
    d = basis.dmap_coeffs
    Du = np.array([control.u(s) for s in t]) @ d.T
    g = np.array([control.ddu(s) for s in t]) @ d.T
    w0 = v0 - Du[0]
    w1 = v1 - control.du(0.0) @ d.T
    V = np.zeros((grid.n_steps + 1, basis.n_modes))
    V[0] = v0
    for k in range(basis.n_modes):
        lam = basis.eigenvalues[k]
        A = np.array([[0.0, 1.0], [lam, lam]])
        solve_step = np.linalg.inv(np.eye(2) - 0.5 * dt * A)
        Ap = np.eye(2) + 0.5 * dt * A
        x = np.array([w0[k], w1[k]])
        for j in range(1, grid.n_steps + 1):
            b = np.array([0.0, -0.5 * (g[j - 1, k] + g[j, k])])
            x = solve_step @ (Ap @ x + dt * b)
            V[j, k] = x[0] + Du[j, k]
    return V


def product_Q(table):
    """int_0^t Z(t - s) e^{-s} ds by product_convolution on the Z record, (M+1, n)."""
    return product_convolution(table.panel_Z, table.grid.dt, np.exp(-table.grid.nodes)[:, None])


def reference_product_Q(table):
    chi = np.repeat(np.exp(-table.grid.nodes)[:, None], table.n_modes, axis=1)
    return reference_convolution(table.alpha_Z, table.beta_Z, chi)


def reference_pairings(phi, table, start):
    m = table.grid.n_steps - start
    C = np.zeros(table.n_modes)
    D = np.zeros(table.n_modes)
    rev = phi[::-1]
    g = slice(m, 0, -1)
    for k in range(table.n_modes):
        C[k] = np.dot(rev[:m, k], table.alpha_Z[k, g]) + np.dot(rev[1:, k], table.beta_Z[k, g])
        D[k] = np.dot(rev[:m, k], table.alpha_Q[k, g]) + np.dot(rev[1:, k], table.beta_Q[k, g])
    return C, D


WAVE_CONTROL = SmoothControl(
    u=lambda t: np.array([0.4 + 0.3 * np.sin(2 * t), -0.5 + 0.2 * np.cos(3 * t)]),
    du=lambda t: np.array([0.6 * np.cos(2 * t), -0.6 * np.sin(3 * t)]),
    ddu=lambda t: np.array([-1.2 * np.sin(2 * t), -1.8 * np.cos(3 * t)]),
)


# ----------------------------------------------------------------------------
# fast path == reference, at roundoff


@settings(max_examples=40, deadline=None)
@given(problems())
def test_Z_and_Q_match_the_dense_loops(case):
    # table.Q is the exact sum; the product-integrated Q = Z * e^{-t} still
    # exercises the Z record's recurrence against the dense loop
    table, _, _ = case
    assert_close(table.Z, reference_Z(table))
    assert_close(product_Q(table), reference_product_Q(table))


@settings(max_examples=40, deadline=None)
@given(problems())
def test_control_field_matches_conv_product(case):
    table, start, rng = case
    u = ControlSignal(start, rng.standard_normal((table.grid.n_steps - start + 1, 2)))
    ref = -reference_convolution(table.alpha_Z, table.beta_Z, u.samples @ table.basis.ad_coeffs.T)
    assert_close(control_field(u, table), ref)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_series_matches_the_dense_loop(case):
    table, _, _ = case
    assert_close(series_Z_check(table, 4).errors, reference_series_errors(table, 4))


@settings(max_examples=40, deadline=None)
@given(problems())
def test_volterra_matches_the_dense_loop(case):
    table, start, rng = case
    state = random_state(rng, start, table.n_modes)
    u = ControlSignal(start, rng.standard_normal((table.grid.n_steps - start + 1, 2)))
    assert_close(solve_volterra(state, u, table).values, reference_volterra(state, u, table))


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_extend_state_is_the_slice_of_the_full_solve(case, data):
    table, start, rng = case
    j = data.draw(st.integers(start, table.grid.n_steps))
    state = random_state(rng, start, table.n_modes)
    u = ControlSignal(start, rng.standard_normal((table.grid.n_steps - start + 1, 2)))
    full = solve_volterra(state, u, table).values
    out = extend_state(state, u, j, table)
    assert np.array_equal(out.xi[start + 1 :], full[1 : j - start + 1])
    assert np.array_equal(out.v_hat.coeffs, full[j - start])


@settings(max_examples=20, deadline=None)
@given(problems())
def test_wave_matches_the_per_mode_loop(case):
    table, _, rng = case
    v0, v1 = rng.standard_normal((2, table.n_modes))
    assert_close(simulate_damped_wave(v0, v1, WAVE_CONTROL, table).values,
                 reference_wave(v0, v1, WAVE_CONTROL, table))


@settings(max_examples=40, deadline=None)
@given(problems())
def test_kernel_pairings_match_the_loop(case):
    table, start, rng = case
    phi = rng.standard_normal((table.grid.n_steps - start + 1, table.n_modes))
    for fast, ref in zip(kernel_pairings(phi, table, start), reference_pairings(phi, table, start)):
        assert_close(fast, ref, rtol=1e-14)


def test_stiff_grid_stays_finite_and_matches_the_references():
    # 191 modes at T = 0.5, M = 256: max |lambda| dt = 703, so e^{lambda dt} underflows
    table = solve_Z(build_basis(191), TimeGrid(0.5, 256))
    assert np.max(np.abs(table.basis.eigenvalues)) * table.grid.dt == pytest.approx(703.2, abs=0.1)
    assert_close(table.Z, reference_Z(table))
    assert_close(product_Q(table), reference_product_Q(table))
    assert_close(series_Z_check(table, 2).errors, reference_series_errors(table, 2))
    rng = np.random.default_rng(191)
    start = 64
    state = random_state(rng, start, table.n_modes)
    u = ControlSignal(start, rng.standard_normal((table.grid.n_steps - start + 1, 2)))
    ref = -reference_convolution(table.alpha_Z, table.beta_Z, u.samples @ table.basis.ad_coeffs.T)
    assert_close(control_field(u, table), ref)
    assert_close(solve_volterra(state, u, table).values, reference_volterra(state, u, table))
    v0, v1 = rng.standard_normal((2, table.n_modes))
    assert_close(simulate_damped_wave(v0, v1, WAVE_CONTROL, table).values,
                 reference_wave(v0, v1, WAVE_CONTROL, table))
