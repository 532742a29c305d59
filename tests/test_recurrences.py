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
from test_properties import CHUNK_EDGES, problems, random_state

from memlqr import (
    ControlSignal,
    SmoothControl,
    TimeGrid,
    build_basis,
    extend_state,
    memory_functional,
    series_Z_check,
    simulate_damped_wave,
    solve_voc,
    solve_volterra,
    solve_Z,
)
from memlqr.forward import control_field, response_field
from memlqr.kernels import (_first_panel, _linear_scan, block_scan, product_convolution, product_weights,
                            volterra_trapezoid, z_exponential_terms)

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


def reference_trapezoid(N, dt, term):
    """Explicit trapezoid convolution of term (n, m+1), time last, against the kernel table N."""
    nxt = np.zeros_like(term)
    for j in range(1, term.shape[1]):
        s = 0.5 * N[:, j] * term[:, 0] + 0.5 * N[:, 0] * term[:, j]
        if j > 1:
            s = s + np.einsum("kl,kl->k", N[:, j - 1 : 0 : -1], term[:, 1:j])
        nxt[:, j] = dt * s
    return nxt


def reference_series_errors(table, k_max):
    N, Z = table.N, table.Z
    term = table.E.copy()
    total = term.copy()
    errors = [np.max(np.abs(total - Z))]
    for _ in range(k_max):
        term = reference_trapezoid(N, table.grid.dt, term)
        total = total + term
        errors.append(np.max(np.abs(total - Z)))
    return np.array(errors)


def sequential_scan(r, inc):
    """P_j = r P_{j-1} + inc_j, one step at a time from P_0 = inc_0."""
    P = inc.copy()
    for j in range(1, len(P)):
        P[j] = r * P[j - 1] + inc[j]
    return P


def sequential_block_scan(G, inc):
    """P_j = G P_{j-1} + inc_j per mode, one step at a time from P_0 = inc_0; G is (2, 2, n)."""
    P = inc.copy()
    for j in range(1, len(P)):
        P[j] = np.einsum("abk,bk->ak", G, P[j - 1]) + inc[j]
    return P


def conv_product(alpha, beta, density):
    """Causal product convolution of a sampled density against tabled weights."""
    m = len(density) - 1
    out = np.zeros_like(density, dtype=float)
    for j in range(1, m + 1):
        rev = slice(j, 0, -1)
        out[j] = np.dot(density[:j], alpha[rev]) + np.dot(density[1 : j + 1], beta[rev])
    return out


def reference_convolution(alpha, beta, density):
    """(m+1, n) per-mode conv_product of density columns against table weights."""
    return np.stack([conv_product(alpha[k], beta[k], density[:, k]) for k in range(density.shape[1])], axis=1)


def reference_volterra(state, u, table):
    grid = table.grid
    m = grid.n_steps - state.tau_index
    dt = grid.dt
    seed = state.y_hat - memory_functional(state.xi, grid)
    E = table.E[:, : m + 1]
    N = table.N[:, : m + 1]
    alpha_E, beta_E = product_weights(table.panel_E, grid)
    ctrl = reference_convolution(alpha_E, beta_E, u.samples @ table.basis.ad_coeffs.T)
    F = E.T * state.v_hat[None, :] + (E - N).T * seed[None, :] - ctrl
    denom = 1.0 - 0.5 * dt * N[:, 0]
    v = np.zeros((m + 1, table.n_modes))
    v[0] = state.v_hat
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
    return reference_convolution(*product_weights(table.panel_Z, table.grid), chi)


def reference_pairings(phi, table, start):
    m = table.grid.n_steps - start
    C = np.zeros(table.n_modes)
    D = np.zeros(table.n_modes)
    rev = phi[::-1]
    g = slice(m, 0, -1)
    (aZ, bZ), (aQ, bQ) = (product_weights(p, table.grid) for p in (table.panel_Z, table.panel_Q))
    for k in range(table.n_modes):
        C[k] = np.dot(rev[:m, k], aZ[k, g]) + np.dot(rev[1:, k], bZ[k, g])
        D[k] = np.dot(rev[:m, k], aQ[k, g]) + np.dot(rev[1:, k], bQ[k, g])
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
    ref = -reference_convolution(*product_weights(table.panel_Z, table.grid), u.samples @ table.basis.ad_coeffs.T)
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
    assert np.array_equal(out.v_hat, full[j - start])


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


def test_product_convolution_batches_keep_each_densitys_bits():
    # batch axes between time and mode, with one density per mode or one
    # shared by every mode, give each density the bits of its own call
    table = solve_Z(build_basis(6), TimeGrid(0.5, 40))
    rng = np.random.default_rng(26)
    for modes in (6, 1):
        d = rng.standard_normal((41, 2, 3, modes))
        batch = product_convolution(table.panel_Z, table.grid.dt, d)
        assert batch.shape == (41, 2, 3, 6)
        for a in range(2):
            for b in range(3):
                assert np.array_equal(batch[:, a, b], product_convolution(table.panel_Z, table.grid.dt, d[:, a, b]))


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
    ref = -reference_convolution(*product_weights(table.panel_Z, table.grid), u.samples @ table.basis.ad_coeffs.T)
    assert_close(control_field(u, table), ref)
    assert_close(solve_volterra(state, u, table).values, reference_volterra(state, u, table))
    v0, v1 = rng.standard_normal((2, table.n_modes))
    assert_close(simulate_damped_wave(v0, v1, WAVE_CONTROL, table).values,
                 reference_wave(v0, v1, WAVE_CONTROL, table))


# ----------------------------------------------------------------------------
# the chunked scan, and every scan past one chunk


@pytest.fixture(scope="module")
def ratios():
    """Real and complex r, zero included, and the stiff grid's, whose powers underflow."""
    stiff = solve_Z(build_basis(191), TimeGrid(0.5, 256))
    dt = stiff.grid.dt
    lam = np.exp(stiff.basis.eigenvalues * dt)
    assert np.min(lam) ** 2 == 0.0
    rng = np.random.default_rng(64)
    disc = rng.uniform(0.0, 1.0, 5) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 5))
    return [np.exp(-dt), np.array(0.0), np.array(0j), lam, np.exp(stiff.panel_Z[1] * dt),
            np.exp(stiff.panel_Q[1] * dt), disc]


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 3 * 64 + 5])
def test_linear_scan_matches_the_sequential_loop(m, ratios):
    # elementwise, relative to the scan of |r| over |inc|: the size the sum
    # would have without cancellation, which its roundoff scales with
    rng = np.random.default_rng(m)
    for r in ratios:
        inc = rng.standard_normal((m + 1,) + r.shape)
        if np.iscomplexobj(r):
            inc = inc + 1j * rng.standard_normal(inc.shape)
        fast, ref = _linear_scan(r, inc.copy()), sequential_scan(r, inc)
        assert np.all(np.abs(fast - ref) <= 1e-15 * sequential_scan(np.abs(r), np.abs(inc)))


def test_linear_scan_prefixes_keep_the_full_scans_bits(ratios):
    # the chunks are anchored at step 1, so the scan of the first k
    # increments is the full scan's first k rows, bit for bit
    rng = np.random.default_rng(65)
    m = 3 * 64 + 5
    for r in ratios:
        inc = rng.standard_normal((m + 1,) + r.shape) + 1j * rng.standard_normal((m + 1,) + r.shape)
        full = _linear_scan(r, inc.copy())
        for k in sorted({e + d for e in (64, 128, 192) for d in (-2, -1, 0, 1, 2)} | {0, 1, m}):
            assert np.array_equal(_linear_scan(r, inc[: k + 1].copy()), full[: k + 1])


def test_linear_scan_rejects_a_ratio_above_one():
    for r in (1.5, np.array([0.5, -1.01]), 0.8 + 0.8j):
        with pytest.raises(ValueError):
            _linear_scan(r, np.ones((70,) + np.shape(r), dtype=complex))
    for r in (1.0, -1.0, 1j):
        assert np.all(np.isfinite(_linear_scan(r, np.ones(70, dtype=complex))))


@settings(max_examples=15, deadline=None)
@given(problems(CHUNK_EDGES))
def test_convolutions_match_the_dense_loops_across_chunks(case):
    # product_convolution on every record and the explicit trapezoid
    # convolution, on a density from any start node
    table, start, rng = case
    dt = table.grid.dt
    d = rng.standard_normal((table.grid.n_steps - start + 1, table.n_modes))
    for panel in (table.panel_E, table.panel_Z, table.panel_Q):
        assert_close(product_convolution(panel, dt, d), reference_convolution(*product_weights(panel, table.grid), d))
    assert_close(volterra_trapezoid(table.basis.eigenvalues, table.N, dt, d), reference_trapezoid(table.N, dt, d.T).T)


def test_complex_roots_convolve_like_the_dense_loop():
    # lambda in (-4, 0) gives complex characteristic roots, which no interval
    # eigenvalue does: the record stays complex and so does the scan
    grid = TimeGrid(1.0, 150)
    panel = _first_panel(z_exponential_terms, np.array([-0.5, -2.0, -3.9]), grid.dt)
    assert np.all(panel[1].imag != 0)
    d = np.random.default_rng(4).standard_normal((grid.n_steps + 1, 3))
    assert_close(product_convolution(panel, grid.dt, d), reference_convolution(*product_weights(panel, grid), d))


@settings(max_examples=10, deadline=None)
@given(problems(CHUNK_EDGES))
def test_series_matches_the_dense_loop_across_chunks(case):
    table, _, _ = case
    assert_close(series_Z_check(table, 4).errors, reference_series_errors(table, 4))


@settings(max_examples=15, deadline=None)
@given(problems(CHUNK_EDGES), st.data())
def test_forward_routes_match_the_dense_loops_across_chunks(case, data):
    # both routes against the dense loops, and extend_state the bitwise
    # slice of the full solve, with its cut anywhere
    table, start, rng = case
    j = data.draw(st.integers(start, table.grid.n_steps))
    state = random_state(rng, start, table.n_modes)
    u = ControlSignal(start, rng.standard_normal((table.grid.n_steps - start + 1, 2)))
    ref = reference_volterra(state, u, table)
    full = solve_volterra(state, u, table).values
    assert_close(full, ref)
    ctrl = reference_convolution(*product_weights(table.panel_Z, table.grid), u.samples @ table.basis.ad_coeffs.T)
    assert_close(solve_voc(state, u, table).values, response_field(state, table) - ctrl)
    out = extend_state(state, u, j, table)
    assert np.array_equal(out.xi[start + 1 :], full[1 : j - start + 1])
    assert np.array_equal(out.v_hat, full[j - start])
    assert_close(out.xi[start:], ref[: j - start + 1])
    v0, v1 = rng.standard_normal((2, table.n_modes))
    assert_close(simulate_damped_wave(v0, v1, WAVE_CONTROL, table).values,
                 reference_wave(v0, v1, WAVE_CONTROL, table))


# ----------------------------------------------------------------------------
# the 2x2 block scan: the implicit Volterra solve and the Crank-Nicolson wave


def recorded_block_scans(run):
    """(G, steps) of every block_scan that run() makes, kernels' and forward's alike."""
    import memlqr.forward as fwd
    import memlqr.kernels as ker

    calls = []

    def recording(G, inc):
        calls.append((np.array(G), inc.shape[0] - 1))
        return block_scan(G, inc)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (ker, fwd):
            mp.setattr(mod, "block_scan", recording)
        run()
    return calls


@pytest.fixture(scope="module")
def blocks():
    """The stiff grid's Volterra and wave blocks, a zero block and random non-normal contractions."""
    basis, grid = build_basis(191), TimeGrid(0.5, 256)
    (volterra, _), = recorded_block_scans(lambda: solve_Z(basis, grid))
    table = solve_Z(basis, grid)
    v0 = np.zeros(191)
    (wave, _), = recorded_block_scans(lambda: simulate_damped_wave(v0, v0, WAVE_CONTROL, table))
    assert np.min(np.abs(volterra[0, 0])) ** 2 == 0.0  # the powers of e^{lambda dt} underflow
    rng = np.random.default_rng(2)
    G = rng.standard_normal((2, 2, 5))
    G *= 0.99 / np.max(np.abs(np.linalg.eigvals(np.moveaxis(G, -1, 0))), axis=1)
    return [volterra, wave, np.zeros((2, 2, 3)), G]


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 3 * 64 + 5])
def test_block_scan_matches_the_sequential_loop(m, blocks):
    # elementwise, relative to the scan of |G| over |inc|, as for the scalar scan
    rng = np.random.default_rng(m)
    for G in blocks:
        inc = rng.standard_normal((m + 1,) + G.shape[1:])
        fast, ref = block_scan(G, inc.copy()), sequential_block_scan(G, inc)
        assert np.all(np.abs(fast - ref) <= 1e-15 * sequential_block_scan(np.abs(G), np.abs(inc)))


def test_block_scan_prefixes_keep_the_full_scans_bits(blocks):
    rng = np.random.default_rng(66)
    m = 3 * 64 + 5
    for G in blocks:
        inc = rng.standard_normal((m + 1,) + G.shape[1:])
        full = block_scan(G, inc.copy())
        for k in sorted({e + d for e in (64, 128, 192) for d in (-2, -1, 0, 1, 2)} | {0, 1, m}):
            assert np.array_equal(block_scan(G, inc[: k + 1].copy()), full[: k + 1])


def test_block_scan_rejects_a_spectral_radius_above_one():
    # the second block has entries below one but eigenvalues 0.9 +- 0.1 sqrt(10)
    for G in ([[1.5, 0.0], [0.0, 0.5]], [[0.9, 1.0], [0.1, 0.9]], [[0.0, -1.01], [1.01, 0.0]]):
        with pytest.raises(ValueError, match="spectral radius"):
            block_scan(np.array(G)[:, :, None], np.ones((70, 2, 1)))
    for G in (np.eye(2), -np.eye(2), [[1.0, 1.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]):
        assert np.all(np.isfinite(block_scan(np.array(G)[:, :, None], np.ones((70, 2, 1)))))


@pytest.mark.parametrize("M", [40, 300])
def test_each_implicit_route_runs_one_block_scan(M):
    # the Z table, both Volterra solves and the wave take one scan each,
    # over exactly the steps they return, at any M
    basis = build_basis(4)
    grid = TimeGrid(0.5, M)
    table = solve_Z(basis, grid)
    rng = np.random.default_rng(M)
    state = random_state(rng, 0, 4)
    u = ControlSignal(0, rng.standard_normal((M + 1, 2)))
    v0, v1 = rng.standard_normal((2, 4))
    for run, steps in ((lambda: solve_Z(basis, grid), M), (lambda: solve_volterra(state, u, table), M),
                       (lambda: extend_state(state, u, M // 3, table), M // 3),
                       (lambda: simulate_damped_wave(v0, v1, WAVE_CONTROL, table), M)):
        assert [m for _, m in recorded_block_scans(run)] == [steps]
