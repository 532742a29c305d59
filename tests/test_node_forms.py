"""The per-table node forms against the dense per-start routes they replace.

optimal.node_forms reads every node's value matrix P[j], first-step gain K[j]
and kernel pairings Pi[j] off the start-0 state-side factor.  Each is checked
here against the dense control-side route at the same node (dense_routes):
the value form, the first two controls and the kernel pairings of H h, over
n <= 6, M <= 48, T in [0.1, 2], always at nodes 0, M - 2 and M - 1, where
the last-row corrections differ.  The recursion itself is set against
dense_routes.riccati_recursion, the sweep that solves every node inside
its loop, and its traced memory against the forms it returns.  The scans
carry x by the one-panel step, which is checked against Van Loan's block
exponential; their references are the dense routes at a state whose
coordinates are the carried x (dense_routes.at_coordinates).
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dense_routes import at_coordinates, kernel_pairings, riccati_recursion, value_form

from memlqr import (ControlSignal, StateSnapshot, TimeGrid, Trajectory, build_basis, chain_rule_scan,
                    closed_loop_simulate, extend_state, solve_voc, solve_Z)
from memlqr.forward import response_field, state_coordinates
from memlqr.kernels import product_weights
from memlqr.optimal import OperatorAssembly, one_panel_step, _riccati_recursion, node_forms
from memlqr.riccati import value_scan_batch


@st.composite
def problems(draw):
    n = draw(st.integers(1, 6))
    M = draw(st.integers(2, 48))
    T = draw(st.floats(0.1, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return solve_Z(build_basis(n), TimeGrid(T, M)), rng


def random_state(rng, start, n):
    xi = rng.standard_normal((start + 1, n))
    return StateSnapshot(start, xi[-1].copy(), xi, rng.standard_normal(n))


def rel_err(value, ref):
    return np.max(np.abs(value - ref)) / (1.0 + np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_node_forms_match_the_dense_routes(case, data):
    table, rng = case
    M, n = table.grid.n_steps, table.n_modes
    forms = node_forms(table)
    for j in sorted({0, M - 2, M - 1, data.draw(st.integers(0, M - 1))}):
        state = random_state(rng, j, n)
        x = state_coordinates(state, table)
        assert np.array_equal(forms.P[j], forms.P[j].T)
        assert rel_err(x @ forms.P[j] @ x, value_form(state, state, table)) <= 1e-13
        phi, z = OperatorAssembly(table, j).apply_H(response_field(state, table))
        gain = forms.K[j] @ x
        assert rel_err(gain, z[0]) <= 1e-13
        assert rel_err(-forms.step[j, 2 * n :] @ np.concatenate([x, -gain]), z[1]) <= 1e-13
        assert rel_err(forms.Pi[j] @ x, np.concatenate(kernel_pairings(phi, table, j))) <= 1e-13
    assert not np.any(forms.P[M]) and not np.any(forms.K[M]) and not np.any(forms.Pi[M])


@settings(max_examples=25, deadline=None)
@given(problems(), st.data())
def test_value_scan_from_an_interior_start(case, data):
    # W along the trajectories from a start i0 > 0 is the dense value form
    # at every node the trajectory reaches, at the state whose coordinates
    # are the carried x
    table, rng = case
    M, n = table.grid.n_steps, table.n_modes
    i0 = data.draw(st.integers(1, M))
    state = random_state(rng, i0, n)
    controls = [ControlSignal(i0, rng.standard_normal((M - i0 + 1, 2))) for _ in range(2)]
    indices, W, x = value_scan_batch(state, controls, table)
    assert W.shape == (M - i0 + 1, 2) and np.all(W[-1] == 0.0)
    for c, xc in enumerate(x):
        traj = Trajectory(i0, xc[:, :n])
        states = (extend_state(state, None, j, table, trajectory=traj) for j in indices)
        ref = [value_form(s, s, table) for s in (at_coordinates(s, xj, table) for s, xj in zip(states, xc))]
        assert rel_err(W[:, c], np.array(ref)) <= 1e-13


def test_carried_seed_is_the_trapezoid_seed_at_second_order():
    # from the state's node on the scans carry the discrete system's exact
    # seed, not extend_state's trapezoid y_hat - I_xi of the same trajectory;
    # halving dt divides their largest gap by about 4 (measured 3.93, 3.98)
    basis, rng = build_basis(4), np.random.default_rng(0)
    v, y = (rng.standard_normal(4) / np.arange(1, 5) ** 3 for _ in range(2))
    state = StateSnapshot.initial(v, y)
    gaps = []
    for M in (64, 128, 256):
        table = solve_Z(basis, TimeGrid(0.5, M))
        t = table.grid.nodes
        u = ControlSignal(0, np.stack([0.5 + 0.4 * np.sin(2 * t), -0.5 + 0.3 * np.cos(3 * t)], axis=1))
        _, _, x = value_scan_batch(state, [u], table)
        traj = Trajectory(0, x[0, :, :4])
        trap = [state_coordinates(extend_state(state, None, j, table, trajectory=traj), table)[4:]
                for j in range(M + 1)]
        gaps.append(np.max(np.abs(x[0, :, 4:] - np.array(trap))))
    assert all(3.5 < coarse / fine < 4.5 for coarse, fine in zip(gaps, gaps[1:]))


def per_node_closed_loop(state0, table):
    """The closed loop that builds a state and solves the control side at every node.

    Node j's first two controls are -z[:2] of apply_H's conjugate gradients
    at the state; the next state takes its values from solve_voc and its
    seed from the one-panel step's s-rows (dense_routes.at_coordinates).
    """
    M, i0, n = table.grid.n_steps, state0.tau_index, table.n_modes
    A, B0, B1 = one_panel_step(table)
    u_cl = np.zeros((M - i0 + 1, 2))
    v_cl = np.zeros((M - i0 + 1, n))
    v_cl[0] = state0.v_hat
    cur = state0
    for step, j in enumerate(range(i0, M)):
        u_loc = np.zeros((M - j + 1, 2))
        u_loc[:2] = -OperatorAssembly(table, j).apply_H(response_field(cur, table))[1][:2]
        u_cl[step] = u_loc[0]
        ctrl = ControlSignal(j, u_loc)
        x = state_coordinates(cur, table)
        seed = (A @ x + B0 @ u_loc[0] + B1 @ u_loc[1])[n:]
        nxt = extend_state(cur, ctrl, j + 1, table, trajectory=solve_voc(cur, ctrl, table))
        cur = at_coordinates(nxt, np.concatenate([nxt.v_hat, seed]), table)
        v_cl[step + 1] = cur.v_hat
    return v_cl, u_cl


@settings(max_examples=25, deadline=None)
@given(problems(), st.data())
def test_closed_loop_matches_the_per_node_state_loop(case, data):
    # carrying x = (v_hat, y_hat - I_xi) from node to node is the loop that
    # builds a full state and solves for its gain at every node, from node 0
    # and from an interior start
    table, rng = case
    assert_closed_loop_matches_the_per_node_loop(table, rng, (0, data.draw(st.integers(1, table.grid.n_steps))))


def test_closed_loop_matches_the_per_node_state_loop_on_the_stiff_grid():
    # 191 modes, M = 64: max |lambda| dt = 2813, the loop's step map as stiff as it gets here
    table = solve_Z(build_basis(191), TimeGrid(0.5, 64))
    assert_closed_loop_matches_the_per_node_loop(table, np.random.default_rng(191), (0, 40))


def assert_closed_loop_matches_the_per_node_loop(table, rng, starts):
    for i0 in starts:
        state = random_state(rng, i0, table.n_modes)
        traj, u_cl = closed_loop_simulate(state, table)
        v_ref, u_ref = per_node_closed_loop(state, table)
        assert rel_err(u_cl.samples, u_ref) <= 1e-13
        assert rel_err(traj.values, v_ref) <= 1e-13


def test_zero_state_gives_exact_zeros_from_every_scan():
    table = solve_Z(build_basis(4), TimeGrid(0.5, 24))
    zero = StateSnapshot.initial(np.zeros(4), np.zeros(4))
    u0 = ControlSignal.zeros(table.grid)
    _, W, x = value_scan_batch(zero, [u0, u0], table)
    assert np.all(W == 0.0) and np.all(x == 0.0)
    chain = chain_rule_scan(zero, u0, table)
    assert np.all(chain.fd == 0.0) and np.all(chain.formula == 0.0)
    traj, u_cl = closed_loop_simulate(zero, table)
    assert np.all(traj.values == 0.0) and np.all(u_cl.samples == 0.0)


def test_node_forms_hold_no_reference_to_their_table():
    gc.disable()
    try:
        table = solve_Z(build_basis(3), TimeGrid(0.5, 8))
        forms = node_forms(table)
        assert node_forms(table) is forms
        assert all(isinstance(v, np.ndarray) for v in vars(forms).values())
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n, M, T", [(191, 256, 0.5), (8, 256, 0.5), (3, 8, 10.0)])
def test_one_panel_step_reads_column_1_of_the_product_weights(n, M, T):
    # B0 and B1 are -/+ A D times the gap-1 Z and Q weights, bitwise; mode 191
    # of the first shape has |lambda| dt = 703, and at the last one a plain
    # np.sum over Q's four terms already differs in the last bit
    table = solve_Z(build_basis(n), TimeGrid(T, M))
    _, B0, B1 = one_panel_step(table)
    ad = table.basis.ad_coeffs
    (aZ, bZ), (aQ, bQ) = (product_weights(p, table.grid) for p in (table.panel_Z, table.panel_Q))
    assert np.array_equal(B0, np.concatenate([-aZ[:, 1, None] * ad, aQ[:, 1, None] * ad]))
    assert np.array_equal(B1, np.concatenate([-bZ[:, 1, None] * ad, bQ[:, 1, None] * ad]))


@pytest.mark.parametrize("n, M, T, bound", [(8, 256, 0.5, 1.5e-16), (3, 8, 10.0, 6e-16), (64, 1024, 0.5, 6e-15),
                                             (191, 64, 0.5, 2.5e-13)])
def test_one_panel_step_is_the_block_exponential(n, M, T, bound):
    # Van Loan (1978): per mode, expm of [[F, G, 0], [0, 0, I], [0, 0, 0]] dt,
    # F = [[lambda + 1, 1], [-1, -1]] on (v, s) and G = [-A D; 0], holds the
    # free step in its (1, 1) block and the responses to a held and a ramped
    # control in (1, 2) and (1, 3), so B1 = Phi_13 / dt and B0 = Phi_12 - B1
    # (measured 1.1e-16, 4.8e-16, 5.0e-15 and, at |lambda| dt = 2813, 1.9e-13)
    table = solve_Z(build_basis(n), TimeGrid(T, M))
    dt = table.grid.dt
    ref = [np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2)), np.zeros((2 * n, 2))]
    for k, (lam, ad) in enumerate(zip(table.basis.eigenvalues, table.basis.ad_coeffs)):
        aug = np.zeros((6, 6))
        aug[:2, :2] = [[lam + 1.0, 1.0], [-1.0, -1.0]]
        aug[0, 2:4] = -ad
        aug[2:4, 4:] = np.eye(2)
        phi, rows = expm(aug * dt)[:2], [k, n + k]
        ref[0][np.ix_(rows, rows)] = phi[:, :2]
        ref[2][rows] = phi[:, 4:] / dt
        ref[1][rows] = phi[:, 2:4] - ref[2][rows]
    for got, want in zip(one_panel_step(table), ref):
        assert rel_err(got, want) <= bound


@pytest.mark.parametrize("n, M, T", [(191, 256, 0.5), (8, 256, 0.5), (3, 8, 10.0)])
def test_stacked_gap_weights_shift_by_the_transposed_one_panel_step(n, M, T):
    # (Z, Q) is the first row of the fundamental matrix A per mode, so the
    # stacked Z and Q weights at gap g + 1 are A^T times those at gap g: the
    # identity the sweep's kernel pairings rest on (measured at most 3.4e-18)
    table = solve_Z(build_basis(n), TimeGrid(T, M))
    A = one_panel_step(table)[0]
    (aZ, bZ), (aQ, bQ) = (product_weights(p, table.grid) for p in (table.panel_Z, table.panel_Q))
    for W in (np.vstack([aZ, aQ]), np.vstack([bZ, bQ])):
        assert rel_err(A.T @ W[:, 1:-1], W[:, 2:]) <= 1e-15


@pytest.mark.parametrize("n, M", [(3, 8), (8, 256), (16, 64), (191, 64)])
def test_recursion_matches_the_reference_sweep(n, M):
    # P and step keep their bits; K, solved after the sweep, and Pi, carried
    # through it by the one-panel shift, move at roundoff (K measured bitwise;
    # Pi at worst 3.3e-16 at (8, 256), 1.3e-16 at the stiff 191 modes, where
    # |lambda| dt = 2813); the reference's next-control gain K[:, 2:] is
    # step's last two rows at (x, -K[j] x)
    table = solve_Z(build_basis(n), TimeGrid(0.5, M))
    forms, ref = _riccati_recursion(table), riccati_recursion(table)
    assert np.array_equal(forms.P, ref.P) and np.array_equal(forms.step, ref.step)
    nx = 2 * n
    X = np.concatenate([np.broadcast_to(np.eye(nx), (M + 1, nx, nx)), -forms.K], axis=1)  # z_j = X[j] x
    assert rel_err(forms.K, ref.K[:, :2]) <= 1e-15 and rel_err(-forms.step[:, nx:] @ X, ref.K[:, 2:]) <= 1e-15
    assert rel_err(forms.Pi, ref.Pi) <= 1e-15


def test_recursion_keeps_no_history_of_the_sweep():
    # the traced peak stays within 1.5 times the forms returned (measured
    # 1.37); a sweep that kept every S_j or the rows' history reaches 3.2
    table = solve_Z(build_basis(16), TimeGrid(0.5, 256))
    tracemalloc.start()
    try:
        forms = _riccati_recursion(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(a.nbytes for a in (forms.P, forms.K, forms.Pi, forms.step))
