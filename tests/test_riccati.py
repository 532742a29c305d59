import dense_routes
import numpy as np
import pytest

from memlqr import (
    ControlSignal,
    P_cross,
    P_form,
    P_prime_form,
    StateSnapshot,
    TimeGrid,
    apply_generator,
    bellman_check,
    build_basis,
    chain_rule_scan,
    closed_loop_simulate,
    dissipation_scan,
    extend_state,
    feedback_gain,
    memory_functional,
    riccati_residual,
    solve_Z,
    solve_optimal,
    solve_voc,
    solve_volterra,
    state_norm_sq,
    terminal_P_check,
    value_function,
)
from memlqr.riccati import _fd_derivative, value_scan_batch


@pytest.fixture(scope="module")
def basis():
    return build_basis(5)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(0.5, 48)


@pytest.fixture(scope="module")
def table(basis, grid):
    return solve_Z(basis, grid)


def smooth_state(rng, n, decay=3.0):
    v = rng.standard_normal(n) / np.arange(1, n + 1) ** decay
    y = rng.standard_normal(n) / np.arange(1, n + 1) ** decay
    return StateSnapshot.initial(v / np.linalg.norm(v), y / np.linalg.norm(y))


def sine_control(grid, start=0, a=(0.4, 0.3), off=(0.5, -0.5)):
    t = grid.nodes[start:]
    return ControlSignal(
        start,
        np.stack([off[0] + a[0] * np.sin(2 * t), off[1] + a[1] * np.cos(3 * t)], axis=1),
    )


@pytest.fixture(scope="module")
def interior_state(table, grid, basis):
    rng = np.random.default_rng(21)
    st0 = smooth_state(rng, basis.n_modes)
    return extend_state(st0, sine_control(grid), 16, table)


# ----------------------------------------------------------------------------
# generator


def test_generator_zero_state(table, basis):
    n = basis.n_modes
    img = apply_generator(StateSnapshot.initial(np.zeros(n), np.zeros(n)), table)
    assert np.all(img.dv == 0.0) and np.all(img.dy == 0.0) and np.all(img.dxi == 0.0)


def test_generator_constant_history(table, grid, basis):
    n = basis.n_modes
    c = np.ones(n) * 0.3
    i = 16
    xi = np.tile(c, (i + 1, 1))
    st = StateSnapshot(i, c.copy(), xi, np.zeros(n))
    img = apply_generator(st, table)
    tau = i * grid.dt
    expected = (basis.eigenvalues + 1.0) * c - c * (1 - np.exp(-tau))
    assert np.max(np.abs(img.dv - expected)) < 1e-4
    assert np.max(np.abs(img.dxi)) < 1e-12


def test_generator_rejects_incompatible(table, basis):
    n = basis.n_modes
    xi = np.zeros((5, n))
    st = StateSnapshot(4, np.ones(n), xi, np.zeros(n))
    with pytest.raises(ValueError, match="compatibility"):
        apply_generator(st, table)


def test_generator_matches_trajectory_derivative(basis):
    # dv along a smooth simulated trajectory equals the FD of v
    rng = np.random.default_rng(22)
    errs = {}
    for M in (32, 64):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        st0 = smooth_state(rng, basis.n_modes)
        u = sine_control(grid)
        traj = solve_volterra(st0, u, table)
        lam_d = basis.eigenvalues[:, None] * basis.dmap_coeffs
        j = M // 2
        st = extend_state(st0, None, j, table, trajectory=traj)
        img = apply_generator(st, table)
        dv_flow = img.dv - lam_d @ u.samples[j]
        fd = (traj.values[j + 1] - traj.values[j - 1]) / (2 * grid.dt)
        errs[M] = np.max(np.abs(dv_flow - fd) / (1.0 + np.abs(dv_flow)))
    assert errs[64] < 2e-2
    assert 3.0 < errs[32] / errs[64] < 5.2


# ----------------------------------------------------------------------------
# the quadratic form


def test_P_form_zero_left_argument(table, interior_state, basis):
    n = basis.n_modes
    i = interior_state.tau_index
    zero = StateSnapshot(i, np.zeros(n), np.zeros((i + 1, n)), np.zeros(n))
    assert P_form(zero, interior_state, table) == 0.0


def test_P_form_symmetry(table, grid, basis):
    rng = np.random.default_rng(23)
    i = 10
    n = basis.n_modes

    def rand_state():
        return StateSnapshot(i, rng.standard_normal(n), rng.standard_normal((i + 1, n)), rng.standard_normal(n))

    for _ in range(5):
        s1, s2 = rand_state(), rand_state()
        a = P_form(s1, s2, table)
        b = P_form(s2, s1, table)
        assert abs(a - b) <= 1e-11 * (1 + abs(a))


def test_P_form_is_value_function(table, interior_state):
    W = value_function(interior_state, table)
    assert P_form(interior_state, interior_state, table) == pytest.approx(W, rel=1e-11)


def test_P_form_nonnegative(table, grid, basis):
    rng = np.random.default_rng(24)
    i = 20
    n = basis.n_modes
    for _ in range(10):
        s = StateSnapshot(i, rng.standard_normal(n), rng.standard_normal((i + 1, n)), rng.standard_normal(n))
        assert P_form(s, s, table) >= 0.0


def test_terminal_checks(table):
    rep = terminal_P_check(table)
    assert rep.value_at_T == 0.0
    assert 0.0 < rep.value_near_T <= rep.near_T_bound
    assert rep.monotone


# ----------------------------------------------------------------------------
# feedback gain


def test_gain_zero_state(table, basis):
    n = basis.n_modes
    st = StateSnapshot.initial(np.zeros(n), np.zeros(n))
    assert np.all(feedback_gain(st, table) == 0.0)


def test_gain_at_horizon_end(table, grid, basis):
    n = basis.n_modes
    st = StateSnapshot(grid.n_steps, np.ones(n), np.ones((grid.n_steps + 1, n)), np.zeros(n))
    assert np.all(feedback_gain(st, table) == 0.0)


def test_gain_equals_open_loop_first_node(table, interior_state):
    g = feedback_gain(interior_state, table)
    sol = solve_optimal(interior_state, table)
    assert np.max(np.abs(g - sol.u_plus.samples[0])) <= 1e-9


def test_gain_linearity(table, grid, basis):
    rng = np.random.default_rng(25)
    i = 12
    n = basis.n_modes

    def rand_state():
        xi = rng.standard_normal((i + 1, n))
        return StateSnapshot(i, xi[-1].copy(), xi, rng.standard_normal(n))

    s1, s2 = rand_state(), rand_state()
    a, b = 0.7, -1.4
    comb = StateSnapshot(
        i, a * s1.v_hat.coeffs + b * s2.v_hat.coeffs, a * s1.xi + b * s2.xi,
        a * s1.y_hat.coeffs + b * s2.y_hat.coeffs,
    )
    g = feedback_gain(comb, table)
    g_parts = a * feedback_gain(s1, table) + b * feedback_gain(s2, table)
    assert np.max(np.abs(g - g_parts)) <= 1e-10


# ----------------------------------------------------------------------------
# closed loop


def test_one_step_advance_matches_volterra(table, grid, basis, interior_state):
    u = sine_control(grid, interior_state.tau_index)
    traj = solve_volterra(interior_state, u, table)
    stepped = extend_state(interior_state, u, interior_state.tau_index + 1, table)
    assert np.all(stepped.v_hat.coeffs == traj.values[1])
    assert stepped.tau_index == interior_state.tau_index + 1


def test_closed_loop_zero_state(table, basis):
    n = basis.n_modes
    st = StateSnapshot.initial(np.zeros(n), np.zeros(n))
    traj, u = closed_loop_simulate(st, table)
    assert np.all(traj.values == 0.0)
    assert np.all(u.samples == 0.0)


def test_closed_loop_first_value_is_open_loop(table, basis):
    rng = np.random.default_rng(26)
    st = smooth_state(rng, basis.n_modes)
    _traj, u_cl = closed_loop_simulate(st, table)
    sol = solve_optimal(st, table)
    assert np.max(np.abs(u_cl.samples[0] - sol.u_plus.samples[0])) < 1e-12


def test_closed_loop_tracks_open_loop(basis):
    rng = np.random.default_rng(27)
    errs = {}
    for M in (24, 48):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        st = smooth_state(rng, basis.n_modes)
        sol = solve_optimal(st, table)
        _traj, u_cl = closed_loop_simulate(st, table)
        wU = np.repeat(grid.segment_weights(0), 2)
        d = (u_cl.samples - sol.u_plus.samples).reshape(-1)
        errs[M] = float(np.sqrt(np.dot(wU * d, d)))
    assert errs[48] < 5e-3
    assert errs[48] < errs[24]


# ----------------------------------------------------------------------------
# restart consistency and value telescoping


def test_bellman_identity_at_tau(table, basis):
    rng = np.random.default_rng(28)
    st = smooth_state(rng, basis.n_modes)
    rep = bellman_check(st, 0, table)
    assert rep.tail_mismatch < 1e-12
    assert rep.telescope_residual < 1e-12


def test_bellman_zero_state(table, basis):
    n = basis.n_modes
    st = StateSnapshot.initial(np.zeros(n), np.zeros(n))
    rep = bellman_check(st, 12, table)
    assert rep.tail_mismatch == 0.0
    assert rep.telescope_residual == 0.0


def test_bellman_residuals_refine_at_second_order(basis):
    rng = np.random.default_rng(29)
    st_seed = smooth_state(rng, basis.n_modes)
    tails = {}
    teles = {}
    for M in (32, 64, 128):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        rep = bellman_check(st_seed, M // 4, table)
        tails[M] = rep.tail_mismatch
        teles[M] = rep.telescope_residual
    assert tails[128] < 5e-4
    assert teles[128] < 5e-6
    assert 2.5 < tails[32] / tails[64] < 6.0
    assert 2.5 < tails[64] / tails[128] < 6.0


# ----------------------------------------------------------------------------
# dissipation


def test_dissipation_zero_state_zero_control(table, grid, basis):
    n = basis.n_modes
    st = StateSnapshot.initial(np.zeros(n), np.zeros(n))
    rep = dissipation_scan(st, ControlSignal.zeros(grid), table)
    assert np.all(rep.r == 0.0)


def test_dissipation_nonnegative_off_optimum(table, grid, basis):
    rng = np.random.default_rng(30)
    st = smooth_state(rng, basis.n_modes)
    rep = dissipation_scan(st, sine_control(grid), table)
    assert rep.min_r >= -1e-8
    # a control this far from the feedback values never sits in the band
    assert rep.max_abs_r > 0.05


def test_dissipation_equality_along_optimum(table, grid, basis):
    rng = np.random.default_rng(31)
    st = smooth_state(rng, basis.n_modes)
    sol = solve_optimal(st, table)
    rep = dissipation_scan(st, sol.u_plus, table)
    # coarse 48-step grid; the acceptance suite pins 5e-3 at 256 steps
    assert rep.max_abs_r < 2e-2


def test_dissipation_along_uncontrolled(table, grid, basis):
    rng = np.random.default_rng(32)
    st = smooth_state(rng, basis.n_modes)
    rep = dissipation_scan(st, ControlSignal.zeros(grid), table)
    # the true residual touches zero where the local gain crosses the zero
    # control, so the finite-difference floor is what can be asserted here
    assert rep.min_r >= -1e-3


# ----------------------------------------------------------------------------
# P' and the differential identity


def test_P_prime_zero_state(table, grid, basis):
    n = basis.n_modes
    i = 16
    st = StateSnapshot(i, np.zeros(n), np.zeros((i + 1, n)), np.zeros(n))
    assert P_prime_form(st, table) == 0.0


def test_P_prime_terminal_collapse(table, grid, basis):
    # at T the integrals are empty and only the present-value block survives,
    # with the sign fixed by W_theta ~ (T - theta) ||v_hat||^2
    n = basis.n_modes
    M = grid.n_steps
    rng = np.random.default_rng(33)
    v = rng.standard_normal(n)
    xi = np.zeros((M + 1, n))
    xi[-1] = v
    st = StateSnapshot(M, v.copy(), xi, np.zeros(n))
    assert P_prime_form(st, table) == pytest.approx(-float(np.dot(v, v)), rel=1e-14)


def test_P_prime_slope_matches_value_decay_near_T(table, grid, basis):
    # frozen pure-v_hat states: W decreases to zero at rate ||v_hat||^2
    n = basis.n_modes
    M = grid.n_steps
    v = np.zeros(n)
    v[0] = 1.0

    def frozen(i):
        xi = np.zeros((i + 1, n))
        xi[-1] = v
        return StateSnapshot(i, v.copy(), xi, np.zeros(n))

    W1 = P_form(frozen(M - 1), frozen(M - 1), table)
    slope = (0.0 - W1) / grid.dt  # P(T) = 0
    assert slope == pytest.approx(-np.dot(v, v), rel=0.1)


def test_chain_rule_closure(basis):
    # run from a state with developed history, where the discrete history
    # derivative is resolved; residual shrinks under refinement
    rng = np.random.default_rng(34)
    st_seed = smooth_state(rng, basis.n_modes)
    errs = {}
    for M in (32, 64):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        warm = extend_state(st_seed, sine_control(grid), M // 4, table)
        rep = chain_rule_scan(warm, sine_control(grid, M // 4), table)
        errs[M] = float(rep.relative.max())
    assert errs[64] < 2.5e-2
    assert errs[64] < errs[32]


def test_riccati_residual_zero_state(table, grid, basis):
    n = basis.n_modes
    i = 10
    st = StateSnapshot(i, np.zeros(n), np.zeros((i + 1, n)), np.zeros(n))
    rep = riccati_residual(st, table)
    assert rep.residual == 0.0


def test_riccati_residual_interior(table, interior_state):
    rep = riccati_residual(interior_state, table)
    assert rep.relative < 5e-3
    assert rep.gain_sq >= 0.0 and rep.vhat_sq > 0.0


def test_cross_term_is_bilinear_pairing(table, interior_state, basis):
    # cross(S, X) against the def through P_form with an explicit second state
    img = apply_generator(interior_state, table)
    val = P_cross(interior_state, img.dv, img.dxi, img.dy, table)
    assert np.isfinite(val)


def test_state_norm_components(table, grid, basis):
    n = basis.n_modes
    i = 8
    xi = np.zeros((i + 1, n))
    st = StateSnapshot(i, np.zeros(n), xi, np.eye(n)[0])
    # seed-only state: the dual weight is lambda_1^{-2}
    assert state_norm_sq(st, table) == pytest.approx(np.pi**-4, rel=1e-12)


def generator_response(dv, dxi, dy, table, start):
    """Response field of a state-shaped triple: Z dv + Q (dy - I_dxi)."""
    m = table.grid.n_steps - start
    I = memory_functional(dxi, table.grid) if dxi is not None else np.zeros_like(dv)
    return table.Z[:, : m + 1].T * np.asarray(dv)[None, :] + table.Q[:, : m + 1].T * (
        np.asarray(dy) - I
    )[None, :]


def test_cross_pairing_agrees_with_field_pairing(table, interior_state, basis):
    # the exact-kernel pairing and the trapezoid pairing of the explicit
    # response field agree where the generator image is tame
    from memlqr.optimal import OperatorAssembly
    from memlqr.forward import response_field

    n = basis.n_modes
    rng = np.random.default_rng(40)
    dv = rng.standard_normal(n) / np.arange(1, n + 1) ** 3
    dxi = np.zeros((interior_state.tau_index + 1, n))
    dy = rng.standard_normal(n) / np.arange(1, n + 1) ** 3
    asm = OperatorAssembly(table, interior_state.tau_index)
    phi, _ = asm.apply_H(response_field(interior_state, table))
    exact = P_cross(interior_state, dv, dxi, dy, table)
    field = generator_response(dv, dxi, dy, table, interior_state.tau_index)
    trap = 2.0 * asm.inner_V(phi, field)
    assert abs(exact - trap) < 5e-4 * (1 + abs(exact))



@pytest.fixture
def control_solves(monkeypatch):
    """Start nodes of every OperatorAssembly.solve_normal_control call."""
    from memlqr.optimal import OperatorAssembly

    calls = []
    solve = OperatorAssembly.solve_normal_control

    def counted(self, r):
        calls.append(self.start)
        return solve(self, r)

    monkeypatch.setattr(OperatorAssembly, "solve_normal_control", counted)
    return calls


@pytest.fixture
def assembly_starts(monkeypatch):
    """Start nodes of every OperatorAssembly built."""
    from memlqr.optimal import OperatorAssembly

    starts = []
    init = OperatorAssembly.__init__

    def counted(self, table, start):
        starts.append(start)
        init(self, table, start)

    monkeypatch.setattr(OperatorAssembly, "__init__", counted)
    return starts


def test_chain_rule_scan_solves_each_node_once(control_solves, assembly_starts, basis, grid, interior_state):
    # every node is solved once per table, inside optimal.node_forms: the
    # scans read its rows, make no control-side solve and build no assembly
    # (the forms' recursion reads the table's one-panel step, not Lambda)
    table = solve_Z(basis, grid)
    i0 = grid.n_steps - 12
    warm = extend_state(interior_state, sine_control(grid, 16), i0, table)
    u = sine_control(grid, i0)
    value_scan_batch(warm, [u, ControlSignal.zeros(grid, i0)], table)
    forms = table._node_forms
    dissipation_scan(warm, u, table)
    chain_rule_scan(warm, u, table)
    closed_loop_simulate(warm, table)
    assert control_solves == []
    assert assembly_starts == []
    assert table._node_forms is forms


def test_single_state_routes_read_the_node_forms(control_solves, assembly_starts, table, interior_state, grid):
    # P_form, P_cross, P_prime_form and feedback_gain read the node forms at
    # the state's node, an interior one and T: once the forms are built they
    # make no control-side solve and build no assembly
    from memlqr.optimal import node_forms

    forms = node_forms(table)
    terminal = extend_state(interior_state, None, grid.n_steps, table)
    control_solves.clear()
    assembly_starts.clear()
    for st in (interior_state, terminal):
        img = apply_generator(st, table)
        P_form(st, st, table)
        P_cross(st, img.dv, img.dxi, img.dy, table)
        P_prime_form(st, table)
        feedback_gain(st, table)
    assert control_solves == [] and assembly_starts == []
    assert table._node_forms is forms


def test_scans_build_no_state_per_node(monkeypatch, basis):
    # chain_rule_scan and closed_loop_simulate carry x = (v_hat, y_hat - I_xi)
    # from node to node: they build no state, memory integral or generator
    # image per node, so the counts do not grow with M
    import memlqr.forward as fwd
    import memlqr.riccati as ric

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(StateSnapshot, "__post_init__", counting("StateSnapshot", StateSnapshot.__post_init__))
    for mod in (fwd, ric):
        monkeypatch.setattr(mod, "memory_functional", counting("memory_functional", mod.memory_functional))
    monkeypatch.setattr(ric, "apply_generator", counting("apply_generator", ric.apply_generator))

    def counts(M):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        warm = extend_state(smooth_state(np.random.default_rng(35), basis.n_modes), sine_control(grid), 4, table)
        u = sine_control(grid, 4)
        calls.clear()
        chain_rule_scan(warm, u, table)
        closed_loop_simulate(warm, table)
        return sorted(calls)

    at16 = counts(16)
    assert at16 == counts(32)
    assert "StateSnapshot" not in at16 and "apply_generator" not in at16


def test_riccati_residual_solves_once(control_solves, table, interior_state):
    riccati_residual(interior_state, table)
    assert control_solves == [interior_state.tau_index]


def test_chain_rule_scan_matches_the_separate_routes(table, grid, basis, interior_state):
    # the scan's finite difference is exactly that of the value scan; its
    # formula reads the node forms, so it matches P' and the cross pairing
    # evaluated on the dense control-side routes at roundoff (worst measured 3.9e-17)
    i0 = grid.n_steps - 8
    warm = extend_state(interior_state, sine_control(grid, 16), i0, table)
    u = sine_control(grid, i0)
    rep = chain_rule_scan(warm, u, table)
    _, W, trajs = value_scan_batch(warm, [u], table)
    assert np.array_equal(rep.fd, _fd_derivative(W[:, 0], grid.dt)[1:-1])
    for pos, j in enumerate(rep.indices):
        st = extend_state(warm, None, j, table, trajectory=trajs[0])
        img = apply_generator(st, table)
        dv_ctrl = img.dv - basis.ad_coeffs @ u.samples[j - i0]
        ref = dense_routes.p_prime(st, table) + dense_routes.cross(st, dv_ctrl, img.dxi, img.dy, table)
        assert abs(rep.formula[pos] - ref) <= 1e-12 * (1.0 + abs(rep.formula[pos]))
