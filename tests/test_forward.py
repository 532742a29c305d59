import numpy as np
import pytest

from memlqr import (
    ControlSignal,
    SmoothControl,
    StateSnapshot,
    TimeGrid,
    build_basis,
    extend_state,
    hat_y_from_initial,
    memory_functional,
    simulate_damped_wave,
    solve_Z,
    solve_voc,
    solve_volterra,
)
from memlqr.kernels import oscillator_solution


@pytest.fixture(scope="module")
def basis():
    return build_basis(6)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(0.5, 64)


@pytest.fixture(scope="module")
def table(basis, grid):
    return solve_Z(basis, grid)


def smooth_coeffs(rng, n, decay=3.0, scale=1.0):
    c = rng.standard_normal(n) / np.arange(1, n + 1) ** decay
    return scale * c / np.linalg.norm(c)


def sine_control(grid, start=0, a=(0.3, 0.2)):
    t = grid.nodes[start:]
    return ControlSignal(start, np.stack([a[0] * np.sin(2 * t), a[1] * (np.cos(3 * t) - 1.0)], axis=1))


# ----------------------------------------------------------------------------
# hat_y


def test_hat_y_examples(basis):
    n = basis.n_modes
    e1 = np.eye(n)[0]
    out = hat_y_from_initial(np.zeros(n), e1, (0.0, 0.0), basis)
    assert np.allclose(out, e1)
    out = hat_y_from_initial(e1, np.zeros(n), (0.0, 0.0), basis)
    assert out[0] == pytest.approx(-1.0 + np.pi**2, rel=1e-14)


def test_hat_y_recomputation(basis):
    rng = np.random.default_rng(2)
    v0 = rng.standard_normal(basis.n_modes)
    v1 = rng.standard_normal(basis.n_modes)
    tr = rng.standard_normal(2)
    out = hat_y_from_initial(v0, v1, tr, basis)
    lift = basis.dmap_coeffs @ tr
    expected = v1 - v0 - basis.eigenvalues * (v0 - lift)
    assert np.allclose(out, expected, atol=1e-14)


# ----------------------------------------------------------------------------
# memory functional


def test_memory_functional_zero(grid):
    assert np.all(memory_functional(np.zeros((11, 3)), grid) == 0.0)


def test_memory_functional_constant(grid):
    i = 32
    t = i * grid.dt
    xi = np.ones((i + 1, 2)) * 1.7
    out = memory_functional(xi, grid)
    assert np.allclose(out, 1.7 * (1 - np.exp(-t)), atol=1e-4)


def test_memory_functional_exponential_density():
    # forward density exp(-r) c: the weighted integrand is constant, so the
    # trapezoid value c t exp(-t) is exact
    grid = TimeGrid(0.5, 32)
    r = grid.nodes
    xi = np.exp(-r)[:, None] * np.array([[2.0]])
    out = memory_functional(xi, grid)
    exact = 2.0 * grid.t_final * np.exp(-grid.t_final)
    assert abs(out[0] - exact) < 1e-15


def test_memory_functional_second_order_on_curved_density():
    # sin density has the closed value (sin t - cos t + exp(-t)) / 2
    errs = []
    for M in (32, 64):
        grid = TimeGrid(0.5, M)
        xi = np.sin(grid.nodes)[:, None]
        out = memory_functional(xi, grid)
        tt = grid.t_final
        exact = 0.5 * (np.sin(tt) - np.cos(tt) + np.exp(-tt))
        errs.append(abs(out[0] - exact))
    assert errs[1] < 5e-6
    assert 3.0 < errs[0] / errs[1] < 5.0


# ----------------------------------------------------------------------------
# the two forward routes


def test_zero_data_zero_trajectory(table, grid, basis):
    n = basis.n_modes
    st = StateSnapshot.initial(np.zeros(n), np.zeros(n))
    u = ControlSignal.zeros(grid)
    assert np.all(solve_volterra(st, u, table).values == 0.0)
    assert np.all(solve_voc(st, u, table).values == 0.0)


def test_pure_vhat_state_rides_Z_column(table, grid, basis):
    # uncontrolled, history-free, seed-free: the Volterra trajectory IS the
    # Volterra Z table, and the resolvent route's is the exact-sum Z column
    n = basis.n_modes
    st = StateSnapshot.initial(np.eye(n)[0], np.zeros(n))
    tv = solve_volterra(st, None, table)
    tc = solve_voc(st, None, table)
    assert np.max(np.abs(tv.values[:, 0] - table.Z[0])) == 0.0
    assert np.max(np.abs(tc.values[:, 0] - table.Z_exact[0])) == 0.0
    assert np.all(tv.values[:, 1:] == 0.0)


def test_two_routes_agree_on_random_data(basis):
    errs = {}
    for M in (32, 64, 128):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(5):
            v0 = smooth_coeffs(rng, basis.n_modes)
            y0 = smooth_coeffs(rng, basis.n_modes, decay=2.0)
            st = StateSnapshot.initial(v0, y0)
            u = ControlSignal(0, np.stack(
                [0.4 * np.sin(2 * grid.nodes + rng.uniform(0, 1)),
                 0.3 * np.cos(3 * grid.nodes + rng.uniform(0, 1))], axis=1))
            tv = solve_volterra(st, u, table)
            tc = solve_voc(st, u, table)
            worst = max(worst, float(np.max(np.abs(tv.values - tc.values))))
        errs[M] = worst
    assert errs[128] < 2e-5
    assert 2.8 < errs[32] / errs[64] < 5.5
    assert 2.8 < errs[64] / errs[128] < 5.5


def test_route_agreement_from_interior_state_with_history(table, grid, basis):
    rng = np.random.default_rng(4)
    st0 = StateSnapshot.initial(smooth_coeffs(rng, basis.n_modes), smooth_coeffs(rng, basis.n_modes, 2.0))
    u = sine_control(grid)
    mid = extend_state(st0, u, 24, table)
    u_tail = ControlSignal(24, u.samples[24:])
    tv = solve_volterra(mid, u_tail, table)
    tc = solve_voc(mid, u_tail, table)
    assert np.max(np.abs(tv.values - tc.values)) < 1e-4


def test_linearity_superposition(table, grid, basis):
    rng = np.random.default_rng(12)
    n = basis.n_modes

    def solve(v0, y0, us):
        st = StateSnapshot.initial(v0, y0)
        return solve_voc(st, ControlSignal(0, us), table).values

    v1, y1 = rng.standard_normal(n), rng.standard_normal(n)
    v2, y2 = rng.standard_normal(n), rng.standard_normal(n)
    u1 = rng.standard_normal((grid.n_steps + 1, 2))
    u2 = rng.standard_normal((grid.n_steps + 1, 2))
    a, b = 1.3, -0.6
    combined = solve(a * v1 + b * v2, a * y1 + b * y2, a * u1 + b * u2)
    parts = a * solve(v1, y1, u1) + b * solve(v2, y2, u2)
    scale = np.max(np.abs(combined)) + 1e-30
    assert np.max(np.abs(combined - parts)) / scale < 1e-12


def test_homogeneity_degree_one(table, grid, basis):
    rng = np.random.default_rng(13)
    n = basis.n_modes
    v0, y0 = rng.standard_normal(n), rng.standard_normal(n)
    us = rng.standard_normal((grid.n_steps + 1, 2))
    base = solve_volterra(StateSnapshot.initial(v0, y0), ControlSignal(0, us), table).values
    doubled = solve_volterra(StateSnapshot.initial(2 * v0, 2 * y0), ControlSignal(0, 2 * us), table).values
    assert np.max(np.abs(doubled - 2 * base)) < 1e-12 * (1 + np.max(np.abs(base)))


# ----------------------------------------------------------------------------
# wave equation cross-check


def test_wave_uncontrolled_matches_modal_oracle(table, grid, basis):
    n = basis.n_modes
    zero = SmoothControl(lambda t: np.zeros(2), lambda t: np.zeros(2), lambda t: np.zeros(2))
    v0 = np.eye(n)[0]
    tr = simulate_damped_wave(v0, np.zeros(n), zero, table)
    exact = oscillator_solution(basis.eigenvalues[0], 1.0, 0.0, grid.nodes)
    assert np.max(np.abs(tr.values[:, 0] - exact)) < 5e-5
    assert np.all(tr.values[:, 1:] == 0.0)


def test_wave_zero_data_is_zero(table, basis):
    zero = SmoothControl(lambda t: np.zeros(2), lambda t: np.zeros(2), lambda t: np.zeros(2))
    n = basis.n_modes
    tr = simulate_damped_wave(np.zeros(n), np.zeros(n), zero, table)
    assert np.all(tr.values == 0.0)


def test_wave_requires_derivatives(table, basis):
    n = basis.n_modes
    only_u = SmoothControl(lambda t: np.zeros(2))
    with pytest.raises(ValueError, match="derivative"):
        simulate_damped_wave(np.zeros(n), np.zeros(n), only_u, table)


def wave_test_control():
    return SmoothControl(
        u=lambda t: np.array([np.sin(2 * t), 0.5 * np.cos(3 * t) - 0.5]),
        du=lambda t: np.array([2 * np.cos(2 * t), -1.5 * np.sin(3 * t)]),
        ddu=lambda t: np.array([-4 * np.sin(2 * t), -4.5 * np.cos(3 * t)]),
    )


def test_transformation_fidelity(basis):
    # wave integration against the memory-equation solve, compatible data
    sc = wave_test_control()
    rng = np.random.default_rng(1)
    n = basis.n_modes
    w0 = smooth_coeffs(rng, n)
    w1 = smooth_coeffs(rng, n)
    errs = {}
    for M in (64, 128):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        lift0 = basis.dmap_coeffs @ sc.u(0.0)
        lift1 = basis.dmap_coeffs @ sc.du(0.0)
        v0, v1 = w0 + lift0, w1 + lift1
        y0 = hat_y_from_initial(v0, v1, sc.u(0.0), basis)
        wave = simulate_damped_wave(v0, v1, sc, table)
        mem = solve_volterra(StateSnapshot.initial(v0, y0), sc.sample(grid), table)
        errs[M] = float(np.max(np.abs(wave.values - mem.values)))
    assert errs[128] < 3e-4
    assert 3.0 < errs[64] / errs[128] < 5.2


# ----------------------------------------------------------------------------
# state propagation


def test_extend_identity(table, grid, basis):
    rng = np.random.default_rng(3)
    st = StateSnapshot.initial(rng.standard_normal(basis.n_modes), rng.standard_normal(basis.n_modes))
    u = sine_control(grid)
    same = extend_state(st, u, 0, table)
    assert np.all(same.v_hat == st.v_hat)
    assert np.all(same.xi == st.xi)
    assert np.all(same.y_hat == st.y_hat)


def test_extend_rejects_backwards(table, grid, basis):
    st = StateSnapshot.initial(np.zeros(basis.n_modes), np.zeros(basis.n_modes))
    mid = extend_state(st, sine_control(grid), 10, table)
    with pytest.raises(ValueError):
        extend_state(mid, sine_control(grid, 10), 5, table)


def test_extend_seed_decay_exact(table, grid, basis):
    rng = np.random.default_rng(8)
    y0 = rng.standard_normal(basis.n_modes)
    st = StateSnapshot.initial(np.zeros(basis.n_modes), y0)
    out = extend_state(st, sine_control(grid), 20, table)
    assert np.allclose(out.y_hat, np.exp(-20 * grid.dt) * y0, rtol=1e-15, atol=0)


def test_extend_semigroup_property(basis):
    # the concatenation identity is exact: the semigroup factor, the closed
    # forcing integral and the product panel moments all split multiplicatively
    # at the restart node, and trapezoid sums split additively
    rng = np.random.default_rng(5)
    for M in (32, 64, 128):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        st = StateSnapshot.initial(
            smooth_coeffs(rng, basis.n_modes), smooth_coeffs(rng, basis.n_modes, 2.0)
        )
        u = sine_control(grid)
        j1, j2 = M // 4, M // 2
        one_hop = extend_state(st, u, j2, table)
        mid = extend_state(st, u, j1, table)
        two_hop = extend_state(mid, ControlSignal(j1, u.samples[j1:]), j2, table)
        assert np.allclose(two_hop.y_hat, one_hop.y_hat, rtol=1e-14, atol=0)
        assert np.all(two_hop.xi[: j1 + 1] == one_hop.xi[: j1 + 1])
        assert np.max(np.abs(two_hop.v_hat - one_hop.v_hat)) < 1e-13
        assert np.max(np.abs(two_hop.xi - one_hop.xi[: j2 + 1])) < 1e-13


def test_compatibility_of_propagated_states(table, grid, basis):
    rng = np.random.default_rng(6)
    st = StateSnapshot.initial(rng.standard_normal(basis.n_modes), rng.standard_normal(basis.n_modes))
    out = extend_state(st, sine_control(grid), 30, table)
    assert out.is_compatible()
    assert out.xi.shape == (31, basis.n_modes)


def test_state_validation(basis, grid):
    n = basis.n_modes
    with pytest.raises(ValueError):
        StateSnapshot(3, np.zeros(n), np.zeros((2, n)), np.zeros(n))
    with pytest.raises(ValueError):
        ControlSignal(0, np.full((5, 2), np.nan))


def test_state_rejects_non_finite_or_two_dimensional_modal_data(basis):
    n = basis.n_modes
    StateSnapshot(2, np.zeros(n), np.zeros((3, n)), np.zeros(n))
    for field, bad in (("v_hat", np.nan), ("y_hat", np.inf), ("y_hat", np.nan)):
        data = {"v_hat": np.zeros(n), "y_hat": np.zeros(n)}
        data[field][1] = bad
        with pytest.raises(ValueError):
            StateSnapshot(2, data["v_hat"], np.zeros((3, n)), data["y_hat"])
    # shape (n, 1) agrees with the history's and the seed's n, so only the dimension check rejects it
    with pytest.raises(ValueError):
        StateSnapshot(2, np.zeros((n, 1)), np.zeros((3, n)), np.zeros(n))
