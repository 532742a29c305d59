import dataclasses

import numpy as np
import pytest
from scipy.integrate import simpson

from memlqr import (
    TimeGrid,
    Z_oracle,
    build_basis,
    eval_N,
    series_Z_check,
    solve_Z,
)
from memlqr.kernels import (
    conv_product,
    oscillator_solution,
    product_weights,
    weight_matrix,
    z_exponential_terms,
)


@pytest.fixture(scope="module")
def basis():
    return build_basis(6)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(0.5, 64)


@pytest.fixture(scope="module")
def table(basis, grid):
    return solve_Z(basis, grid)


# ----------------------------------------------------------------------------
# grid


def test_grid_weights_sum_to_T(grid):
    assert grid.quad_weights.sum() == pytest.approx(grid.t_final, rel=1e-14)
    assert grid.segment_weights(16).sum() == pytest.approx(grid.t_final - 16 * grid.dt, rel=1e-13)
    assert np.all(grid.segment_weights(grid.n_steps) == 0.0)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


# ----------------------------------------------------------------------------
# E and N


def test_N_at_zero_is_one(basis):
    for k in range(basis.n_modes):
        assert eval_N(basis, k, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_N_closed_form_value(basis):
    # E(1) - (E(1) - exp(-1))/(lam + 1), the value of the defining integral
    # formula (the quadrature test below pins the sign)
    lam = -np.pi**2
    expected = np.exp(lam) - (np.exp(lam) - np.exp(-1.0)) / (lam + 1.0)
    assert eval_N(basis, 0, 1.0) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(-0.04142, abs=5e-6)
    with pytest.raises(ValueError):
        eval_N(basis, 0, -1.0)


def test_N_closed_form_matches_quadrature(basis):
    # N(t) = E(t) - int_0^t exp(-(t-s)) E(s) ds, fine Simpson reference
    for k, t in [(0, 1.0), (3, 0.3), (5, 0.7)]:
        lam = basis.eigenvalues[k]
        s = np.linspace(0.0, t, 10_001)
        integral = simpson(np.exp(-(t - s)) * np.exp(lam * s), x=s)
        assert abs(eval_N(basis, k, t) - (np.exp(lam * t) - integral)) < 1e-10


# ----------------------------------------------------------------------------
# product-integration weights


def test_panel_moments_against_quadrature():
    grid = TimeGrid(0.4, 20)
    lam = -30.0
    alpha, beta = product_weights([(1.0 + 0j, complex(lam), 0)], grid)
    dt = grid.dt
    for g in (1, 2, 5):
        s = np.linspace(0.0, dt, 20_001)
        ref_a = simpson(np.exp(lam * (g * dt - s)) * (dt - s), x=s) / dt
        ref_b = simpson(np.exp(lam * (g * dt - s)) * s, x=s) / dt
        assert alpha[g] == pytest.approx(ref_a, rel=1e-10)
        assert beta[g] == pytest.approx(ref_b, rel=1e-10)


def test_product_convolution_is_second_order():
    # kernel exp(lam t) against a smooth density, refined reference
    lam = -200.0
    errs = []
    for M in (32, 64):
        grid = TimeGrid(0.5, M)
        alpha, beta = product_weights([(1.0 + 0j, complex(lam), 0)], grid)
        t = grid.nodes
        f = np.sin(3 * t) + 0.5 * t
        approx = conv_product(alpha, beta, f)
        s = np.linspace(0, grid.t_final, 40_001)
        ref = simpson(np.exp(lam * (grid.t_final - s)) * (np.sin(3 * s) + 0.5 * s), x=s)
        errs.append(abs(approx[-1] - ref))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.2)


def test_weight_matrix_matches_convolution():
    grid = TimeGrid(0.3, 12)
    alpha, beta = product_weights([(1.0 + 0j, -5.0 + 0j, 0)], grid)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.n_steps + 1)
    W = weight_matrix(alpha, beta, grid.n_steps)
    assert np.allclose(W @ f, conv_product(alpha, beta, f), atol=1e-14)
    # causality: strictly no dependence on the future
    assert np.all(np.triu(W, 1) == 0.0)
    assert np.all(W[0] == 0.0)


# ----------------------------------------------------------------------------
# the 2x2 oracle


def test_oracle_initial_values(basis):
    for k in range(basis.n_modes):
        assert Z_oracle(basis, k, 0.0) == pytest.approx(1.0)


def test_oracle_small_time_expansion(basis):
    # Z(t) = 1 + (lam+1) t + O(t^2)
    for k in (0, 3, 5):
        lam = basis.eigenvalues[k]
        h = 1e-6
        val = Z_oracle(basis, k, h)
        assert val == pytest.approx(1.0 + (lam + 1.0) * h, abs=5e-7 * max(1.0, lam**2 * h**2 / 2 / 5e-7))


def test_oracle_defective_guard():
    # lam = -4 is the double root of mu^2 - lam mu - lam; limit formula
    val = oscillator_solution(-4.0, 1.0, -3.0, 0.2)
    h = 1e-7
    near = oscillator_solution(-4.0 + h, 1.0, -3.0 + h, 0.2)
    assert val == pytest.approx(near, rel=1e-5)


def test_z_terms_reproduce_oracle(basis):
    t = np.linspace(0, 0.5, 11)
    for k in range(basis.n_modes):
        lam = basis.eigenvalues[k]
        terms = z_exponential_terms(lam)
        vals = sum(np.real(c * t**d * np.exp(mu * t)) for c, mu, d in terms)
        assert np.allclose(vals, Z_oracle(basis, k, t), atol=1e-12)


# ----------------------------------------------------------------------------
# the Volterra solve


def test_solve_Z_initial_column(table):
    assert np.all(table.Z[:, 0] == 1.0)
    assert np.all(table.E[:, 0] == 1.0)
    assert np.all(np.abs(table.N[:, 0] - 1.0) < 1e-14)


def test_solve_Z_matches_oracle_second_order(basis):
    errs = {}
    for M in (32, 64, 128):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        zex = np.array([Z_oracle(basis, k, grid.nodes) for k in range(basis.n_modes)])
        errs[M] = np.max(np.abs(table.Z - zex))
    assert errs[128] < 2e-6
    assert 3.0 < errs[32] / errs[64] < 5.0
    assert 3.0 < errs[64] / errs[128] < 5.0


def test_solve_Z_rejects_vanishing_diagonal(basis):
    grid = TimeGrid(4.0, 2)  # dt = 2 makes 1 - (dt/2) N(0) = 0
    with pytest.raises(ValueError, match="implicit"):
        solve_Z(basis, grid)


def test_solve_Z_rejects_overflowing_panel_moments():
    # T = 0.5, M = 256: mode 192 has |lambda| dt = 710.6 > log(DBL_MAX), where
    # exp(-mu dt) overflows; mode 191 (703.2) still builds finite weights
    grid = TimeGrid(0.5, 256)
    with pytest.raises(ValueError, match=r"mode 192 has \|lambda\| dt = 710\.6"):
        solve_Z(build_basis(192), grid)
    table = solve_Z(build_basis(191), grid)
    for f in dataclasses.fields(table):
        value = getattr(table, f.name)
        if isinstance(value, np.ndarray):
            assert np.all(np.isfinite(value)), f.name


def test_Z_prime_initial_value(table, basis):
    assert np.allclose(table.Zp[:, 0], basis.eigenvalues + 1.0, atol=1e-12)


def test_Z_prime_matches_finite_differences(basis):
    # centered differences of the solved Z on interior nodes past the stiff
    # initial layer (the quotient is meaningless inside it), scaled by the
    # local derivative magnitude; clean second order there
    errs = {}
    for M in (64, 128):
        grid = TimeGrid(0.5, M)
        table = solve_Z(basis, grid)
        fd = (table.Z[:, 2:] - table.Z[:, :-2]) / (2 * grid.dt)
        dev = np.abs(fd - table.Zp[:, 1:-1]) / (1.0 + np.abs(table.Zp[:, 1:-1]))
        t_int = grid.nodes[1:-1]
        errs[M] = np.max(dev[:, t_int >= 0.1])
    assert errs[128] < 2.5e-3
    assert 3.4 < errs[64] / errs[128] < 4.6


def test_Z_prime_matches_analytic_derivative(basis):
    # derivative of the exponential-sum closed form, all nodes and modes
    grid = TimeGrid(0.5, 128)
    table = solve_Z(basis, grid)
    t = grid.nodes
    for k in range(basis.n_modes):
        terms = z_exponential_terms(basis.eigenvalues[k])
        dz = sum(
            np.real(c * (mu * t**d + (d * t ** (d - 1) if d else 0.0)) * np.exp(mu * t))
            for c, mu, d in terms
        )
        scale = 1.0 + np.abs(dz)
        assert np.max(np.abs(table.Zp[k] - dz) / scale) < 1e-3


def test_Z_commutes_with_A(table, basis):
    # diagonal by construction: Z(t) A v = A Z(t) v exactly
    rng = np.random.default_rng(5)
    v = rng.standard_normal(basis.n_modes)
    j = 17
    zav = table.Z[:, j] * (basis.eigenvalues * v)
    azv = basis.eigenvalues * (table.Z[:, j] * v)
    assert np.allclose(zav, azv, rtol=1e-14, atol=0.0)


# ----------------------------------------------------------------------------
# series representation


def test_series_zeroth_partial_sum(table):
    rep = series_Z_check(table, 0)
    assert rep.errors[0] == pytest.approx(np.max(np.abs(table.E - table.Z)), rel=1e-12)


def test_series_errors_decrease(table):
    rep = series_Z_check(table, 10)
    # monotone decrease until the arithmetic floor
    big = rep.errors[rep.errors > 1e-14]
    assert np.all(np.diff(big) < 0)


def test_series_reaches_target(table):
    rep = series_Z_check(table, 12)
    assert rep.final_error <= 1e-6


def test_series_rejects_negative_kmax(table):
    with pytest.raises(ValueError):
        series_Z_check(table, -1)
