import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from memlqr import (
    SpectralBasis,
    TimeGrid,
    Z_oracle,
    build_basis,
    series_Z_check,
    solve_Z,
)
from memlqr import experiments, kernels
from memlqr.config import load_config
from memlqr.kernels import (
    _first_panel,
    _panel_moments,
    e_exponential_terms,
    gap_weights,
    oscillator_solution,
    product_weights,
    q_exponential_terms,
    z_exponential_terms,
)
from test_recurrences import conv_product, weight_matrix


@pytest.fixture(scope="module")
def basis():
    return build_basis(6)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(0.5, 64)


@pytest.fixture(scope="module")
def table(basis, grid):
    return solve_Z(basis, grid)


@pytest.fixture(scope="module")
def unit_table(basis):
    # nodes 0, 0.1, ..., 1.0 for the closed-form checks of N
    return solve_Z(basis, TimeGrid(1.0, 10))


# ----------------------------------------------------------------------------
# grid


def test_grid_weights_sum_to_T(grid):
    assert grid.segment_weights(0).sum() == pytest.approx(grid.t_final, rel=1e-14)
    assert grid.segment_weights(16).sum() == pytest.approx(grid.t_final - 16 * grid.dt, rel=1e-13)
    assert np.all(grid.segment_weights(grid.n_steps) == 0.0)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


# ----------------------------------------------------------------------------
# E and N


def test_N_at_zero_is_one(table, basis):
    for k in range(basis.n_modes):
        assert table.N[k, 0] == pytest.approx(1.0, rel=1e-14)


def test_N_closed_form_value(unit_table):
    # E(1) - (E(1) - exp(-1))/(lam + 1), the value of the defining integral
    # formula (the quadrature test below pins the sign)
    lam = -np.pi**2
    expected = np.exp(lam) - (np.exp(lam) - np.exp(-1.0)) / (lam + 1.0)
    assert unit_table.N[0, 10] == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(-0.04142, abs=5e-6)


def test_N_closed_form_matches_quadrature(unit_table, basis):
    # N(t) = E(t) - int_0^t exp(-(t-s)) E(s) ds, fine Simpson reference
    for k, j in [(0, 10), (3, 3), (5, 7)]:
        lam, t = basis.eigenvalues[k], unit_table.grid.nodes[j]
        s = np.linspace(0.0, t, 10_001)
        integral = simpson(np.exp(-(t - s)) * np.exp(lam * s), x=s)
        assert abs(unit_table.N[k, j] - (np.exp(lam * t) - integral)) < 1e-10


# ----------------------------------------------------------------------------
# product-integration weights


def e_weights(lam, grid):
    """The panel weights of the one-mode kernel exp(lam t), as (1, M+1) alpha and beta."""
    return product_weights(_first_panel(e_exponential_terms, np.array([lam]), grid.dt), grid)


def test_panel_moments_against_quadrature():
    grid = TimeGrid(0.4, 20)
    lam = -30.0
    (alpha,), (beta,) = e_weights(lam, grid)
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
        (alpha,), (beta,) = e_weights(lam, grid)
        t = grid.nodes
        f = np.sin(3 * t) + 0.5 * t
        approx = conv_product(alpha, beta, f)
        s = np.linspace(0, grid.t_final, 40_001)
        ref = simpson(np.exp(lam * (grid.t_final - s)) * (np.sin(3 * s) + 0.5 * s), x=s)
        errs.append(abs(approx[-1] - ref))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.2)


def test_weight_matrix_matches_convolution():
    grid = TimeGrid(0.3, 12)
    (alpha,), (beta,) = e_weights(-5.0, grid)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.n_steps + 1)
    W = weight_matrix(alpha, beta, grid.n_steps)
    assert np.allclose(W @ f, conv_product(alpha, beta, f), atol=1e-14)
    # causality: strictly no dependence on the future
    assert np.all(np.triu(W, 1) == 0.0)
    assert np.all(W[0] == 0.0)


def reference_product_weights(terms, grid):
    """One mode's panel weights by the per-term scalar loop that solve_Z's vectorized form replaced.

    A term's weights at gap g >= 1 are c e^{mu (g-1) dt} times its gap-1 weights.
    """
    dt = grid.dt
    g = np.arange(1, grid.n_steps + 1)
    alpha = np.zeros(grid.n_steps + 1)
    beta = np.zeros(grid.n_steps + 1)
    for c, mu in terms:
        m0, m1 = _panel_moments(mu, dt)
        fac = c * np.exp(mu * (g - 1) * dt)
        alpha[1:] += np.real(fac * ((dt * m0 - m1) / dt))
        beta[1:] += np.real(fac * (m1 / dt))
    return alpha, beta


def assert_weights_match_reference(table):
    # the same scalar arithmetic in the same order, so equal to the last bit
    for k, lam in enumerate(table.basis.eigenvalues):
        for terms, alpha, beta in ((z_exponential_terms, table.alpha_Z, table.beta_Z),
                                   (q_exponential_terms, table.alpha_Q, table.beta_Q)):
            ref_alpha, ref_beta = reference_product_weights(terms(lam), table.grid)
            assert np.array_equal(alpha[k], ref_alpha)
            assert np.array_equal(beta[k], ref_beta)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(2, 64), st.floats(0.1, 2.0))
def test_product_weights_match_the_scalar_loop(n, M, T):
    assert_weights_match_reference(solve_Z(build_basis(n), TimeGrid(T, M)))


def test_product_weights_match_the_scalar_loop_on_the_stiff_grid():
    # mode 191 has |lambda| dt = 703.2
    assert_weights_match_reference(solve_Z(build_basis(191), TimeGrid(0.5, 256)))


@pytest.mark.parametrize("mu, dt", [(-1.0, 1 / 512), (-9.0, 1 / 512), (-30.0, 0.02), (-5000.0, 1 / 512),
                                    (-0.04, 1 / 512)])
def test_panel_moments_match_quad(mu, dt):
    # m_k = int_0^dt s^k e^{mu (dt - s)} ds, the last case on the series branch;
    # e^{mu dt} times moments formed with e^{-mu dt} lose m_1 to 7.8e-12 at mu = -1
    for k, m in enumerate(_panel_moments(complex(mu), dt)):
        ref = quad(lambda s: s**k * np.exp(mu * (dt - s)), 0.0, dt, epsabs=0.0, epsrel=1e-13)[0]
        assert m.imag == 0.0
        assert abs(m.real - ref) <= 1e-13 * abs(ref)


def test_gap_weights_are_the_interior_columns_of_the_weight_matrix():
    # column l >= 1 of a mode's dense weight matrix holds omega[g] at row l + g,
    # and column 0 holds alpha: the same sums, so equal to the last bit
    table = solve_Z(build_basis(191), TimeGrid(0.5, 256))
    M = table.grid.n_steps
    for alpha, beta in ((table.alpha_Z, table.beta_Z), (table.alpha_Q, table.beta_Q)):
        omega = gap_weights(alpha, beta)
        for k in range(table.n_modes):
            W = weight_matrix(alpha[k], beta[k], M)
            assert np.array_equal(W[:, 0], alpha[k])
            for l in range(1, M + 1):
                assert np.array_equal(W[l:, l], omega[k, : M + 1 - l])


def test_first_panel_runs_three_times_per_table_and_nowhere_else(monkeypatch, tmp_path):
    # the E, Z and Q records are derived once in solve_Z; every product
    # convolution of the suites reads the table's records
    callers, tables = [], []
    first_panel, solve = kernels._first_panel, experiments.solve_Z

    def counting_panel(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return first_panel(*args)

    def counting_solve(*args):
        tables.append(solve(*args))
        return tables[-1]

    monkeypatch.setattr(kernels, "_first_panel", counting_panel)
    monkeypatch.setattr(experiments, "solve_Z", counting_solve)
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "quick.ini"))
    experiments.run_suite("all", cfg, str(tmp_path), tol_scale=50.0)
    assert len(tables) == 2  # the configured grid and the kernels suite's coarse one
    assert callers == ["solve_Z"] * (3 * len(tables))


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


def test_double_root_lambdas_are_rejected():
    # mu^2 - lam mu - lam has a double root at lam = -4 and at lam = 0; no
    # interval eigenvalue is either, and the exponential sums need two roots
    for lam in (-4.0, 0.0):
        basis = SpectralBasis(1, np.array([lam]), np.ones((1, 2)))
        with pytest.raises(ValueError, match="double root"):
            oscillator_solution(lam, 1.0, lam + 1.0, 0.2)
        with pytest.raises(ValueError, match="double root"):
            z_exponential_terms(lam)
        with pytest.raises(ValueError, match="double root"):
            solve_Z(basis, TimeGrid(0.5, 8))


def test_z_terms_reproduce_oracle(basis):
    t = np.linspace(0, 0.5, 11)
    for k in range(basis.n_modes):
        lam = basis.eigenvalues[k]
        terms = z_exponential_terms(lam)
        vals = sum(np.real(c * np.exp(mu * t)) for c, mu in terms)
        assert np.allclose(vals, Z_oracle(basis, k, t), atol=1e-12)


def test_exact_sums_match_the_oracle(table, basis):
    # Z_exact is Z's exponential sum on the grid, and Q = int_0^t e^{-(t-s)} Z(s) ds
    t = table.grid.nodes
    for k in range(basis.n_modes):
        assert np.max(np.abs(table.Z_exact[k] - Z_oracle(basis, k, t))) <= 1e-13
    for k, j in [(0, 64), (3, 5), (5, 32)]:
        ref = quad(lambda s: np.exp(-(t[j] - s)) * Z_oracle(basis, k, s), 0.0, t[j], epsabs=1e-15, epsrel=1e-13)[0]
        assert abs(table.Q[k, j] - ref) <= 1e-13
    assert np.all(table.Q[:, 0] == 0.0)


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


def test_solve_Z_rejects_eigenvalue_minus_one():
    # N = E - (E - e^{-t}) / (lambda + 1) and the Volterra weights divide by
    # lambda + 1; the table must raise, not fill N, Z and Zp with NaN
    basis = SpectralBasis(1, np.array([-1.0]), np.ones((1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lambda = -1"):
            solve_Z(basis, TimeGrid(0.5, 8))


def test_solve_Z_stays_finite_past_log_dbl_max():
    # T = 0.5, M = 256: mode 192 has |lambda| dt = 710.6 > log(DBL_MAX), so
    # e^{-mu dt} would overflow; the panel moments form no growing exponential,
    # so every array of the table is finite and the grid needs no guard
    table = solve_Z(build_basis(192), TimeGrid(0.5, 256))
    assert np.max(np.abs(table.basis.eigenvalues)) * table.grid.dt == pytest.approx(710.6, abs=0.1)
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
        dz = sum(np.real(c * mu * np.exp(mu * t)) for c, mu in terms)
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
