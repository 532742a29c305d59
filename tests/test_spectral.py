import numpy as np
import pytest
from scipy.integrate import simpson

from memlqr import (
    BoundaryVector,
    ModalVector,
    adjoint_AD,
    apply_AD,
    build_basis,
    dirichlet_map,
)


@pytest.fixture(scope="module")
def basis():
    return build_basis(8)


def test_build_basis_rejects_zero_modes():
    with pytest.raises(ValueError):
        build_basis(0)


def test_first_eigenvalue(basis):
    assert basis.eigenvalues[0] == pytest.approx(-np.pi**2, rel=1e-14)


def test_eigenvalues_strictly_decreasing(basis):
    assert np.all(np.diff(basis.eigenvalues) < 0)
    assert np.all(basis.eigenvalues < 0)


def test_dmap_mode2_analytic(basis):
    expected = np.sqrt(2) / (2 * np.pi)
    assert basis.dmap_coeffs[1, 0] == pytest.approx(expected, rel=1e-14)
    assert basis.dmap_coeffs[1, 1] == pytest.approx(-expected, rel=1e-14)


def test_dmap_even_modes_cancel(basis):
    sums = basis.dmap_coeffs[:, 0] + basis.dmap_coeffs[:, 1]
    assert np.all(np.abs(sums[1::2]) < 1e-15)


def test_dmap_coeffs_match_quadrature(basis):
    # composite Simpson on 10^4 panels of the defining integrals
    x = np.linspace(0.0, 1.0, 10_001)
    for k in range(basis.n_modes):
        n = k + 1
        phi = np.sqrt(2) * np.sin(n * np.pi * x)
        d0 = simpson((1 - x) * phi, x=x)
        d1 = simpson(x * phi, x=x)
        assert abs(d0 - basis.dmap_coeffs[k, 0]) < 1e-10
        assert abs(d1 - basis.dmap_coeffs[k, 1]) < 1e-10


def test_dirichlet_map_examples(basis):
    v = dirichlet_map(BoundaryVector(1.0, 0.0), basis)
    assert v.coeffs[0] == pytest.approx(np.sqrt(2) / np.pi, rel=1e-12)
    z = dirichlet_map((0.0, 0.0), basis)
    assert np.all(z.coeffs == 0.0)
    both = dirichlet_map((1.0, 1.0), basis)
    assert both.coeffs[1] == pytest.approx(0.0, abs=1e-15)


def test_apply_AD_examples(basis):
    v = apply_AD((1.0, 0.0), basis)
    assert v.coeffs[0] == pytest.approx(-np.sqrt(2) * np.pi, rel=1e-12)
    assert np.all(apply_AD((0.0, 0.0), basis).coeffs == 0.0)
    # right-endpoint input alternates in sign with the mode index
    w = apply_AD((0.0, 1.0), basis).coeffs
    n = np.arange(1, basis.n_modes + 1)
    assert np.all(np.sign(w) == (-1.0) ** n)


def test_adjoint_identity_random_pairs(basis):
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = rng.standard_normal(2)
        p = ModalVector(rng.standard_normal(basis.n_modes))
        lhs = float(np.dot(apply_AD(u, basis).coeffs, p.coeffs))
        rhs = float(np.dot(u, adjoint_AD(p, basis).as_array()))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_adjoint_AD_zero(basis):
    out = adjoint_AD(ModalVector(np.zeros(basis.n_modes)), basis)
    assert out.u0 == 0.0 and out.u1 == 0.0
