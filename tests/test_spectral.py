import numpy as np
import pytest
from scipy.integrate import simpson

from memlqr import build_basis


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
    # the lift of (u0, u1) has coefficients u0 d_n^0 + u1 d_n^1
    v = basis.dmap_coeffs @ np.array([1.0, 0.0])
    assert v[0] == pytest.approx(np.sqrt(2) / np.pi, rel=1e-12)
    assert np.all(basis.dmap_coeffs @ np.zeros(2) == 0.0)
    both = basis.dmap_coeffs @ np.array([1.0, 1.0])
    assert both[1] == pytest.approx(0.0, abs=1e-15)


def test_apply_AD_examples(basis):
    # A D applied to left-endpoint data is lambda_n d_n^0 = -sqrt(2) n pi
    ad = basis.ad_coeffs
    n = np.arange(1, basis.n_modes + 1)
    assert np.allclose(ad[:, 0], -np.sqrt(2) * n * np.pi, rtol=1e-12, atol=0.0)
    assert np.all(ad @ np.zeros(2) == 0.0)
    # right-endpoint input alternates in sign with the mode index
    assert np.all(np.sign(ad[:, 1]) == (-1.0) ** n)
