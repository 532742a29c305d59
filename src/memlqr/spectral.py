"""Modal representation of the Dirichlet Laplacian on (0,1) and its boundary maps.

Mode n (1-based) has eigenfunction sqrt(2) sin(n pi x) and eigenvalue
lambda_n = -(n pi)^2.  Boundary data u = (u0, u1) at x=0 and x=1 is lifted by
the Dirichlet map D (harmonic extension), whose modal coefficients are known
in closed form on the interval:

    (D(1,0))_n = int_0^1 (1-x) sqrt(2) sin(n pi x) dx = sqrt(2)/(n pi)
    (D(0,1))_n = int_0^1   x   sqrt(2) sin(n pi x) dx = sqrt(2)(-1)^(n+1)/(n pi)

Every operator downstream is diagonal or modal against this basis, so the
whole artifact reduces to per-mode scalar work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralBasis",
    "ModalVector",
    "build_basis",
]


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of the 1-D Dirichlet Laplacian plus Dirichlet-map modal data.

    eigenvalues[k] = -(k+1)^2 pi^2 (strictly negative, decreasing).
    dmap_coeffs[k] = (d_n^0, d_n^1) for mode n = k+1.
    ad_coeffs[k] = lambda_n (d_n^0, d_n^1), the modal matrix of A D.
    """

    n_modes: int
    eigenvalues: np.ndarray
    dmap_coeffs: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.eigenvalues.shape != (self.n_modes,):
            raise ValueError("eigenvalues shape mismatch")
        if self.dmap_coeffs.shape != (self.n_modes, 2):
            raise ValueError("dmap_coeffs shape mismatch")

    @property
    def ad_coeffs(self) -> np.ndarray:
        """(n_modes, 2) coefficients of A D: column c is A D applied to unit data c."""
        return self.eigenvalues[:, None] * self.dmap_coeffs


@dataclass
class ModalVector:
    """Truncated eigencoefficients of an H-valued element."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1:
            raise ValueError("ModalVector coefficients must be one dimensional")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("ModalVector coefficients must be finite")

    def copy(self) -> "ModalVector":
        return ModalVector(self.coeffs.copy())


def build_basis(n_modes: int) -> SpectralBasis:
    """Construct the interval basis with analytic eigenvalues and lift coefficients."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    n = np.arange(1, n_modes + 1)
    eigenvalues = -((n * np.pi) ** 2)
    d0 = np.sqrt(2.0) / (n * np.pi)
    d1 = d0 * (-1.0) ** (n + 1)
    return SpectralBasis(n_modes, eigenvalues, np.stack([d0, d1], axis=1))

