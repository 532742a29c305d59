"""Per-mode kernel machinery: semigroup E, memory kernel N, resolvent family Z.

The evolution after the memory reduction is driven per mode by three scalar
kernels of the elapsed time,

    E(t) = exp(lambda t)
    N(t) = E(t) - int_0^t exp(-(t-s)) E(s) ds
         = E(t) - (E(t) - exp(-t)) / (lambda + 1)
    Z(t) = E(t) + int_0^t N(t-s) Z(s) ds      (Volterra equation of 2nd kind)

plus the derived columns

    Q(t)  = int_0^t exp(-(t-s)) Z(s) ds
    Z'(t) = (lambda + 1) Z(t) - Q(t)

Z also solves the scalar 2nd-order problem z'' = lambda z' + lambda z with
z(0)=1, z'(0)=lambda+1 (the modal characteristic of the original damped wave
equation), which yields a machine-precision oracle through the roots of
mu^2 - lambda mu - lambda.

Quadrature: Z is tabulated by the plain implicit-trapezoid Volterra solve
(diagonal coefficient 1 - (dt/2) N(0)).  Every kernel-weighted convolution
downstream uses second-order product integration instead: the density is
interpolated piecewise-linearly and the exponential-sum kernel is integrated
exactly on each panel.  Plain trapezoid on those convolutions loses three to
four digits on the stiffest modes (|lambda| dt ~ 1), which the product rule
avoids at identical cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralBasis

__all__ = [
    "TimeGrid",
    "KernelTable",
    "SeriesReport",
    "eval_N",
    "Z_oracle",
    "oscillator_solution",
    "z_exponential_terms",
    "solve_Z",
    "series_Z_check",
    "product_weights",
    "conv_product",
    "weight_matrix",
    "write_kernel_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with composite trapezoid weights."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)

    @property
    def quad_weights(self) -> np.ndarray:
        return self.segment_weights(0)

    def segment_weights(self, start: int) -> np.ndarray:
        """Trapezoid weights on [t_start, T]; zero weight for the empty segment."""
        m = self.n_steps - start
        if m < 0:
            raise ValueError("segment start beyond the grid")
        if m == 0:
            return np.zeros(1)
        w = np.full(m + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


# ----------------------------------------------------------------------------
# closed-form kernels and the 2x2 oracle


def eval_N(basis: SpectralBasis, n: int, t) -> float | np.ndarray:
    """Memory kernel in closed form, E - (E - exp(-t))/(lambda + 1)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    lam = basis.eigenvalues[n]
    E = np.exp(lam * t)
    out = E - (E - np.exp(-t)) / (lam + 1.0)
    return float(out) if out.ndim == 0 else out


def _char_roots(lam: float) -> tuple[complex, complex]:
    """Roots of mu^2 - lambda mu - lambda = 0."""
    disc = complex(lam * lam + 4.0 * lam)
    root = np.sqrt(disc)
    return 0.5 * (lam + root), 0.5 * (lam - root)


_DEFECTIVE_TOL = 1e-9


def oscillator_solution(lam: float, a0: float, a1: float, t) -> float | np.ndarray:
    """Exact solution of a'' = lambda(a + a'), a(0)=a0, a'(0)=a1.

    Handles the defective double-root case lam^2 + 4 lam = 0 by the limit
    formula; no interval eigenvalue hits it, but the guard stays.
    """
    t = np.asarray(t, dtype=float)
    mu1, mu2 = _char_roots(lam)
    if abs(mu1 - mu2) < _DEFECTIVE_TOL * max(1.0, abs(lam)):
        mu = 0.5 * lam
        out = np.exp(mu * t) * (a0 + (a1 - mu * a0) * t)
        return float(out) if np.ndim(out) == 0 else np.real(out)
    c1 = (a1 - mu2 * a0) / (mu1 - mu2)
    c2 = (mu1 * a0 - a1) / (mu1 - mu2)
    out = np.real(c1 * np.exp(mu1 * t) + c2 * np.exp(mu2 * t))
    return float(out) if out.ndim == 0 else out


def Z_oracle(basis: SpectralBasis, n: int, t) -> float | np.ndarray:
    """Machine-precision resolvent sample via the 2x2 reduction."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    lam = basis.eigenvalues[n]
    return oscillator_solution(lam, 1.0, lam + 1.0, t)


def z_exponential_terms(lam: float) -> list[tuple[complex, complex, int]]:
    """Z as an exponential sum: list of (coefficient, rate, power of t)."""
    mu1, mu2 = _char_roots(lam)
    a0, a1 = 1.0, lam + 1.0
    if abs(mu1 - mu2) < _DEFECTIVE_TOL * max(1.0, abs(lam)):
        mu = complex(0.5 * lam)
        return [(complex(a0), mu, 0), (complex(a1) - mu * a0, mu, 1)]
    c1 = (a1 - mu2 * a0) / (mu1 - mu2)
    c2 = (mu1 * a0 - a1) / (mu1 - mu2)
    return [(c1, mu1, 0), (c2, mu2, 0)]


def e_exponential_terms(lam: float) -> list[tuple[complex, complex, int]]:
    return [(1.0 + 0.0j, complex(lam), 0)]


def q_exponential_terms(lam: float) -> list[tuple[complex, complex, int]]:
    """Q(t) = int_0^t Z(s) exp(-(t-s)) ds as an exponential sum.

    Convolving c t^d e^{mu t} with e^{-t} shifts nothing across mu = -1:
    the characteristic roots never hit -1 (mu^2 - lam mu - lam = 1 there).
    """
    out: list[tuple[complex, complex, int]] = []
    for c, mu, deg in z_exponential_terms(lam):
        p = mu + 1.0
        if deg == 0:
            out.append((c / p, mu, 0))
            out.append((-c / p, -1.0 + 0.0j, 0))
        else:
            out.append((c / p, mu, 1))
            out.append((-c / p**2, mu, 0))
            out.append((c / p**2, -1.0 + 0.0j, 0))
    return out


# ----------------------------------------------------------------------------
# product integration: exact exponential panel moments, piecewise-linear density


_LOG_MAX = float(np.log(np.finfo(float).max))  # largest x with exp(x) finite, ~709.78


def _panel_moments(mu: complex, dt: float) -> tuple[complex, complex, complex]:
    """m_k = int_0^dt s^k exp(-mu s) ds for k = 0, 1, 2 (series for small mu dt)."""
    z = mu * dt
    if abs(z) < 1e-4:
        m0 = dt * (1 - z / 2 + z**2 / 6 - z**3 / 24 + z**4 / 120)
        m1 = dt**2 * (0.5 - z / 3 + z**2 / 8 - z**3 / 30 + z**4 / 144)
        m2 = dt**3 * (1.0 / 3 - z / 4 + z**2 / 10 - z**3 / 36 + z**4 / 168)
        return m0, m1, m2
    em = np.exp(-z)
    m0 = (1.0 - em) / mu
    m1 = (m0 - dt * em) / mu
    m2 = (2.0 * m1 - dt * dt * em) / mu
    return m0, m1, m2


def product_weights(terms, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Left/right panel weights for int k(t_g - s) f(s) ds with f piecewise linear.

    A panel [t_p, t_{p+1}] inside a row with right endpoint t_j contributes
    f_p * alpha[j-p] + f_{p+1} * beta[j-p]; alpha[0] = beta[0] = 0.
    """
    dt = grid.dt
    M = grid.n_steps
    g = np.arange(1, M + 1)
    alpha = np.zeros(M + 1)
    beta = np.zeros(M + 1)
    for c, mu, deg in terms:
        m0, m1, m2 = _panel_moments(mu, dt)
        fac = c * np.exp(mu * g * dt)
        if deg == 0:
            a_loc = (dt * m0 - m1) / dt
            b_loc = m1 / dt
            alpha[1:] += np.real(fac * a_loc)
            beta[1:] += np.real(fac * b_loc)
        elif deg == 1:
            # kernel factor (g dt - s) alongside the hat functions
            gdt = g * dt
            a_loc = (gdt * dt * m0 - (gdt + dt) * m1 + m2) / dt
            b_loc = (gdt * m1 - m2) / dt
            alpha[1:] += np.real(fac * a_loc)
            beta[1:] += np.real(fac * b_loc)
        else:  # pragma: no cover - no kernel uses higher powers
            raise ValueError("unsupported kernel power")
    return alpha, beta


def conv_product(alpha: np.ndarray, beta: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Causal product convolution of a sampled density against tabled weights."""
    m = len(density) - 1
    out = np.zeros_like(density, dtype=float)
    for j in range(1, m + 1):
        rev = slice(j, 0, -1)
        out[j] = np.dot(density[:j], alpha[rev]) + np.dot(density[1 : j + 1], beta[rev])
    return out


def weight_matrix(alpha: np.ndarray, beta: np.ndarray, m: int) -> np.ndarray:
    """Dense (m+1)x(m+1) node-weight matrix of the causal product convolution."""
    W = np.zeros((m + 1, m + 1))
    if m == 0:
        return W
    j = np.arange(m + 1)[:, None]
    l = np.arange(m + 1)[None, :]
    gap = j - l
    left = np.where(gap >= 1, alpha[np.clip(gap, 0, len(alpha) - 1)], 0.0)
    right = np.where((gap >= 0) & (l >= 1), beta[np.clip(gap + 1, 0, len(beta) - 1)], 0.0)
    return left + right


# ----------------------------------------------------------------------------
# the kernel table


@dataclass
class KernelTable:
    """Per-mode samples of E, N, Z, Z' and Q on the grid, plus product weights.

    Arrays are n_modes x (n_steps+1), all filled by solve_Z.  The alpha/beta
    pairs are the product-integration panel weights of the Z, E and Q
    kernels; assemblies, both forward solvers and the riccati kernel
    pairings draw from these shared tables.  The two private
    fields are filled on first use by memlqr.optimal: the input map Lambda on
    [0, T] and a small cache of per-start assemblies.
    """

    basis: SpectralBasis
    grid: TimeGrid
    E: np.ndarray
    N: np.ndarray
    Z: np.ndarray
    Zp: np.ndarray
    Q: np.ndarray
    alpha_Z: np.ndarray
    beta_Z: np.ndarray
    alpha_E: np.ndarray
    beta_E: np.ndarray
    alpha_Q: np.ndarray
    beta_Q: np.ndarray
    _Lambda: np.ndarray | None = field(default=None, repr=False)
    _assembly_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes


def solve_Z(basis: SpectralBasis, grid: TimeGrid) -> KernelTable:
    """Tabulate the resolvent family by the implicit trapezoid Volterra solve.

    Z is solved on the grid; Z' = (lambda + 1) Z - Q and the product weights
    of the Z, E and Q kernels are tabulated alongside.  Two grids are
    rejected explicitly: one where the implicit step coefficient
    1 - (dt/2) N(0) vanishes (dt = 2 / N(0)), and one where a mode has
    |lambda| dt > log(DBL_MAX), so that exp(-mu dt) in the panel moments
    would overflow into NaN product weights.
    """
    M = grid.n_steps
    dt = grid.dt
    t = grid.nodes
    n = basis.n_modes
    E = np.exp(np.outer(basis.eigenvalues, t))
    N = np.stack([eval_N(basis, k, t) for k in range(n)])

    denom = 1.0 - 0.5 * dt * N[:, 0]
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("implicit step coefficient vanished; dt too large for this kernel")
    stiff = np.abs(basis.eigenvalues) * dt
    if np.any(stiff > _LOG_MAX):
        k = int(np.argmax(stiff > _LOG_MAX))
        raise ValueError(f"mode {k + 1} has |lambda| dt = {stiff[k]:.1f} > log(DBL_MAX) = {_LOG_MAX:.2f}; "
                         "its panel moments would overflow (refine the grid or use fewer modes)")

    Z = np.zeros_like(E)
    Z[:, 0] = 1.0
    for j in range(1, M + 1):
        s = 0.5 * N[:, j] * Z[:, 0]
        if j > 1:
            s = s + np.einsum("kl,kl->k", N[:, j - 1 : 0 : -1], Z[:, 1:j])
        Z[:, j] = (E[:, j] + dt * s) / denom

    alpha_Z = np.zeros((n, M + 1))
    beta_Z = np.zeros((n, M + 1))
    alpha_E = np.zeros((n, M + 1))
    beta_E = np.zeros((n, M + 1))
    alpha_Q = np.zeros((n, M + 1))
    beta_Q = np.zeros((n, M + 1))
    for k in range(n):
        lam = basis.eigenvalues[k]
        alpha_Z[k], beta_Z[k] = product_weights(z_exponential_terms(lam), grid)
        alpha_E[k], beta_E[k] = product_weights(e_exponential_terms(lam), grid)
        alpha_Q[k], beta_Q[k] = product_weights(q_exponential_terms(lam), grid)

    chi = np.exp(-t)
    Q = np.stack([conv_product(alpha_Z[k], beta_Z[k], chi) for k in range(n)])
    Zp = (basis.eigenvalues[:, None] + 1.0) * Z - Q

    return KernelTable(basis, grid, E, N, Z, Zp, Q,
                       alpha_Z, beta_Z, alpha_E, beta_E, alpha_Q, beta_Q)


@dataclass(frozen=True)
class SeriesReport:
    """Errors of the iterated-convolution partial sums against the solved Z."""

    k_max: int
    errors: np.ndarray  # max |partial sum - Z| after adding term k, k = 0..k_max

    @property
    def final_error(self) -> float:
        return float(self.errors[-1])


def series_Z_check(table: KernelTable, k_max: int) -> SeriesReport:
    """Partial sums of Z = sum_k N^(*k) * E against the Volterra solve.

    The iterated convolutions reuse the implicit solve's own trapezoid
    weights, so the partial sums converge to the discrete solution itself
    and the error floor is set by arithmetic, not by the grid.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    dt = table.grid.dt
    N, Z = table.N, table.Z
    term = table.E.copy()
    total = term.copy()
    errors = [np.max(np.abs(total - Z))]
    M = table.grid.n_steps
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
    return SeriesReport(k_max, np.array(errors))


def write_kernel_csv(table: KernelTable, path) -> None:
    """Dump the kernel samples (columns: mode, t, E, N, Z, Zp, Q)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mode", "t", "E", "N", "Z", "Zp", "Q"])
        for k in range(table.n_modes):
            for j, t in enumerate(table.grid.nodes):
                w.writerow([k + 1, f"{t:.12e}"] + [
                    f"{arr[k, j]:.12e}" for arr in (table.E, table.N, table.Z, table.Zp, table.Q)
                ])
