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
(diagonal coefficient 1 - (dt/2) N(0)); that table is the object the kernel
oracle and the series check measure.  The response of a state and the
one-panel step of the optimality system read Z and Q as their exact
exponential sums instead, tabulated once per table (Z_exact, Q).  Every
kernel-weighted convolution uses second-order product integration: the
density is interpolated piecewise-linearly and the exponential-sum kernel
is integrated exactly on each panel.  Plain trapezoid on those convolutions
loses three to four digits on the stiffest modes (|lambda| dt ~ 1), which
the product rule avoids at identical cost.

Exponential sums: the roots of mu^2 - lambda mu - lambda are distinct for
every lambda but 0 and -4, and no interval eigenvalue -(n pi)^2 is either, so
every kernel here is a list of (c, mu) pairs, k(t) = Re sum c e^{mu t}: one
term for E, two for Z, four for Q.  Each history sum is carried through the
time loop by one running sum per term, S <- r (S + x) with r = exp(mu dt), in
the manner of Lubich & Schaedle (2002), exact rather than approximate.
volterra_trapezoid (Z, the series check and the Volterra forward route) and
product_convolution (the control responses) cost O(n M) instead of
O(n M^2).  The per-term coefficients depend only on (lambda, dt), so solve_Z
derives each kernel's first-panel record (c, mu, a_1, b_1) once and keeps
those of E, Z and Q on the table.  (a_1, b_1) are the term's gap-1 panel
weights, built from moments in which no exponential grows, so any grid
gives finite weights.  product_convolution and product_weights (the panel
weights of every mode at once) read a record, and gap_weights gives the
node weights omega = alpha + beta shifted that memlqr.optimal's Lambda
uses.
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
    "Z_oracle",
    "oscillator_solution",
    "z_exponential_terms",
    "e_exponential_terms",
    "solve_Z",
    "series_Z_check",
    "product_weights",
    "gap_weights",
    "product_convolution",
    "volterra_trapezoid",
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


def _char_roots(lam: float) -> tuple[complex, complex]:
    """Roots of mu^2 - lambda mu - lambda = 0, which must be distinct."""
    disc = complex(lam * lam + 4.0 * lam)
    if disc == 0:
        raise ValueError(f"lambda = {lam} gives a double root of mu^2 - lambda mu - lambda; "
                         "the exponential-sum kernels need distinct roots (lambda not in {0, -4})")
    root = np.sqrt(disc)
    return 0.5 * (lam + root), 0.5 * (lam - root)


def _oscillator_terms(lam: float, a0: float, a1: float) -> list[tuple[complex, complex]]:
    """(c, mu) pairs of the solution of a'' = lambda(a + a'), a(0)=a0, a'(0)=a1."""
    mu1, mu2 = _char_roots(lam)
    return [((a1 - mu2 * a0) / (mu1 - mu2), mu1), ((mu1 * a0 - a1) / (mu1 - mu2), mu2)]


def oscillator_solution(lam: float, a0: float, a1: float, t) -> float | np.ndarray:
    """Exact solution of a'' = lambda(a + a'), a(0)=a0, a'(0)=a1."""
    t = np.asarray(t, dtype=float)
    (c1, mu1), (c2, mu2) = _oscillator_terms(lam, a0, a1)
    out = np.real(c1 * np.exp(mu1 * t) + c2 * np.exp(mu2 * t))
    return float(out) if out.ndim == 0 else out


def Z_oracle(basis: SpectralBasis, n: int, t) -> float | np.ndarray:
    """Machine-precision resolvent sample via the 2x2 reduction."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    lam = basis.eigenvalues[n]
    return oscillator_solution(lam, 1.0, lam + 1.0, t)


def z_exponential_terms(lam: float) -> list[tuple[complex, complex]]:
    """Z as an exponential sum: list of (coefficient, rate)."""
    return _oscillator_terms(lam, 1.0, lam + 1.0)


def e_exponential_terms(lam: float) -> list[tuple[complex, complex]]:
    return [(1.0 + 0.0j, complex(lam))]


def q_exponential_terms(lam: float) -> list[tuple[complex, complex]]:
    """Q(t) = int_0^t Z(s) exp(-(t-s)) ds as an exponential sum.

    c e^{mu t} convolved with e^{-t} is c (e^{mu t} - e^{-t}) / (mu + 1); the
    characteristic roots never hit -1 (mu^2 - lam mu - lam = 1 there).
    """
    out: list[tuple[complex, complex]] = []
    for c, mu in z_exponential_terms(lam):
        p = mu + 1.0
        out += [(c / p, mu), (-c / p, -1.0 + 0.0j)]
    return out


# ----------------------------------------------------------------------------
# product integration: exact exponential panel moments, piecewise-linear density


def _panel_moments(mu: complex, dt: float) -> tuple[complex, complex]:
    """m_k = int_0^dt s^k exp(mu (dt - s)) ds for k = 0, 1 (series for small mu dt).

    These are the moments of the panel one step before a node, so no
    exponential larger than 1 appears for a decaying term:
    m_0 = expm1(mu dt) / mu and m_1 = (m_0 - dt) / mu.
    """
    z = mu * dt
    if abs(z) < 1e-4:
        m0 = dt * (1 + z / 2 + z**2 / 6 + z**3 / 24 + z**4 / 120)
        m1 = dt**2 * (0.5 + z / 6 + z**2 / 24 + z**3 / 120 + z**4 / 720)
        return m0, m1
    m0 = np.expm1(z) / mu
    m1 = (m0 - dt) / mu
    return m0, m1


def _first_panel(kernel_terms, lam: np.ndarray, dt: float) -> np.ndarray:
    """The first-panel record of the kernels kernel_terms(lam[k]): (c, mu, a_1, b_1), complex (4, n, terms).

    A term c e^{mu t} weighs the left and right hat functions of the panel
    that starts g >= 1 steps before the row's node by c rho^{g-1} a_1 and
    c rho^{g-1} b_1, rho = e^{mu dt}: (a_1, b_1) are its gap-1 weights.
    """
    per_mode = [kernel_terms(float(l)) for l in lam]
    c = np.array([[t[0] for t in terms] for terms in per_mode])
    mu = np.array([[t[1] for t in terms] for terms in per_mode])
    m0, m1 = np.vectorize(lambda z: _panel_moments(z, dt), otypes=[complex] * 2)(mu)
    return np.array([c, mu, (dt * m0 - m1) / dt, m1 / dt])


def product_weights(panel: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode left/right panel weights for int k(t_g - s) f(s) ds with f piecewise linear.

    Row k is the kernel of the first-panel record panel (as solve_Z builds
    it).  A panel [t_p, t_{p+1}] inside a row with right endpoint t_j
    contributes f_p * alpha[k, j-p] + f_{p+1} * beta[k, j-p];
    alpha[:, 0] = beta[:, 0] = 0.
    """
    c, mu, a1, b1 = panel
    g = np.arange(grid.n_steps)
    alpha = np.zeros((c.shape[0], grid.n_steps + 1))
    beta = np.zeros_like(alpha)
    for i in range(c.shape[1]):
        fac = c[:, i, None] * np.exp(mu[:, i, None] * g * grid.dt)
        alpha[:, 1:] += np.real(fac * a1[:, i, None])
        beta[:, 1:] += np.real(fac * b1[:, i, None])
    return alpha, beta


def gap_weights(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """omega[g] = alpha[g] + beta[g+1], beta being 0 past the last column.

    The weight of the node g steps before a row's end, shared by the panels
    on both sides of it; the row's first node has alpha alone.
    """
    omega = alpha.copy()
    omega[..., :-1] += beta[..., 1:]
    return omega


# ----------------------------------------------------------------------------
# recursive convolution: one running sum per exponential term, O(n M)


def product_convolution(panel: np.ndarray, dt: float, density: np.ndarray) -> np.ndarray:
    """Per-mode product convolution against product_weights(panel, grid), by recurrences.

    panel is a first-panel record (c, mu, a_1, b_1), such as the table's
    panel_E or panel_Z; density is (m+1, n), or (m+1, 1) for one density
    shared by every mode; the result is (m+1, n) with row 0 zero.  A term
    c e^{mu t} has the weights alpha[g] = Re(c a_1 rho^{g-1}),
    beta[g] = Re(c b_1 rho^{g-1}) with rho = e^{mu dt}, so its left and
    right panel sums share one carry,

        P_j = rho P_{j-1} + (c a_1) d_{j-1} + (c b_1) d_j,

    and out_j is the sum over terms of Re(P_j).  The carry decays and both
    coefficients are finite gap-1 weights, even for stiff modes.
    """
    c, mu, a1, b1 = panel
    rho = np.exp(mu * dt)
    w_left = c * a1
    w_right = c * b1
    d = np.asarray(density, dtype=float)[:, :, None]
    P = np.zeros(c.shape, dtype=complex)
    out = np.zeros((d.shape[0], c.shape[0]))
    for j in range(1, d.shape[0]):
        P = rho * P + (w_left * d[j - 1] + w_right * d[j])
        out[j] = P.real.sum(axis=1)
    return out


def volterra_trapezoid(lam: np.ndarray, N: np.ndarray, dt: float, x: np.ndarray,
                       F: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid memory term of a second-kind Volterra equation with kernel N.

    N is the (n, >= m+1) table of N = a e^{lam t} + b e^{-t}, a = lam/(lam+1),
    b = 1/(lam+1); x is (m+1, n), time first.  The history sum
    sum_{l=1}^{j-1} N_{j-l} x_l is carried by two running sums per mode,
    S <- r (S + x_j) with r = e^{lam dt} and e^{-dt}; the endpoint terms read
    the table itself.

    With F, x[0] holds the start value and x[1:] is overwritten with the
    implicit-trapezoid solution

        x_j = (F_j + dt (N_j x_0 / 2 + sum)) / (1 - (dt/2) N_0);

    without F, x is a given density and the explicit trapezoid convolution
    dt (N_j x_0 / 2 + N_0 x_j / 2 + sum) is returned, row 0 zero.
    """
    m = x.shape[0] - 1
    a, b = lam / (lam + 1.0), 1.0 / (lam + 1.0)
    r1, r2 = np.exp(lam * dt), np.exp(-dt)
    S1 = np.zeros(x.shape[1])
    S2 = np.zeros(x.shape[1])
    head = 0.5 * N[:, 1 : m + 1].T * x[0]
    denom = 1.0 - 0.5 * dt * N[:, 0]
    out = x if F is not None else np.zeros_like(x)
    for j in range(1, m + 1):
        if F is None:
            out[j] = a * S1 + b * S2
        else:
            x[j] = (F[j] + dt * (head[j - 1] + (a * S1 + b * S2))) / denom
        S1 = r1 * (S1 + x[j])
        S2 = r2 * (S2 + x[j])
    if F is None:
        out[1:] = dt * ((head + 0.5 * N[:, 0] * x[1:]) + out[1:])
    return out


# ----------------------------------------------------------------------------
# the kernel table


@dataclass
class KernelTable:
    """Per-mode samples of E, N, Z, Z' and Q on the grid, plus product weights.

    Arrays are n_modes x (n_steps+1), all filled by solve_Z.  Z is the
    Volterra solve and Z_exact the exact exponential sum of the same kernel;
    Q is an exact sum too.  The alpha/beta pairs are the product-integration
    panel weights of the Z and Q kernels; Lambda and the one-panel step draw
    from them.  panel_E, panel_Z and panel_Q
    are the first-panel records (c, mu, a_1, b_1) of E, Z and Q, complex
    (4, n_modes, terms), that the product convolutions and the node forms'
    pairings read.  The three private fields are filled on first use by
    memlqr.optimal: the input map Lambda on [0, T]; the control-side
    Cholesky factor of each start that asked for one; and the per-node forms
    of the backward Riccati recursion that solve_optimal and the riccati
    scans read (optimal.NodeForms).  They hold arrays only, never an object
    that refers back to the table.
    """

    basis: SpectralBasis
    grid: TimeGrid
    E: np.ndarray
    N: np.ndarray
    Z: np.ndarray
    Z_exact: np.ndarray
    Zp: np.ndarray
    Q: np.ndarray
    alpha_Z: np.ndarray
    beta_Z: np.ndarray
    alpha_Q: np.ndarray
    beta_Q: np.ndarray
    panel_E: np.ndarray
    panel_Z: np.ndarray
    panel_Q: np.ndarray
    _Lambda: np.ndarray | None = field(default=None, repr=False)
    _control_chol: dict = field(default_factory=dict, repr=False)
    _node_forms: object = field(default=None, repr=False)

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes


def solve_Z(basis: SpectralBasis, grid: TimeGrid) -> KernelTable:
    """Tabulate the resolvent family by the implicit trapezoid Volterra solve.

    Z is solved on the grid.  Z_exact and Q are summed term by term from Z's
    (c, mu): Z = Re sum c e^{mu t} and Q = Re sum c (e^{mu t} - e^{-t}) / (mu + 1).
    Z' = (lambda + 1) Z - Q, the product weights of the Z and Q kernels and
    the first-panel records of E, Z and Q are tabulated alongside, each
    record derived once here.  A grid where the implicit step coefficient
    1 - (dt/2) N(0) vanishes (dt = 2 / N(0)) is rejected explicitly.  So is
    an eigenvalue in {0, -4}, where the characteristic roots coincide, and
    lambda = -1, where N and the Volterra weights divide by lambda + 1 = 0.
    """
    M = grid.n_steps
    dt = grid.dt
    t = grid.nodes
    n = basis.n_modes
    lam = basis.eigenvalues
    if np.any(lam == -1.0):
        raise ValueError("lambda = -1 makes N = E - (E - e^{-t}) / (lambda + 1) divide by zero")
    E = np.exp(np.outer(lam, t))
    N = E - (E - np.exp(-t)) / (lam[:, None] + 1.0)

    denom = 1.0 - 0.5 * dt * N[:, 0]
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("implicit step coefficient vanished; dt too large for this kernel")

    x = np.zeros((M + 1, n))
    x[0] = 1.0
    Z = np.ascontiguousarray(volterra_trapezoid(lam, N, dt, x, F=E.T).T)
    panel_E = _first_panel(e_exponential_terms, lam, dt)
    panel_Z = _first_panel(z_exponential_terms, lam, dt)
    panel_Q = _first_panel(q_exponential_terms, lam, dt)
    alpha_Z, beta_Z = product_weights(panel_Z, grid)
    alpha_Q, beta_Q = product_weights(panel_Q, grid)
    Z_exact = np.zeros((n, M + 1))
    Q = np.zeros((n, M + 1))
    for c, mu in zip(panel_Z[0].T, panel_Z[1].T):
        e = np.exp(mu[:, None] * t)
        Z_exact += np.real(c[:, None] * e)
        Q += np.real((c / (mu + 1.0))[:, None] * (e - np.exp(-t)))
    Zp = (lam[:, None] + 1.0) * Z - Q

    return KernelTable(basis, grid, E, N, Z, Z_exact, Zp, Q, alpha_Z, beta_Z, alpha_Q, beta_Q,
                       panel_E, panel_Z, panel_Q)


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
    lam, dt = table.basis.eigenvalues, table.grid.dt
    Z = table.Z.T
    term = np.ascontiguousarray(table.E.T)
    total = term.copy()
    errors = [np.max(np.abs(total - Z))]
    for _ in range(k_max):
        term = volterra_trapezoid(lam, table.N, dt, term)
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
