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
term for E, two for Z, four for Q.  Each history sum is a first-order
linear recurrence per term, P_j = r P_{j-1} + inc_j with r = exp(mu dt), in
the manner of Lubich & Schaedle (2002), exact rather than approximate.
Where the increments are known in advance (product_convolution for the
control responses, the explicit volterra_trapezoid for the series check)
the recurrence runs as one chunked scan, _linear_scan: chunks of 64 steps
anchored at step 1 run their local recurrences all at once, then a carry
fix-up adds r^{i+1} times the previous chunk's last row to row i of every
later chunk, one chunk after another (Blelloch, "Prefix sums and their
applications", 1990).  The chunks depend on nothing but the step index, so
a prefix of the increments gets the bits of the full scan's first rows and
each density of a batch the bits it gets alone.  The implicit Volterra
solve (the Z table, the Volterra forward route) stays a sequential loop,
each value depending on the previous one.  Either way the cost is O(n M),
not O(n M^2).  The per-term coefficients depend only on (lambda, dt), so
solve_Z derives each kernel's first-panel record (c, mu, a_1, b_1) once and
keeps those of E, Z and Q on the table.  (a_1, b_1) are the term's gap-1
panel weights, built from moments in which no exponential grows, so any
grid gives finite weights.  product_convolution and product_weights (the
panel weights of every mode at once) read a record.  Lambda's weights are
the one dense pair the table stores: Z's alpha and the node weights
omega = alpha + beta shifted (gap_weights), formed once in solve_Z.

The module does no I/O: memlqr.experiments writes the table's samples
(kernels.csv) through its one CSV writer.
"""

from __future__ import annotations

from dataclasses import dataclass

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
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with composite trapezoid weights; T finite and positive, n_steps an integer >= 1."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, (int, np.integer)):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
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
# recursive convolution: one chunked linear scan per exponential term, O(n M)


_CHUNK = 64  # steps per _linear_scan chunk; fixed, so a row's bits depend on its step index alone


def _linear_scan(r, inc: np.ndarray) -> np.ndarray:
    """Solve P_j = r P_{j-1} + inc_j for j = 1..m in place and return inc, now P.

    inc is (m+1, ...), time first, with row 0 the start value P_0; r, real
    or complex, broadcasts against one row and must have |r| <= 1.  The
    chunks are the steps 1..64, 65..128, ...: every chunk runs its local
    recurrence at once with the others, the first from P_0 and the rest
    from zero, and then, one chunk after another, row i of a chunk gains
    r^{i+1} times the previous chunk's last row.  A row's arithmetic
    depends only on its step index, so the scan of the first k increments
    is bitwise the full scan's first k rows, and each element of a batch
    gets the bits it gets alone; up to one chunk the scan is the sequential
    loop itself.  ValueError if some |r| > 1, whose powers in the fix-up
    would grow.
    """
    r = np.asarray(r)
    if np.any(np.abs(r) > 1.0):
        raise ValueError("_linear_scan needs |r| <= 1: the carry fix-up multiplies by r^i")
    m = inc.shape[0] - 1
    if m == 0:
        return inc
    inc[1] += r * inc[0]
    for i in range(1, min(_CHUNK, m)):
        row = inc[1 + i :: _CHUNK]
        row += r * inc[i :: _CHUNK][: len(row)]
    if m > _CHUNK:
        powers = np.cumprod(np.broadcast_to(r, (_CHUNK,) + r.shape), axis=0)
        powers = powers.reshape((_CHUNK,) + (1,) * (inc.ndim - 1 - r.ndim) + r.shape)
        for start in range(1 + _CHUNK, m + 1, _CHUNK):
            chunk = inc[start : start + _CHUNK]
            chunk += powers[: len(chunk)] * inc[start - 1]
    return inc


def product_convolution(panel: np.ndarray, dt: float, density: np.ndarray) -> np.ndarray:
    """Per-mode product convolution against product_weights(panel, grid), by scans.

    panel is a first-panel record (c, mu, a_1, b_1), such as the table's
    panel_E or panel_Z; density is (m+1, ..., n), time first and mode last
    with any batch axes between, and a mode axis of 1 shares one density
    with every mode; the result is (m+1, ..., n) with row 0 zero, and each
    density of a batch gets the bits it gets alone.  A term c e^{mu t} has
    the weights alpha[g] = Re(c a_1 rho^{g-1}), beta[g] = Re(c b_1 rho^{g-1})
    with rho = e^{mu dt}, so its left and right panel sums share one carry,
    P_j = rho P_{j-1} + (c a_1) d_{j-1} + (c b_1) d_j.  Its part
    L_j = P_j - (c b_1) d_j without the newest node is the scan

        L_j = rho L_{j-1} + (rho c b_1 + c a_1) d_{j-1},   L_0 = -(c b_1) d_0,

    whose increments are written into the scan's buffer in place, one term
    at a time, and out_j is Re(c b_1) d_j summed over terms plus the sum of
    Re(L_j).  The carry decays and the coefficients are finite gap-1
    weights, even for stiff modes.  A record with no imaginary part (real
    roots, as every interval eigenvalue gives) runs in real arithmetic, on
    half the buffer.
    """
    c, mu, a1, b1 = panel if np.any(panel.imag) else panel.real
    rho = np.exp(mu * dt)
    w_right = c * b1
    w_step = rho * w_right + c * a1
    d = np.asarray(density, dtype=float)
    out = d * w_right.real.sum(axis=-1)
    L = np.empty(out.shape, dtype=w_step.dtype)
    for i in range(c.shape[-1]):
        L[0] = -w_right[:, i] * d[0]
        L[1:] = d[:-1]
        L[1:] *= w_step[:, i]
        out += _linear_scan(rho[:, i], L).real
    out[0] = 0.0
    return out


def volterra_trapezoid(lam: np.ndarray, N: np.ndarray, dt: float, x: np.ndarray,
                       F: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid memory term of a second-kind Volterra equation with kernel N.

    N is the (n, >= m+1) table of N = a e^{lam t} + b e^{-t}, a = lam/(lam+1),
    b = 1/(lam+1); x is (m+1, n), time first.  The history sum
    sum_{l=1}^{j-1} N_{j-l} x_l is a S1 + b S2 with two running sums per
    mode, S <- r (S + x_j) with r = e^{lam dt} and e^{-dt}; the endpoint
    terms read the table itself.

    With F, x[0] holds the start value and x[1:] is overwritten with the
    implicit-trapezoid solution

        x_j = (F_j + dt (N_j x_0 / 2 + sum)) / (1 - (dt/2) N_0),

    a sequential loop, since the sum needs x up to j - 1.  Without F, x is
    a given density and the explicit trapezoid convolution
    dt (N_j x_0 / 2 + N_0 x_j / 2 + sum) is returned, row 0 zero; both
    running sums are then one _linear_scan, T_j = r T_{j-1} + x_j with T_0 = 0,
    the sum before node j being S = r T_{j-1}.
    """
    m = x.shape[0] - 1
    a, b = lam / (lam + 1.0), 1.0 / (lam + 1.0)
    r1, r2 = np.exp(lam * dt), np.exp(-dt)
    head = 0.5 * np.ascontiguousarray(N[:, 1 : m + 1].T) * x[0]
    if F is None:
        T = np.zeros((m + 1, 2, x.shape[1]))
        T[1:] = x[1:, None]
        _linear_scan(np.stack([r1, np.full_like(r1, r2)]), T)
        out = np.zeros_like(x)
        out[1:] = dt * ((head + 0.5 * N[:, 0] * x[1:]) + ((a * r1) * T[:-1, 0] + (b * r2) * T[:-1, 1]))
        return out
    S1 = np.zeros(x.shape[1])
    S2 = np.zeros(x.shape[1])
    denom = 1.0 - 0.5 * dt * N[:, 0]
    for j in range(1, m + 1):
        x[j] = (F[j] + dt * (head[j - 1] + (a * S1 + b * S2))) / denom
        S1 = r1 * (S1 + x[j])
        S2 = r2 * (S2 + x[j])
    return x


# ----------------------------------------------------------------------------
# the kernel table


@dataclass(eq=False)
class KernelTable:
    """Per-mode samples of E, N, Z, Z' and Q on the grid, plus Lambda's weights.

    Arrays are n_modes x (n_steps+1), all filled by solve_Z.  Z is the
    Volterra solve and Z_exact the exact exponential sum of the same kernel;
    Q is an exact sum too.  alpha_Z and omega_Z, Z's left panel weights and
    node weights (product_weights, gap_weights), are the only dense weights
    kept; memlqr.optimal's Lambda slices them.  panel_E, panel_Z and panel_Q
    are the first-panel records (c, mu, a_1, b_1) of E, Z and Q, complex
    (4, n_modes, terms), read by product_convolution and product_weights.
    A table compares and hashes by identity, so other modules can key
    caches on it.
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
    omega_Z: np.ndarray
    panel_E: np.ndarray
    panel_Z: np.ndarray
    panel_Q: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes


def solve_Z(basis: SpectralBasis, grid: TimeGrid) -> KernelTable:
    """Tabulate the resolvent family by the implicit trapezoid Volterra solve.

    Z is solved on the grid.  Z_exact and Q are summed term by term from Z's
    (c, mu): Z = Re sum c e^{mu t} and Q = Re sum c (e^{mu t} - e^{-t}) / (mu + 1).
    Z' = (lambda + 1) Z_exact - Q, Lambda's weights alpha_Z and omega_Z and
    the first-panel records of E, Z and Q are tabulated alongside, each
    derived once here.  A grid where the implicit step coefficient
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
    alpha_Z, beta = product_weights(panel_Z, grid)
    Z_exact = np.zeros((n, M + 1))
    Q = np.zeros((n, M + 1))
    for c, mu in zip(panel_Z[0].T, panel_Z[1].T):
        e = np.exp(mu[:, None] * t)
        Z_exact += np.real(c[:, None] * e)
        Q += np.real((c / (mu + 1.0))[:, None] * (e - np.exp(-t)))
    Zp = (lam[:, None] + 1.0) * Z_exact - Q

    return KernelTable(basis, grid, E, N, Z, Z_exact, Zp, Q, alpha_Z, gap_weights(alpha_Z, beta),
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
        total += term
        errors.append(np.max(np.abs(total - Z)))
    return SeriesReport(k_max, np.array(errors))

