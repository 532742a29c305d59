"""Forward solvers for the controlled memory equation and the damped wave equation.

A state at a grid node tau = t_i is the triple (v_hat, xi, y_hat): present
value, history on [0, tau], forcing seed.  Histories are stored in forward
time, xi[r] ~ v(t_r); the reversed argument that appears in the evolution
formulas is applied inside the integrands, so the weighted history integral
reads

    I_xi = int_0^tau exp(-(tau - r)) xi(r) dr.

Two independent routes compute the same trajectory on [tau, T]:

  solve_volterra  -- implicit trapezoid on the second-kind Volterra equation
                     driven by the semigroup kernel E and memory kernel N;
  solve_voc       -- direct evaluation of the resolvent-family variation of
                     constants formula (no implicit solve).

simulate_damped_wave integrates the original second-order equation, all
modes at once (lifted by the Dirichlet map, Crank-Nicolson), and is the
transformation cross-check for both.

Every history sum is carried by the exact exponential recurrences of
memlqr.kernels, so each route costs O(n M) per trajectory: the control
responses of both routes are product_convolution's chunked scans on the
table's first-panel records, and the Volterra route's memory term is
volterra_trapezoid's implicit solve, a 2x2 block_scan per mode, as is the
Crank-Nicolson wave.  The routes are causal: extend_state solves only the
steps it keeps, and the values it keeps are those of the full solve, bit
for bit, because the scans' chunks are anchored at the first step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import KernelTable, TimeGrid, block_scan, product_convolution, volterra_trapezoid
from .spectral import SpectralBasis

__all__ = [
    "StateSnapshot",
    "ControlSignal",
    "Trajectory",
    "SmoothControl",
    "hat_y_from_initial",
    "memory_functional",
    "state_coordinates",
    "response_field",
    "segment_samples",
    "control_field",
    "solve_volterra",
    "solve_voc",
    "simulate_damped_wave",
    "extend_state",
]


_COMPAT_TOL = 1e-8  # relative tolerance of the compatibility xi(tau) = v_hat


@dataclass
class StateSnapshot:
    """State (v_hat, xi, y_hat) anchored at grid node tau_index.

    v_hat and y_hat are the (n,) modal coefficients of the present value and
    the forcing seed (a dual-space object); xi holds exactly tau_index+1
    forward-time samples, (tau_index+1, n).  Every entry must be finite.  For
    states produced by propagation xi[-1] equals v_hat (compatibility).
    """

    tau_index: int
    v_hat: np.ndarray
    xi: np.ndarray
    y_hat: np.ndarray

    def __post_init__(self):
        self.v_hat = np.asarray(self.v_hat, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        self.y_hat = np.asarray(self.y_hat, dtype=float)
        if self.v_hat.ndim != 1:
            raise ValueError("v_hat must be one dimensional")
        n = self.v_hat.shape[0]
        if self.xi.shape != (self.tau_index + 1, n):
            raise ValueError("history must hold tau_index+1 samples per mode")
        if self.y_hat.shape != (n,):
            raise ValueError("y_hat dimension mismatch")
        if not all(np.all(np.isfinite(a)) for a in (self.v_hat, self.xi, self.y_hat)):
            raise ValueError("state entries must be finite")

    @property
    def n_modes(self) -> int:
        return self.v_hat.shape[0]

    @classmethod
    def initial(cls, v_hat, y_hat) -> "StateSnapshot":
        """State at tau = 0; the history degenerates to the present value."""
        v = np.asarray(v_hat, dtype=float)
        return cls(0, v.copy(), v[None, :].copy(), y_hat)

    def is_compatible(self) -> bool:
        """xi[-1] = v_hat to _COMPAT_TOL relative to 1 + max |v_hat|."""
        scale = 1.0 + float(np.max(np.abs(self.v_hat)))
        return bool(np.max(np.abs(self.xi[-1] - self.v_hat)) <= _COMPAT_TOL * scale)


@dataclass
class ControlSignal:
    """Boundary control samples on the grid segment [t_start, T]."""

    start: int
    samples: np.ndarray  # (m+1, 2)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise ValueError("control samples must be (m+1, 2)")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("control samples must be finite")

    @classmethod
    def zeros(cls, grid: TimeGrid, start: int = 0) -> "ControlSignal":
        return cls(start, np.zeros((grid.n_steps - start + 1, 2)))


@dataclass
class Trajectory:
    """H-valued field on [t_start, T], one modal coefficient row per node."""

    start: int
    values: np.ndarray  # (m+1, n)


@dataclass(frozen=True)
class SmoothControl:
    """Control given analytically; du/ddu unlock the wave-equation check."""

    u: Callable[[float], np.ndarray]
    du: Callable[[float], np.ndarray] | None = None
    ddu: Callable[[float], np.ndarray] | None = None

    def sample(self, grid: TimeGrid, start: int = 0) -> ControlSignal:
        vals = np.array([np.asarray(self.u(t), dtype=float) for t in grid.nodes[start:]])
        return ControlSignal(start, vals)


def hat_y_from_initial(v0, v1, u_trace, basis: SpectralBasis) -> np.ndarray:
    """Forcing seed v1 - v0 - lap(v0), with lap(v0) = A (v0 - D u_trace).

    v0 must represent a field whose boundary trace is u_trace; the lift
    subtraction makes the Laplacian well defined on the trace-free part.
    """
    ub = np.asarray(u_trace, dtype=float)
    if ub.shape != (2,):
        raise ValueError("boundary data must have two components")
    c0, c1 = np.asarray(v0, dtype=float), np.asarray(v1, dtype=float)
    lap = basis.eigenvalues * (c0 - basis.dmap_coeffs @ ub)
    return c1 - c0 - lap


def memory_functional(xi: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Weighted history integral int_0^t exp(-(t-r)) xi(r) dr, trapezoid.

    xi carries forward-time samples on [0, t]; its length fixes t.
    """
    xi = np.asarray(xi, dtype=float)
    i = xi.shape[0] - 1
    if i == 0:
        return np.zeros(xi.shape[1])
    w = grid.segment_weights(grid.n_steps - i)  # trapezoid weights on i panels
    decay = np.exp(-(grid.dt * i - grid.nodes[: i + 1]))
    return (w * decay) @ xi


def state_coordinates(state: StateSnapshot, table: KernelTable) -> np.ndarray:
    """x = (v_hat, y_hat - I_xi), the 2n numbers through which the dynamics and the forms see a state."""
    return np.concatenate([state.v_hat, state.y_hat - memory_functional(state.xi, table.grid)])


def response_field(state: StateSnapshot, table: KernelTable) -> np.ndarray:
    """Uncontrolled response h(t) = Z(t - tau) x_v + Q(t - tau) x_s on [tau, T]."""
    m = table.grid.n_steps - state.tau_index
    xv, xs = np.split(state_coordinates(state, table), 2)
    return table.Z_exact[:, : m + 1].T * xv[None, :] + table.Q[:, : m + 1].T * xs[None, :]


def segment_samples(u: ControlSignal | None, table: KernelTable, start: int) -> np.ndarray | None:
    """u's (m+1, 2) samples on [t_start, T], None without a control; ValueError unless u spans them."""
    if u is None:
        return None
    if u.start != start or u.samples.shape[0] != table.grid.n_steps - start + 1:
        raise ValueError("control segment must start at the state's node and end at T")
    return u.samples


def control_field(u: ControlSignal, table: KernelTable) -> np.ndarray:
    """Control response -int_tau^t Z(t-s) A D u(s) ds by product integration."""
    ad = segment_samples(u, table, u.start) @ table.basis.ad_coeffs.T
    return -product_convolution(table.panel_Z, table.grid.dt, ad)


def solve_voc(state: StateSnapshot, u: ControlSignal | None, table: KernelTable) -> Trajectory:
    """Variation-of-constants route: v = h + (control response), no implicit solve.

    The control response is formed first, so its convolution's working set
    is not held beside h.
    """
    if segment_samples(u, table, state.tau_index) is None:
        return Trajectory(state.tau_index, response_field(state, table))
    ctrl = control_field(u, table)
    return Trajectory(state.tau_index, response_field(state, table) + ctrl)


def solve_volterra(state: StateSnapshot, u: ControlSignal | None, table: KernelTable) -> Trajectory:
    """Second-kind Volterra route with the implicit trapezoid memory term.

    The affine part carries the semigroup exactly: E(t-tau) v_hat, the closed
    forcing integral (E - N)(t-tau) (y_hat - I_xi), and the control term by
    E-kernel product integration.  The memory term keeps plain trapezoid
    weights; its diagonal coefficient 1 - (dt/2) N(0) is checked by solve_Z.
    """
    i = state.tau_index
    xv, xs = np.split(state_coordinates(state, table), 2)
    return Trajectory(i, _volterra_steps(xv, xs, segment_samples(u, table, i), table, table.grid.n_steps - i))


def _volterra_steps(v_hat: np.ndarray, seed: np.ndarray, u: np.ndarray | None, table: KernelTable,
                    k: int) -> np.ndarray:
    """The first k Volterra steps from x = (v_hat, seed), values at nodes tau .. tau + k.

    u holds at least k + 1 control samples from tau on, or is None without a
    control.  Every stage is causal, so these rows are bitwise those of the
    full solve.
    """
    E = table.E[:, : k + 1]
    N = table.N[:, : k + 1]
    # E - N, the exact integral of the exponential forcing kernel, is a
    # temporary, freed before the control's convolution runs
    F = E.T * v_hat[None, :] + (E - N).T * seed[None, :]
    if u is not None:
        F -= product_convolution(table.panel_E, table.grid.dt, (u @ table.basis.ad_coeffs.T)[: k + 1])
    v = np.zeros((k + 1, table.n_modes))
    v[0] = v_hat
    return volterra_trapezoid(table.basis.eigenvalues, N, table.grid.dt, v, F=F)


def simulate_damped_wave(v0, v1, control: SmoothControl, table: KernelTable) -> Trajectory:
    """Integrate v'' = lap v + lap v' with boundary data u, per mode.

    The state is lifted by the Dirichlet map, w = v - D u, so each mode obeys
    w'' = lambda (w + w') - (D u'')_n; Crank-Nicolson keeps the scheme
    A-stable and second order: x = (w, w') steps by G = (I - dt A/2)^{-1} (I + dt A/2),
    A = [[0, 1], [lambda, lambda]], plus a known forcing, one block_scan.
    Compatibility (v0 trace = u(0)) is the caller's contract; it cannot be
    read off truncated coefficients.
    """
    if control.du is None or control.ddu is None:
        raise ValueError("wave simulation needs first and second control derivatives")
    grid = table.grid
    basis = table.basis
    dt = grid.dt
    t = grid.nodes
    n = basis.n_modes

    d = basis.dmap_coeffs
    u_s = np.array([np.asarray(control.u(s), dtype=float) for s in t])
    ddu_s = np.array([np.asarray(control.ddu(s), dtype=float) for s in t])
    V = u_s @ d.T  # the lift D u; the scan's w is added in place

    w0 = np.asarray(v0, dtype=float) - V[0]
    w1 = np.asarray(v1, dtype=float) - np.asarray(control.du(0.0), dtype=float) @ d.T

    lam = basis.eigenvalues
    A = np.zeros((n, 2, 2))
    A[:, 0, 1] = 1.0
    A[:, 1, :] = lam[:, None]
    solve_step = np.linalg.inv(np.eye(2) - 0.5 * dt * A)
    G = (solve_step @ (np.eye(2) + 0.5 * dt * A)).transpose(1, 2, 0).copy()  # (2, 2, n), contiguous
    X = np.empty((len(t), 2, n))
    X[0] = w0, w1
    # increments dt (I - dt A/2)^{-1} b_j, b_j = (0, -((D u'')_{j-1} + (D u'')_j) / 2)
    np.multiply(((ddu_s[:-1] + ddu_s[1:]) @ d.T)[:, None], -0.5 * dt * solve_step[:, :, 1].T, out=X[1:])
    V += block_scan(G, X)[:, 0]
    V[0] = v0
    return Trajectory(0, V)


def extend_state(
    state: StateSnapshot,
    u: ControlSignal | None,
    t1_index: int,
    table: KernelTable,
    trajectory: Trajectory | None = None,
) -> StateSnapshot:
    """Propagate the state to node t1: slice the trajectory into the history.

    The new triple is (v(t1), xi ++ v on (tau, t1], exp(-(t1-tau)) y_hat);
    the history concatenation and the seed decay are exact operations, the
    new present value rides the discrete trajectory.  Without a trajectory
    the Volterra route solves only the t1 - tau steps kept, which gives the
    same values as slicing solve_volterra on [tau, T].
    """
    i = state.tau_index
    if t1_index < i:
        raise ValueError("cannot extend backwards")
    if t1_index > table.grid.n_steps:
        raise ValueError("extension target beyond the horizon")
    if trajectory is not None and trajectory.start != i:
        raise ValueError("trajectory must start at the state's node")
    if t1_index == i:
        return StateSnapshot(i, state.v_hat.copy(), state.xi.copy(), state.y_hat.copy())
    k = t1_index - i
    if trajectory is None:
        xv, xs = np.split(state_coordinates(state, table), 2)
        values = _volterra_steps(xv, xs, segment_samples(u, table, i), table, k)
    else:
        values = trajectory.values
    xi_new = np.vstack([state.xi, values[1 : k + 1]])
    decay = np.exp(-(table.grid.dt * k))
    return StateSnapshot(t1_index, values[k].copy(), xi_new, decay * state.y_hat)
