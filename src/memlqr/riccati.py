"""Riccati quadratic form, feedback gain, and the verification scans.

The value function at a node is a quadratic form in the state,

    W_theta(S) = <P(theta) S, S>,
    <P(theta) S1, S2> = int_theta^T <[H h1](s), h2(s)> ds,

where h_i is the uncontrolled response of S_i and H the Fredholm inverse.
The state-space inner product pairs the present value in H, the history in
L2(0,theta;H), and the forcing seed through the A^{-1}-weighted dual norm.

Derivative structure.  For a state-shaped triple X = (dv, dxi, dy), the
response of X is hX = Z dv + Q (dy - I_dxi) and the frozen-operator flow
derivative of the form is

    cross(S, X) = 2 <H h, hX>.

The moving-operator part evaluates to

    <P'(theta) S, S> = -||C1 S||^2 + ||[Lambda* H h](theta)||^2
                       - cross(S, A_theta S),

which is the combination the chain rule needs:

    d/dtheta W_theta(S(theta)) = <P' S, S> + cross(S, A_theta S + B u).

The sign of the ||C1 S||^2 term and the seed-decay booking follow from the
terminal behaviour W_theta ~ (T - theta) ||v_hat||^2 (so P'(T) <= 0).  The
generator term cross(S, A_theta S) enters the chain rule twice with opposite
signs and cancels there exactly, and riccati_residual likewise reduces to
two routes for the first-node gain; so the chain-rule closure and
dissipation suites confirm -||C1 S||^2 + ||[Lambda* H h](theta)||^2 and the
control pairing, not the generator term.

Every route reads the one Riccati operator, the table's optimal.node_forms,
through a state's 2n coordinates x = (v_hat, y_hat - I_xi)
(forward.state_coordinates): W_j = x^T P[j] x, the gain K[j] x and the
kernel pairings Pi[j] x.  The single-state routes (P_form, P_prime_form,
P_cross, feedback_gain) read them at their state's node and solve nothing;
riccati_residual sets them against the start's control-side solve.  The
scans (value_scan_batch, dissipation_scan, chain_rule_scan,
closed_loop_simulate) solve nothing per node and build no state per node:
they carry x from node to node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (
    ControlSignal,
    StateSnapshot,
    Trajectory,
    _volterra_steps,
    extend_state,
    memory_functional,
    response_field,
    solve_voc,
    state_coordinates,
)
from .kernels import KernelTable
from .optimal import OperatorAssembly, node_forms, solve_optimal, u_plus_control_side
from .spectral import ModalVector

__all__ = [
    "GeneratorImage",
    "state_inner",
    "state_norm_sq",
    "apply_generator",
    "P_form",
    "P_cross",
    "P_prime_form",
    "riccati_residual",
    "RiccatiReport",
    "feedback_gain",
    "closed_loop_simulate",
    "bellman_check",
    "BellmanReport",
    "value_scan_batch",
    "dissipation_residual",
    "dissipation_scan",
    "DissipationReport",
    "chain_rule_scan",
    "ChainRuleReport",
    "terminal_P_check",
]


# ----------------------------------------------------------------------------
# state-space geometry


def state_inner(s1: StateSnapshot, s2: StateSnapshot, table: KernelTable) -> float:
    """Inner product of two states at the same node: H x L2(0,tau;H) x dual."""
    if s1.tau_index != s2.tau_index:
        raise ValueError("states live at different nodes")
    grid = table.grid
    i = s1.tau_index
    out = float(np.dot(s1.v_hat.coeffs, s2.v_hat.coeffs))
    if i > 0:
        w = grid.segment_weights(grid.n_steps - i)  # trapezoid weights on i panels
        out += float(np.sum(w[:, None] * s1.xi * s2.xi))
    lam2 = table.basis.eigenvalues**2
    out += float(np.dot(s1.y_hat.coeffs / lam2, s2.y_hat.coeffs))
    return out


def state_norm_sq(state: StateSnapshot, table: KernelTable) -> float:
    return state_inner(state, state, table)


# ----------------------------------------------------------------------------
# generator


@dataclass
class GeneratorImage:
    """Image of a state under the evolution generator (no control term)."""

    dv: np.ndarray  # (A+I) v_hat - memory functional + y_hat
    dxi: np.ndarray  # forward-time derivative of the history
    dy: np.ndarray  # -y_hat


def _fd_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """d/dt of node samples along axis 0 by np.gradient: central inside, one-sided at the
    ends, second order from three nodes on, first order on two; zero on one node."""
    if len(values) == 1:
        return np.zeros_like(values)
    return np.gradient(values, dt, axis=0, edge_order=2 if len(values) >= 3 else 1)


_COMPAT_TOL = 1e-8  # relative tolerance of xi(tau) = v_hat for a state in the generator's domain


def apply_generator(state: StateSnapshot, table: KernelTable) -> GeneratorImage:
    """Generator blocks for a state in the discrete domain.

    Membership asks for a square-summable seed (automatic after truncation),
    a discrete-H1 history and the compatibility xi(tau) = v_hat; violating
    states are rejected.  The history derivative is _fd_derivative's stencil.
    """
    if not state.is_compatible(_COMPAT_TOL):
        raise ValueError("state violates the compatibility condition xi(tau) = v_hat")
    grid = table.grid
    lam = table.basis.eigenvalues
    mem = memory_functional(state.xi, grid)
    dv = (lam + 1.0) * state.v_hat.coeffs - mem + state.y_hat.coeffs
    dxi = dv[None, :].copy() if state.tau_index == 0 else _fd_derivative(state.xi, grid.dt)
    return GeneratorImage(dv, dxi, -state.y_hat.coeffs)


# ----------------------------------------------------------------------------
# the quadratic form and its derivative


def P_form(s1: StateSnapshot, s2: StateSnapshot, table: KernelTable) -> float:
    """Bilinear value form <P(theta) S1, S2> = x1^T P[j] x2 at the states' common node j."""
    if s1.tau_index != s2.tau_index:
        raise ValueError("states live at different nodes")
    P = node_forms(table).P[s1.tau_index]
    return float(state_coordinates(s1, table) @ P @ state_coordinates(s2, table))


def _node_terms(state: StateSnapshot, table: KernelTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-node gain K[j, :2] x and kernel pairings (C, D) = Pi[j] x of H h at the state's node j."""
    forms, j = node_forms(table), state.tau_index
    x = state_coordinates(state, table)
    C, D = np.split(forms.Pi[j] @ x, 2)
    return forms.K[j, :2] @ x, C, D


def P_cross(state: StateSnapshot, dv, dxi, dy, table: KernelTable) -> float:
    """Frozen-operator pairing <P S, X> + <X, P S> for a state-shaped triple X.

    The response of X is Z dv + Q (dy - I_dxi); its pairing against H h is
    read off the node's exact kernel pairings, so stiff generator images
    (dv of order lambda) do not contaminate the quadrature.
    """
    _, C, D = _node_terms(state, table)
    return _paired_cross(dv, dxi, dy, C, D, table)


def _paired_cross(dv, dxi, dy, C: np.ndarray, D: np.ndarray, table: KernelTable) -> float:
    """cross(S, X) = 2 (dv . C + (dy - I_dxi) . D) from the kernel pairings (C, D) of H h."""
    seed = np.asarray(dy) - memory_functional(dxi, table.grid)
    return 2.0 * float(np.dot(np.asarray(dv), C) + np.dot(seed, D))


def P_prime_form(state: StateSnapshot, table: KernelTable) -> float:
    """Moving-operator derivative <P'(theta) S, S> (see the module docstring).

    <P'S, S> = -|v_hat|^2 + |g|^2 - cross(S, A_theta S), with the gain
    g = [Lambda* H h](theta) = K[j, :2] x.  At theta = T every integral is
    empty (row M of the node forms is zero) and the form collapses to
    -||v_hat||^2, matching the decay rate of W_theta ~ (T-theta)||v_hat||^2.
    """
    gain, C, D = _node_terms(state, table)
    img = apply_generator(state, table)
    vhat_sq = float(np.dot(state.v_hat.coeffs, state.v_hat.coeffs))
    return -vhat_sq + float(np.dot(gain, gain)) - _paired_cross(img.dv, img.dxi, img.dy, C, D, table)


@dataclass
class RiccatiReport:
    p_prime: float
    cross: float
    gain_sq: float
    vhat_sq: float
    residual: float
    relative: float


def riccati_residual(state: StateSnapshot, table: KernelTable) -> RiccatiReport:
    """Residual of the differential form of the value-function equation.

    Assembles <P'S,S> + (<PS,AS> + <AS,PS>) - ||B* P S||^2 + ||C1 S||^2.
    P' and the cross term read the node forms, off the backward Riccati
    recursion; the feedback norm comes from the start's control-side solve
    (optimal.u_plus_control_side), a separate numerical route.
    """
    img = apply_generator(state, table)
    p_prime = P_prime_form(state, table)
    cross = P_cross(state, img.dv, img.dxi, img.dy, table)
    gain = u_plus_control_side(state, table).samples[0]
    gain_sq = float(np.dot(gain, gain))
    vhat_sq = float(np.dot(state.v_hat.coeffs, state.v_hat.coeffs))
    residual = p_prime + cross - gain_sq + vhat_sq
    denom = state_norm_sq(state, table)
    return RiccatiReport(p_prime, cross, gain_sq, vhat_sq, residual,
                         abs(residual) / (denom if denom > 0 else 1.0))


# ----------------------------------------------------------------------------
# feedback law


def feedback_gain(state: StateSnapshot, table: KernelTable) -> np.ndarray:
    """Instantaneous feedback value -[B* P(t) S](t) = -K[j, :2] x at the state's node j.

    Equals the first node of the open-loop optimal control; at t = T the
    horizon is empty and the gain vanishes (row M of the node forms is zero).
    """
    return -_node_terms(state, table)[0]


def closed_loop_simulate(state0: StateSnapshot, table: KernelTable) -> tuple[Trajectory, ControlSignal]:
    """Receding-horizon loop: refresh the local optimal control at every node.

    The loop carries only x = (v_hat, s), s = y_hat - I_xi: at node j the
    first two nodes of the remaining-horizon optimal control are -K[j] x
    (optimal.node_forms), applied through one Volterra step, which reads no
    later node, and s advances by _advance_seed.  Each node is a free
    restart from the state extend_state would reach.  Returns the
    closed-loop trajectory and the per-node gain.
    """
    grid = table.grid
    i0 = state0.tau_index
    m = grid.n_steps - i0
    K = node_forms(table).K
    ad = table.basis.ad_coeffs
    u_cl = np.zeros((m + 1, 2))
    v_cl = np.zeros((m + 1, state0.n_modes))
    v_cl[0] = state0.v_hat.coeffs
    s = np.split(state_coordinates(state0, table), 2)[1]
    xi_last = state0.xi[-1]
    for step, j in enumerate(range(i0, grid.n_steps)):
        u2 = -(K[j] @ np.concatenate([v_cl[step], s])).reshape(2, 2)
        u_cl[step] = u2[0]
        v_cl[step + 1] = _volterra_steps(v_cl[step], s, u2 @ ad.T, table, 1)[1]
        s = _advance_seed(s, xi_last, v_cl[step + 1], grid.dt)
        xi_last = v_cl[step + 1]
    # empty horizon at T: zero gain
    return Trajectory(i0, v_cl), ControlSignal(i0, u_cl)


# ----------------------------------------------------------------------------
# restart (receding-horizon) consistency


@dataclass
class BellmanReport:
    tail_mismatch: float
    telescope_residual: float
    W_start: float
    W_restart: float


def bellman_check(state: StateSnapshot, t0_index: int, table: KernelTable) -> BellmanReport:
    """Restart the optimization from the optimally reached state at t0.

    Reports the weighted-L2 mismatch between the restarted control and the
    original tail, and the value telescoping residual
    W_tau - int_tau^t0 (running cost) - W_t0.
    """
    i = state.tau_index
    if not (i <= t0_index <= table.grid.n_steps):
        raise ValueError("t0 outside [tau, T]")
    sol = solve_optimal(state, table)
    mid = extend_state(state, sol.u_plus, t0_index, table, trajectory=sol.v_plus)
    sol_tail = solve_optimal(mid, table)
    k = t0_index - i

    asm_tail = OperatorAssembly(table, t0_index)
    diff = sol_tail.u_plus.samples - sol.u_plus.samples[k:]
    tail_mismatch = float(np.sqrt(max(asm_tail.inner_U(diff, diff), 0.0)))

    w = table.grid.segment_weights(table.grid.n_steps - k)  # trapezoid weights on k panels
    dens = np.sum(sol.v_plus.values[: k + 1] ** 2, axis=1) + np.sum(
        sol.u_plus.samples[: k + 1] ** 2, axis=1
    )
    running = float(np.dot(w, dens))
    telescope = abs(sol.W - running - sol_tail.W)
    return BellmanReport(tail_mismatch, telescope, sol.W, sol_tail.W)


# ----------------------------------------------------------------------------
# scans along a trajectory


def _advance_seed(s: np.ndarray, xi_last: np.ndarray, v_next: np.ndarray, dt: float) -> np.ndarray:
    """s = y_hat - I_xi one step on: the seed decays by r = exp(-dt) and the
    trapezoid recurrence I <- r I + (dt/2)(r xi_last + v_next) adds the new panel."""
    r = np.exp(-dt)
    return r * s - 0.5 * dt * (r * xi_last + v_next)


def _trajectory_coordinates(state0: StateSnapshot, values: np.ndarray, table: KernelTable) -> np.ndarray:
    """x at every node of trajectories (C, m+1, n) from state0, as (C, m+1, 2n).

    The states are those extend_state reaches along each trajectory, and the
    seed part is carried node to node by _advance_seed.
    """
    x = np.concatenate([values, np.empty_like(values)], axis=2)
    x[:, 0] = state_coordinates(state0, table)
    xi_last = state0.xi[-1]
    n = values.shape[2]
    for j in range(1, values.shape[1]):
        x[:, j, n:] = _advance_seed(x[:, j - 1, n:], xi_last, values[:, j], table.grid.dt)
        xi_last = values[:, j]
    return x


def _value_scan(state0: StateSnapshot, controls, table: KernelTable):
    """value_scan_batch, plus the coordinates x[control, node] it evaluates."""
    i0 = state0.tau_index
    M = table.grid.n_steps
    trajs = [solve_voc(state0, u, table) for u in controls]
    values = np.reshape([t.values for t in trajs], (len(trajs), M - i0 + 1, table.n_modes))
    x = _trajectory_coordinates(state0, values, table)
    W = np.zeros((M - i0 + 1, len(controls)))
    W[:-1] = np.einsum("cji,jik,cjk->jc", x[:, :-1], node_forms(table).P[i0:M], x[:, :-1])
    return np.arange(i0, M + 1), W, trajs, x


def value_scan_batch(state0: StateSnapshot, controls, table: KernelTable):
    """W_theta along the trajectories of several controls from one state.

    Returns (indices, W[node, control], trajectories).  W_j = x^T P[j] x,
    with x the state's coordinates at node j and P[j] the table's value
    matrix (optimal.node_forms); no node solves a system of its own.
    """
    indices, W, trajs, _ = _value_scan(state0, controls, table)
    return indices, W, trajs


def dissipation_residual(W: np.ndarray, trajectory: Trajectory, u: ControlSignal,
                         dt: float) -> tuple[np.ndarray, np.ndarray]:
    """dW/dtheta and r(theta) = ||v||^2 + ||u||^2 + dW/dtheta along one trajectory."""
    dW = _fd_derivative(W, dt)
    dens = np.sum(trajectory.values**2, axis=1) + np.sum(u.samples**2, axis=1)
    return dW, dens + dW


@dataclass
class DissipationReport:
    indices: np.ndarray
    r: np.ndarray
    W: np.ndarray
    dW: np.ndarray

    @property
    def min_r(self) -> float:
        return float(np.min(self.r))

    @property
    def max_abs_r(self) -> float:
        return float(np.max(np.abs(self.r)))


def dissipation_scan(state: StateSnapshot, u: ControlSignal, table: KernelTable) -> DissipationReport:
    """Pointwise dissipation residual r(theta) = ||v||^2 + ||u||^2 + dW/dtheta.

    Nonnegative (up to discretization) for every admissible control and zero
    along the optimal one.  dW/dtheta by central differences with the grid
    step, one-sided at the segment ends.
    """
    indices, W, trajs = value_scan_batch(state, [u], table)
    dW, r = dissipation_residual(W[:, 0], trajs[0], u, table.grid.dt)
    return DissipationReport(indices, r, W[:, 0], dW)


@dataclass
class ChainRuleReport:
    indices: np.ndarray
    fd: np.ndarray
    formula: np.ndarray
    residual: np.ndarray
    relative: np.ndarray


def chain_rule_scan(state0: StateSnapshot, u: ControlSignal, table: KernelTable) -> ChainRuleReport:
    """Closure of d/dtheta W against <P'S,S> + cross(S, S') at interior nodes.

    The finite difference rides the value matrices P[j], exactly as
    value_scan_batch evaluates them.  The formula is the dissipation
    identity: with S' = A_theta S - (A D u(theta), 0, 0), the generator
    term cross(S, A_theta S) enters <P'S,S> and cross(S, S') with opposite
    signs and cancels, leaving

        -|v_hat|^2 + |K[j, :2] x|^2 - 2 (A D u(theta)) . C,

    with (C, D) = Pi[j] x the node's kernel pairings (optimal.node_forms).
    The residual is relative to 1 + ||S||^2, whose history part is carried
    from state_norm_sq(state0) by the trapezoid rule.  No node builds a
    state.
    """
    forms = node_forms(table)
    indices, W, trajs, x = _value_scan(state0, [u], table)
    n = table.n_modes
    dt = table.grid.dt
    js, xj = indices[1:-1], x[0, 1:-1]
    gain = np.einsum("jab,jb->ja", forms.K[js, :2], xj)
    C = np.einsum("jab,jb->ja", forms.Pi[js, :n], xj)
    ad = u.samples[1:-1] @ table.basis.ad_coeffs.T
    formula = -np.sum(xj[:, :n] ** 2, axis=1) + np.sum(gain**2, axis=1) - 2.0 * np.sum(ad * C, axis=1)

    v_sq = np.sum(x[0, :, :n] ** 2, axis=1)
    hist_sq = v_sq.copy()
    hist_sq[0] = np.dot(state0.xi[-1], state0.xi[-1])
    past = np.concatenate([[0.0], np.cumsum(0.5 * dt * (hist_sq[:-1] + hist_sq[1:]))])
    seed_sq = np.dot(state0.y_hat.coeffs / table.basis.eigenvalues**2, state0.y_hat.coeffs)
    decay = np.exp(-(dt * np.arange(len(indices))))
    norm_sq = state_norm_sq(state0, table) + (v_sq - v_sq[0]) + past + (decay**2 - 1.0) * seed_sq

    fd = _fd_derivative(W[:, 0], dt)[1:-1]
    residual = np.abs(fd - formula)
    return ChainRuleReport(js, fd, formula, residual, residual / (1.0 + norm_sq[1:-1]))


@dataclass
class TerminalReport:
    value_at_T: float
    value_near_T: float
    near_T_bound: float
    monotone: bool


def terminal_P_check(table: KernelTable, seed: int = 0) -> TerminalReport:
    """Terminal behaviour of the form: exactly zero at T, one-panel size at T-dt.

    Also measures (not asserts) the growth of W_theta for a frozen pure
    present-value state as theta decreases.
    """
    grid = table.grid
    M = grid.n_steps
    n = table.n_modes
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) / np.arange(1, n + 1) ** 2

    def frozen(i):
        xi = np.zeros((i + 1, n))
        xi[-1] = v
        return StateSnapshot(i, ModalVector(v.copy()), xi, ModalVector(np.zeros(n)))

    sT = frozen(M)
    val_T = P_form(sT, sT, table)
    s1 = frozen(M - 1)
    val_near = P_form(s1, s1, table)
    h = response_field(s1, table)
    bound = grid.dt * float(np.max(np.sum(h**2, axis=1)))
    samples = [P_form(frozen(i), frozen(i), table) for i in range(M, max(M - 6, 0) - 1, -1)]
    monotone = all(samples[k] <= samples[k + 1] + 1e-15 for k in range(len(samples) - 1))
    return TerminalReport(val_T, val_near, bound, monotone)
