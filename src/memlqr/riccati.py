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
terminal behaviour W_theta ~ (T - theta) ||v_hat||^2 (so P'(T) <= 0) and are
confirmed numerically by the chain-rule closure and dissipation suites; the
combination above is the unique one that closes both.

Every scan reaches the per-node operator through optimal.get_assembly, which
slices the one Lambda built for the whole table; node states along a
trajectory come from forward.extend_state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (
    ControlSignal,
    StateSnapshot,
    Trajectory,
    extend_state,
    memory_functional,
    response_field,
    solve_voc,
)
from .kernels import KernelTable
from .optimal import OperatorAssembly, get_assembly, solve_optimal
from .spectral import ModalVector

__all__ = [
    "GeneratorImage",
    "state_inner",
    "state_norm_sq",
    "apply_generator",
    "generator_response",
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
    "state_along_trajectory",
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


def apply_generator(state: StateSnapshot, table: KernelTable, compat_tol: float = 1e-8) -> GeneratorImage:
    """Generator blocks for a state in the discrete domain.

    Membership asks for a square-summable seed (automatic after truncation),
    a discrete-H1 history and the compatibility xi(tau) = v_hat; violating
    states are rejected.  The history derivative uses second-order one-sided
    stencils at the ends and central differences inside.
    """
    if not state.is_compatible(compat_tol):
        raise ValueError("state violates the compatibility condition xi(tau) = v_hat")
    grid = table.grid
    lam = table.basis.eigenvalues
    mem = memory_functional(state.xi, grid)
    dv = (lam + 1.0) * state.v_hat.coeffs - mem + state.y_hat.coeffs
    i = state.tau_index
    if i == 0:
        dxi = dv[None, :].copy()
    else:
        dxi = np.gradient(state.xi, grid.dt, axis=0, edge_order=2 if i >= 2 else 1)
    return GeneratorImage(dv, dxi, -state.y_hat.coeffs)


def generator_response(dv, dxi, dy, table: KernelTable, start: int) -> np.ndarray:
    """Response field of a state-shaped triple: Z dv + Q (dy - I_dxi)."""
    m = table.grid.n_steps - start
    I = memory_functional(dxi, table.grid) if dxi is not None else np.zeros_like(dv)
    return table.Z[:, : m + 1].T * np.asarray(dv)[None, :] + table.Q[:, : m + 1].T * (
        np.asarray(dy) - I
    )[None, :]


# ----------------------------------------------------------------------------
# the quadratic form and its derivative


def _control_side_pieces(asm: OperatorAssembly, h: np.ndarray):
    """r = Lambda* h and z = (I + Lambda* Lambda)^{-1} r; phi = h - Lambda z."""
    r = asm.apply_Lambda_star(h)
    z = asm.solve_normal_control(r)
    phi = h - asm.apply_Lambda(z)
    return r, z, phi


def P_form(s1: StateSnapshot, s2: StateSnapshot, table: KernelTable) -> float:
    """Bilinear value form <P(theta) S1, S2> at the states' common node."""
    if s1.tau_index != s2.tau_index:
        raise ValueError("states live at different nodes")
    asm = get_assembly(table, s1.tau_index)
    if asm.empty:
        return 0.0
    h1 = response_field(s1, table)
    h2 = response_field(s2, table)
    z1 = asm.solve_normal_control(asm.apply_Lambda_star(h1))
    return asm.inner_V(h1, h2) - asm.inner_U(z1, asm.apply_Lambda_star(h2))


def _kernel_pairings(phi: np.ndarray, table: KernelTable, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode int_theta^T Z(s-theta) phi(s) ds and the same with the Q kernel.

    Exact panel moments against the piecewise-linear phi; the trapezoid
    pairing would lose digits to the unresolved stiff layer of Z.
    """
    m = table.grid.n_steps - start
    n = table.n_modes
    C = np.zeros(n)
    D = np.zeros(n)
    if m == 0:
        return C, D
    rev = phi[::-1]
    g = slice(m, 0, -1)
    for k in range(n):
        C[k] = np.dot(rev[:m, k], table.alpha_Z[k, g]) + np.dot(rev[1:, k], table.beta_Z[k, g])
        D[k] = np.dot(rev[:m, k], table.alpha_Q[k, g]) + np.dot(rev[1:, k], table.beta_Q[k, g])
    return C, D


def P_cross(state: StateSnapshot, dv, dxi, dy, table: KernelTable, phi: np.ndarray | None = None) -> float:
    """Frozen-operator pairing <P S, X> + <X, P S> for a state-shaped triple X.

    The response of X is Z dv + Q (dy - I_dxi); its pairing against H h is
    evaluated with exact kernel moments so stiff generator images (dv of
    order lambda) do not contaminate the quadrature.
    """
    asm = get_assembly(table, state.tau_index)
    if asm.empty:
        return 0.0
    if phi is None:
        _, _, phi = _control_side_pieces(asm, response_field(state, table))
    I = memory_functional(dxi, table.grid) if dxi is not None else np.zeros_like(np.asarray(dv))
    C, D = _kernel_pairings(phi, table, state.tau_index)
    seed = np.asarray(dy) - I
    return 2.0 * float(np.dot(np.asarray(dv), C) + np.dot(seed, D))


def _p_prime_and_cross(state: StateSnapshot, img: GeneratorImage, table: KernelTable,
                       phi: np.ndarray | None = None) -> tuple[float, float]:
    """<P'(theta) S, S> and cross(S, A_theta S); phi = H h is solved for unless given."""
    asm = get_assembly(table, state.tau_index)
    vhat_sq = float(np.dot(state.v_hat.coeffs, state.v_hat.coeffs))
    if asm.empty:
        return -vhat_sq, 0.0
    if phi is None:
        _, _, phi = _control_side_pieces(asm, response_field(state, table))
    gain = asm.apply_Lambda_star(phi)[0]
    cross = P_cross(state, img.dv, img.dxi, img.dy, table, phi=phi)
    return -vhat_sq + float(np.dot(gain, gain)) - cross, cross


def P_prime_form(state: StateSnapshot, table: KernelTable) -> float:
    """Moving-operator derivative <P'(theta) S, S> (see the module docstring).

    At theta = T every integral is empty and the form collapses to
    -||v_hat||^2, matching the decay rate of W_theta ~ (T-theta)||v_hat||^2.
    """
    return _p_prime_and_cross(state, apply_generator(state, table), table)[0]


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
    The feedback norm comes from the state-side optimality solve, a separate
    numerical route from the control-side pieces inside P'.
    """
    p_prime, cross = _p_prime_and_cross(state, apply_generator(state, table), table)
    sol = solve_optimal(state, table)
    gain = sol.u_plus.samples[0]
    gain_sq = float(np.dot(gain, gain))
    vhat_sq = float(np.dot(state.v_hat.coeffs, state.v_hat.coeffs))
    residual = p_prime + cross - gain_sq + vhat_sq
    denom = state_norm_sq(state, table)
    return RiccatiReport(p_prime, cross, gain_sq, vhat_sq, residual,
                         abs(residual) / (denom if denom > 0 else 1.0))


# ----------------------------------------------------------------------------
# feedback law


def feedback_gain(state: StateSnapshot, table: KernelTable) -> np.ndarray:
    """Instantaneous feedback value -[B* P(t) S](t), the control-side route.

    Equals the first node of the open-loop optimal control; at t = T the
    horizon is empty and the gain vanishes.
    """
    asm = get_assembly(table, state.tau_index)
    if asm.empty:
        return np.zeros(2)
    h = response_field(state, table)
    z = asm.solve_normal_control(asm.apply_Lambda_star(h))
    return -z[0]


def _advance_one_step(state: StateSnapshot, u0: np.ndarray, u1: np.ndarray, table: KernelTable) -> StateSnapshot:
    """One implicit step of the Volterra solver (identical scheme, length 1)."""
    grid = table.grid
    i = state.tau_index
    ad = table.basis.ad_coeffs
    ad0, ad1 = ad @ u0, ad @ u1
    seed = state.y_hat.coeffs - memory_functional(state.xi, grid)
    E1, N0, N1 = table.E[:, 1], table.N[:, 0], table.N[:, 1]
    R1 = E1 - N1
    ctrl = table.alpha_E[:, 1] * ad0 + table.beta_E[:, 1] * ad1
    F = E1 * state.v_hat.coeffs + R1 * seed - ctrl
    vhat = state.v_hat.coeffs
    v_next = (F + 0.5 * grid.dt * N1 * vhat) / (1.0 - 0.5 * grid.dt * N0)
    xi_new = np.vstack([state.xi, v_next[None, :]])
    return StateSnapshot(
        i + 1,
        ModalVector(v_next),
        xi_new,
        ModalVector(np.exp(-grid.dt) * state.y_hat.coeffs),
    )


def closed_loop_simulate(state0: StateSnapshot, table: KernelTable) -> tuple[Trajectory, ControlSignal]:
    """Receding-horizon loop: refresh the local optimal control at every node.

    At each node the remaining-horizon problem is solved, the first panel of
    its control is applied through one Volterra step, and the state is
    extended.  The recorded control is the per-node gain; the trajectory is
    the closed-loop evolution.
    """
    grid = table.grid
    i0 = state0.tau_index
    m = grid.n_steps - i0
    n = state0.n_modes
    u_cl = np.zeros((m + 1, 2))
    v_cl = np.zeros((m + 1, n))
    v_cl[0] = state0.v_hat.coeffs
    cur = state0
    for step, j in enumerate(range(i0, grid.n_steps)):
        asm = get_assembly(table, j)
        h = response_field(cur, table)
        u_loc = -asm.solve_normal_control(asm.apply_Lambda_star(h))
        u_cl[step] = u_loc[0]
        cur = _advance_one_step(cur, u_loc[0], u_loc[1], table)
        v_cl[step + 1] = cur.v_hat.coeffs
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

    asm_tail = get_assembly(table, t0_index)
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


def state_along_trajectory(state0: StateSnapshot, traj: Trajectory, j: int, table: KernelTable) -> StateSnapshot:
    """State reached at node j by riding the given trajectory; extend_state validates."""
    return extend_state(state0, None, j, table, trajectory=traj)


def value_scan_batch(state0: StateSnapshot, controls, table: KernelTable):
    """W_theta along the trajectories of several controls from one state.

    Returns (indices, W[node, control], trajectories).  The per-node
    control-side factorization is built once and shared across controls.
    """
    i0 = state0.tau_index
    M = table.grid.n_steps
    C = len(controls)
    trajs = [solve_voc(state0, u, table) for u in controls]
    indices = np.arange(i0, M + 1)
    W = np.zeros((M - i0 + 1, C))
    for pos, j in enumerate(indices[:-1]):
        asm = get_assembly(table, j)
        H = np.stack(
            [response_field(extend_state(state0, None, j, table, trajectory=t), table) for t in trajs]
        )  # (C, m+1, n)
        R = asm.apply_Lambda_star(H)
        Zsol = asm.solve_normal_control(R)
        for c in range(C):
            W[pos, c] = asm.inner_V(H[c], H[c]) - asm.inner_U(Zsol[c], R[c])
    return indices, W, trajs


def _fd_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Central differences inside, second-order one-sided at the segment ends."""
    out = np.empty_like(values)
    if len(values) == 1:
        out[0] = 0.0
        return out
    if len(values) == 2:
        out[:] = (values[1] - values[0]) / dt
        return out
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    return out


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

    S' carries the generator image plus the control block, dv -= A D u(theta).
    This is the two-route validation of the moving-operator derivative: the
    finite difference rides fresh Fredholm solves, the formula rides the
    explicit operator expressions.  One sweep: W, P' and both cross terms at
    a node share its control-side solve.
    """
    i0 = state0.tau_index
    traj = solve_voc(state0, u, table)
    indices = np.arange(i0, table.grid.n_steps + 1)
    W = np.zeros(len(indices))
    formula = np.zeros(len(indices))
    norm_sq = np.zeros(len(indices))
    for pos, j in enumerate(indices[:-1]):
        st = extend_state(state0, None, j, table, trajectory=traj)
        asm = get_assembly(table, j)
        h = response_field(st, table)
        r, z, phi = _control_side_pieces(asm, h)
        W[pos] = asm.inner_V(h, h) - asm.inner_U(z, r)
        if pos == 0:
            continue
        img = apply_generator(st, table)
        p_prime, _ = _p_prime_and_cross(st, img, table, phi=phi)
        dv_ctrl = img.dv - table.basis.ad_coeffs @ u.samples[pos]
        formula[pos] = p_prime + P_cross(st, dv_ctrl, img.dxi, img.dy, table, phi=phi)
        norm_sq[pos] = state_norm_sq(st, table)
    fd = _fd_derivative(W, table.grid.dt)[1:-1]
    formula = formula[1:-1]
    residual = np.abs(fd - formula)
    return ChainRuleReport(indices[1:-1], fd, formula, residual, residual / (1.0 + norm_sq[1:-1]))


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
