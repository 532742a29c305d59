"""Operator assembly and the Fredholm optimality system on [tau, T].

The input-to-state map is the block-lower-triangular operator

    (Lambda u)(t) = -int_tau^t K(t-s) u(s) ds,      K(t) = Z(t) A D,

discretized with the shared product-integration weights of the kernel table.
K depends only on t - s, so the discrete Lambda on [t_j, T] is the leading
((M-j+1) n) x ((M-j+1) 2) block of the Lambda on [0, T]: it is built once per
table and the per-start operator is that slice of it.  Adjoints are taken
with respect to the trapezoid-weighted inner products, so Lambda* is an
exact transpose and the normal operator I + Lambda Lambda* is symmetric
positive definite in the weighted metric.  The optimal pair is

    v+ = (I + Lambda Lambda*)^-1 h,     u+ = -Lambda* v+,

equivalently u+ = -(I + Lambda* Lambda)^-1 Lambda* h on the control side.
apply_H goes through the control side by the push-through identity

    (I + Lambda Lambda*)^-1 g = g - Lambda z,   z = (I + Lambda* Lambda)^-1 Lambda* g,

so it solves with the start's control-side Cholesky factor of order (m+1) 2.

The state-side route is a Riccati recursion instead of a factorization.  A
state enters the system only through x = (v_hat, y_hat - I_xi) in R^{2n},
and with h and Lambda built from the exact exponential sums of Z and Q the
discrete system is the exact sampling of a 2n-dimensional linear system
under a piecewise-linear control: node j + 1's x follows from node j's x
and the control at both panel ends (_one_panel_step).  node_forms runs one
backward sweep of O(M n^3) work over z = (x, u) on that step; it gives every
node's value matrix, first-step gains and kernel pairings, and
solve_optimal is a forward sweep on them, so no matrix of order (M+1) n is
formed and the verification scans never solve per node.  The control-side
factors stay as the independent second route.

The table keeps Lambda, the node forms and one control-side factor per
start; an OperatorAssembly is a view of them and of the start's weights,
cheap to build at every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .forward import (
    ControlSignal,
    StateSnapshot,
    Trajectory,
    response_field,
    solve_voc,
    state_coordinates,
)
from .kernels import KernelTable, gap_weights

__all__ = [
    "OperatorAssembly",
    "OptimalSolution",
    "NodeForms",
    "node_forms",
    "solve_optimal",
    "u_plus_control_side",
    "evaluate_cost",
    "value_function",
    "cost_gradient",
]


def _table_Lambda(table: KernelTable) -> np.ndarray:
    """Lambda on [0, T], built on first use and kept on the table.

    Rows are stacked as (node, mode) and columns as (node, channel).  Mode
    k's node weights are lower-triangular Toeplitz in the gap j - l, the gap
    weights omega of the Z kernel, except at the first node, which borders
    one panel only and takes alpha.
    """
    if table._Lambda is None:
        M, n = table.grid.n_steps, table.n_modes
        ad = table.basis.ad_coeffs
        omega = gap_weights(table.alpha_Z, table.beta_Z)
        blocks = np.empty((M + 1, n, M + 1, 2))
        for k in range(n):
            Wk = sla.toeplitz(omega[k], np.zeros(M + 1))
            Wk[:, 0] = table.alpha_Z[k]
            blocks[:, k, :, :] = -Wk[:, :, None] * ad[k][None, None, :]
        table._Lambda = blocks.reshape((M + 1) * n, (M + 1) * 2)
    return table._Lambda


class OperatorAssembly:
    """Lambda on [t_start, T]: a view of the table's Lambda, its weights and its factors.

    Lam is the leading block of the table-wide Lambda.  Fields are stacked
    row-major as (node, mode) and controls as (node, channel).  wV / wU are
    the trapezoid node weights repeated per component; the scaled matrix
    B = sqrt(D_V) Lambda sqrt(D_U)^-1 makes the two normal systems
    I + B B^T (state side) and I + B^T B (control side) plainly symmetric.
    B is formed only as a temporary while the control-side factor is built;
    the start's control-side factor lives on the table in _control_chol, so
    an assembly holds no matrix of its own.
    """

    def __init__(self, table: KernelTable, start: int):
        self.table = table
        self.start = start
        self.m = table.grid.n_steps - start
        self.n = table.n_modes
        w = table.grid.segment_weights(start)
        self.wV = np.repeat(w, self.n)
        self.wU = np.repeat(w, 2)
        self.empty = self.m == 0
        self.Lam = _table_Lambda(table)[: (self.m + 1) * self.n, : (self.m + 1) * 2]
        self._sV = np.sqrt(self.wV)
        self._sU = np.sqrt(self.wU)

    def scaled(self) -> np.ndarray:
        """B = sqrt(D_V) Lambda sqrt(D_U)^-1, a fresh temporary scaled in place."""
        B = self._sV[:, None] * self.Lam
        B /= self._sU
        return B

    # -- elementary applications -------------------------------------------------

    def apply_Lambda(self, u: np.ndarray) -> np.ndarray:
        """u is (m+1, 2); returns the H-valued field (m+1, n)."""
        if self.empty:
            return np.zeros((1, self.n))
        return (self.Lam @ u.reshape(-1)).reshape(self.m + 1, self.n)

    def apply_Lambda_star(self, v: np.ndarray) -> np.ndarray:
        """Exact weighted transpose; v is (m+1, n), the result (m+1, 2)."""
        if self.empty:
            return np.zeros((1, 2))
        return ((self.Lam.T @ (self.wV * v.reshape(-1))) / self.wU).reshape(self.m + 1, 2)

    # -- factorizations ----------------------------------------------------------

    def _control_factor(self) -> np.ndarray:
        """Lower Cholesky factor of this start's I + B^T B, built on first use and kept on the table."""
        factors = self.table._control_chol
        if self.start not in factors:
            B = self.scaled()
            A = B.T @ B
            A[np.diag_indices_from(A)] += 1.0
            factors[self.start] = sla.cho_factor(A.T, lower=True, overwrite_a=True)[0]
        return factors[self.start]

    def control_normal_eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the weighted control-side normal operator I + B^T B."""
        B = self.scaled()
        return sla.eigvalsh(np.eye((self.m + 1) * 2) + B.T @ B)

    def solve_normal_control(self, r: np.ndarray) -> np.ndarray:
        """(I + Lambda* Lambda)^-1 r on control fields; r is (m+1, 2)."""
        if self.empty:
            return r.copy()
        sol = sla.cho_solve((self._control_factor(), True), self._sU * r.reshape(-1))
        return (sol / self._sU).reshape(self.m + 1, 2)

    def apply_H(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H g, z) on the control side: z = (I + Lambda* Lambda)^-1 Lambda* g and H g = g - Lambda z.

        This is the push-through form of (I + Lambda Lambda*)^-1 g; z is also
        -psi of the two-field system [[I, -Lambda], [Lambda*, I]] (phi, psi) = (g, 0).
        """
        if self.empty:
            return g.copy(), np.zeros((1, 2))
        z = self.solve_normal_control(self.apply_Lambda_star(g))
        return g - self.apply_Lambda(z), z

    # -- weighted inner products ---------------------------------------------------

    def inner_V(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(self.wV * a.reshape(-1), b.reshape(-1)))

    def inner_U(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(self.wU * a.reshape(-1), b.reshape(-1)))


@dataclass(frozen=True)
class NodeForms:
    """The value matrix, first-step gain, kernel pairings and one-panel step at every node.

    A state at node j enters the optimality system only through its
    coordinates x = (v_hat, y_hat - I_xi) in R^{2n}, since its response is
    h = Z x_v + Q x_s.  For every node j (row M, the empty horizon, is zero):

      P[j]    (2n, 2n)      the value W_j = x^T P[j] x, symmetric;
      K[j]    (4, 2n)       the local optimal control's first two nodes,
                            u[0:2] = -(K[j] x).reshape(2, 2);
      Pi[j]   (2n, 2n)      the kernel pairings (C, D) of H h against the Z
                            and Q panel weights, (C, D) = Pi[j] x;
      step[j] (2n+2, 2n+2)  the optimal step on z = (x, u) from node j to
                            j + 1 with u_j held, z_{j+1} = step[j] z_j; its
                            last two rows are minus the step gain.
    """

    P: np.ndarray
    K: np.ndarray
    Pi: np.ndarray
    step: np.ndarray


def node_forms(table: KernelTable) -> NodeForms:
    """The NodeForms of a table, built on first use and kept on the table.

    They come from one backward Riccati recursion over z = (x, u) on the
    exact one-panel step of a piecewise-linear control (Franklin, Powell &
    Workman, *Digital Control of Dynamic Systems*, 1998).
    """
    if table._node_forms is None:
        table._node_forms = _riccati_recursion(table)
    return table._node_forms


def _one_panel_step(table: KernelTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B0, B1) of the exact step x_{j+1} = A x_j + B0 u_j + B1 u_{j+1}, x = (v, s).

    Per mode, v' = (lambda + 1) v + s - (A D) u and s' = -v - s, whose free
    response from (v, s) is (Z v + Q s, -Q v + (Z - (lambda + 2) Q) s).  A
    control linear on the panel adds -(A D) times the gap-1 Z weights to v
    and +(A D) times the gap-1 Q weights to s: the step of v is Lambda's.
    """
    lam, ad = table.basis.eigenvalues, table.basis.ad_coeffs
    Z, Q = table.Z_exact[:, 1], table.Q[:, 1]
    A = np.block([[np.diag(Z), np.diag(Q)], [np.diag(-Q), np.diag(Z - (lam + 2.0) * Q)]])
    B0 = np.concatenate([-table.alpha_Z[:, 1, None] * ad, table.alpha_Q[:, 1, None] * ad])
    B1 = np.concatenate([-table.beta_Z[:, 1, None] * ad, table.beta_Q[:, 1, None] * ad])
    return A, B0, B1


def _riccati_recursion(table: KernelTable) -> NodeForms:
    """The node forms by one backward sweep over z = (x, u), u_{j+1} the input.

    The tail cost V_j(z) = z^T S_j z weighs node j by dt and node M by dt/2,
    so S_M = (dt/2) D, D picking v and u.  Minimizing over u_{j+1} gives the
    step gain and S_j; minimizing V_j - (dt/2) z^T D z over u_j (node j now
    starts the horizon, with half weight) gives P[j] and K[j, :2], and the
    step gain at (x, -K[j, :2] x) gives K[j, 2:].

    The pairings of Pi are sums over the optimal v from node j on, and
    every gap weight is a sum of terms c rho^{g-1} (a_1, b_1) over the
    first-panel records.  So per mode and term one row R_j over z carries
    sum_{s >= 0} rho^s v_{j+s} back through the steps, R_j = e_v + rho R_{j+1}
    step[j], with T_j = e_v step[M-1] ... step[j] for node M, and the
    pairing at j is Re sum c (a_1 R_{j+1} step[j] + b_1 (R_j - rho^{M-j} T_j)).
    """
    M, n, dt = table.grid.n_steps, table.n_modes, table.grid.dt
    nx, nz = 2 * n, 2 * n + 2
    A, B0, B1 = _one_panel_step(table)
    F = np.zeros((nz, nz))
    F[:nx] = np.hstack([A, B0])
    G = np.vstack([B1, np.eye(2)])
    D = np.diag(np.r_[np.ones(n), np.zeros(n), np.ones(2)])
    P, K, Pi = np.zeros((M + 1, nx, nx)), np.zeros((M + 1, 4, nx)), np.zeros((M + 1, nx, nx))
    step = np.zeros((M + 1, nz, nz))
    panels = (table.panel_Z, table.panel_Q)
    ev = np.eye(nz)[:n]
    R = [np.broadcast_to(ev[:, None], (n, p.shape[2], nz)).astype(complex) for p in panels]
    T = ev
    S = 0.5 * dt * D
    for j in range(M - 1, -1, -1):
        SG = S @ G
        step[j] = F - G @ np.linalg.solve(G.T @ SG, SG.T @ F)
        S = F.T @ S @ step[j] + dt * D
        S = 0.5 * (S + S.T)
        Sr = S - 0.5 * dt * D
        Kj = np.linalg.solve(Sr[nx:, nx:], Sr[nx:, :nx])
        P[j] = Sr[:nx, :nx] - Sr[:nx, nx:] @ Kj
        X = np.vstack([np.eye(nx), -Kj])  # z_j = X x
        K[j] = np.vstack([Kj, -step[j, nx:] @ X])
        T = T @ step[j]
        for i, (c, mu, a1, b1) in enumerate(panels):
            RA = R[i] @ step[j]
            R[i] = ev[:, None] + np.exp(mu * dt)[:, :, None] * RA
            tail = np.exp(mu * (M - j) * dt)[:, :, None] * T[:, None]
            pair = np.real(np.einsum("kt,ktz->kz", c * a1, RA) + np.einsum("kt,ktz->kz", c * b1, R[i] - tail))
            Pi[j, i * n : (i + 1) * n] = pair @ X
    return NodeForms(0.5 * (P + P.transpose(0, 2, 1)), K, Pi, step)


@dataclass
class OptimalSolution:
    u_plus: ControlSignal
    v_plus: Trajectory
    W: float
    residual: float


def solve_optimal(state: StateSnapshot, table: KernelTable) -> OptimalSolution:
    """Solve the optimality system by a forward sweep on the node forms.

    From node j the first control is u_j = -K[j, :2] x, and z = (x, u)
    advances by the optimal steps; v+ = h + Lambda u+ and W = x^T P[j] x.
    """
    forms = node_forms(table)
    j, n = state.tau_index, table.n_modes
    asm = OperatorAssembly(table, j)
    x = state_coordinates(state, table)
    z = np.concatenate([x, -forms.K[j, :2] @ x])
    up = np.empty((asm.m + 1, 2))
    for l in range(asm.m + 1):
        up[l] = z[2 * n :]
        z = forms.step[j + l] @ z
    h = response_field(state, table)
    W = float(x @ forms.P[j] @ x)
    grad = cost_gradient(state, ControlSignal(j, up), table)
    residual = float(np.sqrt(max(asm.inner_U(grad, grad), 0.0)))
    return OptimalSolution(ControlSignal(j, up), Trajectory(j, h + asm.apply_Lambda(up)), W, residual)


def u_plus_control_side(state: StateSnapshot, table: KernelTable) -> ControlSignal:
    """Second route: u+ = -(I + Lambda* Lambda)^-1 Lambda* h."""
    asm = OperatorAssembly(table, state.tau_index)
    h = response_field(state, table)
    rhs = asm.apply_Lambda_star(h)
    return ControlSignal(state.tau_index, -asm.solve_normal_control(rhs))


def evaluate_cost(state: StateSnapshot, u: ControlSignal, table: KernelTable) -> float:
    """Quadratic cost of (state, u); the trajectory rides the resolvent route.

    Using solve_voc keeps the cost evaluation in the same discrete family as
    the optimality system, so the value-function identity holds to solver
    precision instead of to the cross-scheme O(dt^2).
    """
    asm = OperatorAssembly(table, state.tau_index)
    v = solve_voc(state, u, table)
    return asm.inner_V(v.values, v.values) + asm.inner_U(u.samples, u.samples)


def value_function(state: StateSnapshot, table: KernelTable) -> float:
    """Minimum cost-to-go <H h, h> through apply_H's control-side factor, independent of solve_optimal's recursion."""
    asm = OperatorAssembly(table, state.tau_index)
    h = response_field(state, table)
    return asm.inner_V(asm.apply_H(h)[0], h)


def cost_gradient(state: StateSnapshot, u: ControlSignal, table: KernelTable) -> np.ndarray:
    """Frechet gradient 2 (u + Lambda* (h + Lambda u)) in the weighted metric."""
    asm = OperatorAssembly(table, state.tau_index)
    v = response_field(state, table) + asm.apply_Lambda(u.samples)
    return 2.0 * (u.samples + asm.apply_Lambda_star(v))
