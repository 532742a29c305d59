"""Operator assembly and the Fredholm optimality system on [tau, T].

The input-to-state map is the block-lower-triangular operator

    (Lambda u)(t) = -int_tau^t K(t-s) u(s) ds,      K(t) = Z(t) A D,

discretized with the shared product-integration weights of the kernel table.
K depends only on t - s, so mode k's weights on [t_j, T] are Toeplitz in the
gap: an OperatorAssembly keeps the start's slices of the table's Z weights
and applies Lambda by per-mode direct sums, never forming a matrix;
evaluate_cost and cost_gradient form v = h + Lambda u there.  Adjoints are taken with
respect to the trapezoid-weighted inner products, so Lambda* is an exact
transpose and the normal operator I + Lambda Lambda* is symmetric positive
definite in the weighted metric.  The optimal pair is

    v+ = (I + Lambda Lambda*)^-1 h,     u+ = -Lambda* v+,

equivalently u+ = -(I + Lambda* Lambda)^-1 Lambda* h on the control side.
apply_H goes through the control side by the push-through identity

    (I + Lambda Lambda*)^-1 g = g - Lambda z,   z = (I + Lambda* Lambda)^-1 Lambda* g,

and solves for z by conjugate gradients (Hestenes & Stiefel, 1952).

The state-side route is a Riccati recursion instead of a factorization.  A
state enters the system only through x = (v_hat, y_hat - I_xi) in R^{2n},
and with h and Lambda built from the exact exponential sums of Z and Q the
discrete system is the exact sampling of a 2n-dimensional linear system
under a piecewise-linear control: node j + 1's x follows from node j's x
and the control at both panel ends (one_panel_step), and every carry of x
from node to node in the package reads that one step.  node_forms runs one
backward sweep of O(M n^3) work over z = (x, u) on that step, whose loop
holds only the sequential part: the Riccati update and the kernel pairings,
one real matrix shifted by the step's A^T, since per mode (Z, Q) is the
first row of the fundamental matrix A.  Every node's value matrix,
first-node gain and pairings on x follow in batched operations after it.
optimal_sweep steps z forward from any node's x by the stored optimal
steps: solve_optimal reads u+, v+ and x off it, and riccati's restart
sweeps from the x the optimum reaches, so no matrix of order (M+1) n is
formed and no check solves per node.  The matrix-free control side stays
as the independent second route; its condition bound is a Lanczos iteration.

A table's node forms are built once and kept in this module's cache, keyed
weakly on the table; an OperatorAssembly is a view of the table's weights at
one start, cheap to build at every call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .forward import (
    ControlSignal,
    StateSnapshot,
    Trajectory,
    response_field,
    segment_samples,
    state_coordinates,
)
from .kernels import KernelTable, TimeGrid, product_weights

__all__ = [
    "OperatorAssembly",
    "OptimalSolution",
    "NodeForms",
    "node_forms",
    "one_panel_step",
    "optimal_sweep",
    "solve_optimal",
    "u_plus_control_side",
    "evaluate_cost",
    "value_function",
    "cost_gradient",
]


class OperatorAssembly:
    """Lambda on [t_start, T], applied matrix-free from the table's Z weights.

    Fields are stacked row-major as (node, mode) and controls as (node,
    channel); wV / wU are the trapezoid node weights repeated per component.
    Mode k's block of Lambda is -W_k (x) ad_k^T, W_k lower-triangular
    Toeplitz in the gap weights omega_k (the table's omega_Z) except for its
    first column, which borders one panel only and takes alpha_k.  The
    assembly keeps views of the table's alpha_Z and omega_Z, first m+1
    columns, and applies Lambda and Lambda* by per-mode direct sums,
    O(n m^2) per product; it holds no matrix.  omega[:, m] meets only the
    node-0 density, which the sums zero, so no per-start omega is formed.
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
        self.alpha = table.alpha_Z[:, : self.m + 1]
        self.omega = table.omega_Z[:, : self.m + 1]

    # -- elementary applications -------------------------------------------------

    def apply_Lambda(self, u: np.ndarray) -> np.ndarray:
        """u is (m+1, 2); returns the H-valued field (m+1, n)."""
        if self.empty:
            return np.zeros((1, self.n))
        a = self.table.basis.ad_coeffs @ u.T  # (A D u) per mode, (n, m+1)
        a0 = a[:, 0].copy()
        a[:, 0] = 0.0
        out = np.array([np.convolve(wk, ak)[: self.m + 1] for wk, ak in zip(self.omega, a)])
        return -(out + self.alpha * a0[:, None]).T

    def apply_Lambda_star(self, v: np.ndarray) -> np.ndarray:
        """Exact weighted transpose; v is (m+1, n), the result (m+1, 2)."""
        if self.empty:
            return np.zeros((1, 2))
        y = (self.wV * v.reshape(-1)).reshape(self.m + 1, self.n).T
        b = np.array([np.correlate(yk, wk, "full")[self.m :] for yk, wk in zip(y, self.omega)])
        b[:, 0] = np.sum(self.alpha * y, axis=1)
        return -(b.T @ self.table.basis.ad_coeffs) / self.wU.reshape(self.m + 1, 2)

    # -- the control-side normal operator I + Lambda* Lambda ----------------------

    def solve_normal_control(self, r: np.ndarray) -> np.ndarray:
        """(I + Lambda* Lambda)^-1 r on control fields by conjugate gradients; r is (m+1, 2).

        The operator is self-adjoint and at least the identity in the
        weighted metric, so CG (Hestenes & Stiefel, 1952) runs in inner_U and
        stops once |res|_U <= 1e-15 |r|_U.  A residual that is not finite, or
        no convergence within 2 (m+1) iterations, raises LinAlgError.
        """
        if self.empty:
            return r.copy()
        z, res, p = np.zeros_like(r), r.copy(), r.copy()
        rr = self.inner_U(r, r)
        stop = 1e-30 * rr
        for _ in range(2 * (self.m + 1)):
            if not rr > stop:
                break
            Ap = p + self.apply_Lambda_star(self.apply_Lambda(p))
            step = rr / self.inner_U(p, Ap)
            z += step * p
            res -= step * Ap
            rr, rr_prev = self.inner_U(res, res), rr
            p = res + (rr / rr_prev) * p
        if not (np.isfinite(rr) and rr <= stop):
            raise np.linalg.LinAlgError(f"conjugate gradients on I + Lambda* Lambda stopped at |res|^2 = {rr:.3e}")
        return z

    def control_normal_max_eigenvalue(self) -> float:
        """lambda_max of I + Lambda* Lambda by Lanczos in the weighted metric (Lanczos, 1950).

        Lambda* Lambda is positive semidefinite, so lambda_min >= 1 and
        lambda_max bounds the condition number.  The operator commutes with
        the channel swap u0 <-> u1 (A D's columns differ by (-1)^(k+1)), so
        the start is ones on channel 0 only, even and odd under the swap
        alike; the ones vector is even and misses an odd top eigenvector.
        Each step applies the operator once and orthogonalizes against every
        earlier vector, twice; the top Ritz value (eigvalsh of the
        tridiagonal) rises, and the iteration stops once it rises by at most
        1e-15 of itself or the Krylov space is exhausted, never later:
        orthogonality is lost past convergence.  A Ritz value that is not
        finite, or 200 steps, raise LinAlgError.
        """
        if self.empty:
            return 1.0
        q = np.tile([1.0, 0.0], self.m + 1)
        V, T, theta = [q / np.sqrt(self.inner_U(q, q))], np.zeros((201, 201)), 0.0
        for i in range(200):
            r = V[i] + self.apply_Lambda_star(self.apply_Lambda(V[i].reshape(-1, 2))).reshape(-1)
            T[i, i] = self.inner_U(V[i], r)
            Vm = np.array(V)
            for _ in range(2):
                r -= (Vm * self.wU) @ r @ Vm
            T[i + 1, i] = np.sqrt(self.inner_U(r, r))
            theta, prev = np.linalg.eigvalsh(T[: i + 1, : i + 1])[-1], theta
            if not np.isfinite(theta):
                break
            if theta - prev <= 1e-15 * theta or len(V) == q.size or T[i + 1, i] == 0.0:
                return float(theta)
            V.append(r / T[i + 1, i])
        raise np.linalg.LinAlgError(f"Lanczos on I + Lambda* Lambda stopped at {theta:.3e}")

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
      K[j]    (2, 2n)       the first-node gain, u_j = -K[j] x;
      Pi[j]   (2n, 2n)      the kernel pairings (C, D) = Pi[j] x, per mode
                            int Z(s - t_j) phi(s) ds and the same with Q,
                            phi = H h piecewise linear;
      step[j] (2n+2, 2n+2)  the optimal step on z = (x, u) from node j to
                            j + 1 with u_j held, z_{j+1} = step[j] z_j; its
                            last two rows give u_{j+1}, so the next control
                            of the optimum from x is step[j]'s at (x, -K[j] x).
    """

    P: np.ndarray
    K: np.ndarray
    Pi: np.ndarray
    step: np.ndarray


# node forms per live table; a NodeForms holds arrays only, never the table,
# so an entry does not keep its key alive
_NODE_FORMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def node_forms(table: KernelTable) -> NodeForms:
    """The NodeForms of a table, built on first use and cached while the table lives.

    They come from one backward Riccati recursion over z = (x, u) on the
    exact one-panel step of a piecewise-linear control (Franklin, Powell &
    Workman, *Digital Control of Dynamic Systems*, 1998).
    """
    forms = _NODE_FORMS.get(table)
    if forms is None:
        forms = _NODE_FORMS[table] = _riccati_recursion(table)
    return forms


def _gap_one_weights(table: KernelTable) -> tuple[np.ndarray, np.ndarray]:
    """(alpha_1, beta_1): the gap-1 product weights of Z and Q stacked, (2n,) each.

    Column 1 of the product weights on a one-panel grid; the stacked weights
    at gap g + 1 are A^T times those at gap g, A of one_panel_step.
    """
    (aZ, bZ), (aQ, bQ) = (product_weights(p, TimeGrid(table.grid.dt, 1)) for p in (table.panel_Z, table.panel_Q))
    return np.concatenate([aZ[:, 1], aQ[:, 1]]), np.concatenate([bZ[:, 1], bQ[:, 1]])


def one_panel_step(table: KernelTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B0, B1) of the exact step x_{j+1} = A x_j + B0 u_j + B1 u_{j+1}, x = (v, s).

    Per mode, v' = (lambda + 1) v + s - (A D) u and s' = -v - s, whose free
    response from (v, s) is (Z v + Q s, -Q v + (Z - (lambda + 2) Q) s).  A
    control linear on the panel adds -(A D) times the gap-1 Z weights to v
    and +(A D) times the gap-1 Q weights to s: the step of v is Lambda's, so
    the v it carries is v = h + Lambda u at roundoff.  The node forms, the
    scans and the closed loop all move x by this step.
    """
    lam, ad = table.basis.eigenvalues, table.basis.ad_coeffs
    Z, Q = table.Z_exact[:, 1], table.Q[:, 1]
    A = np.block([[np.diag(Z), np.diag(Q)], [np.diag(-Q), np.diag(Z - (lam + 2.0) * Q)]])
    a1, b1 = _gap_one_weights(table)
    sad = np.concatenate([-ad, ad])  # -A D on v, +A D on s
    return A, a1[:, None] * sad, b1[:, None] * sad


def _riccati_recursion(table: KernelTable) -> NodeForms:
    """The node forms by one backward sweep over z = (x, u), u_{j+1} the input.

    The tail cost V_j(z) = z^T S_j z weighs node j by dt and node M by dt/2,
    so S_M = (dt/2) D, D picking v and u.  Minimizing over u_{j+1} gives the
    step gain and S_j, the only sequential work.  Node j starting the
    horizon, with half weight, is S_j - (dt/2) D, whose blocks each step
    stores; after the sweep one batched solve over u_j gives K and
    P[j] = S_xx - S_xu K[j].

    With (alpha_g, beta_g) the stacked Z and Q weights at gap g, the
    pairings at node j are sum_{g >= 1} (beta_g v_{j+g-1} + alpha_g v_{j+g})
    per mode, over the optimal v from node j.  The gap-(g+1) weights are A^T
    times the gap-g ones (_gap_one_weights), so one real (2n, 2n+2) matrix
    over z carries the pairings back through the steps,

        Pz_M = 0,    Pz_j = Wb + (Wa + A^T Pz_{j+1}) step[j],

    Wa and Wb putting alpha_1 and beta_1 on the v-columns of z.  Its u-part
    is folded in after the sweep like P's.
    """
    M, n, dt = table.grid.n_steps, table.n_modes, table.grid.dt
    nx, nz = 2 * n, 2 * n + 2
    A, B0, B1 = one_panel_step(table)
    F = np.zeros((nz, nz))
    F[:nx] = np.hstack([A, B0])
    G = np.vstack([B1, np.eye(2)])
    D = np.diag(np.r_[np.ones(n), np.zeros(n), np.ones(2)])
    Wa, Wb, v_cols = np.zeros((nx, nz)), np.zeros((nx, nz)), (np.arange(nx), np.tile(np.arange(n), 2))
    Wa[v_cols], Wb[v_cols] = _gap_one_weights(table)
    P, K, Pi = np.zeros((M + 1, nx, nx)), np.zeros((M + 1, 2, nx)), np.zeros((M + 1, nx, nx))
    step, S_uu, Pi_u = np.zeros((M + 1, nz, nz)), np.zeros((M, 2, 2)), np.zeros((M, nx, 2))
    S, Pz = 0.5 * dt * D, np.zeros((nx, nz))
    for j in range(M - 1, -1, -1):
        SG = S @ G
        step[j] = F - G @ np.linalg.solve(G.T @ SG, SG.T @ F)
        S = F.T @ S @ step[j] + dt * D
        S = 0.5 * (S + S.T)
        Sr = S - 0.5 * dt * D
        P[j], K[j], S_uu[j] = Sr[:nx, :nx], Sr[nx:, :nx], Sr[nx:, nx:]
        Pz = Wb + (Wa + A.T @ Pz) @ step[j]
        Pi[j], Pi_u[j] = Pz[:, :nx], Pz[:, nx:]
    S_ux = K[:M].copy()
    K[:M] = np.linalg.solve(S_uu, S_ux)
    P[:M] -= S_ux.transpose(0, 2, 1) @ K[:M]
    Pi[:M] -= Pi_u @ K[:M]
    return NodeForms(0.5 * (P + P.transpose(0, 2, 1)), K, Pi, step)


@dataclass
class OptimalSolution:
    u_plus: ControlSignal
    v_plus: Trajectory
    x: np.ndarray  # (m+1, 2n), the coordinates the optimum reaches at every node
    W: float
    residual: float


def optimal_sweep(table: KernelTable, j: int, x: np.ndarray) -> np.ndarray:
    """z = (x, u) of the optimum from coordinates x at node j, (M - j + 1, 2n + 2).

    u_j = -K[j] x, then z_{l+1} = step[l] z_l.  By dynamic programming the
    sweep from the x an optimum reaches later is its tail but for u there.
    """
    forms = node_forms(table)
    z = np.empty((table.grid.n_steps - j + 1, x.size + 2))
    z[0, : x.size], z[0, x.size :] = x, -forms.K[j] @ x
    for l in range(len(z) - 1):
        z[l + 1] = forms.step[j + l] @ z[l]
    return z


def solve_optimal(state: StateSnapshot, table: KernelTable) -> OptimalSolution:
    """Solve the optimality system by optimal_sweep from the state's x: u+, v+ and x are z's, W = x^T P[j] x."""
    j, n = state.tau_index, table.n_modes
    x = state_coordinates(state, table)
    z = optimal_sweep(table, j, x)
    up = ControlSignal(j, z[:, 2 * n :])
    W = float(x @ node_forms(table).P[j] @ x)
    grad = cost_gradient(state, up, table)
    residual = float(np.sqrt(max(OperatorAssembly(table, j).inner_U(grad, grad), 0.0)))
    return OptimalSolution(up, Trajectory(j, z[:, :n]), z[:, : 2 * n], W, residual)


def u_plus_control_side(state: StateSnapshot, table: KernelTable) -> ControlSignal:
    """Second route: u+ = -(I + Lambda* Lambda)^-1 Lambda* h."""
    asm = OperatorAssembly(table, state.tau_index)
    h = response_field(state, table)
    rhs = asm.apply_Lambda_star(h)
    return ControlSignal(state.tau_index, -asm.solve_normal_control(rhs))


def evaluate_cost(state: StateSnapshot, u: ControlSignal, table: KernelTable) -> float:
    """Quadratic cost of (state, u), with v = h + Lambda u by the start's OperatorAssembly.

    That is the Lambda of the optimality system itself, so the
    value-function identity holds to solver precision instead of to the
    cross-scheme O(dt^2).  u must run from the state's node to T.
    """
    asm = OperatorAssembly(table, state.tau_index)
    us = segment_samples(u, table, state.tau_index)
    v = response_field(state, table) + asm.apply_Lambda(us)
    return asm.inner_V(v, v) + asm.inner_U(us, us)


def value_function(state: StateSnapshot, table: KernelTable) -> float:
    """Minimum cost-to-go <H h, h> through apply_H's conjugate gradients, independent of solve_optimal's recursion."""
    asm = OperatorAssembly(table, state.tau_index)
    h = response_field(state, table)
    return asm.inner_V(asm.apply_H(h)[0], h)


def cost_gradient(state: StateSnapshot, u: ControlSignal, table: KernelTable) -> np.ndarray:
    """Frechet gradient 2 (u + Lambda* (h + Lambda u)) in the weighted metric."""
    asm = OperatorAssembly(table, state.tau_index)
    us = segment_samples(u, table, state.tau_index)
    v = response_field(state, table) + asm.apply_Lambda(us)
    return 2.0 * (us + asm.apply_Lambda_star(v))
