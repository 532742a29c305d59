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

equivalently u+ = -(I + Lambda* Lambda)^-1 Lambda* h on the control side;
both routes are kept and cross-checked.  apply_H goes through the decoupled
two-field system (phi driven causally by psi, psi anticausally by phi),
solved as one dense block system, and is verified against the direct SPD
factorization.
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
)
from .kernels import KernelTable, weight_matrix

__all__ = [
    "OperatorAssembly",
    "OptimalSolution",
    "get_assembly",
    "solve_optimal",
    "u_plus_control_side",
    "apply_H",
    "evaluate_cost",
    "value_function",
    "cost_gradient",
]

_CACHE_SIZE = 3


def _table_Lambda(table: KernelTable) -> np.ndarray:
    """Lambda on [0, T], built on first use and kept on the table.

    Rows are stacked as (node, mode) and columns as (node, channel).
    """
    if table._Lambda is None:
        M, n = table.grid.n_steps, table.n_modes
        ad = table.basis.ad_coeffs
        blocks = np.empty((M + 1, n, M + 1, 2))
        for k in range(n):
            Wk = weight_matrix(table.alpha_Z[k], table.beta_Z[k], M)
            blocks[:, k, :, :] = -Wk[:, :, None] * ad[k][None, None, :]
        table._Lambda = blocks.reshape((M + 1) * n, (M + 1) * 2)
    return table._Lambda


class OperatorAssembly:
    """Dense discretization of Lambda on [t_start, T] plus cached factorizations.

    Lam is the leading block of the table-wide Lambda.  Fields are stacked
    row-major as (node, mode) and controls as (node, channel).  wV / wU are
    the trapezoid node weights repeated per component; the scaled matrix
    B = sqrt(D_V) Lambda sqrt(D_U)^-1 makes the two normal systems
    I + B B^T (state side) and I + B^T B (control side) plainly symmetric.
    The assembly keeps no reference to the table, so the table's cache of
    assemblies forms no reference cycle.
    """

    def __init__(self, table: KernelTable, start: int):
        self.start = start
        self.m = table.grid.n_steps - start
        self.n = table.n_modes
        w = table.grid.segment_weights(start)
        self.wV = np.repeat(w, self.n)
        self.wU = np.repeat(w, 2)
        self.empty = self.m == 0
        self.Lam = _table_Lambda(table)[: (self.m + 1) * self.n, : (self.m + 1) * 2]

        self._chol_state = None
        self._chol_control = None
        self._lu_block = None
        if not self.empty:
            self._sV = np.sqrt(self.wV)
            self._sU = np.sqrt(self.wU)
            self._B = (self._sV[:, None] * self.Lam) / self._sU[None, :]

    # -- elementary applications -------------------------------------------------

    def apply_Lambda(self, u: np.ndarray) -> np.ndarray:
        """u is (m+1, 2); returns the H-valued field (m+1, n)."""
        if self.empty:
            return np.zeros((1, self.n))
        return (self.Lam @ u.reshape(-1)).reshape(self.m + 1, self.n)

    def apply_Lambda_star(self, v: np.ndarray) -> np.ndarray:
        """Exact weighted transpose; v is (m+1, n) or a batch (C, m+1, n).

        A batch goes through one matrix-matrix product; the result is
        (m+1, 2) or (C, m+1, 2).
        """
        lead = v.shape[:-2]
        if self.empty:
            return np.zeros(lead + (1, 2))
        flat = v.reshape(-1, self.wV.size)
        y = (self.Lam.T @ (self.wV * flat).T).T / self.wU
        return y.reshape(lead + (self.m + 1, 2))

    # -- factorizations ----------------------------------------------------------

    def _state_factor(self):
        if self._chol_state is None:
            A = np.eye((self.m + 1) * self.n) + self._B @ self._B.T
            self._chol_state = sla.cho_factor(A, lower=True)
        return self._chol_state

    def _control_normal(self) -> np.ndarray:
        return np.eye((self.m + 1) * 2) + self._B.T @ self._B

    def _control_factor(self):
        if self._chol_control is None:
            self._chol_control = sla.cho_factor(self._control_normal(), lower=True)
        return self._chol_control

    def control_normal_eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the weighted control-side normal operator I + B^T B."""
        return sla.eigvalsh(self._control_normal())

    def solve_normal_state(self, g: np.ndarray) -> np.ndarray:
        """(I + Lambda Lambda*)^-1 g by the SPD factorization; g is (m+1, n)."""
        if self.empty:
            return g.copy()
        rhs = self._sV * g.reshape(-1)
        sol = sla.cho_solve(self._state_factor(), rhs)
        return (sol / self._sV).reshape(self.m + 1, self.n)

    def solve_normal_control(self, r: np.ndarray) -> np.ndarray:
        """(I + Lambda* Lambda)^-1 r on control fields; r is (m+1, 2) or (C, m+1, 2)."""
        if self.empty:
            return r.copy()
        rhs = self._sU * r.reshape(-1, self._sU.size)
        sol = sla.cho_solve(self._control_factor(), rhs.T).T
        return (sol / self._sU).reshape(r.shape)

    def solve_decoupled(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two-field route: phi = g - Lambda Lambda* phi via the block system.

        Solves [[I, -Lambda], [Lambda*, I]] (phi, psi) = (g, 0) by dense LU;
        eliminating psi recovers (I + Lambda Lambda*) phi = g.
        """
        if self.empty:
            return g.copy(), np.zeros((1, 2))
        nv = (self.m + 1) * self.n
        nu = (self.m + 1) * 2
        if self._lu_block is None:
            blk = np.zeros((nv + nu, nv + nu))
            blk[:nv, :nv] = np.eye(nv)
            blk[:nv, nv:] = -self.Lam
            blk[nv:, :nv] = (self.Lam.T * self.wV[None, :]) / self.wU[:, None]
            blk[nv:, nv:] = np.eye(nu)
            self._lu_block = sla.lu_factor(blk)
        rhs = np.concatenate([g.reshape(-1), np.zeros(nu)])
        sol = sla.lu_solve(self._lu_block, rhs)
        return sol[:nv].reshape(self.m + 1, self.n), sol[nv:].reshape(self.m + 1, 2)

    # -- weighted inner products ---------------------------------------------------

    def inner_V(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(self.wV * a.reshape(-1), b.reshape(-1)))

    def inner_U(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(self.wU * a.reshape(-1), b.reshape(-1)))


def get_assembly(table: KernelTable, start: int) -> OperatorAssembly:
    """The assembly at a start node, from a small FIFO cache on the table.

    Every assembly slices the one table-wide Lambda; the cache keeps the
    per-start weighted matrix and factorizations for reuse across states.
    """
    cache = table._assembly_cache
    if start not in cache:
        if len(cache) >= _CACHE_SIZE:
            cache.pop(next(iter(cache)))
        cache[start] = OperatorAssembly(table, start)
    return cache[start]


@dataclass
class OptimalSolution:
    u_plus: ControlSignal
    v_plus: Trajectory
    W: float
    residual: float


def solve_optimal(state: StateSnapshot, table: KernelTable) -> OptimalSolution:
    """Solve the optimality system by the state-side SPD factorization."""
    asm = get_assembly(table, state.tau_index)
    h = response_field(state, table)
    vp = asm.solve_normal_state(h)
    up = -asm.apply_Lambda_star(vp)
    W = asm.inner_V(vp, h)
    grad = cost_gradient(state, ControlSignal(state.tau_index, up), table, _asm=asm, _h=h)
    residual = float(np.sqrt(max(asm.inner_U(grad, grad), 0.0)))
    return OptimalSolution(
        ControlSignal(state.tau_index, up),
        Trajectory(state.tau_index, h + asm.apply_Lambda(up)),
        W,
        residual,
    )


def u_plus_control_side(state: StateSnapshot, table: KernelTable) -> ControlSignal:
    """Second route: u+ = -(I + Lambda* Lambda)^-1 Lambda* h."""
    asm = get_assembly(table, state.tau_index)
    h = response_field(state, table)
    rhs = asm.apply_Lambda_star(h)
    return ControlSignal(state.tau_index, -asm.solve_normal_control(rhs))


def apply_H(g: np.ndarray, table: KernelTable, start: int) -> np.ndarray:
    """(I + Lambda Lambda*)^-1 g through the decoupled two-field algorithm."""
    phi, _psi = get_assembly(table, start).solve_decoupled(g)
    return phi


def evaluate_cost(state: StateSnapshot, u: ControlSignal, table: KernelTable) -> float:
    """Quadratic cost of (state, u); the trajectory rides the resolvent route.

    Using solve_voc keeps the cost evaluation in the same discrete family as
    the optimality system, so the value-function identity holds to solver
    precision instead of to the cross-scheme O(dt^2).
    """
    asm = get_assembly(table, state.tau_index)
    v = solve_voc(state, u, table)
    return asm.inner_V(v.values, v.values) + asm.inner_U(u.samples, u.samples)


def value_function(state: StateSnapshot, table: KernelTable) -> float:
    """Minimum cost-to-go via the decoupled inverse (independent of solve_optimal)."""
    asm = get_assembly(table, state.tau_index)
    h = response_field(state, table)
    phi = apply_H(h, table, state.tau_index)
    return asm.inner_V(phi, h)


def cost_gradient(
    state: StateSnapshot,
    u: ControlSignal,
    table: KernelTable,
    _asm: OperatorAssembly | None = None,
    _h: np.ndarray | None = None,
) -> np.ndarray:
    """Frechet gradient 2 (u + Lambda* (h + Lambda u)) in the weighted metric."""
    asm = _asm if _asm is not None else get_assembly(table, state.tau_index)
    h = _h if _h is not None else response_field(state, table)
    v = h + asm.apply_Lambda(u.samples)
    return 2.0 * (u.samples + asm.apply_Lambda_star(v))
