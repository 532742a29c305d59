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
both routes are kept and cross-checked.  apply_H goes through the control
side by the push-through identity

    (I + Lambda Lambda*)^-1 g = g - Lambda z,   z = (I + Lambda* Lambda)^-1 Lambda* g,

so it solves with the start's control-side Cholesky factor of order (m+1) 2,
independent of the state-side route it is checked against.

Lambda's causality makes every start's state-side Cholesky factor the start-0
factor L_0's leading block with one corrected last block row, so L_0 is
formed once per table and serves every start's state solve.  B B^T has rank
at most 2 (M+1), so L_0 is kept in block-generator form (StateFactor): a
diagonal block and one generator per group of about 64 rows, built in
O((M+1) n (2 (M+1))^2) work, with no matrix of order (M+1) n formed, and
every triangular solve runs group by group on them.  A state enters
the system only through x = (v_hat, y_hat - I_xi) in R^{2n}, so node_forms
reads the 2n x 2n value matrix, the first-step gain and the kernel pairings
of every node off L_0 too, and the verification scans never solve per node.

The table keeps Lambda, L_0 and one control-side factor per start; an
OperatorAssembly is a view of them and of the start's weights, cheap to
build at every call.
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


_GROUP_ROWS = 64  # about this many rows of L_0 per generator block


@dataclass(frozen=True)
class StateFactor:
    """L_0, the lower Cholesky factor of the start-0 I + B B^T, in block-generator form.

    B has 2 (M+1) columns, so B B^T has at most that rank and L_0 is the
    identity plus a semiseparable part (Vandebril, Van Barel & Mastronardi,
    *Matrix Computations and Semiseparable Matrices*, 2008).  Its rows are
    grouped q nodes at a time.  Group g's diagonal block is L[g], and every
    later row rho has L_0[rho, g] = sV_rho Lambda_rho G[g]^T, sV_rho being
    sw at rho's node: G[g] is L[g]^-1 B_g (I + B_<^T B_<)^-1 times
    sqrt(D_U)^-1, B_< the rows before g.  Lambda is passed to every solve, so
    the factor holds O((M+1) n 2 (M+1)) numbers and only arrays, never the
    table.  Ld[m] is L_0's node-m diagonal block and C[m] the last diagonal
    block of the start j = M - m factor L_j,
    C[m] C[m]^T = (I + B_mm B_mm^T + Ld[m] Ld[m]^T) / 2.
    """

    q: int
    sw: np.ndarray
    L: list
    G: list
    Ld: np.ndarray
    C: np.ndarray

    @property
    def n(self) -> int:
        return self.Ld.shape[-1]

    def _groups(self, k: int):
        """(g, lo, hi, rows, p) for every group meeting the first k nodes, clipped to them."""
        n = self.n
        for g, lo in enumerate(range(0, k, self.q)):
            hi = min(lo + self.q, k)
            yield g, lo, hi, slice(lo * n, hi * n), (hi - lo) * n

    def _sV(self, lo: int, hi: int) -> np.ndarray:
        return np.repeat(self.sw[lo:hi], self.n)[:, None]

    def forward(self, Lam: np.ndarray, f: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """y = L_0[:k, :k]^-1 f on the first k nodes' rows, and s, the sum of G[g]^T y_g over the whole groups."""
        y, s = np.empty_like(f), np.zeros((2 * k, f.shape[1]))
        for g, lo, hi, r, p in self._groups(k):
            rhs = f[r] - self._sV(lo, hi) * (Lam[r, : 2 * lo] @ s[: 2 * lo])
            y[r] = sla.solve_triangular(self.L[g][:p, :p], rhs, lower=True, check_finite=False)
            if p == len(self.L[g]):
                s[: 2 * hi] += self.G[g].T @ y[r]
        return y, s

    def backward(self, Lam: np.ndarray, z: np.ndarray, k: int, t: np.ndarray) -> np.ndarray:
        """x = L_0[:k, :k]^-T z', z' being z less the later rows' part, G[g] t on a whole group g.

        t, of 2k rows, enters holding the later rows' sum Lambda_rho^T sV_rho x_rho and is overwritten.
        """
        x = np.empty_like(z)
        for g, lo, hi, r, p in reversed(list(self._groups(k))):
            rhs = z[r] - self.G[g] @ t[: 2 * hi] if p == len(self.L[g]) else z[r]
            x[r] = sla.solve_triangular(self.L[g][:p, :p], rhs, lower=True, trans="T", check_finite=False)
            t[: 2 * hi] += Lam[r, : 2 * hi].T @ (self._sV(lo, hi) * x[r])
        return x

    def solve(self, Lam: np.ndarray, f: np.ndarray, m: int) -> np.ndarray:
        """L_j^-T L_j^-1 f at start j = M - m; f is (m+1) n x cols.

        L_j is L_0's leading m nodes plus the last block row [a L_0[m, :m], C],
        with a = 1 and C = Ld[M] at start 0, and a = 1/sqrt(2) and C = C[m]
        past it.  L_0[m, :m] applied to y is sV_m Lambda_m s, over the whole
        groups before node m's group g, plus L[g]'s in-group part.
        """
        n, k = self.n, m * self.n
        a, C = (1.0, self.Ld[m]) if m == len(self.sw) - 1 else (np.sqrt(0.5), self.C[m])
        g, lo = m // self.q, m - m % self.q
        p = (m - lo) * n
        Bm = (a * self.sw[m]) * Lam[k : k + n, : 2 * lo]
        Lm = a * self.L[g][p : p + n, :p]
        y, s = self.forward(Lam, f[:k], m)
        yl = sla.solve_triangular(C, f[k:] - Bm @ s[: 2 * lo] - Lm @ y[lo * n :], lower=True, check_finite=False)
        xl = sla.solve_triangular(C, yl, lower=True, trans="T", check_finite=False)
        y[lo * n :] -= Lm.T @ xl
        t = np.zeros((2 * m, f.shape[1]))
        t[: 2 * lo] = Bm.T @ xl
        return np.concatenate([self.backward(Lam, y, m, t), xl])


def _state_factor(Lam: np.ndarray, w: np.ndarray, n: int) -> StateFactor:
    """L_0's generators for Lambda on [0, T] with node weights w, group by group.

    Minv = (I + B_<^T B_<)^-1 over the rows B_< already processed is kept as
    Mi = sqrt(D_U)^-1 Minv sqrt(D_U)^-1, so that B_g Minv = sV_g Lambda_g Mi.
    Minv is the identity past the processed rows' last column and B_g is
    zero past group g's, so group g reads and updates only Mi's leading
    block on its own columns.  For group g, S = I + B_g Minv B_g^T >= I is
    the Schur complement left by the processed rows, L[g] = chol(S),
    G[g] = L[g]^-1 sV_g Lambda_g Mi and Mi <- Mi - G[g]^T G[g].
    """
    nodes, sw = len(w), np.sqrt(w)
    q = max(1, _GROUP_ROWS // n)
    L, G, Ld = [], [], np.empty((nodes, n, n))
    Mi = np.diag(1.0 / np.repeat(w, 2))
    for lo in range(0, nodes, q):
        hi = min(lo + q, nodes)
        VL = np.repeat(sw[lo:hi], n)[:, None] * Lam[lo * n : hi * n, : 2 * hi]
        BM = VL @ Mi[: 2 * hi, : 2 * hi]
        S = BM @ VL.T
        S[np.diag_indices_from(S)] += 1.0
        L.append(np.linalg.cholesky(S))
        G.append(sla.solve_triangular(L[-1], BM, lower=True, check_finite=False))
        Mi[: 2 * hi, : 2 * hi] -= G[-1].T @ G[-1]
        i = np.arange(hi - lo)
        Ld[lo:hi] = L[-1].reshape(hi - lo, n, hi - lo, n)[i, :, i, :]
    i = np.arange(nodes)
    Bd = Lam.reshape(nodes, n, nodes, 2)[i, :, i, :]  # B_mm: the weights of node m cancel
    C = np.linalg.cholesky(0.5 * (np.eye(n) + Bd @ Bd.transpose(0, 2, 1) + Ld @ Ld.transpose(0, 2, 1)))
    return StateFactor(q, sw, L, G, Ld, C)


def _table_state_factor(table: KernelTable) -> StateFactor:
    """L_0 in generator form (StateFactor), built on first use and kept on the table."""
    if table._state_chol is None:
        table._state_chol = _state_factor(_table_Lambda(table), table.grid.segment_weights(0), table.n_modes)
    return table._state_chol


class OperatorAssembly:
    """Lambda on [t_start, T]: a view of the table's Lambda, its weights and its factors.

    Lam is the leading block of the table-wide Lambda.  Fields are stacked
    row-major as (node, mode) and controls as (node, channel).  wV / wU are
    the trapezoid node weights repeated per component; the scaled matrix
    B = sqrt(D_V) Lambda sqrt(D_U)^-1 makes the two normal systems
    I + B B^T (state side) and I + B^T B (control side) plainly symmetric.
    B is formed only as a temporary while the control-side factor is built;
    the factors live on the table, L_0's generators in _state_chol and the
    start's control-side factor in _control_chol, so an assembly holds no
    matrix of its own.
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

    def solve_normal_state(self, g: np.ndarray) -> np.ndarray:
        """(I + Lambda Lambda*)^-1 g by the table's SPD factor L_0; g is (m+1, n).

        Past start 0 the factor is L_0's leading m block rows plus the last
        row [L_0[m, :m] / sqrt(2), C_m]; StateFactor.solve runs both
        triangular solves group by group on L_0's generators.
        """
        if self.empty:
            return g.copy()
        factor = _table_state_factor(self.table)
        sol = factor.solve(self.Lam, (self._sV * g.reshape(-1))[:, None], self.m)
        return (sol[:, 0] / self._sV).reshape(self.m + 1, self.n)

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
    """The value matrix, first-step gain and kernel pairings at every node.

    A state at node j enters the optimality system only through its
    coordinates x = (v_hat, y_hat - I_xi) in R^{2n}, since its response is
    h = Z x_v + Q x_s.  For every node j (row M, the empty horizon, is zero):

      P[j]   (2n, 2n)  the value W_j = x^T P[j] x, symmetric;
      K[j]   (4, 2n)   the local optimal control's first two nodes,
                       u[0:2] = -(K[j] x).reshape(2, 2);
      Pi[j]  (2n, 2n)  the kernel pairings (C, D) of H h against the Z and Q
                       panel weights, (C, D) = Pi[j] x.
    """

    P: np.ndarray
    K: np.ndarray
    Pi: np.ndarray


def node_forms(table: KernelTable) -> NodeForms:
    """The NodeForms of a table, built on first use and kept on the table.

    Every entry is a weighted pairing <f, H h>_V = (L_j^-1 sV f)^T (L_j^-1 sV h)
    with L_j the state-side Cholesky factor at start j: the start-0 factor
    L_0's leading block plus one corrected last block row m = M - j
    (StateFactor.C).  Every f needed is a prefix of a start-0 field except
    in its last row, so one forward solve on L_0's generators against 4n + 4
    right-hand sides, a running sum over block rows and one n x n correction
    per node give every node's forms.  Node 0 is the start-0 factor itself,
    whose last node is T.
    """
    if table._node_forms is None:
        table._node_forms = _build_node_forms(table)
    return table._node_forms


def _build_node_forms(table: KernelTable) -> NodeForms:
    M, n = table.grid.n_steps, table.n_modes
    factor = _table_state_factor(table)
    asm = OperatorAssembly(table, 0)
    sV = asm._sV[::n, None]
    modes = np.arange(n)
    ng, cols = 2 * n, 4 * n + 4
    G, Kc, Om = slice(0, ng), slice(ng, ng + 4), slice(ng + 4, cols)

    # F: start-0 right-hand sides, rows (node, mode): the response columns
    # of x, the first four columns of B over sU, and the pairing weights
    # omega (kernels.gap_weights) over sV.  delta = sqrt(2) f_j[m] - F[m],
    # the change of the last row at start j = M - m: zero for the response
    # columns, whose sV halves with the row weight; F itself for control node
    # 1, whose sU halves too when it is the last node (m = 1); and for the
    # pairings, whose last weight is alpha[m] alone over sqrt(dt/2).
    F = np.zeros((M + 1, n, cols))
    delta = np.zeros_like(F)
    F[:, :, Kc] = (asm._sV[:, None] * asm.Lam[:, :4] / asm._sU[:4] / asm._sU[:4]).reshape(M + 1, n, 4)
    delta[1, :, ng + 2 : ng + 4] = F[1, :, ng + 2 : ng + 4]
    pairs = ((table.alpha_Z, table.beta_Z), (table.alpha_Q, table.beta_Q))
    for c, (kernel, (alpha, beta)) in enumerate(zip((table.Z, table.Q), pairs)):
        F[:, modes, c * n + modes] = sV * kernel.T
        F[:, modes, Om.start + c * n + modes] = gap_weights(alpha, beta).T / sV
        delta[:-1, modes, Om.start + c * n + modes] = (alpha[:, :-1] - beta[:, 1:]).T / np.sqrt(table.grid.dt)
    Y = factor.forward(asm.Lam, F.reshape(-1, cols), M + 1)[0].reshape(F.shape)
    head = np.cumsum(np.einsum("rkc,rkd->rcd", Y, Y[:, :, G]), axis=0)

    # the last block row at start j: sqrt(2) L_j[m, m] y_j[m] = L_mm Y[m] + delta[m]
    y_last = sla.solve_triangular(factor.C, (factor.Ld @ Y + delta) / np.sqrt(2.0), lower=True, check_finite=False)
    last = np.einsum("rkc,rkd->rcd", y_last, y_last[:, :, G])

    gram = np.zeros((M + 1, cols, ng))
    gram[0] = head[M]
    m = np.arange(M - 1, 0, -1)  # nodes j = 1 .. M-1
    gram[1:M] = head[m - 1] + last[m]
    P = gram[:, G]
    return NodeForms(0.5 * (P + P.transpose(0, 2, 1)), gram[:, Kc], gram[:, Om])


@dataclass
class OptimalSolution:
    u_plus: ControlSignal
    v_plus: Trajectory
    W: float
    residual: float


def solve_optimal(state: StateSnapshot, table: KernelTable) -> OptimalSolution:
    """Solve the optimality system by the table's state-side SPD factor L_0."""
    asm = OperatorAssembly(table, state.tau_index)
    h = response_field(state, table)
    vp = asm.solve_normal_state(h)
    up = -asm.apply_Lambda_star(vp)
    W = asm.inner_V(vp, h)
    grad = cost_gradient(state, ControlSignal(state.tau_index, up), table)
    residual = float(np.sqrt(max(asm.inner_U(grad, grad), 0.0)))
    return OptimalSolution(
        ControlSignal(state.tau_index, up),
        Trajectory(state.tau_index, h + asm.apply_Lambda(up)),
        W,
        residual,
    )


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
    """Minimum cost-to-go <H h, h> through apply_H's control-side factor, independent of solve_optimal's L_0."""
    asm = OperatorAssembly(table, state.tau_index)
    h = response_field(state, table)
    return asm.inner_V(asm.apply_H(h)[0], h)


def cost_gradient(state: StateSnapshot, u: ControlSignal, table: KernelTable) -> np.ndarray:
    """Frechet gradient 2 (u + Lambda* (h + Lambda u)) in the weighted metric."""
    asm = OperatorAssembly(table, state.tau_index)
    v = response_field(state, table) + asm.apply_Lambda(u.samples)
    return 2.0 * (u.samples + asm.apply_Lambda_star(v))
