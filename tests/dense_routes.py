"""The dense routes that the node forms and the matrix-free control side replace, kept as references.

riccati's single-state routes and solve_optimal read optimal.node_forms,
built by a backward Riccati recursion.  The routes below solve at the
state's node by conjugate gradients on the control side instead
(OperatorAssembly.solve_normal_control and apply_H), or on a dense Cholesky
factor of that start's own I + B B^T (dense_state_solve), so a test that
sets them against the node forms compares a recursion with an iteration or
a factorization.  The dense Lambda itself (reference_Lambda) is assembled
from the per-mode gap-gather weight matrices (weight_matrix), independent
of the direct sums in optimal.  The P' and cross routes take phi = H h from
the control side and hold for a state before T.  at_coordinates moves a
state's seed to given coordinates x, so a route can be evaluated at the x
that a scan carries by the exact one-panel step.  riccati_recursion is the
backward sweep that optimal._riccati_recursion streamlines: it solves every
node's start-of-horizon system inside the sweep and carries each record's
kernel pairings term by term.
"""

import numpy as np
import scipy.linalg as sla

from memlqr import StateSnapshot, apply_generator, memory_functional
from memlqr.forward import response_field, state_coordinates
from memlqr.kernels import gap_weights, product_weights
from memlqr.optimal import NodeForms, OperatorAssembly, one_panel_step


def weight_matrix(alpha, beta, m):
    """Dense (m+1)x(m+1) node-weight matrix of the causal product convolution, by a gap gather."""
    W = np.zeros((m + 1, m + 1))
    if m == 0:
        return W
    j = np.arange(m + 1)[:, None]
    l = np.arange(m + 1)[None, :]
    gap = j - l
    left = np.where(gap >= 1, alpha[np.clip(gap, 0, len(alpha) - 1)], 0.0)
    right = np.where((gap >= 0) & (l >= 1), beta[np.clip(gap + 1, 0, len(beta) - 1)], 0.0)
    return left + right


def reference_Lambda(table, start):
    """Lambda on [t_start, T] assembled directly from the per-mode weight matrices."""
    m = table.grid.n_steps - start
    n = table.n_modes
    if m == 0:
        return np.zeros((n, 2))
    ad = table.basis.eigenvalues[:, None] * table.basis.dmap_coeffs
    alpha, beta = product_weights(table.panel_Z, table.grid)
    blocks = np.empty((m + 1, n, m + 1, 2))
    for k in range(n):
        Wk = weight_matrix(alpha[k], beta[k], m)
        blocks[:, k, :, :] = -Wk[:, :, None] * ad[k][None, None, :]
    return blocks.reshape((m + 1) * n, (m + 1) * 2)


def scaled_Lambda(asm):
    """B = sqrt(D_V) Lambda sqrt(D_U)^-1 of the reference Lambda at asm's start."""
    return np.sqrt(asm.wV)[:, None] * reference_Lambda(asm.table, asm.start) / np.sqrt(asm.wU)[None, :]


def dense_state_solve(asm, g):
    """(I + Lambda Lambda*)^-1 g by a Cholesky factor of this start's own I + B B^T."""
    sV = np.sqrt(asm.wV)
    B = scaled_Lambda(asm)
    factor = sla.cho_factor(np.eye(B.shape[0]) + B @ B.T, lower=True)
    return (sla.cho_solve(factor, sV * g.reshape(-1)) / sV).reshape(g.shape)


def value_form(s1, s2, table):
    """<P(theta) S1, S2> = <h1, h2>_V - <(I + Lambda* Lambda)^-1 Lambda* h1, Lambda* h2>_U."""
    if s1.tau_index != s2.tau_index:
        raise ValueError("states live at different nodes")
    asm = OperatorAssembly(table, s1.tau_index)
    if asm.empty:
        return 0.0
    h1 = response_field(s1, table)
    h2 = response_field(s2, table)
    z1 = asm.solve_normal_control(asm.apply_Lambda_star(h1))
    return asm.inner_V(h1, h2) - asm.inner_U(z1, asm.apply_Lambda_star(h2))


def at_coordinates(state, x, table):
    """The state with state's history, v_hat = x_v and y_hat shifted by x_s - (y_hat - I_xi).

    Its coordinates are x at roundoff: the shift carries the difference
    between a scan's exact seed and the trapezoid seed of state's history.
    """
    n = state.n_modes
    shift = x[n:] - state_coordinates(state, table)[n:]
    return StateSnapshot(state.tau_index, x[:n], state.xi, state.y_hat + shift)


def kernel_pairings(phi, table, start):
    """Per-mode int_theta^T Z(s-theta) phi(s) ds and the same with the Q kernel.

    Exact panel moments against the piecewise-linear phi: phi[s], s steps
    after theta, weighs omega[s] (kernels.gap_weights), and phi[m], at T,
    alpha[m] alone.
    """
    m = table.grid.n_steps - start

    def pair(alpha, beta):
        return np.einsum("sk,ks->k", phi[:m], gap_weights(alpha, beta)[:, :m]) + phi[m] * alpha[:, m]

    return tuple(pair(*product_weights(p, table.grid)) for p in (table.panel_Z, table.panel_Q))


def _phi_terms(state, table):
    """[Lambda* phi](theta) and the kernel pairings (C, D) of phi = H h, H applied on the control side."""
    asm = OperatorAssembly(table, state.tau_index)
    phi, _ = asm.apply_H(response_field(state, table))
    return (asm.apply_Lambda_star(phi)[0],) + kernel_pairings(phi, table, state.tau_index)


def cross(state, dv, dxi, dy, table):
    """cross(S, X) = 2 (dv . C + (dy - I_dxi) . D) for a state-shaped triple X."""
    _, C, D = _phi_terms(state, table)
    return 2.0 * float(np.dot(dv, C) + np.dot(dy - memory_functional(dxi, table.grid), D))


def p_prime(state, table):
    """<P'(theta) S, S> = -|v_hat|^2 + |[Lambda* H h](theta)|^2 - cross(S, A_theta S)."""
    gain = _phi_terms(state, table)[0]
    img = apply_generator(state, table)
    vhat_sq = float(np.dot(state.v_hat, state.v_hat))
    return -vhat_sq + float(np.dot(gain, gain)) - cross(state, img.dv, img.dxi, img.dy, table)


def riccati_recursion(table):
    """The node forms by one backward sweep over z = (x, u), every node solved in the loop.

    The tail cost V_j(z) = z^T S_j z weighs node j by dt and node M by dt/2,
    so S_M = (dt/2) D, D picking v and u.  Minimizing over u_{j+1} gives the
    step gain and S_j; minimizing V_j - (dt/2) z^T D z over u_j gives P[j]
    and K[j, :2], and the step gain at (x, -K[j, :2] x) gives K[j, 2:], the
    next control the optimum plans (optimal.NodeForms keeps K[j, :2]).  Per
    record, mode and term one row R_j = e_v + rho R_{j+1} step[j] carries
    sum_{s >= 0} rho^s v_{j+s}, T_j = e_v step[M-1] ... step[j] carries node
    M, and the pairing at j is Re sum c (a_1 R_{j+1} step[j] + b_1 (R_j - rho^{M-j} T_j)).
    """
    M, n, dt = table.grid.n_steps, table.n_modes, table.grid.dt
    nx, nz = 2 * n, 2 * n + 2
    A, B0, B1 = one_panel_step(table)
    F = np.zeros((nz, nz))
    F[:nx] = np.hstack([A, B0])
    G = np.vstack([B1, np.eye(2)])
    D = np.diag(np.r_[np.ones(n), np.zeros(n), np.ones(2)])
    P, K, Pi = np.zeros((M + 1, nx, nx)), np.zeros((M + 1, 4, nx)), np.zeros((M + 1, nx, nx))
    step = np.zeros((M + 1, nz, nz))
    # a record with no imaginary part (every interval basis) runs in real arithmetic
    panels = [p if np.any(p.imag) else p.real for p in (table.panel_Z, table.panel_Q)]
    ev = np.eye(nz)[:n]
    R = [np.broadcast_to(ev[:, None], (n, p.shape[2], nz)).astype(p.dtype) for p in panels]
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
