"""The control-side routes that the node forms replace, kept as dense references.

riccati's single-state routes read optimal.node_forms, built off the
state-side Cholesky factor L_0.  The routes below solve at the state's node
on the start's control-side Cholesky factor of I + B^T B instead
(OperatorAssembly.solve_normal_control and apply_H), so a test that sets
the two against each other compares two factorizations.  The P' and cross
routes take phi = H h from the control side and hold for a state before T.
"""

import numpy as np

from memlqr import apply_generator, memory_functional
from memlqr.forward import response_field
from memlqr.kernels import gap_weights
from memlqr.optimal import OperatorAssembly


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


def kernel_pairings(phi, table, start):
    """Per-mode int_theta^T Z(s-theta) phi(s) ds and the same with the Q kernel.

    Exact panel moments against the piecewise-linear phi: phi[s], s steps
    after theta, weighs omega[s] (kernels.gap_weights), and phi[m], at T,
    alpha[m] alone.
    """
    m = table.grid.n_steps - start

    def pair(alpha, beta):
        return np.einsum("sk,ks->k", phi[:m], gap_weights(alpha, beta)[:, :m]) + phi[m] * alpha[:, m]

    return pair(table.alpha_Z, table.beta_Z), pair(table.alpha_Q, table.beta_Q)


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
    vhat_sq = float(np.dot(state.v_hat.coeffs, state.v_hat.coeffs))
    return -vhat_sq + float(np.dot(gain, gain)) - cross(state, img.dv, img.dxi, img.dy, table)
