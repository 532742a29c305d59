"""The state side by the Riccati recursion, and the two-field solve on the control side.

solve_optimal is a forward sweep on the node forms of one backward Riccati
recursion, and no state-side factor is formed; the two-field system
[[I, -Lambda], [Lambda*, I]] has an identity (1,1) block, so
OperatorAssembly.apply_H solves it by the push-through identity on the
start's control-side Cholesky factor of I + B^T B.  The dense routes they
replace, a per-start Cholesky of I + B B^T (dense_routes.dense_state_solve)
and an LU of the whole block matrix, are kept here as references.  Draws
follow test_properties: n <= 6, M <= 48, T in [0.1, 2]; bounds are
relative to 1 + max|reference|.
"""

from pathlib import Path

import numpy as np
import scipy.linalg as sla
from dense_routes import dense_state_solve
from hypothesis import given, settings
from hypothesis import strategies as st
from test_node_forms import problems, random_state

from memlqr import experiments, optimal, solve_optimal
from memlqr.config import load_config
from memlqr.forward import response_field
from memlqr.optimal import OperatorAssembly

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def rel_err(value, ref):
    return np.max(np.abs(value - ref)) / (1.0 + np.max(np.abs(ref)))


def block_lu_solve(asm, g):
    """[[I, -Lambda], [Lambda*, I]] (phi, psi) = (g, 0) by one dense LU of the block matrix."""
    nv, nu = (asm.m + 1) * asm.n, (asm.m + 1) * 2
    blk = np.zeros((nv + nu, nv + nu))
    blk[:nv, :nv] = np.eye(nv)
    blk[:nv, nv:] = -asm.Lam
    blk[nv:, :nv] = (asm.Lam.T * asm.wV[None, :]) / asm.wU[:, None]
    blk[nv:, nv:] = np.eye(nu)
    sol = sla.lu_solve(sla.lu_factor(blk), np.concatenate([g.reshape(-1), np.zeros(nu)]))
    return sol[:nv].reshape(asm.m + 1, asm.n), sol[nv:].reshape(asm.m + 1, 2)


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_optimal_sweep_matches_a_per_start_cholesky(case, data):
    # v+ = (I + Lambda Lambda*)^-1 h, u+ = -Lambda* v+ and W = <v+, h>_V on
    # a dense factor of the start's own state-side normal operator
    table, rng = case
    M = table.grid.n_steps
    for j in sorted({0, 1, M - 1, data.draw(st.integers(0, M - 1))}):
        state = random_state(rng, j, table.n_modes)
        asm = OperatorAssembly(table, j)
        h = response_field(state, table)
        vp = dense_state_solve(asm, h)
        sol = solve_optimal(state, table)
        assert rel_err(sol.u_plus.samples, -asm.apply_Lambda_star(vp)) <= 1e-13
        assert rel_err(sol.v_plus.values, vp) <= 1e-13
        assert rel_err(sol.W, asm.inner_V(vp, h)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_apply_H_matches_the_block_lu(case, data):
    table, rng = case
    M = table.grid.n_steps
    for j in sorted({0, M - 1, data.draw(st.integers(0, M - 1))}):
        asm = OperatorAssembly(table, j)
        g = rng.standard_normal((asm.m + 1, asm.n))
        phi, z = asm.apply_H(g)
        phi_ref, psi_ref = block_lu_solve(asm, g)
        assert rel_err(phi, phi_ref) <= 1e-12
        assert rel_err(-z, psi_ref) <= 1e-12


def test_all_forms_only_control_side_factors_and_the_node_forms_once(monkeypatch, tmp_path):
    # one `memlqr all` on quick.ini: every Cholesky factor is a control-side
    # one, of order 2 (m+1) <= 2 (M+1), one per start that asks; no
    # state-side factor (np.linalg.cholesky) and no LU is formed, and the
    # node forms are built once for the configured table
    cfg = load_config(CONFIGS / "quick.ini")
    M = cfg.n_steps
    orders = {"cho_factor": [], "cholesky": [], "lu": []}
    built = []

    def counted(kind, factor):
        def wrapper(a, *args, **kwargs):
            orders[kind].append(np.shape(a)[-1])
            return factor(a, *args, **kwargs)
        return wrapper

    def recursion(table):
        built.append(table)
        return build(table)

    build = optimal._riccati_recursion
    monkeypatch.setattr(optimal, "_riccati_recursion", recursion)
    monkeypatch.setattr(sla, "cho_factor", counted("cho_factor", sla.cho_factor))
    monkeypatch.setattr(sla, "lu_factor", counted("lu", sla.lu_factor))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    experiments.run_suite("all", cfg, str(tmp_path), tol_scale=50.0)
    control = orders["cho_factor"]
    assert control and max(control) <= 2 * (M + 1) and len(control) == len(set(control))
    assert orders["cholesky"] == [] and orders["lu"] == []
    assert len(built) == 1 and built[0].grid.n_steps == M
