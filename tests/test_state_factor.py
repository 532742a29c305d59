"""One state-side factor per table, and the two-field solve on the control side.

Every start's state-side Cholesky factor is the start-0 factor L_0's leading
block plus one corrected last block row, so solve_normal_state at any start
runs on the table's L_0, which optimal.StateFactor holds in block-generator
form; the two-field system [[I, -Lambda], [Lambda*, I]] has an identity (1,1)
block, so OperatorAssembly.apply_H solves it by the push-through identity on
the start's control-side Cholesky factor of I + B^T B.  The dense routes they
replace, the dense L_0, a per-start Cholesky of I + B B^T and an LU of the
whole block matrix, are kept here as references.  Draws follow
test_properties: n <= 6, M <= 48, T in [0.1, 2]; bounds are relative to
1 + max|reference|.
"""

from pathlib import Path

import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from test_node_forms import problems

from memlqr import TimeGrid, build_basis, optimal, solve_Z, solve_optimal
from memlqr.config import load_config
from memlqr.experiments import COMMANDS, _Workspace
from memlqr.forward import StateSnapshot
from memlqr.optimal import OperatorAssembly

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def rel_err(value, ref):
    return np.max(np.abs(value - ref)) / (1.0 + np.max(np.abs(ref)))


def scaled_B(asm):
    return np.sqrt(asm.wV)[:, None] * asm.Lam / np.sqrt(asm.wU)[None, :]


def dense_state_factor(asm):
    """The lower Cholesky factor of this start's own I + B B^T, formed densely."""
    B = scaled_B(asm)
    return np.linalg.cholesky(np.eye(B.shape[0]) + B @ B.T)


def generator_L0(table):
    """The dense L_0 assembled from the table's StateFactor: L[g] on the diagonal, sV Lambda G[g]^T below."""
    factor = optimal._table_state_factor(table)
    VL = np.repeat(factor.sw, table.n_modes)[:, None] * table._Lambda
    L = np.zeros((VL.shape[0],) * 2)
    row = 0
    for Lg, Gg in zip(factor.L, factor.G):
        p = len(Lg)
        L[row : row + p, row : row + p] = Lg
        L[row + p :, row : row + p] = VL[row + p :, : Gg.shape[1]] @ Gg.T
        row += p
    assert row == L.shape[0]
    return L


def dense_state_solve(asm, g):
    """(I + Lambda Lambda*)^-1 g by a Cholesky factor of this start's own I + B B^T."""
    sV = np.sqrt(asm.wV)
    B = scaled_B(asm)
    factor = sla.cho_factor(np.eye(B.shape[0]) + B @ B.T, lower=True)
    return (sla.cho_solve(factor, sV * g.reshape(-1)) / sV).reshape(g.shape)


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
def test_state_solve_on_the_table_factor_matches_a_per_start_cholesky(case, data):
    table, rng = case
    M = table.grid.n_steps
    for j in sorted({1, min(2, M - 1), M - 1, data.draw(st.integers(0, M - 1))}):
        asm = OperatorAssembly(table, j)
        g = rng.standard_normal((asm.m + 1, asm.n))
        assert rel_err(asm.solve_normal_state(g), dense_state_solve(asm, g)) <= 1e-13


@st.composite
def grouped_problems(draw):
    # shapes with at least two generator groups, so that restarts fall both
    # on a group boundary and strictly inside a group
    n = draw(st.integers(2, 6))
    q = optimal._GROUP_ROWS // n
    M = draw(st.integers(q + 1, 48))
    T = draw(st.floats(0.1, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return solve_Z(build_basis(n), TimeGrid(T, M)), q, rng


@settings(max_examples=30, deadline=None)
@given(grouped_problems(), st.data())
def test_generator_factor_is_the_dense_cholesky_factor(case, data):
    table, q, rng = case
    M = table.grid.n_steps
    B = scaled_B(OperatorAssembly(table, 0))
    ref = np.tril(sla.cho_factor(np.eye(B.shape[0]) + B @ B.T, lower=True)[0])
    assert rel_err(generator_L0(table), ref) <= 1e-13
    boundary = q * data.draw(st.integers(1, (M - 1) // q))
    inside = data.draw(st.sampled_from([m for m in range(1, M) if m % q]))
    factor = optimal._table_state_factor(table)
    for m in (1, M, boundary, inside):
        asm = OperatorAssembly(table, M - m)
        g = rng.standard_normal((m + 1, asm.n))
        assert rel_err(asm.solve_normal_state(g), dense_state_solve(asm, g)) <= 1e-13
        if m < M:
            assert rel_err(factor.C[m], dense_state_factor(asm)[-asm.n :, -asm.n :]) <= 1e-13


def test_state_factor_holds_no_array_of_order_Mn_squared():
    # dense L_0 has ((M+1) n)^2 entries; the generators hold at most (M+1) n x 2 (M+1) per array
    M, n = 24, 4
    table = solve_Z(build_basis(n), TimeGrid(0.5, M))
    solve_optimal(StateSnapshot.initial(np.ones(n), np.zeros(n)), table)
    held = table._state_chol
    fields = [held] if isinstance(held, np.ndarray) else list(vars(held).values())
    arrays = [a for v in fields for a in (v if isinstance(v, list) else [v]) if isinstance(a, np.ndarray)]
    assert arrays and max(a.size for a in arrays) <= (M + 1) * n * 2 * (M + 1)


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


def test_suites_form_one_state_side_factor_per_table(monkeypatch, tmp_path):
    # the optimize, bellman (M/4, M/2), dissipation, riccati (five probe
    # starts) and closed-loop suites in their CLI order on one table: the
    # state-side generators are built once, each start's control side is
    # factored at most once (its order 2 (m+1) names the start), no
    # factorization is larger than a generator group or the control side,
    # and nothing is LU-factored
    ws = _Workspace(load_config(CONFIGS / "quick.ini"), None, 50.0)
    M, n = ws.cfg.n_steps, ws.cfg.n_modes
    orders = {"state_factor": [], "cho_factor": [], "cholesky": [], "lu": []}

    def counted(kind, factor):
        def wrapper(a, *args, **kwargs):
            orders[kind].append(np.shape(a)[-1])
            return factor(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimal, "_state_factor", counted("state_factor", optimal._state_factor))
    monkeypatch.setattr(sla, "cho_factor", counted("cho_factor", sla.cho_factor))
    monkeypatch.setattr(sla, "lu_factor", counted("lu", sla.lu_factor))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    for name in ("optimize", "bellman", "dissipation", "riccati", "closed-loop"):
        COMMANDS[name](ws, str(tmp_path))
    assert n > 2 and (M + 1) * n > max(optimal._GROUP_ROWS, 2 * (M + 1))
    assert len(orders["state_factor"]) == 1
    assert orders["cholesky"] and max(orders["cho_factor"] + orders["cholesky"]) <= max(optimal._GROUP_ROWS, 2 * (M + 1))
    control = orders["cho_factor"]
    assert control and len(control) == len(set(control))
    assert orders["lu"] == []
