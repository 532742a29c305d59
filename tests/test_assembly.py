"""One Lambda per kernel table: per-start slices, lifetime.

The input kernel depends only on t - s, so the assembly at start j must be
exactly the leading block of the start-0 operator.  The reference builder
below is the per-start construction from the gap-gather weight_matrix of
test_recurrences, independent of the Toeplitz layout in optimal.  An
assembly is a view: its only matrix is a slice of the table's Lambda, and
the factors live on the table.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlqr import ControlSignal, StateSnapshot, TimeGrid, Trajectory, build_basis, extend_state, solve_Z
from memlqr import optimal
from memlqr.optimal import OperatorAssembly, solve_optimal, value_function
from memlqr.riccati import closed_loop_simulate, value_scan_batch
from test_recurrences import weight_matrix


def reference_Lambda(table, start):
    """Lambda on [t_start, T] assembled directly from the per-mode weight matrices."""
    m = table.grid.n_steps - start
    n = table.n_modes
    if m == 0:
        return np.zeros((n, 2))
    ad = table.basis.eigenvalues[:, None] * table.basis.dmap_coeffs
    blocks = np.empty((m + 1, n, m + 1, 2))
    for k in range(n):
        Wk = weight_matrix(table.alpha_Z[k], table.beta_Z[k], m)
        blocks[:, k, :, :] = -Wk[:, :, None] * ad[k][None, None, :]
    return blocks.reshape((m + 1) * n, (m + 1) * 2)


@st.composite
def table_and_start(draw):
    n = draw(st.integers(1, 6))
    M = draw(st.integers(1, 48))
    j = draw(st.integers(0, M))
    return solve_Z(build_basis(n), TimeGrid(0.5, M)), j


@settings(max_examples=30, deadline=None)
@given(table_and_start())
def test_assembly_is_the_leading_block(case):
    table, j = case
    assert np.array_equal(OperatorAssembly(table, j).Lam, reference_Lambda(table, j))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 48), st.data())
def test_extend_state_along_trajectory_is_concatenation_and_decay(n, M, data):
    grid = TimeGrid(0.5, M)
    table = solve_Z(build_basis(n), grid)
    i0 = data.draw(st.integers(0, M))
    j = data.draw(st.integers(i0, M))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xi = rng.standard_normal((i0 + 1, n))
    state = StateSnapshot(i0, xi[-1].copy(), xi, rng.standard_normal(n))
    values = rng.standard_normal((M - i0 + 1, n))
    values[0] = state.v_hat.coeffs
    out = extend_state(state, None, j, table, trajectory=Trajectory(i0, values))
    k = j - i0
    assert out.tau_index == j
    assert np.array_equal(out.v_hat.coeffs, values[k])
    assert np.array_equal(out.xi, np.concatenate([xi, values[1 : k + 1]]))
    assert np.array_equal(out.y_hat.coeffs, np.exp(-k * grid.dt) * state.y_hat.coeffs)


def test_extend_state_rejects_a_foreign_trajectory_at_its_own_node():
    table = solve_Z(build_basis(2), TimeGrid(0.5, 8))
    state = StateSnapshot.initial([1.0, 0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        extend_state(state, None, 0, table, trajectory=Trajectory(1, np.zeros((8, 2))))


def test_weight_matrix_loop_runs_once_per_table(monkeypatch):
    calls = []
    toeplitz = optimal.sla.toeplitz

    def counting(c, r):
        calls.append(len(c) - 1)
        return toeplitz(c, r)

    monkeypatch.setattr(optimal.sla, "toeplitz", counting)
    n, M = 3, 12
    table = solve_Z(build_basis(n), TimeGrid(0.5, M))
    for j in range(M + 1):
        OperatorAssembly(table, j)
    state = StateSnapshot.initial([1.0, -0.5, 0.25], [0.2, 0.1, 0.0])
    closed_loop_simulate(state, table)
    value_scan_batch(state, [ControlSignal.zeros(table.grid)], table)
    assert calls == [M] * n


@settings(max_examples=30, deadline=None)
@given(table_and_start())
def test_assembly_holds_no_matrix_but_the_lambda_slice(case):
    table, j = case
    state = StateSnapshot(j, np.ones(table.n_modes), np.ones((j + 1, table.n_modes)), np.ones(table.n_modes))
    value_function(state, table)
    solve_optimal(state, table)
    asm = OperatorAssembly(table, j)
    arrays = {k: v for k, v in vars(asm).items() if isinstance(v, np.ndarray)}
    assert np.shares_memory(arrays.pop("Lam"), table._Lambda)
    for name, v in arrays.items():
        assert v.ndim == 1 and v.size <= (asm.m + 1) * max(asm.n, 2), name


def test_table_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        table = solve_Z(build_basis(3), TimeGrid(0.5, 8))
        state = StateSnapshot.initial([1.0, 0.5, 0.25], [0.0, 0.1, 0.0])
        solve_optimal(state, table)
        value_function(state, table)
        assert table._node_forms is not None and table._control_chol
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()


def test_control_normal_spectrum_matches_state_side():
    table = solve_Z(build_basis(3), TimeGrid(0.5, 16))
    asm = OperatorAssembly(table, 4)
    evals = asm.control_normal_eigenvalues()
    B = np.sqrt(asm.wV)[:, None] * asm.Lam / np.sqrt(asm.wU)[None, :]
    state_side = np.linalg.eigvalsh(np.eye(B.shape[0]) + B @ B.T)
    assert evals[0] >= 1.0 - 1e-12
    assert np.all(np.diff(evals) >= 0.0)
    assert evals[-1] == pytest.approx(state_side[-1], rel=1e-12)


def test_control_factor_holds_one_scaled_temporary():
    # B = sqrt(D_V) Lambda sqrt(D_U)^-1 is scaled in place, so forming the
    # factor of I + B^T B never holds two B-sized arrays at once
    table = solve_Z(build_basis(8), TimeGrid(0.5, 128))
    asm = OperatorAssembly(table, 0)
    normal_bytes = asm.Lam.shape[1] ** 2 * asm.Lam.itemsize
    tracemalloc.start()
    try:
        asm._control_factor()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * asm.Lam.nbytes + normal_bytes
