"""One set of Z weights per kernel table: matrix-free per-start views, lifetime.

The input kernel depends only on t - s, so the assembly at start j must
apply exactly the leading block of the start-0 operator.  The reference is
dense_routes.reference_Lambda, the per-start construction from the
gap-gather weight_matrix, independent of the direct sums in optimal.  An
assembly is a view: it holds no matrix, only the start's weight slices, and
the conjugate-gradient solve and the Lanczos iteration on I + Lambda* Lambda
are checked against dense references here.
"""

import dataclasses
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from dense_routes import reference_Lambda, scaled_Lambda
from hypothesis import given, settings
from hypothesis import strategies as st

from memlqr import StateSnapshot, TimeGrid, Trajectory, build_basis, experiments, extend_state, solve_Z
from memlqr.config import load_config
from memlqr.optimal import OperatorAssembly, node_forms, solve_optimal, value_function

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def lambda_matrix(asm):
    """The matrix of asm.apply_Lambda, column by column on the unit controls."""
    cols = []
    for i in range((asm.m + 1) * 2):
        u = np.zeros((asm.m + 1) * 2)
        u[i] = 1.0
        cols.append(asm.apply_Lambda(u.reshape(asm.m + 1, 2)).reshape(-1))
    return np.stack(cols, axis=1)


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
    assert np.array_equal(lambda_matrix(OperatorAssembly(table, j)), reference_Lambda(table, j))


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
    values[0] = state.v_hat
    out = extend_state(state, None, j, table, trajectory=Trajectory(i0, values))
    k = j - i0
    assert out.tau_index == j
    assert np.array_equal(out.v_hat, values[k])
    assert np.array_equal(out.xi, np.concatenate([xi, values[1 : k + 1]]))
    assert np.array_equal(out.y_hat, np.exp(-k * grid.dt) * state.y_hat)


def test_extend_state_rejects_a_foreign_trajectory_at_its_own_node():
    table = solve_Z(build_basis(2), TimeGrid(0.5, 8))
    state = StateSnapshot.initial([1.0, 0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        extend_state(state, None, 0, table, trajectory=Trajectory(1, np.zeros((8, 2))))


@settings(max_examples=30, deadline=None)
@given(table_and_start())
def test_assembly_holds_no_matrix_but_the_lambda_slice(case):
    table, j = case
    state = StateSnapshot(j, np.ones(table.n_modes), np.ones((j + 1, table.n_modes)), np.ones(table.n_modes))
    value_function(state, table)
    solve_optimal(state, table)
    asm = OperatorAssembly(table, j)
    arrays = {k: v for k, v in vars(asm).items() if isinstance(v, np.ndarray)}
    for name, v in arrays.items():
        assert v.size <= max(asm.n, 2) * (asm.m + 1), name


def test_table_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        table = solve_Z(build_basis(3), TimeGrid(0.5, 8))
        state = StateSnapshot.initial([1.0, 0.5, 0.25], [0.0, 0.1, 0.0])
        solve_optimal(state, table)
        value_function(state, table)
        forms = node_forms(table)
        assert node_forms(table) is forms
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()


def test_control_normal_spectrum_matches_state_side():
    table = solve_Z(build_basis(3), TimeGrid(0.5, 16))
    asm = OperatorAssembly(table, 4)
    B = scaled_Lambda(asm)
    state_side = np.linalg.eigvalsh(np.eye(B.shape[0]) + B @ B.T)
    lam_max = asm.control_normal_max_eigenvalue()
    assert lam_max >= 1.0
    assert lam_max == pytest.approx(state_side[-1], rel=1e-12)


_LANCZOS_SHAPES = [(3, 8, 0, 0.5), (8, 64, 16, 0.5), (5, 40, 39, 0.5),
                   (4, 32, 31, 0.5), (8, 256, 255, 0.5), (8, 256, 0, 1e-4)]


@pytest.mark.parametrize("n, M, start, T", _LANCZOS_SHAPES,
                         ids=[f"{n}-{M}-{start}" + ("" if T == 0.5 else f"-T{T:g}") for n, M, start, T in _LANCZOS_SHAPES])
def test_lanczos_matches_the_dense_spectrum(n, M, start, T):
    # the last three have an eigenvector odd under the channel swap u0 <-> u1
    # at the top, which a start even under the swap misses
    asm = OperatorAssembly(solve_Z(build_basis(n), TimeGrid(T, M)), start)
    B = scaled_Lambda(asm)
    ref = np.linalg.eigvalsh(np.eye(B.shape[1]) + B.T @ B)[-1]
    assert asm.control_normal_max_eigenvalue() == pytest.approx(ref, rel=1e-13)


def test_lanczos_stops_at_convergence_and_raises_on_a_nan(monkeypatch):
    # at the desk scale the top Ritz value settles in 11 products of the
    # operator; a non-finite product raises instead of returning
    asm = OperatorAssembly(solve_Z(build_basis(8), TimeGrid(0.5, 256)), 0)
    products = []
    apply = OperatorAssembly.apply_Lambda

    def counted(self, u):
        products.append(1)
        return apply(self, u)

    monkeypatch.setattr(OperatorAssembly, "apply_Lambda", counted)
    assert asm.control_normal_max_eigenvalue() >= 1.0
    assert len(products) <= 20
    monkeypatch.setattr(OperatorAssembly, "apply_Lambda", lambda self, u: np.full((self.m + 1, self.n), np.nan))
    with pytest.raises(np.linalg.LinAlgError):
        asm.control_normal_max_eigenvalue()


def test_normal_control_solve_raises_on_a_nan_right_hand_side():
    asm = OperatorAssembly(solve_Z(build_basis(3), TimeGrid(0.5, 16)), 2)
    r = np.ones((asm.m + 1, 2))
    r[5, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        asm.solve_normal_control(r)


def test_all_allocates_no_block_of_the_dense_lambda(tmp_path):
    # `memlqr all` on quick.ini at the desk scale's 256 steps: the traced
    # peak of the whole run, which grows like M, stays below one dense
    # Lambda of (M+1) n x 2 (M+1) doubles, so no such block is ever formed
    cfg = dataclasses.replace(load_config(CONFIGS / "quick.ini"), n_steps=256)
    dense_bytes = (cfg.n_steps + 1) * cfg.n_modes * 2 * (cfg.n_steps + 1) * 8
    tracemalloc.start()
    try:
        experiments.run_suite("all", cfg, str(tmp_path), tol_scale=50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes
