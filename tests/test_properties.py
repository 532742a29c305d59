"""Structural identities over random problem sizes, horizons and start nodes.

Drawn within the documented ranges n <= 6, M <= 48, T in [0.1, 2]; each
identity is exact in exact arithmetic, so the bounds are roundoff bounds.
problems(CHUNK_EDGES) draws M past one scan chunk instead.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memlqr import ControlSignal, StateSnapshot, TimeGrid, build_basis, extend_state, solve_Z, solve_volterra
from memlqr.optimal import OperatorAssembly
from memlqr.riccati import feedback_gain


# Grid sizes at and around the edges of the 64-step chunks of kernels' scans,
# where their carry fix-up runs; problems() alone stays below one chunk.
CHUNK_EDGES = st.sampled_from([63, 64, 65, 130, 300])


@st.composite
def problems(draw, sizes=st.integers(2, 48)):
    """(table, start node, rng) with the start anywhere on the grid, T included; M drawn from sizes."""
    n = draw(st.integers(1, 6))
    M = draw(sizes)
    T = draw(st.floats(0.1, 2.0))
    start = draw(st.integers(0, M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return solve_Z(build_basis(n), TimeGrid(T, M)), start, rng


def random_state(rng, start, n):
    xi = rng.standard_normal((start + 1, n))
    return StateSnapshot(start, xi[-1].copy(), xi, rng.standard_normal(n))


@settings(max_examples=40, deadline=None)
@given(problems())
def test_adjoint_identity(case):
    # <Lambda u, v>_V = <u, Lambda* v>_U in the trapezoid-weighted metrics
    table, start, rng = case
    asm = OperatorAssembly(table, start)
    u = rng.standard_normal((asm.m + 1, 2))
    v = rng.standard_normal((asm.m + 1, table.n_modes))
    Lu = asm.apply_Lambda(u)
    lhs = asm.inner_V(Lu, v)
    rhs = asm.inner_U(u, asm.apply_Lambda_star(v))
    scale = np.sqrt(asm.inner_V(Lu, Lu) * asm.inner_V(v, v))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_volterra_restart_is_exact(case, data):
    # restarting the Volterra route from the state it reaches at node j
    # reproduces the tail of the full solve
    table, start, rng = case
    j = data.draw(st.integers(start, table.grid.n_steps))
    state = random_state(rng, start, table.n_modes)
    u = rng.standard_normal((table.grid.n_steps - start + 1, 2))
    full = solve_volterra(state, ControlSignal(start, u), table)
    mid = extend_state(state, ControlSignal(start, u), j, table)
    tail = solve_volterra(mid, ControlSignal(j, u[j - start :]), table)
    err = np.max(np.abs(tail.values - full.values[j - start :]))
    assert err <= 1e-13 * (1.0 + np.max(np.abs(full.values)))


@settings(max_examples=40, deadline=None)
@given(problems())
def test_feedback_gain_is_linear(case):
    table, start, rng = case
    n = table.n_modes
    s1, s2 = random_state(rng, start, n), random_state(rng, start, n)
    a, b = rng.uniform(-2.0, 2.0, 2)
    comb = StateSnapshot(start, a * s1.v_hat + b * s2.v_hat, a * s1.xi + b * s2.xi,
                         a * s1.y_hat + b * s2.y_hat)
    g1, g2 = feedback_gain(s1, table), feedback_gain(s2, table)
    err = np.max(np.abs(feedback_gain(comb, table) - (a * g1 + b * g2)))
    assert err <= 1e-12 * (1.0 + abs(a) * np.max(np.abs(g1)) + abs(b) * np.max(np.abs(g2)))
