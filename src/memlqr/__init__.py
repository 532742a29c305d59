"""Quadratic regulator for the boundary-controlled strongly damped wave equation.

The second-order equation with strong interior damping is reduced to a heat
equation with an exponential memory kernel; the finite-horizon regulator is
solved through a Fredholm optimality system, and the feedback/Riccati
structure of the optimal control is verified at desk scale on the interval.
"""

from .spectral import (
    ModalVector,
    SpectralBasis,
    build_basis,
)
from .kernels import (
    KernelTable,
    TimeGrid,
    Z_oracle,
    eval_N,
    series_Z_check,
    solve_Z,
    write_kernel_csv,
)
from .forward import (
    ControlSignal,
    SmoothControl,
    StateSnapshot,
    Trajectory,
    extend_state,
    hat_y_from_initial,
    memory_functional,
    simulate_damped_wave,
    solve_voc,
    solve_volterra,
)
from .optimal import (
    OperatorAssembly,
    OptimalSolution,
    apply_H,
    cost_gradient,
    evaluate_cost,
    solve_optimal,
    u_plus_control_side,
    value_function,
)
from .riccati import (
    P_cross,
    P_form,
    P_prime_form,
    apply_generator,
    bellman_check,
    chain_rule_scan,
    closed_loop_simulate,
    dissipation_scan,
    feedback_gain,
    riccati_residual,
    state_inner,
    state_norm_sq,
    terminal_P_check,
    value_scan_batch,
)

__version__ = "0.1.0"
