"""Photon anti-bunching in a two-cavity optomechanical model with
dispersive and dissipative coupling.

Three cross-validating tiers: closed-form weak-driving correlations,
Lindblad master-equation numerics (effective two-mode and full
three-mode), and semiclassical mean-field dynamics.
"""

__version__ = "0.1.0"

from .analytic import (
    G2Result,
    NoiseReport,
    PoleStatus,
    TruncatedState,
    amplitude_dynamics,
    amplitude_steady_states,
    amplitude_steady_states_grid,
    effective_noise,
    effective_temperature,
    g2_analytic,
    g2_analytic_grid,
)
from .fock import (
    HilbertSpace,
    OperatorMatrix,
    StateVector,
    annihilation,
    basis_state,
    coherent_state,
    creation,
    displacement_q,
    expectation,
    identity,
    make_space,
    momentum_p,
    number,
)
from .liouvillian import (
    DensityMatrix,
    SteadyStateError,
    SteadyStateResult,
    Superoperator,
    build_liouvillian,
    convergence_scan,
    devectorize,
    evolve,
    mode_statistics,
    steady_state,
    vacuum_state,
    vectorize,
)
from .model import (
    CavityGeometry,
    SystemParams,
    build_collapse_ops,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    derived_couplings,
    thermal_occupation,
)
from .semiclassical import (
    MeanFieldState,
    full_steady_state,
    integrate_full,
    linear_fixed_point,
    nonlinear_coefficient,
    reduced_fixed_point,
    reduced_fixed_point_grid,
)
from .sweep import AxisSpec, SweepSpec, SweepResult, evaluate_point, parse_config, run_sweep, serialize
from .figures import FIGURE_IDS, reproduce
