"""scalepde: a laboratory for scale-filtered nonlinear PDE systems.

Heat-semigroup filtering on the periodic torus, exact jet-space
derivation of filter sources, residual transport and closure, and RK4
slice evolution of the macroscopic fluid system.
"""

from .grid import (
    Field,
    Grid,
    NonFiniteFieldError,
    divergence,
    field_norms,
    laplacian,
    make_grid,
    spectral_derivative,
)
from .heat import (
    ScaleStack,
    SpectralStack,
    build_scale_stack,
    duhamel_integral,
    eta_derivative,
    filter_defect,
    filter_deviation,
    heat_propagate,
)
from .jets import (
    CoreSyntaxError,
    FrechetTable,
    JetExpr,
    JetIndex,
    JetMonomial,
    derive_source,
    format_expr,
    jet_L,
    jet_W,
    jet_evaluate,
    jet_frechet,
    jet_linearize,
    jet_total_derivative,
    jet_values,
    parse_core,
)
from .fluid import (
    advect,
    burgers_core,
    core_by_name,
    fluid_core,
    fluid_source,
    leray_project,
    sigma,
)
from .residual import (
    closure_error_bound,
    exact_residual,
    frechet_contraction,
    residual_defect,
    solve_residual_closure,
)
from .evolve import (
    ConfigError,
    DiagnosticsRecord,
    EvolutionState,
    RunConfig,
    SimulationDiverged,
    SimulationResult,
    build_initial_state,
    cfl_limit,
    kinetic_energy,
    macroscopic_rhs,
    psi_rhs,
    read_checkpoint,
    reference_burgers,
    resolve_forcing,
    run_simulation,
    step_rk4,
    write_checkpoint,
)
from .cli import ExperimentSpec, main, parse_config, run_command

__version__ = "0.1.0"
