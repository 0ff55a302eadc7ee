"""Radially symmetric, inviscid, heat-conducting ideal-gas simulator.

The package evolves density, radial velocity and temperature perturbations
(a, u, theta) around the constant state (1, 0, 1) on a uniform cell-centered
radial mesh, and tracks the conserved integrals, entropy production, a
Lyapunov functional and Sobolev-type energy accumulators along the run.
"""

from .grid import RadialGrid, build_grid
from .state import (
    PhysParams,
    State,
    ValidityReport,
    make_initial_state,
    support_radius,
    validate,
)
from .operators import EVEN, ODD
from .dynamics import (
    SymSystem,
    assemble_sym_system,
    cfl_dt,
    characteristic_speeds,
    convective_rhs,
    flux_divergence,
    sound_speed,
)
from .tridiag import TridiagonalSystem, solve_tridiagonal
from .diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    DiagnosticsSink,
    ListSink,
    shock_indicator,
    taylor_remainder,
)
from .config import (
    BACKWARD_EULER,
    CRANK_NICOLSON,
    ConfigError,
    RunConfig,
    RunSummary,
    parse_config,
    preset,
    refine_config,
)
from .integrator import StepReport, run, solve_diffusion, step
from .sweep import sweep

__version__ = "0.1.0"

__all__ = [
    "RadialGrid",
    "build_grid",
    "PhysParams",
    "State",
    "ValidityReport",
    "make_initial_state",
    "support_radius",
    "validate",
    "EVEN",
    "ODD",
    "SymSystem",
    "assemble_sym_system",
    "cfl_dt",
    "characteristic_speeds",
    "convective_rhs",
    "flux_divergence",
    "sound_speed",
    "TridiagonalSystem",
    "solve_tridiagonal",
    "DiagnosticsCollector",
    "DiagnosticsRecord",
    "DiagnosticsSink",
    "ListSink",
    "shock_indicator",
    "taylor_remainder",
    "BACKWARD_EULER",
    "CRANK_NICOLSON",
    "ConfigError",
    "RunConfig",
    "RunSummary",
    "parse_config",
    "preset",
    "refine_config",
    "StepReport",
    "run",
    "solve_diffusion",
    "step",
    "sweep",
]
