"""Spectral Galerkin simulator for quasistatic Ericksen-Leslie nematic flow
with a pluggable class of free-energy potentials, plus numerical checkers
for the structural conditions the scheme relies on."""

from .basis import (
    DirectorBasis,
    SpectralGrid,
    VelocityBasis,
    build_director_basis,
    build_velocity_basis,
    symbol_matrix,
)
from .config import ConfigError, SimulationConfig, parse_config
from .diagnostics import (
    EnergyRecord,
    apriori_monitor,
    energy_ledger,
    energy_residual_series,
    write_ledger,
)
from .energies import (
    ConditionReport,
    FreeEnergyModel,
    GinzburgLandau,
    GrowthExponents,
    ScaledOseenFrank,
    SimplifiedOseenFrank,
    WithField,
    WithFreedom,
    check_coercivity,
    check_growth,
    check_legendre_hadamard,
    check_theta_bound,
    energy_gradient,
    total_energy,
)
from .leslie import DissipationMargins, LeslieCoefficients, check_dissipativity, check_parodi
from .scenarios import BUILTIN_SCENARIOS, Scenario, convergence_suite, run_scenario
from .simulate import (
    BlowUpError,
    GalerkinSystem,
    SimulationResult,
    SpectralState,
    build_system,
    initial_state,
    load_checkpoint,
    run,
    save_checkpoint,
)
from .tensors import (
    contract42,
    curl_quadratic_4,
    identity_4,
    trace_outer_4,
    transpose_4,
)

# The supported API.  The interpolation testers stay importable from
# ``elgal.diagnostics``; the strong-form variational derivative and the
# full Leslie stress are test oracles left in their modules only because
# perfbench wraps them by name.
__all__ = [
    "BUILTIN_SCENARIOS",
    "BlowUpError",
    "ConditionReport",
    "ConfigError",
    "DirectorBasis",
    "DissipationMargins",
    "EnergyRecord",
    "FreeEnergyModel",
    "GalerkinSystem",
    "GinzburgLandau",
    "GrowthExponents",
    "LeslieCoefficients",
    "ScaledOseenFrank",
    "Scenario",
    "SimplifiedOseenFrank",
    "SimulationConfig",
    "SimulationResult",
    "SpectralGrid",
    "SpectralState",
    "VelocityBasis",
    "WithField",
    "WithFreedom",
    "apriori_monitor",
    "build_director_basis",
    "build_system",
    "build_velocity_basis",
    "check_coercivity",
    "check_dissipativity",
    "check_growth",
    "check_legendre_hadamard",
    "check_parodi",
    "check_theta_bound",
    "contract42",
    "convergence_suite",
    "curl_quadratic_4",
    "energy_gradient",
    "energy_ledger",
    "energy_residual_series",
    "identity_4",
    "initial_state",
    "load_checkpoint",
    "parse_config",
    "run",
    "run_scenario",
    "save_checkpoint",
    "symbol_matrix",
    "total_energy",
    "trace_outer_4",
    "transpose_4",
    "write_ledger",
]
__version__ = "0.1.0"
