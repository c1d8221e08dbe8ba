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
    test_ericksen_identity,
    test_interpolation_inequality,
    test_velocity_interpolation,
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
    variational_derivative,
)
from .leslie import (
    DissipationMargins,
    LeslieCoefficients,
    check_dissipativity,
    check_parodi,
    ericksen_stress,
    leslie_stress_discrete,
)
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
    contract32,
    contract42,
    contract43,
    curl_quadratic_4,
    identity_4,
    is_symmetric_pair,
    outer,
    sym_skw,
    trace_outer_4,
    transpose_4,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
