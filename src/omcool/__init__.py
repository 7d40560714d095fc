"""omcool: cooling-cycle simulator for optomechanical polariton heat pumps.

The package propagates the linearized cavity/mechanics model through
four-stroke cooling cycles with two independent engines (exact Gaussian
moment dynamics and brute-force Fock-space master-equation integration) and
checks both against the closed-form polariton analytics.
"""

__version__ = "0.1.0"

from .errors import (
    AdiabaticityWarning,
    ConfigError,
    IntegrationError,
    OmcoolError,
    PhysicsError,
    StabilityError,
    ThermalizationWarning,
    TruncationError,
)
from .params import MeanFieldInputs, MeanFieldResult, SystemParams, mean_field_reduce
from .polariton import (
    CoolingMapParams,
    PolaritonBasis,
    bogoliubov_basis,
    cooling_limit,
    exchange_efficiency,
    iterate_cooling_map,
    polariton_spectrum,
    rabi_populations,
    survival_factor,
)
from .schedule import CycleSchedule, Stroke, StrokeKind, build_default_cycle
from .gaussian import (
    GaussianState,
    mode_occupations,
    polariton_occupations,
    propagate,
)
from .fock import FockState, ModeOperators, number_state, propagate_fock
from .runner import (
    CycleReport,
    FockOptions,
    InitialOccupations,
    Trajectory,
    adiabaticity_probe,
    analyze_cycles,
    run_protocol,
)

__all__ = [
    "AdiabaticityWarning",
    "ConfigError",
    "CoolingMapParams",
    "CycleReport",
    "CycleSchedule",
    "FockOptions",
    "FockState",
    "GaussianState",
    "InitialOccupations",
    "IntegrationError",
    "MeanFieldInputs",
    "MeanFieldResult",
    "ModeOperators",
    "OmcoolError",
    "PhysicsError",
    "PolaritonBasis",
    "StabilityError",
    "Stroke",
    "StrokeKind",
    "SystemParams",
    "ThermalizationWarning",
    "Trajectory",
    "TruncationError",
    "adiabaticity_probe",
    "analyze_cycles",
    "bogoliubov_basis",
    "build_default_cycle",
    "cooling_limit",
    "exchange_efficiency",
    "iterate_cooling_map",
    "mean_field_reduce",
    "mode_occupations",
    "number_state",
    "polariton_occupations",
    "polariton_spectrum",
    "propagate",
    "propagate_fock",
    "rabi_populations",
    "run_protocol",
    "survival_factor",
]
