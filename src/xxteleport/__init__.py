"""Thermal entanglement and teleportation fidelity of the two-qubit Heisenberg XX chain."""

__version__ = "0.1.0"

from .entanglement import (AlwaysSeparableError, ConcurrenceBreakdown, concurrence,
                           concurrence_stack, thermal_concurrence,
                           zero_entanglement_temperature)
from .linalg import SIGMA, hermitian_function
from .model import ModelParams, ThermalState, gibbs_state, gibbs_state_oracle_stack
from .phase import (TABLE1_REFERENCE, CriticalPoint, NoClassicalAdvantageError,
                    better_than_classical, critical_temperature, reproduce_table1, sweep,
                    table1_deviations)
from .teleport import (BELL_PROJECTORS, FidelityReport, PureQubit, apply_channel,
                       apply_channel_stack, average_fidelity, bell_weights, bell_weights_stack,
                       channel_fidelity_stack, mc_average_fidelity, output_fidelity,
                       protocol_oracle, protocol_oracle_stack, quadrature_average_fidelity_stack)
from .verify import CheckResult, run_verification

__all__ = [
    "__version__",
    "SIGMA", "hermitian_function",
    "ModelParams", "ThermalState", "gibbs_state", "gibbs_state_oracle_stack",
    "ConcurrenceBreakdown", "AlwaysSeparableError", "concurrence", "concurrence_stack",
    "thermal_concurrence", "zero_entanglement_temperature",
    "PureQubit", "FidelityReport", "BELL_PROJECTORS",
    "bell_weights", "bell_weights_stack", "apply_channel", "apply_channel_stack",
    "channel_fidelity_stack", "output_fidelity", "average_fidelity", "mc_average_fidelity",
    "quadrature_average_fidelity_stack", "protocol_oracle", "protocol_oracle_stack",
    "CriticalPoint", "NoClassicalAdvantageError", "TABLE1_REFERENCE",
    "better_than_classical", "critical_temperature",
    "reproduce_table1", "table1_deviations", "sweep",
    "CheckResult", "run_verification",
]
