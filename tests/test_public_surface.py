"""The package's public names are pinned: adding or removing one is a deliberate change."""

import xxteleport

PUBLIC_NAMES = [
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


def test_all_is_pinned():
    assert xxteleport.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_name():
    namespace = {}
    exec("from xxteleport import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(xxteleport, name)
