"""Link-level Monte Carlo sum-rate simulator for a relayed MIMO X network.

M aerial platforms serve N ground stations through a multi-antenna
decode-and-forward relay.  Channels are Rician (steering-vector
line-of-sight plus Rayleigh scattering) with path loss gain/d^2 on the
amplitude, so received power falls as d^-4; receivers zero-force, and
network capacity follows the two-hop min-cut with the interference-alignment
prefactor M*N/(M+N-1).
"""

from .kernels import CONDITION_LIMIT
from .network import (
    FAR_FIELD_FACTOR,
    NetworkConfig,
    ScenarioLayout,
    db_to_linear,
    dof,
    los_channel,
    min_hap_separation,
)
from .scenario import (
    DEFAULTS,
    Scenario,
    ScenarioError,
    dump_scenario,
    effective_mapping,
    load_scenario,
    scenario_from_mapping,
)
from .simulator import (
    RELAY_ALTITUDE_M,
    SNR_DB,
    SnrSweepResult,
    SumRateCurve,
    SweepSpec,
    TrialEnsemble,
    find_optimal_altitude,
    run_altitude_sweep,
    run_snr_sweep,
)
from .streams import trial_rng

__version__ = "0.1.0"

__all__ = [
    "CONDITION_LIMIT",
    "DEFAULTS",
    "FAR_FIELD_FACTOR",
    "NetworkConfig",
    "RELAY_ALTITUDE_M",
    "SNR_DB",
    "Scenario",
    "ScenarioError",
    "ScenarioLayout",
    "SnrSweepResult",
    "SumRateCurve",
    "SweepSpec",
    "TrialEnsemble",
    "db_to_linear",
    "dof",
    "dump_scenario",
    "effective_mapping",
    "find_optimal_altitude",
    "load_scenario",
    "los_channel",
    "min_hap_separation",
    "run_altitude_sweep",
    "run_snr_sweep",
    "scenario_from_mapping",
    "trial_rng",
]
