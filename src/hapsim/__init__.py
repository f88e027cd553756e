"""Link-level Monte Carlo sum-rate simulator for a relayed MIMO X network.

M aerial platforms serve N ground stations through a multi-antenna
decode-and-forward relay.  Channels are Rician (steering-vector
line-of-sight plus Rayleigh scattering) with path loss gain/d^2 on the
amplitude, so received power falls as d^-4; receivers zero-force, and
network capacity follows the two-hop min-cut with the interference-alignment
prefactor M*N/(M+N-1).
"""

from .network import NetworkConfig, ScenarioLayout
from .simulator import (
    SnrSweepResult,
    SumRateCurve,
    SweepSpec,
    TrialEnsemble,
    find_optimal_altitude,
    run_altitude_sweep,
    run_snr_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "NetworkConfig",
    "ScenarioLayout",
    "SnrSweepResult",
    "SumRateCurve",
    "SweepSpec",
    "TrialEnsemble",
    "find_optimal_altitude",
    "run_altitude_sweep",
    "run_snr_sweep",
]
