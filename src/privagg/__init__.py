"""Noisy average-consensus data aggregation with quantified privacy.

Simulates synchronous average consensus over connected undirected graphs
where every broadcast carries additive noise. The decaying zero-sum noise
scheme preserves the exact average (the per-node noise telescopes to
zero) while bounding each neighbor's chance of estimating another node's
initial value; baselines that break either condition are included to
demonstrate both directions, and concrete adversaries measure the
disclosure probability empirically.
"""

__version__ = "0.1.0"

from .backend import get_backend
from .engine import (
    EngineAbort,
    RunConfig,
    RunTrace,
    aggregate,
    decay_envelope,
    run,
    state_envelope,
)
from .harness import ExperimentConfig, load_config, run_experiment
from .noise import NoiseParams
from .privacy import (
    AdversaryView,
    PrivacyQuery,
    PrivacyReport,
    disclosure_attack,
    later_round_attack,
    naive_attack,
    privacy_sweep,
    sigma_analytic,
)
from .topology import (
    ConnectivityError,
    Graph,
    TopologyEvent,
    apply_event,
    check_privacy_precondition,
    generate,
    is_connected,
)
from .weights import WeightMatrix, contraction_factor, metropolis

__all__ = [
    "__version__",
    "AdversaryView",
    "ConnectivityError",
    "EngineAbort",
    "ExperimentConfig",
    "Graph",
    "NoiseParams",
    "PrivacyQuery",
    "PrivacyReport",
    "RunConfig",
    "RunTrace",
    "TopologyEvent",
    "WeightMatrix",
    "aggregate",
    "apply_event",
    "check_privacy_precondition",
    "contraction_factor",
    "decay_envelope",
    "disclosure_attack",
    "generate",
    "get_backend",
    "is_connected",
    "later_round_attack",
    "load_config",
    "metropolis",
    "naive_attack",
    "privacy_sweep",
    "run",
    "run_experiment",
    "sigma_analytic",
    "state_envelope",
]
