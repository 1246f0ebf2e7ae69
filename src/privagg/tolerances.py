"""Central numeric tolerances used by invariants and run-time guards."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    mass_conservation: float = 1e-12     # scaled by n*k
    aggregation_sum: float = 1e-4        # recovered sum vs true sum
    envelope_slack: float = 1e-12        # relative slack on the run-time state guard


TOL = Tolerances()
