"""Monitored decay of an emitter chain through a linear optical network.

Simulates the click-by-click stochastic trajectories of N two-level emitters
whose decay photons pass through an N-mode interferometer before detection,
checks the click statistics against exact permanent-based probabilities, and
measures the entanglement the monitoring induces between the emitters.
"""

__version__ = "0.1.0"

from .experiments import (
    DistributionReport,
    EntropyGrid,
    MixtureEntropyReport,
    averaged_entropy_grid,
    distribution_comparison,
    entropy_bound,
    expected_tvd,
    max_averaged_entropy,
    mixture_entropy_report,
    scaling_sweep,
)
from .oracle import (
    build_repeated_matrix,
    enumerate_outcomes,
    outcome_law,
    outcome_probability,
    permanent_ryser,
    sequence_probability,
)
from .state import SectorState, entanglement_entropy, initial_state
from .trajectory import (
    TrajectoryRecord,
    attach_waiting_times,
    run_trajectory,
)
from .unitary import (
    UnitarySource,
    beamsplitter_unitary,
    haar_brickwall,
    haar_unitary,
)

__all__ = [
    "DistributionReport",
    "EntropyGrid",
    "MixtureEntropyReport",
    "SectorState",
    "TrajectoryRecord",
    "UnitarySource",
    "attach_waiting_times",
    "averaged_entropy_grid",
    "beamsplitter_unitary",
    "build_repeated_matrix",
    "distribution_comparison",
    "entanglement_entropy",
    "entropy_bound",
    "enumerate_outcomes",
    "expected_tvd",
    "haar_brickwall",
    "haar_unitary",
    "initial_state",
    "max_averaged_entropy",
    "mixture_entropy_report",
    "outcome_law",
    "outcome_probability",
    "permanent_ryser",
    "run_trajectory",
    "scaling_sweep",
    "sequence_probability",
]
