"""Monitored decay of an emitter chain through a linear optical network.

Simulates the click-by-click stochastic trajectories of N two-level emitters
whose decay photons pass through an N-mode interferometer before detection,
checks the click statistics against exact permanent-based probabilities, and
measures the entanglement the monitoring induces between the emitters.
"""

__version__ = "0.1.0"

from importlib import import_module

# Each public name and the module that defines it.  The namespace is lazy
# (PEP 562): ``import lontraj`` loads no submodule, and so neither numpy, until
# a name is first read.  The CLI relies on this: it must run before numpy
# loads to start OpenBLAS on one thread (see cli.py).
_OWNERS = {
    "experiments": (
        "DistributionReport",
        "EntropyGrid",
        "MixtureEntropyReport",
        "averaged_entropy_grid",
        "distribution_comparison",
        "entropy_bound",
        "expected_tvd",
        "max_averaged_entropy",
        "mixture_entropy_report",
        "scaling_sweep",
    ),
    "oracle": (
        "build_repeated_matrix",
        "enumerate_outcomes",
        "outcome_law",
        "outcome_probability",
        "permanent_ryser",
        "sequence_probability",
    ),
    "state": ("SectorState", "entanglement_entropy", "initial_state"),
    "trajectory": ("TrajectoryRecord", "attach_waiting_times", "run_trajectory"),
    "unitary": ("UnitarySource", "beamsplitter_unitary", "haar_brickwall", "haar_unitary"),
}
_OWNER = {name: module for module, names in _OWNERS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
