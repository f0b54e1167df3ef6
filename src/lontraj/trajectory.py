"""Click-ordered stochastic trajectories of the monitored chain.

Between clicks the state is an excitation-number eigenstate, so the no-click
evolution only renormalizes it; the dynamics is therefore indexed by click
count rather than physical time.  Physical waiting times can be attached
afterwards from the exponential inter-click statistics.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .state import (
    NORM_TOL,
    SectorState,
    _check_cut,
    _entropy,
    _initial_amplitudes,
    _lowered_raw,
)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One sampled trajectory: its click sequence and per-click entropies.

    ``entropies[k]`` is the entanglement entropy (nats) at the designated cut
    after ``k`` clicks, so the list is one longer than ``clicks``.
    ``waiting_times``, when attached, holds the time (units of one inverse
    decay rate) elapsed before each click.
    """

    clicks: tuple[int, ...]
    entropies: tuple[float, ...]
    waiting_times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.entropies) != len(self.clicks) + 1:
            raise ValueError(
                f"{len(self.clicks)} clicks need {len(self.clicks) + 1} entropies, "
                f"got {len(self.entropies)}"
            )
        if self.waiting_times is not None:
            if len(self.waiting_times) != len(self.clicks):
                raise ValueError("need one waiting time per click")
            if any(t < 0 for t in self.waiting_times):
                raise ValueError("waiting times must be >= 0")


def _pick_detector(weights: np.ndarray, n_excited: int, rng: np.random.Generator) -> int:
    # The collective jumps conserve the excitation number, so the weights of
    # a normalized state sum to n_excited; a larger residual means a
    # non-unitary network or a state that lost its norm.
    total = weights.sum()
    if not abs(total - n_excited) <= NORM_TOL * n_excited:  # NaN fails too
        raise RuntimeError(f"jump weights sum to {total!r}, expected {n_excited}")
    # Inverse CDF over the weight prefix sums; side="right" skips zero-weight
    # detectors, whose cumulative entries repeat the previous value.
    r = rng.random() * total
    detector = int(np.searchsorted(np.cumsum(weights), r, side="right"))
    if detector >= len(weights):
        # r fell in the ulp sliver between sum() and cumsum()[-1].
        detector = int(np.nonzero(weights)[0][-1])
    return detector


def _click_walk(
    n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray]]:
    # The one click loop: yields (detector, normalized post-click amplitudes)
    # until the chain reaches the ground state, one rng.random() per click.
    if u.shape != (n_sites, n_sites):
        raise ValueError(f"unitary shape {u.shape} does not match {n_sites} sites")
    for e in range(n_excited, 0, -1):
        lowered = _lowered_raw(n_sites, e, amplitudes, u)
        weights = np.einsum("ij,ij->i", lowered, lowered.conj()).real
        detector = _pick_detector(weights, e, rng)
        amplitudes = lowered[detector] / np.sqrt(weights[detector])
        yield detector, amplitudes


def evolve_clicks(
    state: SectorState, u: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[int, SectorState]]:
    """Yield (detector, post-click state) until the chain reaches the ground state."""
    walk = _click_walk(state.n_sites, state.n_excited, state.amplitudes, u, rng)
    for e, (detector, amplitudes) in zip(range(state.n_excited - 1, -1, -1), walk):
        yield detector, SectorState(state.n_sites, e, amplitudes)


def sample_click_sequence(
    n_sites: int, n_excited: int, u: np.ndarray, rng: np.random.Generator
) -> tuple[int, ...]:
    """Sample the full click sequence of one trajectory, skipping entropy bookkeeping.

    Draws the same clicks as :func:`evolve_clicks` for the same generator state.
    """
    walk = _click_walk(n_sites, n_excited, _initial_amplitudes(n_sites, n_excited), u, rng)
    return tuple(detector for detector, _ in walk)


def run_trajectory(
    n_sites: int, n_excited: int, u: np.ndarray, cut: int, rng: np.random.Generator
) -> TrajectoryRecord:
    """Run one trajectory from the standard initial state until all emitters decay.

    Records the entanglement entropy at ``cut`` before the first click and
    after every click; the terminal state is the all-ground product state
    with entropy 0.
    """
    _check_cut(n_sites, cut)
    amplitudes = _initial_amplitudes(n_sites, n_excited)
    clicks: list[int] = []
    entropies = [0.0]  # the initial product state has no entanglement
    for detector, amplitudes in _click_walk(n_sites, n_excited, amplitudes, u, rng):
        clicks.append(detector)
        entropies.append(_entropy(n_sites, n_excited - len(clicks), amplitudes, cut))
    return TrajectoryRecord(clicks=tuple(clicks), entropies=tuple(entropies))


def attach_waiting_times(
    record: TrajectoryRecord, n_excited_initial: int, rng: np.random.Generator
) -> TrajectoryRecord:
    """Attach exponential waiting times to a click record.

    Before click k (0-based) the chain holds ``n_excited_initial - k``
    excitations, and the total click rate equals that count (in units of the
    single-emitter decay rate), so the waiting time is exponential with that
    rate.
    """
    if record.waiting_times is not None:
        raise ValueError("record already has waiting times attached")
    times = tuple(
        float(rng.exponential(1.0 / (n_excited_initial - k))) for k in range(len(record.clicks))
    )
    return dataclasses.replace(record, waiting_times=times)


def clicks_to_counts(clicks, n_detectors: int) -> np.ndarray:
    """Per-detector click multiplicities of a sequence, as a length-n_detectors vector."""
    clicks = list(clicks)
    if any(not 0 <= c < n_detectors for c in clicks):
        raise ValueError(f"click indices must lie in [0, {n_detectors})")
    return np.bincount(clicks, minlength=n_detectors).astype(np.int64)


def record_to_json(record: TrajectoryRecord) -> str:
    """One JSON line: ``{"clicks", "entropies", "waiting_times"?}``."""
    obj = {"clicks": list(record.clicks), "entropies": list(record.entropies)}
    if record.waiting_times is not None:
        obj["waiting_times"] = list(record.waiting_times)
    return json.dumps(obj)
