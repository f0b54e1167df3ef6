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


def _pick_detectors(weights: np.ndarray, n_excited: int, rngs) -> np.ndarray:
    # Row b of ``weights`` holds trajectory b's jump weights; rngs[b] draws
    # its click, one random() per row in row order.  The collective jumps
    # conserve the excitation number, so the weights of a normalized state
    # sum to n_excited; a larger residual means a non-unitary network or a
    # state that lost its norm.
    draws = []
    for total, rng in zip(weights.sum(axis=1).tolist(), rngs):
        if not abs(total - n_excited) <= NORM_TOL * n_excited:  # NaN fails too
            raise RuntimeError(f"jump weights sum to {total!r}, expected {n_excited}")
        draws.append(rng.random() * total)
    # Inverse CDF over the weight prefix sums.  Counting the prefix sums <= r
    # is searchsorted(side="right"): it skips zero-weight detectors, whose
    # cumulative entries repeat the previous value.
    r = np.array(draws)
    detectors = (weights.cumsum(axis=1) <= r[:, None]).sum(axis=1)
    for b in np.nonzero(detectors == weights.shape[1])[0]:
        # r fell in the ulp sliver between sum() and cumsum()[-1].
        detectors[b] = np.nonzero(weights[b])[0][-1]
    return detectors


def _click_walk(
    n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray, rngs
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # The one click loop.  It advances len(rngs) trajectories in lockstep:
    # row b starts from amplitudes[b], is lowered through u[b] and draws its
    # clicks from rngs[b], one random() per click.  A (dim,) start state or
    # an (n_sites, n_sites) unitary is shared by every row.  Yields
    # (detectors[B], normalized post-click amplitudes[B, dim_lo]) until the
    # chain reaches the ground state.
    size = len(rngs)
    if u.shape not in ((n_sites, n_sites), (size, n_sites, n_sites)):
        raise ValueError(f"unitary shape {u.shape} does not match {n_sites} sites")
    amplitudes = np.broadcast_to(amplitudes, (size, amplitudes.shape[-1]))
    rows = np.arange(size)
    for e in range(n_excited, 0, -1):
        lowered = _lowered_raw(n_sites, e, amplitudes, u)
        weights = np.einsum("bij,bij->bi", lowered, lowered.conj()).real
        detectors = _pick_detectors(weights, e, rngs)
        amplitudes = lowered[rows, detectors] / np.sqrt(weights[rows, detectors])[:, None]
        yield detectors, amplitudes


def evolve_clicks(
    state: SectorState, u: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[int, SectorState]]:
    """Yield (detector, post-click state) until the chain reaches the ground state."""
    walk = _click_walk(state.n_sites, state.n_excited, state.amplitudes, u, [rng])
    for e, (detectors, amplitudes) in zip(range(state.n_excited - 1, -1, -1), walk):
        yield int(detectors[0]), SectorState(state.n_sites, e, amplitudes[0])


def sample_click_sequence(
    n_sites: int, n_excited: int, u: np.ndarray, rng: np.random.Generator
) -> tuple[int, ...]:
    """Sample the full click sequence of one trajectory, skipping entropy bookkeeping.

    Draws the same clicks as :func:`evolve_clicks` for the same generator state.
    """
    walk = _click_walk(n_sites, n_excited, _initial_amplitudes(n_sites, n_excited), u, [rng])
    return tuple(int(detectors[0]) for detectors, _ in walk)


def _records(n_sites: int, n_excited: int, u: np.ndarray, cut: int, rngs) -> list[TrajectoryRecord]:
    # One record per row of a lockstep group started from the standard
    # initial state; see _click_walk for how u and rngs are shared.
    _check_cut(n_sites, cut)
    clicks: list[list[int]] = [[] for _ in rngs]
    entropies = [[0.0] for _ in rngs]  # the initial product state has no entanglement
    walk = _click_walk(n_sites, n_excited, _initial_amplitudes(n_sites, n_excited), u, rngs)
    for k, (detectors, amplitudes) in enumerate(walk, start=1):
        for b, detector in enumerate(detectors.tolist()):
            clicks[b].append(detector)
            entropies[b].append(_entropy(n_sites, n_excited - k, amplitudes[b], cut))
    return [TrajectoryRecord(tuple(c), tuple(s)) for c, s in zip(clicks, entropies)]


def run_trajectory(
    n_sites: int, n_excited: int, u: np.ndarray, cut: int, rng: np.random.Generator
) -> TrajectoryRecord:
    """Run one trajectory from the standard initial state until all emitters decay.

    Records the entanglement entropy at ``cut`` before the first click and
    after every click; the terminal state is the all-ground product state
    with entropy 0.
    """
    return _records(n_sites, n_excited, u, cut, [rng])[0]


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
