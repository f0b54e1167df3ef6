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
    _entropies,
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


def _pick_detectors(weights: np.ndarray, n_excited: int, uniforms: np.ndarray) -> np.ndarray:
    # Row b of ``weights`` holds trajectory b's jump weights and uniforms[b]
    # its draw in [0, 1).  The collective jumps conserve the excitation
    # number, so the weights of a normalized state sum to n_excited; a larger
    # residual means a non-unitary network or a state that lost its norm.
    totals = weights.sum(axis=1)
    faulty = ~(np.abs(totals - n_excited) <= NORM_TOL * n_excited)  # NaN fails too
    if faulty.any():
        total = float(totals[np.argmax(faulty)])
        raise RuntimeError(f"jump weights sum to {total!r}, expected {n_excited}")
    # Inverse CDF over the weight prefix sums.  Counting the prefix sums <= r
    # is searchsorted(side="right"): it skips zero-weight detectors, whose
    # cumulative entries repeat the previous value.
    r = uniforms * totals
    detectors = (weights.cumsum(axis=1) <= r[:, None]).sum(axis=1)
    for b in np.nonzero(detectors == weights.shape[1])[0]:
        # r fell in the ulp sliver between sum() and cumsum()[-1].
        detectors[b] = np.nonzero(weights[b])[0][-1]
    return detectors


def _click_walk(
    n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray, uniforms
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # The one click loop.  It advances a group of B trajectories in lockstep:
    # row b starts from amplitudes[b], is lowered through u[b] and makes its
    # k-th click from row b of the k-th (B,) array of uniforms in [0, 1) that
    # ``uniforms`` yields, taken only as that click starts.  A (dim,) start
    # state or an (n_sites, n_sites) unitary is shared by every row.  Yields
    # (detectors[B], normalized post-click amplitudes[B, dim_lo]) until the
    # chain reaches the ground state.
    for e, r in zip(range(n_excited, 0, -1), uniforms):
        size = len(r)
        if u.shape not in ((n_sites, n_sites), (size, n_sites, n_sites)):
            raise ValueError(f"unitary shape {u.shape} does not match {n_sites} sites")
        amplitudes = np.broadcast_to(amplitudes, (size, amplitudes.shape[-1]))
        lowered = _lowered_raw(n_sites, e, amplitudes, u)
        weights = np.einsum("bij,bij->bi", lowered, lowered.conj()).real
        detectors = _pick_detectors(weights, e, r)
        rows = np.arange(size)
        amplitudes = lowered[rows, detectors] / np.sqrt(weights[rows, detectors])[:, None]
        del lowered  # the group's largest array, not held while the caller works on the yield
        yield detectors, amplitudes


def evolve_clicks(
    state: SectorState, u: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[int, SectorState]]:
    """Yield (detector, post-click state) until the chain reaches the ground state.

    Each click takes one ``rng.random()`` draw as it starts, so a walk
    stopped after k clicks has advanced ``rng`` by exactly k draws.
    """
    uniforms = (rng.random(1) for _ in range(state.n_excited))
    walk = _click_walk(state.n_sites, state.n_excited, state.amplitudes, u, uniforms)
    for e, (detectors, amplitudes) in zip(range(state.n_excited - 1, -1, -1), walk):
        yield int(detectors[0]), SectorState(state.n_sites, e, amplitudes[0])


def sample_click_sequence(
    n_sites: int, n_excited: int, u: np.ndarray, rng: np.random.Generator
) -> tuple[int, ...]:
    """Sample the full click sequence of one trajectory, skipping entropy bookkeeping.

    Draws the same clicks as :func:`evolve_clicks` for the same generator state.
    """
    uniforms = rng.random((n_excited, 1))
    walk = _click_walk(n_sites, n_excited, _initial_amplitudes(n_sites, n_excited), u, uniforms)
    return tuple(int(detectors[0]) for detectors, _ in walk)


def _records(
    n_sites: int, n_excited: int, u: np.ndarray, cut: int, uniforms: np.ndarray
) -> list[TrajectoryRecord]:
    # One record per row of a lockstep group started from the standard
    # initial state; row b of the (B, n_excited) ``uniforms`` holds
    # trajectory b's click draws, and u is shared as in _click_walk.
    _check_cut(n_sites, cut)
    clicks: list[list[int]] = [[] for _ in uniforms]
    entropies = [[0.0] for _ in uniforms]  # the initial product state has no entanglement
    walk = _click_walk(n_sites, n_excited, _initial_amplitudes(n_sites, n_excited), u, uniforms.T)
    for k, (detectors, amplitudes) in enumerate(walk, start=1):
        values = _entropies(n_sites, n_excited - k, amplitudes, (cut,))[:, 0]
        for b, (detector, value) in enumerate(zip(detectors.tolist(), values.tolist())):
            clicks[b].append(detector)
            entropies[b].append(value)
    return [TrajectoryRecord(tuple(c), tuple(s)) for c, s in zip(clicks, entropies)]


def run_trajectory(
    n_sites: int, n_excited: int, u: np.ndarray, cut: int, rng: np.random.Generator
) -> TrajectoryRecord:
    """Run one trajectory from the standard initial state until all emitters decay.

    Records the entanglement entropy at ``cut`` before the first click and
    after every click; the terminal state is the all-ground product state
    with entropy 0.
    """
    return _records(n_sites, n_excited, u, cut, rng.random((1, n_excited)))[0]


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
