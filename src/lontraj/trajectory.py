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
from math import comb
from typing import Iterator

import numpy as np

from .oracle import _next_level
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


def _pick_detectors(
    positive: np.ndarray, totals: np.ndarray, prefix_sums: np.ndarray, rows, n_excited: int,
    uniforms: np.ndarray,
) -> np.ndarray:
    # Trajectory b picks by uniforms[b] in [0, 1) from row rows[b] of a table
    # of jump weights: their sums, their prefix sums along the row, and an
    # array whose nonzero entries are the detectors of positive weight (the
    # weights themselves serve).  The collective jumps conserve the
    # excitation number, so the weights of a normalized state sum to
    # n_excited; a larger residual means a non-unitary network or a state
    # that lost its norm.
    totals = totals[rows]
    faulty = ~(np.abs(totals - n_excited) <= NORM_TOL * n_excited)  # NaN fails too
    if faulty.any():
        total = float(totals[np.argmax(faulty)])
        raise RuntimeError(f"jump weights sum to {total!r}, expected {n_excited}")
    # Inverse CDF over the weight prefix sums.  Counting the prefix sums <= r
    # is searchsorted(side="right"): it skips zero-weight detectors, whose
    # cumulative entries repeat the previous value.
    r = uniforms * totals
    detectors = np.count_nonzero(prefix_sums[rows] <= r[:, None], axis=1)
    for b in np.nonzero(detectors == prefix_sums.shape[1])[0]:
        # r fell in the ulp sliver between sum() and cumsum()[-1].
        detectors[b] = np.nonzero(positive[rows[b]])[0][-1]
    return detectors


def _distinct(nodes, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, distinct) from one yield of _ClickTree.walk: trajectory b sits in distinct[rows[b]].

    Through the tree's levels ``distinct`` holds the nodes the group
    visits, ascending, once each; past them (``nodes`` None) the states are
    already one per trajectory.
    """
    if nodes is None:
        return np.arange(len(states)), states
    visited, rows = np.unique(nodes, return_inverse=True)
    return rows, states[visited]


# Complex elements in the states of a lockstep click group (group sizes in
# experiments._group_size); _click lowers the states in slices within it.
_LOCKSTEP_BUDGET = 3 * 2**14
# Amplitudes a click-multiset tree may hold (3 MiB).  Bound once, so the
# group size never decides how deep a run's tree goes.
_TREE_BUDGET = 4 * _LOCKSTEP_BUDGET


def _slice_size(n_sites: int, e: int) -> int:
    # States lowered at once at a click from e excitations: each lowers to an
    # (n_sites, C(n_sites, e - 1)) array, and a slice's lowered arrays hold at
    # most a quarter of _LOCKSTEP_BUDGET, so a single state is one slice.  The
    # 4 is measured, not an array count: on a 2-core Xeon, with slices sized
    # to fill the whole budget the N = M = 8 tree took 20.3 ms to build
    # against 14.9 ms, and a 256-trajectory N = M = 9 distribution chunk,
    # which goes on past its four-level tree, 11.8 against 9.3 ms (medians
    # of 200 alternated pairs, the quarter faster in 199 and 190 of them).
    return max(1, _LOCKSTEP_BUDGET // (4 * n_sites * comb(n_sites, e - 1)))


def _click(
    n_sites: int, e: int, states: np.ndarray, rows: np.ndarray | None, u: np.ndarray, r
) -> tuple[np.ndarray, np.ndarray]:
    # One click of a lockstep group: trajectory b sits in states[rows[b]], or
    # in states[b] with ``rows`` None, and clicks by r[b].  An (n_sites,
    # n_sites) u is shared; under a (B, n_sites, n_sites) stack trajectory b
    # is lowered through u[b], so every row is its own state.  Each distinct
    # state is lowered and weighed once, in slices of _slice_size states.
    # Returns the detectors and the normalized post-click states, row b
    # trajectory b's.
    if u.shape not in ((n_sites, n_sites), (len(r), n_sites, n_sites)):
        raise ValueError(f"unitary shape {u.shape} does not match {n_sites} sites")
    if u.ndim == 3 and rows is not None:
        states, rows = states[rows], None
    step = _slice_size(n_sites, e)
    detectors = np.empty(len(r), dtype=np.intp)
    clicked = np.empty((len(r), comb(n_sites, e - 1)), dtype=complex)
    for lo in range(0, len(states), step):
        through = u[lo : lo + step] if u.ndim == 3 else u
        lowered = _lowered_raw(n_sites, e, states[lo : lo + step], through)
        weights = np.vecdot(lowered, lowered).real
        # The trajectories in this slice's states, each picking by its own uniform.
        if rows is None:
            mine, local = slice(lo, lo + step), np.arange(len(lowered))
        else:
            mine = slice(None)
            if step < len(states):
                mine = np.nonzero((rows >= lo) & (rows < lo + step))[0]
            local = rows[mine] - lo
        picked = _pick_detectors(
            weights, weights.sum(axis=1), weights.cumsum(axis=1), local, e, r[mine]
        )
        detectors[mine] = picked
        clicked[mine] = lowered[local, picked] / np.sqrt(weights[local, picked])[:, None]
    return detectors, clicked


@dataclass(frozen=True, eq=False)  # compared by identity: its fields are arrays
class _ClickTree:
    """The state of every multiset of at most ``len(children)`` clicks under one fixed unitary.

    The collective jumps commute, so the state after k clicks depends only on
    the multiset of detectors clicked.  Level k lists the multisets of k
    detectors in the oracle's one order, lexicographic in their sorted
    detectors: node p of level k is outcome p of
    ``oracle.enumerate_outcomes(n_sites, k)``.  It has the normalized state
    ``states[k][p]``, and on every level but the last its jump weights'
    sum ``totals[k][p]``, their prefix sums ``prefix_sums[k][p]``, which
    detectors have positive weight, ``positive[k][p]``, and the
    level-(k + 1) node of each detector's click, ``children[k][p]``: the
    walk picks from these tables, and keeps no weights.  A tree may be its
    root alone.
    """

    n_sites: int
    n_excited: int
    states: tuple[np.ndarray, ...]
    totals: tuple[np.ndarray, ...]
    prefix_sums: tuple[np.ndarray, ...]
    positive: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]

    def walk(self, u: np.ndarray, uniforms: np.ndarray, clicks: int) -> Iterator[tuple]:
        """Walk a lockstep group from the root over its first ``clicks`` clicks.

        Row b of the (B, >= clicks) ``uniforms`` holds trajectory b's click
        draws.  Yields (k, detectors, nodes, states) for k = 0..clicks, where
        trajectory b clicked detectors[b] (None at k = 0).  Through the
        tree's levels trajectory b sits at node nodes[b] of the level,
        ``states`` is the level itself, self.states[k], and nothing is
        gathered: _distinct takes the nodes the group visits.  Past them
        each click is one _click through ``u``, the tree's unitary or a
        group's (B, n_sites, n_sites) stack, ``nodes`` is None and row b of
        ``states`` is trajectory b's state.
        """
        depth = min(len(self.children), clicks)
        nodes = np.zeros(len(uniforms), dtype=np.intp)
        yield 0, None, nodes, self.states[0]
        for k in range(1, depth + 1):
            e = self.n_excited - k + 1
            table = self.positive[k - 1], self.totals[k - 1], self.prefix_sums[k - 1]
            detectors = _pick_detectors(*table, nodes, e, uniforms[:, k - 1])
            nodes = self.children[k - 1][nodes, detectors]
            yield k, detectors, nodes, self.states[k]
        if depth == clicks:
            return
        rows, states = _distinct(nodes, self.states[depth])  # each visited node lowers once
        for k in range(depth + 1, clicks + 1):
            e = self.n_excited - k + 1
            detectors, states = _click(self.n_sites, e, states, rows, u, uniforms[:, k - 1])
            rows = None  # one state per trajectory from here on
            yield k, detectors, None, states


def _click_tree(n_sites: int, n_excited: int, u: np.ndarray, clicks: int) -> _ClickTree:
    """The click-multiset tree of the (n_sites, n_sites) ``u``, over at most ``clicks`` clicks.

    Levels are added while the tree's states, the root's included, hold at
    most _TREE_BUDGET amplitudes: every level at N = M = 8 (157,184), four
    at N = M = 9, three at (12, 6), one at (16, 8) and none at (17, 8).
    With ``clicks`` 0 the tree is its root, and ``u`` is not read.
    Each level's nodes come from oracle._next_level, as (canonical parent,
    largest detector).  Multiset S's state is the lowering of its canonical
    parent, S without its largest detector d, at detector d, normalized by
    its weight as _click does; so a node's bits do not depend on which
    trajectories reach it.
    Each level is lowered once, in _click's slices, and its weights' sums
    and prefix sums are taken once, for the walk's picks; the weights
    themselves are not kept.  A canonical child
    of exactly zero weight (behind exact zeros of ``u``) is kept
    unnormalized: no walk picks it.
    """
    states = [_initial_amplitudes(n_sites, n_excited)[None]]
    held = states[0].size
    totals, prefix_sums, positive, children = [], [], [], []
    # Largest detector of each node of the current level (the root's counts
    # as 0), and the canonical parent of each (unused at the root).
    last = np.zeros(1, dtype=np.intp)
    parent = np.zeros(1, dtype=np.intp)
    detectors = np.arange(n_sites)
    for e in range(n_excited, n_excited - clicks, -1):
        level = states[-1]
        child_parent, child_last = _next_level(n_sites, last)
        held += len(child_parent) * comb(n_sites, e - 1)
        if held > _TREE_BUDGET:
            break
        # Node p's canonical children, by detectors last[p]..n_sites - 1, are
        # consecutive in the next level from bounds[p] to bounds[p + 1].
        bounds = np.searchsorted(child_parent, np.arange(len(level) + 1))
        first = bounds[:-1]
        # The child of detector d < last[p]: p is its parent's canonical child
        # by last[p], so p + d is the canonical child by last[p] of parent + d.
        table = first[:, None] + detectors - last[:, None]
        below = np.nonzero(detectors < last[:, None])
        if children:
            via = children[-1][parent[below[0]], below[1]]
            table[below] = first[via] + last[below[0]] - last[via]
        level_weights = np.empty((len(level), n_sites))
        next_states = np.empty((len(child_parent), comb(n_sites, e - 1)), dtype=complex)
        step = _slice_size(n_sites, e)
        for lo in range(0, len(level), step):
            lowered = _lowered_raw(n_sites, e, level[lo : lo + step], u)
            level_weights[lo : lo + step] = np.vecdot(lowered, lowered).real
            made = slice(bounds[lo], bounds[min(lo + step, len(level))])
            src, det = child_parent[made], child_last[made]
            w = level_weights[src, det]
            next_states[made] = lowered[src - lo, det] / np.sqrt(np.where(w > 0, w, 1.0))[:, None]
        states.append(next_states)
        totals.append(level_weights.sum(axis=1))
        prefix_sums.append(level_weights.cumsum(axis=1))
        positive.append(level_weights > 0)
        children.append(table.astype(np.int32))
        last, parent = child_last, child_parent
    return _ClickTree(
        n_sites, n_excited, tuple(states), tuple(totals), tuple(prefix_sums), tuple(positive),
        tuple(children),
    )


def evolve_clicks(
    state: SectorState, u: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[int, SectorState]]:
    """Yield (detector, post-click state) until the chain reaches the ground state.

    Each click takes one ``rng.random()`` draw as it starts, so a walk
    stopped after k clicks has advanced ``rng`` by exactly k draws.
    """
    states = state.amplitudes[None]
    for e in range(state.n_excited, 0, -1):
        detectors, states = _click(state.n_sites, e, states, None, u, rng.random(1))
        yield int(detectors[0]), SectorState(state.n_sites, e - 1, states[0])


def sample_click_sequence(
    n_sites: int, n_excited: int, u: np.ndarray, rng: np.random.Generator
) -> tuple[int, ...]:
    """Sample the full click sequence of one trajectory, skipping entropy bookkeeping.

    Draws the same clicks as :func:`evolve_clicks` for the same generator state.
    """
    walk = _click_tree(n_sites, n_excited, u, 0).walk(u, rng.random((1, n_excited)), n_excited)
    return tuple(int(detectors[0]) for k, detectors, _, _ in walk if k)


def _records(n_sites: int, n_excited: int, cut: int, walk) -> list[TrajectoryRecord]:
    # One record per trajectory of a _ClickTree.walk over all n_excited clicks, with
    # the entropy at the (checked) ``cut`` of the start state and of every post-click state.
    detectors_by_click, entropies_by_click = [], []
    for k, detectors, nodes, states in walk:
        # One entropy per distinct state: a single cut gathers no more than the states hold.
        rows, states = _distinct(nodes, states)
        entropies_by_click.append(_entropies(n_sites, n_excited - k, states, (cut,))[rows, 0])
        if detectors is not None:
            detectors_by_click.append(detectors)
    clicks = np.array(detectors_by_click).reshape(-1, len(rows)).T.tolist()
    entropies = np.array(entropies_by_click).T.tolist()
    return [TrajectoryRecord(tuple(c), tuple(s)) for c, s in zip(clicks, entropies)]


def run_trajectory(
    n_sites: int, n_excited: int, u: np.ndarray, cut: int, rng: np.random.Generator
) -> TrajectoryRecord:
    """Run one trajectory from the standard initial state until all emitters decay.

    Records the entanglement entropy at ``cut`` before the first click and
    after every click; the terminal state is the all-ground product state
    with entropy 0.
    """
    _check_cut(n_sites, cut)
    walk = _click_tree(n_sites, n_excited, u, 0).walk(u, rng.random((1, n_excited)), n_excited)
    return _records(n_sites, n_excited, cut, walk)[0]


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


def record_to_json(record: TrajectoryRecord) -> str:
    """One JSON line: ``{"clicks", "entropies", "waiting_times"?}``."""
    obj = {"clicks": list(record.clicks), "entropies": list(record.entropies)}
    if record.waiting_times is not None:
        obj["waiting_times"] = list(record.waiting_times)
    return json.dumps(obj)
