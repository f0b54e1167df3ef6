"""Trajectory ensembles and their statistics.

Runs seeded batches of trajectories to estimate averaged entanglement
entropies on the (click count, cut) grid, compare empirical click outcomes
against the exact permanent-based probabilities, and check the sandwich
relation between mean trajectory entropy, the entropy of the averaged state,
and the Shannon entropy of the trajectory mixture.

Every estimator, and the trajectory dump, feeds its trajectories to an
accumulator in fixed-size chunks whose parts are merged in chunk order, so
results are byte-identical for any worker count.  Randomness is derived per
trajectory index from the master seed, so they are also independent of
chunking.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from . import oracle
from .oracle import enumerate_outcomes, outcome_law
from .state import _dense_cut_matrix, _entropy, _entropy_profile, _initial_amplitudes
from .trajectory import TrajectoryRecord, _click_walk, _records, attach_waiting_times
from .unitary import check_unitary, haar_brickwall, haar_unitary

CHUNK_SIZE = 256  # fixed so that merge order never depends on the worker count
ENTROPY_CUTOFF = 1e-12
MIXTURE_MAX_SUBSYSTEM = 12


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one node of the (trajectory, purpose) tree."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path))


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit sub-seed for one node of the seed tree."""
    return int(np.random.SeedSequence(master_seed, spawn_key=path).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class UnitarySource:
    """Where each trajectory's network unitary comes from.

    ``haar`` and ``brickwall`` draw a fresh unitary per trajectory; ``fixed``
    reuses the given matrix for every trajectory.
    """

    kind: str
    matrix: np.ndarray | None = None
    depth: int | None = None

    @classmethod
    def fixed(cls, u: np.ndarray) -> "UnitarySource":
        check_unitary(u)
        return cls(kind="fixed", matrix=np.asarray(u, dtype=complex))

    @classmethod
    def identity(cls, n_modes: int) -> "UnitarySource":
        return cls.fixed(np.eye(n_modes, dtype=complex))

    @classmethod
    def haar(cls) -> "UnitarySource":
        return cls(kind="haar")

    @classmethod
    def brickwall(cls, depth: int) -> "UnitarySource":
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        return cls(kind="brickwall", depth=depth)

    @property
    def fresh_per_sample(self) -> bool:
        return self.kind in ("haar", "brickwall")

    def draw(self, n_modes: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "fixed":
            if self.matrix.shape[0] != n_modes:
                raise ValueError(f"fixed unitary is {self.matrix.shape[0]}-mode, need {n_modes}")
            return self.matrix
        if self.kind == "haar":
            return haar_unitary(n_modes, rng)
        if self.kind == "brickwall":
            return haar_brickwall(n_modes, self.depth, rng)
        raise ValueError(f"unknown unitary source {self.kind!r}")


def _chunks(n_samples: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_SIZE, n_samples)) for lo in range(0, n_samples, CHUNK_SIZE)]


def _worker_count(threads: int, n_chunks: int) -> int:
    # The pool starts all its workers up front, so the requested count alone
    # must not decide how many processes are made.
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(threads, n_chunks, cores))


def _group_size(n_sites: int, n_excited: int) -> int:
    # Trajectories walked in lockstep: the group's largest lowered array,
    # (size, n_sites, C(n_sites, e - 1)) over e = n_excited..1, stays within
    # the element budget of the permanent oracle.
    widest = max((comb(n_sites, j) for j in range(n_excited)), default=1)
    return max(1, oracle._ELEMENT_BUDGET // (n_sites * widest))


def _accumulate(args):
    (make, source, n_sites, master_seed), lo, hi = args
    part = make()
    step = _group_size(n_sites, part.n_excited)
    for start in range(lo, hi, step):
        rows = range(start, min(start + step, hi))
        if source.fresh_per_sample:
            u = np.stack([source.draw(n_sites, derive_rng(master_seed, i, 0)) for i in rows])
        else:
            u = source.matrix
        part.add(start, u, [derive_rng(master_seed, i, 1) for i in rows])
    return part


def _run(make, source: UnitarySource, n_sites: int, n_samples: int, master_seed: int, threads: int):
    """Feed trajectories 0..n_samples-1 to accumulators made by ``make``; merge them in chunk order.

    Trajectory i runs under unitary stream (i, 0), drawn only for fresh
    sources, and click stream (i, 1).  Each chunk hands its trajectories to
    its accumulator's ``add(first_index, u, rngs)`` in lockstep groups of
    consecutive indices: ``u`` is the fixed matrix or the group's stacked
    draws, and ``rngs`` holds one click generator per trajectory.
    """
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    spans = _chunks(n_samples)
    tasks = [((make, source, n_sites, master_seed), lo, hi) for lo, hi in spans]
    workers = _worker_count(threads, len(spans))
    if workers <= 1:
        parts = [_accumulate(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_accumulate, tasks))
    total = make()
    for part in parts:
        total.merge(part)
    return total


class _Records:
    """Trajectory records in index order, with waiting times from stream (i, 2) if asked."""

    def __init__(
        self, n_sites: int, n_excited: int, cut: int, master_seed: int, waiting_times: bool
    ) -> None:
        self.n_sites = n_sites
        self.n_excited = n_excited
        self.cut = cut
        self.master_seed = master_seed
        self.waiting_times = waiting_times
        self.records: list[TrajectoryRecord] = []

    def add(self, first: int, u: np.ndarray, rngs: list) -> None:
        records = _records(self.n_sites, self.n_excited, u, self.cut, rngs)
        for index, record in enumerate(records, start=first):
            if self.waiting_times:
                waiting_rng = derive_rng(self.master_seed, index, 2)
                record = attach_waiting_times(record, self.n_excited, waiting_rng)
            self.records.append(record)

    def merge(self, other: "_Records") -> None:
        self.records.extend(other.records)


def trajectory_records(
    n_sites: int,
    n_excited: int,
    source: UnitarySource,
    cut: int,
    n_samples: int,
    master_seed: int,
    waiting_times: bool = False,
    threads: int = 1,
) -> list[TrajectoryRecord]:
    """The records of trajectories 0..n_samples-1, the same ones the estimators average.

    Record i has the clicks that trajectory i of an estimator with the same
    master seed and source draws; ``waiting_times`` attaches exponential
    waiting times from the separate stream (i, 2).
    """
    make = partial(_Records, n_sites, n_excited, cut, master_seed, waiting_times)
    return _run(make, source, n_sites, n_samples, master_seed, threads).records


@dataclass(frozen=True)
class EntropyGrid:
    """Mean trajectory entanglement entropy on the (click count, cut) grid.

    ``values[k, l-1]`` is the sample mean at click count k and cut l, in
    nats; ``stderr`` holds the matching standard errors of the mean.
    """

    n_sites: int
    n_excited: int
    values: np.ndarray
    stderr: np.ndarray
    n_samples: int


class _GridSums:
    """Sums and squared sums of the entropy profile after each click count.

    Every part starts from zeros and adds nonnegative entropies, so no sum
    is -0.0 and merging into a zero total adds exactly the parts' values.
    """

    def __init__(self, n_sites: int, n_excited: int) -> None:
        self.n_sites = n_sites
        self.n_excited = n_excited
        self.sums = np.zeros((n_excited + 1, n_sites - 1))
        self.square_sums = np.zeros_like(self.sums)

    def add(self, first: int, u: np.ndarray, rngs: list) -> None:
        n, e = self.n_sites, self.n_excited
        # Row 0 stays zero: the initial product state has no entanglement.
        profiles = np.zeros((len(rngs),) + self.sums.shape)
        walk = _click_walk(n, e, _initial_amplitudes(n, e), u, rngs)
        for k, (_, amplitudes) in enumerate(walk, start=1):
            for profile, row in zip(profiles, amplitudes):
                profile[k] = _entropy_profile(n, e - k, row)
        for profile in profiles:  # row by row, so no sum depends on the group size
            self.sums += profile
            self.square_sums += profile * profile

    def merge(self, other: "_GridSums") -> None:
        self.sums = self.sums + other.sums
        self.square_sums = self.square_sums + other.square_sums


def _mean_stderr(sums: np.ndarray, square_sums: np.ndarray, n: int):
    mean = sums / n
    if n < 2:
        return mean, np.zeros_like(mean)
    variance = np.maximum(square_sums - n * mean * mean, 0.0) / (n - 1)
    return mean, np.sqrt(variance / n)


def averaged_entropy_grid(
    n_sites: int,
    n_excited: int,
    source: UnitarySource,
    n_samples: int,
    master_seed: int,
    threads: int = 1,
) -> EntropyGrid:
    """Estimate the averaged trajectory entropy at every (click count, cut).

    For ``haar``/``brickwall`` sources each trajectory first draws its own
    unitary, then samples the click record under it.
    """
    if n_sites < 2:
        raise ValueError("entropy grids need at least 2 sites")
    make = partial(_GridSums, n_sites, n_excited)
    total = _run(make, source, n_sites, n_samples, master_seed, threads)
    mean, stderr = _mean_stderr(total.sums, total.square_sums, n_samples)
    return EntropyGrid(
        n_sites=n_sites,
        n_excited=n_excited,
        values=mean,
        stderr=stderr,
        n_samples=n_samples,
    )


def max_averaged_entropy(grid: EntropyGrid) -> tuple[float, int, int]:
    """Largest grid value and its (click count, cut); ties pick the smallest k, then l."""
    flat = int(np.argmax(grid.values))
    k, l_index = np.unravel_index(flat, grid.values.shape)
    return float(grid.values[k, l_index]), int(k), int(l_index) + 1


def entropy_bound(subsystem_size: int, n_sites: int) -> float:
    """Binary entropy h(l/N) in nats: the cap on the averaged entropy after one click."""
    if not 0 <= subsystem_size <= n_sites:
        raise ValueError(f"subsystem size {subsystem_size} outside [0, {n_sites}]")
    x = subsystem_size / n_sites
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log(x) - (1.0 - x) * np.log(1.0 - x))


@dataclass(frozen=True)
class DistributionReport:
    """Exact vs. empirical click-outcome distribution for one fixed unitary."""

    outcomes: list[tuple[int, ...]]
    exact: np.ndarray
    empirical: np.ndarray
    tvd: float
    n_samples: int


class _OutcomeCounts:
    """How often each click outcome (per-detector counts) occurred."""

    def __init__(self, n_sites: int, n_excited: int) -> None:
        self.n_sites = n_sites
        self.n_excited = n_excited
        self.counts: Counter = Counter()

    def add(self, first: int, u: np.ndarray, rngs: list) -> None:
        n, e = self.n_sites, self.n_excited
        counts = np.zeros((len(rngs), n), dtype=np.int64)
        rows = np.arange(len(rngs))
        for detectors, _ in _click_walk(n, e, _initial_amplitudes(n, e), u, rngs):
            counts[rows, detectors] += 1
        self.counts.update(map(tuple, counts))

    def merge(self, other: "_OutcomeCounts") -> None:
        self.counts.update(other.counts)


def distribution_comparison(
    n_sites: int,
    n_excited: int,
    u: np.ndarray,
    n_samples: int,
    master_seed: int,
    threads: int = 1,
) -> DistributionReport:
    """Sample trajectories under a fixed unitary and compare to the exact outcome law."""
    outcomes = enumerate_outcomes(n_sites, n_excited)
    exact = outcome_law(u, outcomes, n_excited)
    make = partial(_OutcomeCounts, n_sites, n_excited)
    seen = _run(make, UnitarySource.fixed(u), n_sites, n_samples, master_seed, threads).counts
    counts = np.array([seen[outcome] for outcome in outcomes], dtype=np.int64)
    empirical = counts / n_samples
    tvd = 0.5 * float(np.abs(exact - empirical).sum())
    return DistributionReport(
        outcomes=outcomes, exact=exact, empirical=empirical, tvd=tvd, n_samples=n_samples
    )


def expected_tvd(exact: np.ndarray, n_samples: int) -> float:
    """Expected total-variation distance of a multinomial sample from its law.

    Sums the half-normal means of the per-outcome frequency errors,
    sqrt(2 p (1-p) / (pi n)), and halves the total.
    """
    exact = np.asarray(exact)
    return float(np.sqrt(2.0 * exact * (1.0 - exact) / (np.pi * n_samples)).sum() / 2.0)


@dataclass(frozen=True)
class MixtureEntropyReport:
    """Sandwich of the averaged state's entropy between S-bar and S-bar + H.

    ``mean_trajectory_entropy`` (S-bar) is the average over trajectories of
    the subsystem entropy after ``click_count`` clicks;
    ``averaged_state_entropy`` is the entropy of the trajectory-averaged
    reduced state; ``shannon_mixture_entropy`` is the plug-in Shannon entropy
    of the empirical click-sequence distribution (biased low by roughly
    (#distinct - 1) / (2 n_samples), which ``tolerance`` accounts for).
    """

    mean_trajectory_entropy: float
    stderr_mean_entropy: float
    averaged_state_entropy: float
    shannon_mixture_entropy: float
    subsystem_size: int
    click_count: int
    n_samples: int
    n_distinct_sequences: int
    tolerance: float


class _MixtureSums:
    """Entropy sums, the summed reduced state and the click-sequence histogram after k clicks."""

    def __init__(self, n_sites: int, n_excited: int, k: int, cut: int) -> None:
        self.n_sites = n_sites
        self.n_excited = n_excited
        self.k = k
        self.cut = cut
        self.entropy_sum = 0.0
        self.entropy_square_sum = 0.0
        self.rho_sum = np.zeros((1 << cut, 1 << cut), dtype=complex)
        self.histogram: Counter = Counter()

    def add(self, first: int, u: np.ndarray, rngs: list) -> None:
        n, e = self.n_sites, self.n_excited - self.k
        start = _initial_amplitudes(n, self.n_excited)
        amplitudes = np.broadcast_to(start, (len(rngs), len(start)))
        sequences = [()] * len(rngs)
        if self.k > 0:
            for detectors, amplitudes in _click_walk(n, self.n_excited, start, u, rngs):
                sequences = [s + (d,) for s, d in zip(sequences, detectors.tolist())]
                if len(sequences[0]) == self.k:
                    break
        # Row by row in trajectory order, so neither the sums nor the
        # histogram's insertion order depend on the group size.
        for row, sequence in zip(amplitudes, sequences):
            entropy = _entropy(n, e, row, self.cut)
            self.entropy_sum += entropy
            self.entropy_square_sum += entropy * entropy
            cut_matrix = _dense_cut_matrix(n, e, row, self.cut)
            self.rho_sum += cut_matrix @ cut_matrix.conj().T
            self.histogram[sequence] += 1

    def merge(self, other: "_MixtureSums") -> None:
        self.entropy_sum += other.entropy_sum
        self.entropy_square_sum += other.entropy_square_sum
        self.rho_sum = self.rho_sum + other.rho_sum
        self.histogram.update(other.histogram)


def _spectrum_entropy(weights: np.ndarray) -> float:
    weights = weights[weights >= ENTROPY_CUTOFF]
    value = float(-(weights * np.log(weights)).sum())
    return value if value > 0.0 else 0.0


def mixture_entropy_report(
    n_sites: int,
    n_excited: int,
    u: np.ndarray,
    k: int,
    cut: int,
    n_samples: int,
    master_seed: int,
    threads: int = 1,
) -> MixtureEntropyReport:
    """Estimate both sides of the mixture-entropy sandwich after ``k`` clicks.

    ``tolerance`` combines three standard errors of the mean trajectory
    entropy with the plug-in bias allowance of the Shannon term; the sandwich
    is expected to hold within it.
    """
    if not 0 <= k <= n_excited:
        raise ValueError(f"click count {k} outside [0, {n_excited}]")
    if not 1 <= cut <= n_sites - 1:
        raise ValueError(f"cut {cut} outside [1, {n_sites - 1}]")
    if cut > MIXTURE_MAX_SUBSYSTEM:
        raise ValueError(f"subsystem of {cut} sites too large to accumulate densely")
    make = partial(_MixtureSums, n_sites, n_excited, k, cut)
    total = _run(make, UnitarySource.fixed(u), n_sites, n_samples, master_seed, threads)
    histogram = total.histogram
    mean, stderr = _mean_stderr(total.entropy_sum, total.entropy_square_sum, n_samples)
    rho = total.rho_sum / n_samples
    eigenvalues = np.linalg.eigvalsh(rho)
    averaged_state_entropy = _spectrum_entropy(np.maximum(eigenvalues, 0.0))
    frequencies = np.array([c / n_samples for c in histogram.values()])
    shannon = _spectrum_entropy(frequencies)
    tolerance = 3.0 * stderr + (len(histogram) - 1) / (2.0 * n_samples)
    return MixtureEntropyReport(
        mean_trajectory_entropy=float(mean),
        stderr_mean_entropy=float(stderr),
        averaged_state_entropy=averaged_state_entropy,
        shannon_mixture_entropy=float(shannon),
        subsystem_size=cut,
        click_count=k,
        n_samples=n_samples,
        n_distinct_sequences=len(histogram),
        tolerance=float(tolerance),
    )


@dataclass(frozen=True)
class ScalingPoint:
    """One row of a size sweep: the grid maximum and where it sits."""

    n_sites: int
    source: UnitarySource
    s_max: float
    k_max: int
    l_max: int
    stderr: float


def scaling_sweep(
    points: list[tuple[int, UnitarySource]],
    n_samples: int,
    master_seed: int,
    threads: int = 1,
) -> list[ScalingPoint]:
    """Run one entropy grid per (system size, source) and record each maximum."""
    rows = []
    for index, (n_sites, source) in enumerate(points):
        grid = averaged_entropy_grid(
            n_sites, n_sites, source, n_samples, derive_seed(master_seed, index), threads
        )
        s_max, k_max, l_max = max_averaged_entropy(grid)
        rows.append(
            ScalingPoint(
                n_sites=n_sites,
                source=source,
                s_max=s_max,
                k_max=k_max,
                l_max=l_max,
                stderr=float(grid.stderr[k_max, l_max - 1]),
            )
        )
    return rows


def grid_csv(grid: EntropyGrid) -> str:
    """Entropy grid as CSV rows (k, l, mean, stderr)."""
    lines = ["k,l,mean,stderr"]
    for k in range(grid.values.shape[0]):
        for l_index in range(grid.values.shape[1]):
            mean = float(grid.values[k, l_index])
            stderr = float(grid.stderr[k, l_index])
            lines.append(f"{k},{l_index + 1},{mean!r},{stderr!r}")
    return "\n".join(lines) + "\n"


def distribution_csv(report: DistributionReport) -> str:
    """Outcome table as CSV rows (outcome, exact, empirical, stderr).

    The per-outcome standard error is the binomial error of the empirical
    frequency at this sample size.
    """
    lines = ["outcome,exact,empirical,stderr"]
    for outcome, exact, empirical in zip(report.outcomes, report.exact, report.empirical):
        stderr = float(np.sqrt(empirical * (1.0 - empirical) / report.n_samples))
        label = " ".join(str(c) for c in outcome)
        lines.append(f"{label},{float(exact)!r},{float(empirical)!r},{stderr!r}")
    return "\n".join(lines) + "\n"


def scaling_csv(rows: list[ScalingPoint]) -> str:
    """Sweep results as CSV rows (n, source, depth, s_max, k_max, l_max, stderr)."""
    lines = ["n,source,depth,s_max,k_max,l_max,stderr"]
    for row in rows:
        depth = "" if row.source.depth is None else str(row.source.depth)
        lines.append(
            f"{row.n_sites},{row.source.kind},{depth},"
            f"{row.s_max!r},{row.k_max},{row.l_max},{row.stderr!r}"
        )
    return "\n".join(lines) + "\n"
