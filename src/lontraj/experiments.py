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

import ctypes
import operator
import os
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cache, partial
from math import comb
from pathlib import Path

import numpy as np

from .oracle import enumerate_outcomes, outcome_law
from .state import _cut_blocks, _entropies, _initial_amplitudes, _spectrum_entropy
from .trajectory import TrajectoryRecord, _click_walk, _records, attach_waiting_times
from .unitary import _brickwall_stack, _haar_stack, check_unitary

CHUNK_SIZE = 256  # fixed so that merge order never depends on the worker count
MIXTURE_MAX_SUBSYSTEM = 12
MAX_SAMPLES = 2**32  # so every trajectory index is one 32-bit seed word
# Complex elements in the largest array of a lockstep click group: with one
# unitary per trajectory, groups of 87 at N = 8, 19 at N = 10, 4 at N = 12 and
# 1 at N = 16 (full filling); under a shared unitary see _group_size.
_LOCKSTEP_BUDGET = 3 * 2**14


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one node of the (trajectory, purpose) tree."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path))


def derive_seed(master_seed: int, *path: int) -> int:
    """Stable 64-bit sub-seed for one node of the seed tree."""
    return int(np.random.SeedSequence(master_seed, spawn_key=path).generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, NEP 19): a pool of four
# 32-bit words, mixed with these constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(value: int, multiplier: int):
    # Successive (constant, next constant) pairs; they never depend on the data.
    while True:
        following = (value * multiplier) & _MASK32
        yield value, following
        value = following


def _hashmix(value, constants):
    constant, following = next(constants)
    value = ((value ^ constant) * following) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def _stream_words(master_seed: int, lo: int, hi: int, purpose: int) -> np.ndarray:
    """Row i - lo holds the PCG64 seed words of derive_rng(master_seed, i, purpose), lo <= i < hi.

    A port of SeedSequence's hash that runs every index of the span at once.
    derive_rng's entropy is the master seed in little-endian 32-bit words
    padded with zeros to the pool size, then i, then purpose.  Python ints
    carry the words that every row shares and uint64 arrays the ones that
    vary; both are reduced to 32 bits after each step.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"master seed must be >= 0, got {master_seed}")
    if not 0 <= lo <= hi <= MAX_SAMPLES:
        raise ValueError(f"trajectory indices [{lo}, {hi}) do not fit one 32-bit word each")
    shifts = range(0, max(master_seed.bit_length(), 1), 32)
    entropy = [(master_seed >> shift) & _MASK32 for shift in shifts]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += [np.arange(lo, hi, dtype=np.uint64), purpose]

    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))

    # generate_state(4, uint64): eight 32-bit words from the pool, paired little-endian.
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[k % _POOL_SIZE], constants) for k in range(8)]
    words = np.empty((hi - lo, 4), dtype=np.uint64)
    for k in range(4):
        words[:, k] = state[2 * k] | (state[2 * k + 1] << 32)
    return words


@cache
def _seed_words_type() -> type:
    """The numpy ISeedSequence that hands PCG64 one row of _stream_words.

    Made on first use: numpy imports numpy.random lazily, and subclassing
    its ISeedSequence at import would add about 15 ms to every start-up.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly this; anything else means numpy seeds differently now.
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"seed words answer generate_state(4, uint64) only, not ({n_words}, {dtype})"
                )
            return self.words

    return SeedWords


def _generator(words: np.ndarray) -> np.random.Generator:
    """The generator derive_rng would give, from its row of _stream_words."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


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

    def draw(self, n_modes: int, rngs) -> np.ndarray:
        """The unitary drawn from one generator, or the stack drawn from a list of them.

        A single generator gives one (n_modes, n_modes) matrix; a list of B
        generators gives the (B, n_modes, n_modes) stack whose row b is the
        matrix rngs[b] alone would give, from one batched draw.  A fixed
        source reads no generator.
        """
        group = [rngs] if isinstance(rngs, np.random.Generator) else rngs
        if self.kind == "fixed":
            if self.matrix.shape[0] != n_modes:
                raise ValueError(f"fixed unitary is {self.matrix.shape[0]}-mode, need {n_modes}")
            stack = np.broadcast_to(self.matrix, (len(group), n_modes, n_modes))
        elif self.kind == "haar":
            stack = _haar_stack(n_modes, group)
        elif self.kind == "brickwall":
            stack = _brickwall_stack(n_modes, self.depth, group)
        else:
            raise ValueError(f"unknown unitary source {self.kind!r}")
        return stack if group is rngs else stack[0]


def _chunks(n_samples: int) -> range:
    # Each chunk's first index.  A range has a length without holding the
    # 2^24 chunks of a run at MAX_SAMPLES.
    return range(0, n_samples, CHUNK_SIZE)


def _in_order(executor, fn, tasks, ahead: int):
    """Yield fn(task) for each task in order, run on ``executor``.

    At most ``ahead`` tasks are submitted and not yet yielded, so a long
    run holds a bounded number of futures.
    """
    pending = deque()
    try:
        for task in tasks:
            pending.append(executor.submit(fn, task))
            if len(pending) == ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _worker_count(threads: int, n_chunks: int) -> int:
    # The pool starts all its workers up front, so the requested count alone
    # must not decide how many processes are made.
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(threads, n_chunks, cores))


def _group_size(n_sites: int, n_excited: int, shared: bool = False) -> int:
    # Trajectories walked in lockstep.  With one unitary per trajectory the
    # group's largest lowered array, (size, n_sites, C(n_sites, e - 1)) over
    # e = n_excited..1, stays within _LOCKSTEP_BUDGET.  Under a shared unitary
    # the walk lowers its distinct states in slices within the budget, so only
    # the states, (size, C(n_sites, e - 1)), must fit it: a whole chunk at
    # N = 8, 195 trajectories at N = 10, 53 at N = 12 and 3 at N = 16.
    widest = max((comb(n_sites, j) for j in range(n_excited)), default=1)
    return max(1, _LOCKSTEP_BUDGET // (widest if shared else n_sites * widest))


def _openblas_threads():
    # (get, set) for the thread count of the OpenBLAS that numpy bundles, or
    # None where numpy does not bundle scipy-openblas.
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run BLAS on one thread inside the block; the previous count is restored after.

    Parallelism comes from the pool.  Workers that each run a multithreaded
    BLAS contend for the same cores: on a 2-core host one 70 x 70 x 70
    complex product (an N = 16 Gram block) took 0.15 ms alone and 16 ms in
    each of two unpinned workers.  The count is set before the workers fork, since setting it
    inside a forked worker slowed small products about threefold.  No result
    depends on the BLAS thread count.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _accumulate(args):
    (make, source, n_sites, master_seed), lo, hi = args
    part = make()
    e = part.n_excited
    step = _group_size(n_sites, e, shared=not source.fresh_per_sample)
    # One hash per stream for the whole chunk; each group builds its generators from its rows.
    unitary_words = _stream_words(master_seed, lo, hi, 0) if source.fresh_per_sample else None
    click_words = _stream_words(master_seed, lo, hi, 1)
    for start in range(lo, hi, step):
        rows = slice(start - lo, min(start + step, hi) - lo)
        if unitary_words is None:
            u = source.matrix
        else:
            u = source.draw(n_sites, [_generator(words) for words in unitary_words[rows]])
        # random(e) gives the bits of e successive random() calls.
        part.add(start, u, np.array([_generator(words).random(e) for words in click_words[rows]]))
    return part


def _run(make, source: UnitarySource, n_sites: int, n_samples: int, master_seed: int, threads: int):
    """Feed trajectories 0..n_samples-1 to accumulators made by ``make``; merge them in chunk order.

    Trajectory i runs under unitary stream (i, 0), drawn only for fresh
    sources, and click stream (i, 1).  Each chunk derives its trajectories'
    generators from one vectorised SeedSequence hash per stream, bit for bit
    the generators derive_rng(master_seed, i, k) gives.  At most MAX_SAMPLES
    trajectories run, so every index is one 32-bit seed word.  Each chunk
    hands its trajectories to its accumulator's ``add(first_index, u,
    uniforms)`` in lockstep groups of consecutive indices: ``u`` is the fixed
    matrix or the group's stacked draws, and row b of the (B, n_excited)
    ``uniforms`` holds the uniforms in [0, 1) that trajectory first_index + b
    clicks by, drawn from its click stream in one call.
    """
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"need 1 <= n_samples <= {MAX_SAMPLES}, got {n_samples}")
    starts = _chunks(n_samples)
    shared = (make, source, n_sites, master_seed)
    tasks = ((shared, lo, min(lo + CHUNK_SIZE, n_samples)) for lo in starts)
    workers = _worker_count(threads, len(starts))
    total = make()
    with _one_blas_thread(), ExitStack() as stack:
        parts = map(_accumulate, tasks)
        if workers > 1:
            # Two chunks per worker keep each worker busy while this process merges.
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            parts = _in_order(pool, _accumulate, tasks, 2 * workers)
        for part in parts:  # in chunk order, each merged as it arrives
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

    def add(self, first: int, u: np.ndarray, uniforms: np.ndarray) -> None:
        records = _records(self.n_sites, self.n_excited, u, self.cut, uniforms, _LOCKSTEP_BUDGET)
        if self.waiting_times:
            seeds = _stream_words(self.master_seed, first, first + len(records), 2)
            records = [
                attach_waiting_times(record, self.n_excited, _generator(words))
                for record, words in zip(records, seeds)
            ]
        self.records.extend(records)

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

    def add(self, first: int, u: np.ndarray, uniforms: np.ndarray) -> None:
        n, e = self.n_sites, self.n_excited
        cuts = tuple(range(1, n))
        step = _group_size(n, e)  # a profile gathers n - 1 cuts of each state
        # Row 0 stays zero: the initial product state has no entanglement.
        profiles = np.zeros((len(uniforms),) + self.sums.shape)
        walk = _click_walk(n, e, _initial_amplitudes(n, e), u, uniforms.T, _LOCKSTEP_BUDGET)
        for k, (_, rows, states) in enumerate(walk, start=1):
            slices = (states[i : i + step] for i in range(0, len(states), step))
            profiles[:, k] = np.concatenate([_entropies(n, e - k, s, cuts) for s in slices])[rows]
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

    def add(self, first: int, u: np.ndarray, uniforms: np.ndarray) -> None:
        n, e = self.n_sites, self.n_excited
        counts = np.zeros((len(uniforms), n), dtype=np.int64)
        rows = np.arange(len(uniforms))
        walk = _click_walk(n, e, _initial_amplitudes(n, e), u, uniforms.T, _LOCKSTEP_BUDGET)
        for detectors, _, _ in walk:
            counts[rows, detectors] += 1
        self.counts.update(map(tuple, counts.tolist()))

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
        # The reduced state is block diagonal: one block per b of state._cut_blocks.
        blocks = _cut_blocks(n_sites, n_excited - k, cut)
        self.rho_sum = [np.zeros((len(idx), len(idx)), dtype=complex) for idx in blocks]
        self.histogram: Counter = Counter()

    def add(self, first: int, u: np.ndarray, uniforms: np.ndarray) -> None:
        n, e = self.n_sites, self.n_excited - self.k
        states = _initial_amplitudes(n, self.n_excited)[None]
        rows = np.zeros(len(uniforms), dtype=np.intp)
        sequences = [()] * len(uniforms)
        if self.k > 0:
            walk = _click_walk(n, self.n_excited, states[0], u, uniforms.T, _LOCKSTEP_BUDGET)
            for detectors, rows, states in walk:
                sequences = [s + (d,) for s, d in zip(sequences, detectors.tolist())]
                if len(sequences[0]) == self.k:
                    break
        # One entropy per distinct state: a single cut gathers no more than the states hold.
        entropies = _entropies(n, e, states, (self.cut,))[:, 0]
        blocks = _cut_blocks(n, e, self.cut)
        step = _group_size(n, self.n_excited)
        # Trajectory by trajectory in index order, so neither the sums nor the
        # histogram's insertion order depend on the group size.  The Grams of
        # at most ``step`` trajectories' distinct states are held at a time.
        for lo in range(0, len(rows), step):
            needed, local = np.unique(rows[lo : lo + step], return_inverse=True)
            held = states[needed]
            grams = [x @ x.conj().swapaxes(-1, -2) for x in (held.take(i, axis=-1) for i in blocks)]
            held_entropies = entropies[needed].tolist()
            for b, row in enumerate(local.tolist(), start=lo):
                entropy = held_entropies[row]
                self.entropy_sum += entropy
                self.entropy_square_sum += entropy * entropy
                for rho, gram in zip(self.rho_sum, grams):
                    rho += gram[row]
                self.histogram[sequences[b]] += 1

    def merge(self, other: "_MixtureSums") -> None:
        self.entropy_sum += other.entropy_sum
        self.entropy_square_sum += other.entropy_square_sum
        self.rho_sum = [mine + theirs for mine, theirs in zip(self.rho_sum, other.rho_sum)]
        self.histogram.update(other.histogram)


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
        raise ValueError(f"subsystem of {cut} sites too large (at most {MIXTURE_MAX_SUBSYSTEM})")
    make = partial(_MixtureSums, n_sites, n_excited, k, cut)
    total = _run(make, UnitarySource.fixed(u), n_sites, n_samples, master_seed, threads)
    histogram = total.histogram
    mean, stderr = _mean_stderr(total.entropy_sum, total.entropy_square_sum, n_samples)
    eigenvalues = np.concatenate([np.linalg.eigvalsh(rho / n_samples) for rho in total.rho_sum])
    averaged_state_entropy = float(_spectrum_entropy(np.maximum(eigenvalues, 0.0)))
    frequencies = np.array([c / n_samples for c in histogram.values()])
    shannon = float(_spectrum_entropy(frequencies))
    tolerance = 3.0 * stderr + (len(histogram) - 1) / (2.0 * n_samples)
    return MixtureEntropyReport(
        mean_trajectory_entropy=float(mean),
        stderr_mean_entropy=float(stderr),
        averaged_state_entropy=averaged_state_entropy,
        shannon_mixture_entropy=shannon,
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
    exact = np.asarray(report.exact, dtype=float)
    empirical = np.asarray(report.empirical, dtype=float)
    stderr = np.sqrt(empirical * (1.0 - empirical) / report.n_samples)
    lines = ["outcome,exact,empirical,stderr\n"]
    # 256 rows at a time, so that few Python floats are alive at once: the
    # table is formatted near the run's memory peak.
    for lo in range(0, len(stderr), 256):
        hi = lo + 256
        rows = zip(
            report.outcomes[lo:hi], exact[lo:hi].tolist(), empirical[lo:hi].tolist(),
            stderr[lo:hi].tolist(),
        )
        lines += [f"{' '.join(map(str, o))},{p!r},{f!r},{s!r}\n" for o, p, f, s in rows]
    return "".join(lines)


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
