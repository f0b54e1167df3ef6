"""Trajectory ensembles and their statistics.

Runs seeded batches of trajectories to estimate averaged entanglement
entropies on the (click count, cut) grid, compare empirical click outcomes
against the exact permanent-based probabilities, and check the sandwich
relation between mean trajectory entropy, the entropy of the averaged state,
and the Shannon entropy of the trajectory mixture.

Every estimator, and the trajectory dump, is a reducer over the click kernel
with ``n_excited``, ``clicks``, ``add(first, walk)`` and ``merge(other)``
(see _run), and ``part_bytes`` if every part holds large arrays.  It reads
only what it needs from the walk: the outcome counts read the clicks, and a
reducer that reads states computes once per distinct state it takes from
trajectory._distinct, and adds per trajectory, in trajectory order.
Trajectories walk in lockstep groups whose states fit the kernel's budget,
trajectory._LOCKSTEP_BUDGET, under a fixed or a fresh source alike.  Every
group walks one click-multiset tree: the levels of a fixed source's tree
that fit its budget, a fresh source's root alone, and then one state per
trajectory.  The tree is built once per run, in the calling process, and
handed to each pool worker once.  Reducers run in fixed-size chunks whose
parts are merged in chunk order, so results are byte-identical for any
worker count; a pool task runs a span of consecutive chunks and returns
each chunk's part.  Randomness is derived per trajectory index from the
master seed, so they are also independent of chunking, of the span and of
the group size.  A span's click uniforms come from one hash per stream and
a vectorised port of numpy's PCG64, bit for bit the generators derive_rng
gives, and each run checks the port against numpy once.  Click outcomes
are counted by their index in the oracle's one order of click multisets,
the order of oracle.enumerate_outcomes and of the tree's levels;
oracle._outcome_ranks maps per-detector counts to that index.
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

from . import trajectory
from .oracle import _outcome_ranks, enumerate_outcomes, outcome_law
from .state import _check_cut, _cut_blocks, _entropies, _spectrum_entropy
from .trajectory import TrajectoryRecord, _distinct, _records, attach_waiting_times
from .unitary import UnitarySource

CHUNK_SIZE = 256  # fixed so that merge order never depends on the worker count
_SPAN_CAP = 16  # chunks per pool task at most: 2 * workers * _SPAN_CAP parts in flight
_SPAN_BYTES = 2**22  # a span's parts' part_bytes at most, unless one part alone holds more
MIXTURE_MAX_SUBSYSTEM = 12
MAX_SAMPLES = 2**32  # so every trajectory index is one 32-bit seed word


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


# numpy's PCG64 (O'Neill's pcg_setseq_128 with the XSL-RR output): a 128-bit
# LCG whose state and increment are held as (high, low) uint64 words.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_U32, _U11, _U58, _U63, _U1 = (np.uint64(k) for k in (32, 11, 58, 63, 1))
_LOW32 = np.uint64(_MASK32)


@cache
def _pcg_jumps(e: int) -> tuple[np.ndarray, ...]:
    # The (high, low) words of M^(j + 2) and of 1 + M + ... + M^(j + 1), j < e.
    powers, sums = [], []
    power, total = _PCG_MULT * _PCG_MULT & _MASK128, 1 + _PCG_MULT
    for _ in range(e):
        powers.append(power)
        sums.append(total)
        total = (total + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
    jumps = tuple(
        np.array([w >> shift & _MASK64 for w in words], dtype=np.uint64)
        for words in (powers, sums) for shift in (64, 0)
    )
    for words in jumps:  # shared by every call at this e
        words.flags.writeable = False
    return jumps


def _mul128(hi, lo, b_hi, b_lo):
    # (hi, lo) * (b_hi, b_lo) mod 2^128: the low words' full product from
    # 32-bit halves, the cross terms wrapping in uint64.
    a0, a1, b0, b1 = lo & _LOW32, lo >> _U32, b_lo & _LOW32, b_lo >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    high = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32) + lo * b_hi + hi * b_lo
    return high, (mid << _U32) | (p00 & _LOW32)


def _click_uniforms(words: np.ndarray, e: int) -> np.ndarray:
    """Row r is _generator(words[r]).random(e), bit for bit, for every row at once.

    PCG64 seeds from a row w with increment c = (w[2], w[3]) << 1 | 1: from
    state 0 it steps, adds (w[0], w[1]) and steps again; each output steps
    first.  So output j reads the state M^(j + 2) (w[0:2] + c) + (1 + M + ...
    + M^(j + 1)) c, all e of them in one pass.  XSL-RR rotates high ^ low
    right by the top six bits of the state, and random() keeps the top 53
    bits.  _run checks row 0 against numpy's generator once per run.
    """
    power_hi, power_lo, sum_hi, sum_lo = _pcg_jumps(e)
    w = words.T[:, :, None]
    inc_hi, inc_lo = (w[2] << _U1) | (w[3] >> _U63), (w[3] << _U1) | _U1
    start_lo = inc_lo + w[1]
    start_hi = inc_hi + w[0] + (start_lo < inc_lo)
    hi, lo = _mul128(start_hi, start_lo, power_hi, power_lo)
    incs_hi, incs_lo = _mul128(inc_hi, inc_lo, sum_hi, sum_lo)
    low = lo + incs_lo
    hi = hi + incs_hi + (low < lo)
    x, rotation = hi ^ low, hi >> _U58
    x = (x >> rotation) | (x << (-rotation & _U63))
    return (x >> _U11) * (1.0 / (1 << 53))


def _check_click_uniforms(master_seed: int, e: int) -> None:
    # Once per run, as SeedWords checks how numpy seeds: the port must still
    # be numpy's generator.
    words = _stream_words(master_seed, 0, 1, 1)
    if _click_uniforms(words, e).tobytes() != _generator(words[0]).random(e).tobytes():
        raise RuntimeError("the click uniforms no longer match numpy's PCG64")


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


def _group_size(n_sites: int, n_excited: int) -> int:
    # Trajectories walked in lockstep: the group's states, (size, C(n_sites,
    # e - 1)) over e = n_excited..1, stay within the click kernel's budget,
    # trajectory._LOCKSTEP_BUDGET, read at each call; the kernel lowers them
    # in slices within it.  A whole chunk at N = 8, 195 trajectories at
    # N = 10, 53 at N = 12 and 3 at N = 16 (full filling), for any source.
    widest = max((comb(n_sites, j) for j in range(n_excited)), default=1)
    return max(1, trajectory._LOCKSTEP_BUDGET // widest)


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
    inside a forked worker slowed small products about threefold.  A CLI
    process loads OpenBLAS on one thread already (see cli.py), so this pins
    library callers.  No result depends on the BLAS thread count.
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


# The click-multiset tree that a pool worker's chunks walk, handed over once
# per worker by the pool's initializer (see _run).  The caller never sets it.
_worker_tree = None


def _hold_tree(tree) -> None:
    global _worker_tree
    _worker_tree = tree


def _accumulate(
    part, source: UnitarySource, n_sites: int, tree, first: int, unitary_words, uniforms
):
    # Add trajectories first.. to ``part`` in lockstep groups of consecutive
    # indices: row i of the click ``uniforms``, and of the ``unitary_words``
    # of a fresh source, is trajectory first + i's.  Each group of a fresh
    # source builds its unitary generators from its rows.
    step = _group_size(n_sites, part.n_excited)
    for lo in range(0, len(uniforms), step):
        rows = slice(lo, lo + step)
        u = source.draw(n_sites, [_generator(words) for words in unitary_words[rows]])
        part.add(first + lo, tree.walk(u, uniforms[rows], part.clicks))
    return part


def _accumulate_span(args, tree=None) -> list:
    # One part per chunk of the span lo..hi, in chunk order.  One hash per
    # stream for the span, and each chunk takes its rows.  A chunk's click
    # uniforms come from the PCG64 port over its own rows, so its (rows, e)
    # temporaries stay small: drawn for a whole 10-chunk span at N = 8 they
    # raised a serial run's peak RSS by 0.9 MiB and walked 16% slower (on a
    # 2-core Xeon).
    (make, source, n_sites, master_seed), lo, hi = args
    if tree is None:
        tree = _worker_tree
    parts = [make() for _ in range(lo, hi, CHUNK_SIZE)]
    unitary_words = _stream_words(master_seed, lo, hi, 0) if source.fresh_per_sample else ()
    click_words = _stream_words(master_seed, lo, hi, 1)
    for part, start in zip(parts, range(0, hi - lo, CHUNK_SIZE)):
        rows = slice(start, start + CHUNK_SIZE)
        uniforms = _click_uniforms(click_words[rows], part.n_excited)
        _accumulate(part, source, n_sites, tree, lo + start, unitary_words[rows], uniforms)
    return parts


def _run(make, source: UnitarySource, n_sites: int, n_samples: int, master_seed: int, threads: int):
    """Feed trajectories 0..n_samples-1 to accumulators made by ``make``; merge them in chunk order.

    Trajectory i runs under unitary stream (i, 0), drawn only for fresh
    sources, and click stream (i, 1).  Each span derives its trajectories'
    seed words from one vectorised SeedSequence hash per stream, bit for
    bit those of derive_rng(master_seed, i, k), and each of its chunks
    takes its rows.  The span draws the click uniforms of all its
    trajectories at once from a vectorised port of PCG64, which is checked
    against numpy's generator here, once per run, and builds the unitary
    streams' generators one by one.  At most MAX_SAMPLES trajectories run,
    so every index is one 32-bit seed word.  Each chunk walks its
    trajectories in lockstep groups of consecutive indices, sized by
    _group_size, and hands each group's walk to its accumulator's
    ``add(first_index, walk)``.  ``walk`` is the run's
    trajectory._ClickTree walked under the fixed matrix or the group's
    stacked draws, over the accumulator's first ``clicks`` clicks:
    trajectory first_index + b clicks by the n_excited uniforms in [0, 1)
    drawn from its click stream in one call.  Each yield gives the clicked
    detectors and where every trajectory sits, as node indices into a tree
    level or as one state per trajectory (see _ClickTree.walk); a reducer
    that reads states takes the distinct ones with trajectory._distinct,
    and one that reads only clicks gathers none.  Parts combine by
    ``merge``.

    A fixed source's tree (trajectory._click_tree) holds as many levels as
    fit its budget; a fresh source's is its root.  It is built once, here,
    and freed on return; each pool worker receives it once, from the pool's
    initializer (under fork it inherits the caller's copy), and builds none.

    Chunks go in spans of consecutive chunks, one span per call or pool
    task: about a quarter of each worker's share, at most _SPAN_CAP chunks,
    so that a pooled run pays the pool's cost per task on several chunks.
    A reducer whose every part holds large arrays gives their size as
    ``part_bytes``, and its spans hold no more parts than fit _SPAN_BYTES
    (at least one).  A span returns one part per chunk, and every part is
    merged in chunk order, so the span length changes no result.
    """
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"need 1 <= n_samples <= {MAX_SAMPLES}, got {n_samples}")
    # A wrong-sized fixed matrix fails here, once.
    u = None if source.fresh_per_sample else source.draw(n_sites, [])
    starts = _chunks(n_samples)
    workers = _worker_count(threads, len(starts))
    total = make()
    _check_click_uniforms(master_seed, total.n_excited)
    span = min(_SPAN_CAP, -(-len(starts) // (4 * workers)))
    span = max(1, min(span, _SPAN_BYTES // max(getattr(total, "part_bytes", 0), 1)))
    shared = (make, source, n_sites, master_seed)
    tasks = ((shared, lo, min(lo + span * CHUNK_SIZE, n_samples)) for lo in starts[::span])
    with _one_blas_thread(), ExitStack() as stack:
        depth = 0 if u is None else total.clicks
        tree = trajectory._click_tree(n_sites, total.n_excited, u, depth)
        spans = map(partial(_accumulate_span, tree=tree), tasks)
        if workers > 1:
            # Two spans per worker keep each worker busy while this process merges.
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, initializer=_hold_tree, initargs=(tree,))
            )
            spans = _in_order(pool, _accumulate_span, tasks, 2 * workers)
        for parts in spans:  # in chunk order, each merged as it arrives
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
        self.clicks = n_excited
        self.cut = cut
        self.master_seed = master_seed
        self.waiting_times = waiting_times
        self.records: list[TrajectoryRecord] = []

    def add(self, first: int, walk) -> None:
        records = _records(self.n_sites, self.n_excited, self.cut, walk)
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
    _check_cut(n_sites, cut)  # before any chunk, not in a worker
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
        self.clicks = n_excited
        self.sums = np.zeros((n_excited + 1, n_sites - 1))
        self.square_sums = np.zeros_like(self.sums)

    def add(self, first: int, walk) -> None:
        n, e = self.n_sites, self.n_excited
        cuts = tuple(range(1, n))
        # One (B, n_sites - 1) array per click count, computed once per
        # distinct state; the start's is +0.0.
        profiles = []
        for k, _, nodes, states in walk:
            rows, states = _distinct(nodes, states)
            profiles.append(_entropies(n, e - k, states, cuts)[rows])
        for profile in np.stack(profiles, 1):  # row by row, so no sum depends on the group size
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
    if n_sites < 1:
        raise ValueError(f"need n_sites >= 1, got {n_sites}")
    if not 0 <= subsystem_size <= n_sites:
        raise ValueError(f"subsystem size {subsystem_size} outside [0, {n_sites}]")
    x = subsystem_size / n_sites
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log(x) - (1.0 - x) * np.log(1.0 - x))


def _check_fixed(source: UnitarySource, estimator: str) -> None:
    # One network's exact law or averaged state: a fresh source has no single network.
    if source.fresh_per_sample:
        raise ValueError(f"{estimator} needs a fixed unitary, got a {source.kind} source")


@dataclass(frozen=True)
class DistributionReport:
    """Exact vs. empirical click-outcome distribution for one fixed unitary.

    ``outcomes`` is the counts array of oracle.enumerate_outcomes, one row
    per outcome; ``exact`` and ``empirical`` follow its rows.
    """

    outcomes: np.ndarray
    exact: np.ndarray
    empirical: np.ndarray
    tvd: float
    n_samples: int


class _OutcomeCounts:
    """How often each click outcome occurred, by its index in enumerate_outcomes."""

    def __init__(self, n_sites: int, n_excited: int) -> None:
        self.n_sites = n_sites
        self.n_excited = n_excited
        self.clicks = n_excited
        self.counts: Counter = Counter()

    def add(self, first: int, walk) -> None:
        # Reads the clicks alone, so no state is gathered.
        _, _, nodes, _ = next(walk)  # the start: every trajectory at the root
        counts = np.zeros((len(nodes), self.n_sites), dtype=np.int64)
        trajectories = np.arange(len(nodes))
        for _, detectors, _, _ in walk:
            counts[trajectories, detectors] += 1
        self.counts.update(_outcome_ranks(counts).tolist())

    def merge(self, other: "_OutcomeCounts") -> None:
        self.counts.update(other.counts)


def distribution_comparison(
    n_sites: int,
    n_excited: int,
    source: UnitarySource,
    n_samples: int,
    master_seed: int,
    threads: int = 1,
) -> DistributionReport:
    """Sample trajectories under a fixed source's unitary and compare to its exact outcome law."""
    _check_fixed(source, "distribution_comparison")
    outcomes = enumerate_outcomes(n_sites, n_excited)
    exact = outcome_law(source.draw(n_sites, []), outcomes, n_excited)  # checked against N first
    make = partial(_OutcomeCounts, n_sites, n_excited)
    seen = _run(make, source, n_sites, n_samples, master_seed, threads).counts
    counts = np.zeros(len(outcomes), dtype=np.int64)
    counts[list(seen)] = list(seen.values())
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
        self.clicks = k
        self.cut = cut
        self.entropy_sum = 0.0
        self.entropy_square_sum = 0.0
        # The reduced state is block diagonal: one block per b of state._cut_blocks.
        blocks = _cut_blocks(n_sites, n_excited - k, cut)
        self.rho_sum = [np.zeros((len(idx), len(idx)), dtype=complex) for idx in blocks]
        # Up to C(24, 12) numbers, 43 MB, at cut 12: _run puts fewer such parts in a span.
        self.part_bytes = sum(rho.nbytes for rho in self.rho_sum)
        self.histogram: Counter = Counter()

    def add(self, first: int, walk) -> None:
        n, e = self.n_sites, self.n_excited - self.clicks
        _, _, nodes, states = next(walk)  # the start: every trajectory at the root
        sequences = [()] * len(nodes)
        for _, detectors, nodes, states in walk:
            sequences = [s + (d,) for s, d in zip(sequences, detectors.tolist())]
        # The states after the last click, each distinct one once.  One entropy
        # per distinct state: a single cut gathers no more than the states hold.
        rows, states = _distinct(nodes, states)
        entropies = _entropies(n, e, states, (self.cut,))[:, 0]
        blocks = _cut_blocks(n, e, self.cut)
        step = max(1, trajectory._LOCKSTEP_BUDGET // sum(len(idx) ** 2 for idx in blocks))
        # Trajectory by trajectory in index order, so neither the sums nor the
        # histogram's insertion order depend on the group size.  The Gram blocks
        # of at most ``step`` distinct states, within the budget, are held at a time.
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
    source: UnitarySource,
    k: int,
    cut: int,
    n_samples: int,
    master_seed: int,
    threads: int = 1,
) -> MixtureEntropyReport:
    """Estimate both sides of the mixture-entropy sandwich of a fixed source after ``k`` clicks.

    ``tolerance`` combines three standard errors of the mean trajectory
    entropy with the plug-in bias allowance of the Shannon term; the sandwich
    is expected to hold within it.
    """
    _check_fixed(source, "mixture_entropy_report")
    if not 0 <= k <= n_excited:
        raise ValueError(f"click count {k} outside [0, {n_excited}]")
    _check_cut(n_sites, cut)
    if cut > MIXTURE_MAX_SUBSYSTEM:
        raise ValueError(f"subsystem of {cut} sites too large (at most {MIXTURE_MAX_SUBSYSTEM})")
    make = partial(_MixtureSums, n_sites, n_excited, k, cut)
    total = _run(make, source, n_sites, n_samples, master_seed, threads)
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
    for n_sites, source in points:  # a wrong-sized matrix fails before any point runs
        if not source.fresh_per_sample:
            source.draw(n_sites, [])
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
    lines = ["outcome,exact,empirical,stderr\n"]
    tails = {}  # the "empirical,stderr" text of each frequency, formatted once
    # 256 rows at a time, so that few Python strings and floats are alive at
    # once: the table is formatted near the run's memory peak.
    for lo in range(0, len(exact), 256):
        hi = lo + 256
        counts = report.outcomes[lo:hi]
        # The digits of each count in the block once, then the outcomes
        # column by column; a table over 0..m could hold 10^9 strings.
        values, cells = np.unique(counts, return_inverse=True)
        digits = np.array([str(value) for value in values.tolist()])
        spaced = np.strings.add(" ", digits)
        cells = cells.reshape(counts.shape)
        outcomes = digits[cells[:, 0]]
        for column in cells.T[1:]:
            outcomes = np.strings.add(outcomes, spaced[column])
        frequencies = empirical[lo:hi]
        stderr = np.sqrt(frequencies * (1.0 - frequencies) / report.n_samples)
        for f, e in zip(frequencies.tolist(), stderr.tolist()):
            if f not in tails:
                tails[f] = f"{f!r},{e!r}\n"
        rows = zip(outcomes.tolist(), exact[lo:hi].tolist(), frequencies.tolist())
        lines += [f"{o},{p!r},{tails[f]}" for o, p, f in rows]
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
