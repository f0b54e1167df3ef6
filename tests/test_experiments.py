import dataclasses
import os
import warnings
from collections import Counter
from concurrent.futures import Future
from functools import cache, partial
from math import comb

import numpy as np
import pytest

from click_walk_reference import click_walk
from dense_reference import dense_cut_matrix, random_sector_state
from lontraj import experiments, oracle, trajectory
from lontraj.experiments import (
    CHUNK_SIZE,
    MAX_SAMPLES,
    ScalingPoint,
    UnitarySource,
    _generator,
    _run,
    _seed_words_type,
    _stream_words,
    _worker_count,
    averaged_entropy_grid,
    derive_rng,
    derive_seed,
    distribution_comparison,
    distribution_csv,
    entropy_bound,
    expected_tvd,
    grid_csv,
    max_averaged_entropy,
    mixture_entropy_report,
    scaling_csv,
    scaling_sweep,
    trajectory_records,
)
from lontraj.state import _entropies, _lowered_raw, initial_state, sector_masks
from lontraj.trajectory import _distinct, run_trajectory
from lontraj.unitary import MAX_DEPTH, beamsplitter_unitary, haar_brickwall, haar_unitary
from sector_reference import click_multiset_levels, forced_jump

INV_SQRT2 = 1.0 / np.sqrt(2.0)
LN2 = float(np.log(2.0))


def balanced_splitter() -> np.ndarray:
    return beamsplitter_unitary(INV_SQRT2, INV_SQRT2, np.pi)


def test_entropy_bound_values():
    n = 10
    assert abs(entropy_bound(5, n) - LN2) < 1e-14
    assert entropy_bound(n, n) == 0.0
    assert entropy_bound(0, n) == 0.0
    assert abs(entropy_bound(2, n) - 0.5004024235381879) < 1e-14
    for subsystem_size, n_sites in ((0, 0), (1, 0), (-1, n), (n + 1, n)):
        with pytest.raises(ValueError):
            entropy_bound(subsystem_size, n_sites)


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(42, 0, 1) == derive_seed(42, 0, 1)
    assert derive_seed(42, 0, 1) != derive_seed(42, 1, 1)
    a = derive_rng(42, 3).random(4)
    b = derive_rng(42, 3).random(4)
    np.testing.assert_array_equal(a, b)


def test_one_call_draws_the_bits_of_successive_single_draws():
    # The estimators draw each trajectory's click uniforms with one
    # random(n_excited) call, where the one-trajectory entry points take one
    # random() per click; both must see the same numbers.
    seeds = [0, 1, 42, 2**31 - 1] + [derive_seed(7, i) for i in range(8)]
    assert any(seed >= 2**32 for seed in seeds)  # 64-bit seeds from derive_seed
    for seed in seeds:
        for i in range(0, 300, 13):
            for k in (1, 2, 7, 16):
                together = derive_rng(seed, i, 1).random(k)
                rng = derive_rng(seed, i, 1)
                alone = [rng.random() for _ in range(k)]
                assert together.tolist() == alone


@pytest.mark.parametrize("purpose", [0, 1, 2])
def test_chunk_hash_gives_the_generators_of_derive_rng(purpose):
    # The estimators and the dump build every trajectory's generators from
    # one vectorised hash per chunk; derive_rng's SeedSequence is the reference.
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1, 2**128 + 1]
    seeds += [derive_seed(7, i) for i in range(8)]
    spans = [(0, CHUNK_SIZE), (3 * CHUNK_SIZE, 3 * CHUNK_SIZE + 40), (2**32 - 300, 2**32)]
    for seed in seeds:
        for lo, hi in spans:
            rows = _stream_words(seed, lo, hi, purpose)
            assert rows.shape == (hi - lo, 4)
            for i, words in zip(range(lo, hi), rows):
                rng, reference = _generator(words), derive_rng(seed, i, purpose)
                assert rng.bit_generator.state == reference.bit_generator.state
                assert rng.random(8).tolist() == reference.random(8).tolist()


def test_seed_words_answer_only_the_request_pcg64_makes():
    # If numpy ever seeds PCG64 through another request, this fails instead
    # of the generators silently changing.
    words = _stream_words(5, 0, 1, 1)[0]
    seed_words = _seed_words_type()(words)
    assert seed_words.generate_state(4, np.uint64) is words
    for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)]:
        with pytest.raises(ValueError, match=r"generate_state\(4, uint64\) only"):
            seed_words.generate_state(n_words, dtype)


@pytest.mark.parametrize("purpose", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 + 3, 2**300])
def test_click_uniforms_are_the_generators_draws_bit_for_bit(seed, purpose):
    # The port of PCG64 seeds from a row of seed words and draws random(e)
    # for every row at once; numpy's generator is the reference.
    for lo, hi in [(0, 300), (2**32 - 5, 2**32)]:
        rows = _stream_words(seed, lo, hi, purpose)
        for e in (0, 1, 8, 16, 63):
            uniforms = experiments._click_uniforms(rows, e)
            assert uniforms.shape == (hi - lo, e) and uniforms.dtype == np.float64
            reference = np.array([_generator(words).random(e) for words in rows])
            assert uniforms.tobytes() == reference.reshape(hi - lo, e).tobytes()


def test_a_port_that_drifts_from_numpy_fails_the_run_before_any_chunk(monkeypatch):
    # Each run compares the port's first row with numpy's generator once.
    port = experiments._click_uniforms

    def flipped(words, e):
        uniforms = port(words, e)
        uniforms.view(np.uint64)[0, -1] ^= np.uint64(1)
        return uniforms

    monkeypatch.setattr(experiments, "_click_uniforms", flipped)
    chunks = _recorded(monkeypatch, "_accumulate")
    with pytest.raises(RuntimeError, match="no longer match numpy's PCG64"):
        averaged_entropy_grid(4, 2, UnitarySource.haar(), 10, 3)
    assert chunks == []
    monkeypatch.setattr(experiments, "_click_uniforms", port)
    averaged_entropy_grid(4, 2, UnitarySource.haar(), 10, 3)


def test_chunk_hash_rejects_a_negative_seed_and_wide_indices():
    with pytest.raises(ValueError, match="master seed must be >= 0, got -1"):
        _stream_words(-1, 0, 4, 1)
    with pytest.raises(ValueError, match="do not fit one 32-bit word each"):
        _stream_words(0, 2**32 - 1, 2**32 + 1, 1)
    with pytest.raises(ValueError, match="master seed must be >= 0, got -3"):
        averaged_entropy_grid(3, 1, UnitarySource.identity(3), 4, -3)


@pytest.mark.parametrize("n_sites", [8, 10, 12, 16])
@pytest.mark.parametrize("filling", ["full", "half"])
def test_group_size_keeps_its_states_within_the_lockstep_budget(monkeypatch, n_sites, filling):
    # A group row holds a state, under any source; the click kernel slices
    # the lowering of the group's states.
    n_excited = n_sites if filling == "full" else n_sites // 2
    widest = max(comb(n_sites, j) for j in range(n_excited))
    size = experiments._group_size(n_sites, n_excited)
    assert size >= 1
    assert size == 1 or size * widest <= trajectory._LOCKSTEP_BUDGET
    assert (size + 1) * widest > trajectory._LOCKSTEP_BUDGET
    if n_sites == 8:
        assert size >= CHUNK_SIZE  # a whole chunk walks as one group
    # The permanent oracle's budget is its own.
    monkeypatch.setattr(oracle, "_ELEMENT_BUDGET", 2**7)
    assert experiments._group_size(n_sites, n_excited) == size


@pytest.mark.parametrize("n_sites", [8, 10, 12, 16])
@pytest.mark.parametrize("filling", ["full", "half"])
def test_every_source_walks_a_chunk_in_the_same_groups(monkeypatch, n_sites, filling):
    # A chunk walks consecutive groups of _group_size rows whether its
    # trajectories share one unitary or each draw their own, one tree walk
    # per group; a fresh group hands the walk one unitary per row.
    n_excited = n_sites if filling == "full" else n_sites // 2
    size = experiments._group_size(n_sites, n_excited)

    class Groups:
        clicks = n_excited

        def __init__(self) -> None:
            self.n_excited, self.groups = n_excited, []

        def add(self, first, walk) -> None:
            u, uniforms, clicks = walk
            self.groups.append((first, np.shape(u), uniforms.shape, clicks))

    class Tree:
        def walk(self, u, uniforms, clicks):
            return u, uniforms, clicks

    lo, hi = CHUNK_SIZE, 2 * CHUNK_SIZE
    starts = list(range(lo, hi, size))
    rows = [min(start + size, hi) - start for start in starts]
    fixed = UnitarySource.fixed(haar_unitary(n_sites, np.random.default_rng(90)))
    [shared] = experiments._accumulate_span(((Groups, fixed, n_sites, 7), lo, hi), Tree())
    shared = shared.groups
    assert shared == [
        (start, (n_sites, n_sites), (b, n_excited), n_excited) for start, b in zip(starts, rows)
    ]
    haar = UnitarySource.haar()
    [fresh] = experiments._accumulate_span(((Groups, haar, n_sites, 7), lo, hi), Tree())
    fresh = fresh.groups
    assert fresh == [
        (start, (b, n_sites, n_sites), (b, n_excited), n_excited) for start, b in zip(starts, rows)
    ]


def test_the_first_click_past_the_tree_lowers_each_node_once(monkeypatch):
    # With room for the root and its n children only, the tree lowers the
    # root once; the first click past it lowers each of the at most n
    # visited children once, and every later click one state per trajectory.
    n = 8
    lowered = []

    def counting(n_sites, n_excited, amplitudes, u):
        lowered.append((n_excited, len(amplitudes)))
        return _lowered_raw(n_sites, n_excited, amplitudes, u)

    monkeypatch.setattr(trajectory, "_lowered_raw", counting)
    monkeypatch.setattr(trajectory, "_TREE_BUDGET", 1 + n * n)
    source = UnitarySource.fixed(haar_unitary(n, np.random.default_rng(91)))
    make = partial(experiments._OutcomeCounts, n, n)
    counts = _run(make, source, n, CHUNK_SIZE, 5, threads=1).counts
    assert sum(counts.values()) == CHUNK_SIZE
    rows = {e: sum(size for e_, size in lowered if e_ == e) for e in range(1, n + 1)}
    assert rows[n] == 1
    assert 1 < rows[n - 1] <= n
    assert all(rows[e] == CHUNK_SIZE for e in range(1, n - 1))
    # Each slice stays within a quarter of the budget.
    for e, size in lowered:
        assert size == 1 or 4 * size * n * comb(n, e - 1) <= trajectory._LOCKSTEP_BUDGET


@pytest.mark.parametrize("kind", ["fixed", "haar"])
@pytest.mark.parametrize("slice_rows", [1, 3])
@pytest.mark.parametrize("n_sites", [6, 8])
def test_prefix_shared_chunk_matches_the_one_trajectory_loop(
    monkeypatch, n_sites, slice_rows, kind
):
    # With the budget cut down, the widest click lowers its states
    # slice_rows at a time and a chunk walks in several groups.  A fixed
    # unitary's tree holds the root and its children only, so its walk goes
    # on past the first click; a fresh source's is the root.  Every
    # trajectory must still click and land exactly as it does alone, under
    # the fixed unitary or under its own draw from stream (i, 0).
    widest = max(comb(n_sites, j) for j in range(n_sites))
    monkeypatch.setattr(trajectory, "_LOCKSTEP_BUDGET", slice_rows * 4 * n_sites * widest)
    monkeypatch.setattr(trajectory, "_TREE_BUDGET", 1 + n_sites * n_sites)
    slices = []

    def recording(n, e, amplitudes, u):
        slices.append((e, len(amplitudes)))
        return _lowered_raw(n, e, amplitudes, u)

    walked = []
    walk = trajectory._ClickTree.walk

    def recording_walk(*args):
        steps = list(walk(*args))
        walked.append(steps[1:])  # after each click
        yield from steps

    monkeypatch.setattr(trajectory, "_lowered_raw", recording)
    monkeypatch.setattr(trajectory._ClickTree, "walk", recording_walk)
    u = haar_unitary(n_sites, np.random.default_rng(92 + n_sites))
    source = UnitarySource.fixed(u) if kind == "fixed" else UnitarySource.haar()
    seed, size = 93, 200
    make = partial(experiments._OutcomeCounts, n_sites, n_sites)
    tree = trajectory._click_tree(n_sites, n_sites, u, n_sites if kind == "fixed" else 0)
    experiments._accumulate_span(((make, source, n_sites, seed), 0, size), tree)
    group = experiments._group_size(n_sites, n_sites)
    assert len(walked) == -(-size // group) > 1
    at_widest = [rows for e, rows in slices if comb(n_sites, e - 1) == widest]
    assert max(at_widest) == slice_rows
    start = initial_state(n_sites, n_sites).amplitudes
    for index in range(size):
        steps = walked[index // group]
        b = index % group
        if source.fresh_per_sample:
            u = source.draw(n_sites, derive_rng(seed, index, 0))
        alone = click_walk(n_sites, n_sites, start, u, derive_rng(seed, index, 1))
        for (_, detectors, nodes, states), (detector, amplitudes) in zip(steps, alone, strict=True):
            rows, states = _distinct(nodes, states)
            assert detectors[b] == detector
            assert states[rows[b]].tobytes() == amplitudes.tobytes()


def test_dump_records_under_a_fixed_unitary_match_their_one_trajectory_runs(monkeypatch):
    # At N = 8 a fixed unitary's run walks its click-multiset tree, whose
    # states are reached in ascending detector order.  Every record clicks as
    # its trajectory does alone, from a root tree, with entropies within
    # rounding, and is bit-identical to its trajectory walked through the tree
    # in a group of its own.
    n, m, cut, seed, samples = 8, 8, 4, 97, 300
    u = haar_unitary(n, np.random.default_rng(96))
    source = UnitarySource.fixed(u)
    assert len(trajectory._click_tree(n, m, u, m).children) == m  # every click in the tree
    records = trajectory_records(n, m, source, cut, samples, seed)
    assert len(records) == samples
    for i, record in enumerate(records):
        alone = run_trajectory(n, m, u, cut, derive_rng(seed, i, 1))
        assert record.clicks == alone.clicks, f"record {i}"
        np.testing.assert_allclose(record.entropies, alone.entropies, rtol=0, atol=1e-14)
    assert experiments._group_size(n, m) >= CHUNK_SIZE
    monkeypatch.setattr(trajectory, "_LOCKSTEP_BUDGET", comb(n, m // 2))
    assert experiments._group_size(n, m) == 1
    singles = trajectory_records(n, m, source, cut, samples, seed)
    for i, (record, single) in enumerate(zip(records, singles, strict=True)):
        assert record.clicks == single.clicks, f"record {i}"
        entropies = np.array(record.entropies).tobytes()
        assert entropies == np.array(single.entropies).tobytes(), f"record {i}"


class _Paths:
    """Each trajectory's clicks, and the state of every click multiset the walk visits."""

    def __init__(self, n_excited: int) -> None:
        self.n_excited = self.clicks = n_excited
        self.paths: list[tuple[int, ...]] = []
        self.visited: dict[tuple[int, ...], np.ndarray] = {}

    def add(self, first, walk) -> None:
        _, _, nodes, _ = next(walk)
        paths = [()] * len(nodes)
        for _, detectors, nodes, states in walk:
            rows, states = _distinct(nodes, states)
            paths = [path + (d,) for path, d in zip(paths, detectors.tolist())]
            for path, row in zip(paths, rows.tolist()):
                self.visited.setdefault(tuple(sorted(path)), states[row])
        self.paths += paths

    def merge(self, other: "_Paths") -> None:
        self.paths += other.paths
        self.visited.update(other.visited)


@pytest.mark.parametrize(
    "n, m, network",
    [
        (6, 6, "haar"),
        (8, 8, "haar"),
        (8, 4, "haar"),
        (7, 7, "brickwall:3"),
        (8, 5, "brickwall:3"),
        (6, 6, "identity"),
    ],
)
def test_the_click_multiset_tree_walks_as_the_ordered_prefixes_do(monkeypatch, n, m, network):
    # 1024 trajectories in four chunks click exactly as they do when every
    # trajectory walks its own ordered clicks from a root tree, and each
    # multiset the tree walk visits holds the state its detectors give when
    # forced in ascending order.  Brick walls have canonical children of
    # exactly zero weight, which no walk reaches.
    rng = np.random.default_rng([n, m])
    u = {
        "haar": lambda: haar_unitary(n, rng),
        "brickwall:3": lambda: haar_brickwall(n, 3, rng),
        "identity": lambda: np.eye(n, dtype=complex),
    }[network]()
    source, seed, samples = UnitarySource.fixed(u), 61, 4 * CHUNK_SIZE
    make = partial(_Paths, m)
    ordered, root = make(), trajectory._click_tree(n, m, u, 0)
    for lo in experiments._chunks(samples):
        chunk = ((make, source, n, seed), lo, lo + CHUNK_SIZE)
        [part] = experiments._accumulate_span(chunk, root)
        ordered.merge(part)
    assert len(trajectory._click_tree(n, m, u, m).children) == m  # every click in the tree
    tree = _run(make, source, n, samples, seed, threads=1)
    assert len(tree.paths) == samples
    assert tree.paths == ordered.paths

    @cache
    def ascending(multiset):
        if not multiset:
            return initial_state(n, m).amplitudes
        *parent, detector = multiset
        return forced_jump(n, m - len(parent), ascending(tuple(parent)), u, detector)

    for multiset, state in tree.visited.items():
        np.testing.assert_allclose(state, ascending(multiset), rtol=0, atol=1e-12)


def test_the_tree_fit_rule_keeps_the_levels_that_fit_the_budget():
    # Levels are added while the states, the root's included, hold at most
    # 4 * the lockstep budget; level k holds C(n + k - 1, k) multisets, each
    # a C(n, m - k) state.  A run walks on past the last level.
    assert trajectory._TREE_BUDGET == 4 * trajectory._LOCKSTEP_BUDGET == 196_608
    depths = {(8, 8): 8, (7, 7): 7, (10, 5): 5, (40, 2): 2, (9, 9): 4, (12, 6): 3,
              (14, 7): 1, (16, 8): 1, (17, 8): 0}
    for (n, m), depth in depths.items():
        tree = trajectory._click_tree(n, m, haar_unitary(n, np.random.default_rng(n)), m)
        sizes = [comb(n + k - 1, k) * comb(n, m - k) for k in range(m + 1)]
        assert [level.size for level in tree.states] == sizes[: depth + 1]
        assert len(tree.totals) == len(tree.prefix_sums) == len(tree.positive) == depth
        assert len(tree.children) == depth
        assert sum(sizes[: depth + 1]) <= trajectory._TREE_BUDGET
        assert depth == m or sum(sizes[: depth + 2]) > trajectory._TREE_BUDGET
    u = haar_unitary(9, np.random.default_rng(3))
    assert len(trajectory._click_tree(9, 9, u, 2).children) == 2  # a mixture's first clicks
    assert len(trajectory._click_tree(9, 9, u, 0).states) == 1  # the root alone


@pytest.mark.parametrize("samples", [1, CHUNK_SIZE + 1, 3 * CHUNK_SIZE])
@pytest.mark.parametrize("threads", [1, 2])
def test_a_fixed_n_8_run_lowers_each_multiset_once_in_the_caller(monkeypatch, samples, threads):
    # C(15, 7) = 6435 multisets of at most 7 clicks, each lowered once per
    # run, in the caller's process, whatever the samples and threads.  At
    # two threads the pool starts, and its workers receive the tree from
    # the pool's initializer and lower nothing.
    n, caller = 8, os.getpid()
    lowered, handed = Counter(), []

    def counting(n_sites, n_excited, amplitudes, u):
        if os.getpid() != caller:
            raise AssertionError("a pool worker lowered a state")
        lowered[n_excited] += len(amplitudes)
        return _lowered_raw(n_sites, n_excited, amplitudes, u)

    class RecordingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            handed.append(kwargs["initargs"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(trajectory, "_lowered_raw", counting)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_worker_count", lambda threads, n_chunks: threads)
    u = haar_unitary(n, np.random.default_rng(94))
    report = distribution_comparison(n, n, UnitarySource.fixed(u), samples, 5, threads)
    assert report.empirical.sum() == pytest.approx(1.0)
    assert lowered == {n - k: comb(n + k - 1, k) for k in range(n)}
    assert sum(lowered.values()) == comb(2 * n - 1, n - 1) == 6435
    assert [type(tree) for tree, in handed] == [trajectory._ClickTree] * (threads - 1)


def test_fixed_tree_runs_keep_their_bytes_across_workers(monkeypatch):
    # The workers walk the caller's tree, so a pooled run is the serial run.
    # 17 chunks go in spans of 3 chunks to two workers, whose float parts
    # must still merge one chunk at a time, in chunk order.
    spans = []

    class RecordingPool(experiments.ProcessPoolExecutor):
        def submit(self, fn, task):
            _, lo, hi = task
            spans.append(hi - lo)
            return super().submit(fn, task)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_worker_count", lambda threads, n_chunks: threads)
    source = UnitarySource.fixed(haar_unitary(8, np.random.default_rng(96)))
    samples = 16 * CHUNK_SIZE + 3
    grids, mixtures = [], []
    for threads in (1, 2):
        grids.append(grid_csv(averaged_entropy_grid(8, 8, source, samples, 6, threads)))
        mixtures.append(mixture_entropy_report(8, 8, source, 4, 4, samples, 6, threads))
    assert grids[0] == grids[1]
    assert mixtures[0] == mixtures[1]
    assert spans == 2 * ([3 * CHUNK_SIZE] * 5 + [CHUNK_SIZE + 3])  # the grid's, then the mixture's


def test_parts_that_hold_large_arrays_go_fewer_to_a_span(monkeypatch):
    # A mixture part holds its averaged state's blocks whatever its chunk,
    # more than _SPAN_BYTES alone at cut 12 (C(24, 12) numbers less four
    # corners), so its spans hold one chunk each.  Under a bound of two
    # parts, a (6, 6, k 3, cut 3) mixture's 17 chunks go two to a span
    # instead of three, with the same bytes.
    wide = experiments._MixtureSums(20, 10, 0, 12)
    assert wide.part_bytes == 16 * (comb(24, 12) - 290) > experiments._SPAN_BYTES
    spans = []

    class RecordingPool(experiments.ProcessPoolExecutor):
        def submit(self, fn, task):
            _, lo, hi = task
            spans.append(hi - lo)
            return super().submit(fn, task)

    part_bytes = experiments._MixtureSums(6, 6, 3, 3).part_bytes
    monkeypatch.setattr(experiments, "_SPAN_BYTES", 2 * part_bytes + 1)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_worker_count", lambda threads, n_chunks: threads)
    source = UnitarySource.fixed(haar_unitary(6, np.random.default_rng(97)))
    reports = [
        mixture_entropy_report(6, 6, source, 3, 3, 16 * CHUNK_SIZE + 3, 8, threads)
        for threads in (1, 2)
    ]
    assert reports[0] == reports[1]
    assert spans == [2 * CHUNK_SIZE] * 8 + [3]


def test_a_fixed_n_9_run_keeps_the_pool_and_its_bytes(monkeypatch):
    # Its tree holds four of nine levels: two workers receive it and walk on past it.
    started = []

    class RecordingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            (tree,) = kwargs["initargs"]
            started.append((kwargs["max_workers"], len(tree.children)))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_worker_count", lambda threads, n_chunks: threads)
    source = UnitarySource.fixed(haar_unitary(9, np.random.default_rng(95)))
    grids = [
        grid_csv(averaged_entropy_grid(9, 9, source, CHUNK_SIZE + 1, 6, threads))
        for threads in (1, 2)
    ]
    assert started == [(2, 4)]
    assert grids[0] == grids[1]


def test_worker_count_is_bounded_by_chunks_and_cores():
    cores = len(os.sched_getaffinity(0))
    assert _worker_count(10**6, 3) == min(3, cores)
    assert _worker_count(10**6, 10**6) == cores
    assert _worker_count(1, 40) == 1


def test_unitary_source_draw_kinds():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(UnitarySource.identity(3).draw(3, rng), np.eye(3))
    assert UnitarySource.haar().fresh_per_sample
    assert not UnitarySource.fixed(np.eye(2, dtype=complex)).fresh_per_sample
    u = UnitarySource.brickwall(2).draw(6, np.random.default_rng(1))
    assert u.shape == (6, 6)
    with pytest.raises(ValueError, match="3-mode"):
        UnitarySource.identity(3).draw(4, rng)
    for depth in (-1, MAX_DEPTH + 1):  # every trajectory would draw this many layers
        with pytest.raises(ValueError, match=rf"depth must lie in \[0, {MAX_DEPTH}\], got {depth}"):
            UnitarySource.brickwall(depth)
    assert UnitarySource.brickwall(MAX_DEPTH).depth == MAX_DEPTH  # accepted, not drawn


@pytest.mark.parametrize(
    "source", [UnitarySource.haar(), UnitarySource.brickwall(3)], ids=["haar", "brickwall"]
)
def test_unitary_source_draws_a_group_as_its_generators_alone(source):
    rngs = [np.random.default_rng([4, b]) for b in range(3)]
    alone_rngs = [np.random.default_rng([4, b]) for b in range(3)]
    alone = [source.draw(5, rng) for rng in alone_rngs]
    stack = source.draw(5, rngs)
    assert stack.shape == (3, 5, 5)
    assert [row.tobytes() for row in stack] == [u.tobytes() for u in alone]
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in alone_rngs]


def test_a_fixed_source_gives_its_one_read_only_matrix_for_any_group():
    # What trajectory._click takes for a shared unitary: the (n, n) matrix itself.
    u = haar_unitary(5, np.random.default_rng(8))
    source = UnitarySource.fixed(u)
    rngs = [np.random.default_rng([4, b]) for b in range(3)]
    states = [r.bit_generator.state for r in rngs]
    alone = source.draw(5, np.random.default_rng(4))
    drawn = source.draw(5, rngs)
    assert drawn.shape == (5, 5)
    assert drawn.tobytes() == alone.tobytes() == u.tobytes()
    assert not drawn.flags.writeable
    assert u.flags.writeable  # the caller's array is copied, not frozen
    assert [r.bit_generator.state for r in rngs] == states


def test_identity_grid_is_exactly_zero():
    grid = averaged_entropy_grid(4, 4, UnitarySource.identity(4), 50, 5)
    assert np.all(grid.values == 0.0)
    assert np.all(grid.stderr == 0.0)
    assert max_averaged_entropy(grid) == (0.0, 0, 1)


def test_balanced_splitter_grid_peaks_at_ln2():
    grid = averaged_entropy_grid(2, 2, UnitarySource.fixed(balanced_splitter()), 100, 6)
    assert abs(grid.values[1, 0] - LN2) < 1e-12
    assert grid.values[0, 0] == 0.0
    assert grid.values[2, 0] == 0.0
    value, k_max, l_max = max_averaged_entropy(grid)
    assert (k_max, l_max) == (1, 1)
    assert abs(value - LN2) < 1e-12


def test_grid_boundary_rows_are_zero():
    grid = averaged_entropy_grid(5, 3, UnitarySource.haar(), 200, 7)
    assert np.all(grid.values[0] == 0.0)
    assert np.all(grid.values[3] == 0.0)


def test_single_click_row_matches_direct_monte_carlo():
    # Independent estimate of the averaged one-click entropy: draw a unitary,
    # draw the (uniform) first click, and evaluate the binary entropy of the
    # row mass on the subsystem.
    n = 6
    samples = 2000
    grid = averaged_entropy_grid(n, n, UnitarySource.haar(), samples, 404)
    rng = np.random.default_rng(909)
    direct = np.zeros((samples, n - 1))
    for i in range(samples):
        u = haar_unitary(n, rng)
        detector = int(rng.integers(n))
        for cut in range(1, n):
            p = float(np.sum(np.abs(u[detector, :cut]) ** 2))
            direct[i, cut - 1] = -p * np.log(p) - (1 - p) * np.log(1 - p)
    direct_mean = direct.mean(axis=0)
    direct_stderr = direct.std(axis=0, ddof=1) / np.sqrt(samples)
    combined = np.sqrt(grid.stderr[1] ** 2 + direct_stderr**2)
    assert np.all(np.abs(grid.values[1] - direct_mean) <= 3 * combined)


# Standard errors within which each sampled grid cell must meet its exact value.
GRID_Z = 4.0


@pytest.mark.parametrize("route", ["tree", "past-the-tree"])
@pytest.mark.parametrize("n, m, network", [(6, 6, "haar"), (7, 5, "brickwall:3"), (8, 8, "haar")])
def test_the_fixed_unitary_grid_meets_the_exact_multiset_average(
    monkeypatch, n, m, network, route
):
    # Exact: sum over the multisets S of k clicks of P_k(S) * S_l(psi_S), from
    # the reference tree.  Each cell of the estimate lies within GRID_Z of its
    # standard errors.  A cell of zero spread (the start, the end, and cuts a
    # brick wall's light cone keeps in a product state) is the exact value.
    # Past the tree, the run's tree holds the root and its children only.
    rng = np.random.default_rng([n, m, 5])
    u = haar_unitary(n, rng) if network == "haar" else haar_brickwall(n, 3, rng)
    if route == "past-the-tree":
        monkeypatch.setattr(trajectory, "_TREE_BUDGET", comb(n, m) + n * comb(n, m - 1))
    assert len(trajectory._click_tree(n, m, u, m).children) == (m if route == "tree" else 1)
    grid = averaged_entropy_grid(n, m, UnitarySource.fixed(u), 3000, 23)
    exact = np.zeros_like(grid.values)
    for k, level in enumerate(click_multiset_levels(n, m, u)):
        p = np.array([p for p, _ in level.values()])
        states = np.array([amplitudes for _, amplitudes in level.values()])
        exact[k] = p @ _entropies(n, m - k, states, tuple(range(1, n)))
    spread = grid.stderr > 0
    assert not spread[[0, m]].any()
    np.testing.assert_allclose(grid.values[~spread], exact[~spread], rtol=0, atol=1e-12)
    z = np.abs(grid.values - exact)[spread] / grid.stderr[spread]
    assert z.max() <= GRID_Z


def test_haar_maximizing_cut_is_the_half_chain():
    n = 6
    grid = averaged_entropy_grid(n, n, UnitarySource.haar(), 1500, 314)
    half = n // 2
    for k in range(1, n):
        row, err = grid.values[k], grid.stderr[k]
        argl = int(np.argmax(row)) + 1
        close_tie = abs(row[argl - 1] - row[half - 1]) <= err[argl - 1] + err[half - 1]
        assert argl == half or (abs(argl - half) == 1 and close_tie)


def test_late_click_bound_soft_check():
    # The one-click cap h(l/N) appears to extend to k clicks as k*h(l/N);
    # surface violations as warnings rather than failures.
    n = 6
    grid = averaged_entropy_grid(n, n, UnitarySource.haar(), 500, 21)
    for k in range(grid.values.shape[0]):
        for cut in range(1, n):
            cap = k * entropy_bound(cut, n) + 3 * grid.stderr[k, cut - 1]
            if grid.values[k, cut - 1] > cap:
                warnings.warn(
                    f"averaged entropy at (k={k}, l={cut}) exceeds k*h(l/N): "
                    f"{grid.values[k, cut - 1]:.4f} > {cap:.4f}",
                    stacklevel=1,
                )


def test_grid_reductions_independent_of_thread_count():
    grid1 = averaged_entropy_grid(5, 3, UnitarySource.haar(), 600, 42, threads=1)
    grid2 = averaged_entropy_grid(5, 3, UnitarySource.haar(), 600, 42, threads=2)
    np.testing.assert_array_equal(grid1.values, grid2.values)
    np.testing.assert_array_equal(grid1.stderr, grid2.stderr)


@pytest.mark.parametrize("n_sites", [8, 10, 12, 14, 16])
@pytest.mark.parametrize("widest", [False, True], ids=["first-click", "widest"])
def test_grid_entropies_of_a_whole_group_match_each_state_alone(n_sites, widest):
    # The grid takes each click's entropies for a fresh group in one call:
    # 256 states at N = 8, 195 at N = 10, 53 at N = 12, 14 at N = 14 and 3 at
    # N = 16, after the first click and at the widest sector.
    n_excited = n_sites // 2 if widest else n_sites - 1
    size = min(CHUNK_SIZE, experiments._group_size(n_sites, n_sites))
    rng = np.random.default_rng(90 + n_sites)
    states = np.stack(
        [random_sector_state(n_sites, n_excited, rng).amplitudes for _ in range(size)]
    )
    cuts = tuple(range(1, n_sites))
    group = _entropies(n_sites, n_excited, states, cuts)
    for b in range(size):
        assert np.array_equal(_entropies(n_sites, n_excited, states[b : b + 1], cuts)[0], group[b])


def test_identity_distribution_is_a_point_mass():
    report = distribution_comparison(3, 3, UnitarySource.identity(3), 500, 8)
    index = report.outcomes.tolist().index([1, 1, 1])
    assert report.exact[index] == pytest.approx(1.0, abs=1e-12)
    assert report.empirical[index] == 1.0
    assert report.tvd == pytest.approx(0.0, abs=1e-12)


def test_distribution_report_is_consistent():
    u = haar_unitary(4, np.random.default_rng(19))
    report = distribution_comparison(4, 2, UnitarySource.fixed(u), 800, 3)
    assert abs(report.exact.sum() - 1.0) < 1e-9
    assert abs(report.empirical.sum() - 1.0) < 1e-12
    assert 0.0 <= report.tvd <= 1.0
    assert report.tvd == pytest.approx(0.5 * np.abs(report.exact - report.empirical).sum())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "n, m, depth, network",
    [(5, 4, 4, "haar"), (9, 9, 4, "haar"), (6, 6, 6, "identity")],
    ids=["full-tree", "past-the-tree", "zero-weight-nodes"],
)
def test_distribution_counts_match_a_tally_of_the_records(n, m, depth, network, threads):
    # The same trajectories, tallied here by their per-detector counts from
    # the records, which read every state: at (5, 4) the tree holds every
    # click, at (9, 9) the walk goes on past its four levels, and the
    # identity's tree holds canonical children of zero weight.  The counts
    # are exact, so their frequencies are the very floats the report divides
    # out.
    if network == "identity":
        u = np.eye(n, dtype=complex)
    else:
        u = haar_unitary(n, np.random.default_rng([n, m, 5]))
    source, samples, seed = UnitarySource.fixed(u), 2 * CHUNK_SIZE + 88, 21
    assert len(trajectory._click_tree(n, m, u, m).children) == depth
    report = distribution_comparison(n, m, source, samples, seed, threads)
    records = trajectory_records(n, m, source, 1, samples, seed, threads=threads)
    tally = Counter(tuple(np.bincount(r.clicks, minlength=n).tolist()) for r in records)
    outcomes = list(map(tuple, report.outcomes.tolist()))
    assert set(tally) <= set(outcomes) and sum(tally.values()) == samples
    counts = np.array([tally[outcome] for outcome in outcomes])
    np.testing.assert_array_equal(counts / samples, report.empirical)
    np.testing.assert_array_equal(np.rint(report.empirical * samples), counts)


class _CountedLevel:
    """A tree level's states that count how often they are read."""

    def __init__(self, states: np.ndarray) -> None:
        self.states, self.reads = states, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.states[key]

    def __len__(self) -> int:
        self.reads += 1
        return len(self.states)


def test_a_distribution_walk_through_a_full_tree_gathers_no_state(monkeypatch):
    # The outcome counts read the clicks alone, so through a tree that holds
    # every click the walk sorts no node indices and reads no state.  A grid
    # through the same tree takes its distinct states, as a control.
    n = m = 8
    u = haar_unitary(n, np.random.default_rng(31))
    source, samples = UnitarySource.fixed(u), CHUNK_SIZE + 40
    tree = trajectory._click_tree(n, m, u, m)
    assert len(tree.children) == m  # every click in the tree
    counted = dataclasses.replace(tree, states=tuple(map(_CountedLevel, tree.states)))
    uniques = []
    unique = np.unique

    def counting(*args, **kwargs):
        uniques.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    make = partial(experiments._OutcomeCounts, n, m)
    parts = experiments._accumulate_span(((make, source, n, 3), 0, samples), counted)
    assert uniques == []
    assert [level.reads for level in counted.states] == [0] * (m + 1)
    plain = experiments._accumulate_span(((make, source, n, 3), 0, samples), tree)
    assert [part.counts for part in parts] == [part.counts for part in plain]
    assert sum(sum(part.counts.values()) for part in parts) == samples
    make = partial(experiments._GridSums, n, m)
    experiments._accumulate_span(((make, source, n, 3), 0, samples), counted)
    assert len(uniques) == 2 * (m + 1)  # each click count of each of the two chunks
    assert [level.reads for level in counted.states] == [2] * (m + 1)


@pytest.mark.parametrize("kind", ["fixed", "haar"])
def test_spans_of_one_chunk_give_the_parts_of_longer_spans(monkeypatch, kind):
    # A span hashes the seeds and draws the click uniforms of all its
    # trajectories at once, and each chunk takes its rows: with one chunk
    # per span every part, the partial last chunk's included, is the same,
    # under a fixed tree and under a fresh source.
    n, samples = 6, 19 * CHUNK_SIZE + 77
    u = haar_unitary(n, np.random.default_rng(32))
    source = UnitarySource.fixed(u) if kind == "fixed" else UnitarySource.haar()
    make = partial(experiments._GridSums, n, n)
    span_of = experiments._accumulate_span

    def parts_by_span() -> list:
        spans = []

        def keeping(args, tree=None):
            parts = span_of(args, tree)
            spans.append([(part.sums.tobytes(), part.square_sums.tobytes()) for part in parts])
            return parts

        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_accumulate_span", keeping)
            _run(make, source, n, samples, 33, threads=1)
        return spans

    default = parts_by_span()
    monkeypatch.setattr(experiments, "_SPAN_CAP", 1)
    single = parts_by_span()
    assert [len(parts) for parts in default] == [5] * 4
    assert [len(parts) for parts in single] == [1] * 20
    assert sum(default, []) == sum(single, [])


def test_tvd_shrinks_when_samples_grow_tenfold():
    source = UnitarySource.fixed(haar_unitary(3, np.random.default_rng(1001)))
    small, large = [], []
    for rep in range(5):
        small.append(distribution_comparison(3, 2, source, 200, 9000 + rep).tvd)
        large.append(distribution_comparison(3, 2, source, 2000, 9500 + rep).tvd)
    assert np.mean(large) < np.mean(small) / 1.5


def test_expected_tvd_matches_simulation():
    probs = np.array([0.5, 0.3, 0.2])
    n_samples = 400
    rng = np.random.default_rng(55)
    reps = 3000
    tvds = np.empty(reps)
    for i in range(reps):
        counts = rng.multinomial(n_samples, probs)
        tvds[i] = 0.5 * np.abs(counts / n_samples - probs).sum()
    stderr = tvds.std(ddof=1) / np.sqrt(reps)
    # The half-normal formula is asymptotic; allow a small relative slack too.
    assert abs(expected_tvd(probs, n_samples) - tvds.mean()) < 3 * stderr + 0.02 * tvds.mean()


def test_mixture_identity_case_structure():
    report = mixture_entropy_report(4, 4, UnitarySource.identity(4), 2, 2, 2000, 78)
    assert report.mean_trajectory_entropy == 0.0
    assert report.averaged_state_entropy > 0.0
    assert report.shannon_mixture_entropy + report.tolerance >= report.averaged_state_entropy


def test_mixture_zero_clicks_is_pure():
    u = haar_unitary(4, np.random.default_rng(3))
    report = mixture_entropy_report(4, 4, UnitarySource.fixed(u), 0, 2, 200, 5)
    assert report.mean_trajectory_entropy == 0.0
    assert report.averaged_state_entropy == pytest.approx(0.0, abs=1e-9)
    assert report.shannon_mixture_entropy == 0.0


def test_mixture_sandwich_holds_for_haar_unitary():
    u = haar_unitary(6, np.random.default_rng(606))
    report = mixture_entropy_report(6, 6, UnitarySource.fixed(u), 3, 3, 2000, 77)
    s_bar = report.mean_trajectory_entropy
    assert s_bar <= report.averaged_state_entropy + report.tolerance
    assert report.averaged_state_entropy <= s_bar + report.shannon_mixture_entropy + report.tolerance
    assert report.n_distinct_sequences <= 6**3


@pytest.mark.parametrize("k, sectors", [(2, {6, 5}), (0, set())])
def test_mixture_walks_exactly_k_clicks(monkeypatch, k, sectors):
    # The walk stops after click k: no sector below n_excited - k + 1 is lowered.
    lowered = []

    def recording(n_sites, n_excited, amplitudes, u):
        lowered.append(n_excited)
        return _lowered_raw(n_sites, n_excited, amplitudes, u)

    monkeypatch.setattr(trajectory, "_lowered_raw", recording)
    u = haar_unitary(6, np.random.default_rng(98))
    report = mixture_entropy_report(6, 6, UnitarySource.fixed(u), k, 3, 300, 99)
    assert report.click_count == k
    assert set(lowered) == sectors


def test_mixture_rejects_oversized_subsystem():
    with pytest.raises(ValueError, match="too large"):
        mixture_entropy_report(16, 16, UnitarySource.identity(16), 1, 13, 10, 0)


@pytest.mark.parametrize(
    "n_sites, n_excited, cut",
    [(7, 3, 2), (7, 3, 5), (8, 4, 4), (6, 5, 4), (6, 0, 2), (6, 0, 4)],
    ids=["left-smaller", "left-larger", "half", "left-larger-full", "e0-left-smaller",
         "e0-left-larger"],
)
def test_mixture_block_state_matches_the_dense_reduced_state(n_sites, n_excited, cut):
    rng = np.random.default_rng(90 + 10 * n_sites + cut)
    states = [random_sector_state(n_sites, n_excited, rng) for _ in range(5)]

    # One click takes every trajectory to one of the random states.
    start = initial_state(n_sites, n_excited + 1).amplitudes[None]
    zeros = np.zeros(len(states), dtype=np.intp)
    walk = [
        (0, None, zeros, start),
        (1, zeros, np.arange(len(states)), np.stack([s.amplitudes for s in states])),
    ]
    sums = experiments._MixtureSums(n_sites, n_excited + 1, 1, cut)
    sums.add(0, iter(walk))
    assembled = np.zeros((1 << cut, 1 << cut), dtype=complex)
    first = max(0, n_excited - (n_sites - cut))
    for b, block in enumerate(sums.rho_sum, start=first):
        left = sector_masks(cut, b)
        assembled[np.ix_(left, left)] = block
    dense = sum(m @ m.conj().T for m in (dense_cut_matrix(s, cut) for s in states))
    np.testing.assert_allclose(assembled, dense, rtol=0, atol=1e-12)


def test_mixture_far_beyond_dense_sizes_runs_in_the_sector():
    # The averaged state of one site of 40 is two 1 x 1 blocks; a dense
    # cut matrix would be 2 x 2^39.
    u = haar_unitary(40, np.random.default_rng(41))
    report = mixture_entropy_report(40, 2, UnitarySource.fixed(u), 1, 1, 300, 3)
    assert 0.0 <= report.averaged_state_entropy <= LN2 + report.tolerance
    assert report.mean_trajectory_entropy <= report.averaged_state_entropy + report.tolerance


def test_serial_run_merges_each_part_before_making_the_next():
    log = []

    class Counting:
        n_excited = 1

        def __init__(self) -> None:
            log.append("make")

        clicks = 1

        def add(self, first, walk) -> None:
            pass

        def merge(self, other) -> None:
            log.append("merge")

    _run(Counting, UnitarySource.identity(3), 3, 3 * CHUNK_SIZE, 0, threads=1)
    assert log == ["make"] + ["make", "merge"] * 3


def test_chunks_of_the_largest_run_are_counted_without_being_built():
    starts = experiments._chunks(MAX_SAMPLES)
    assert len(starts) == MAX_SAMPLES // CHUNK_SIZE
    assert starts[-1] == MAX_SAMPLES - CHUNK_SIZE


def test_pool_run_bounds_the_chunks_in_flight_and_merges_in_chunk_order(monkeypatch):
    # An in-process stand-in for the pool: a span of chunks runs only when
    # some result is read, and every span submitted by then finishes newest
    # first, so the merge order cannot come from the completion order.
    queued, unread, spans = [], [], []
    most_unread = most_chunks_in_flight = 0

    class Firsts:
        n_excited = 1

        def __init__(self) -> None:
            self.firsts = []

        clicks = 1

        def add(self, first, walk) -> None:
            self.firsts.append(first)

        def merge(self, other) -> None:
            self.firsts += other.firsts

    class ChunkFuture(Future):
        def result(self, timeout=None):
            while queued:
                future, fn, task = queued.pop()
                future.set_result(fn(task))
            unread.remove(self)
            return super().result(timeout)

    class InProcessPool:
        def __init__(self, max_workers: int, initializer, initargs) -> None:
            (tree,) = initargs
            assert len(tree.states) == 1  # a fresh source hands its workers a root
            initializer(*initargs)  # as a worker would, in this process

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            pass

        def submit(self, fn, task):
            nonlocal most_unread, most_chunks_in_flight
            future = ChunkFuture()
            _, lo, hi = task
            future.chunks = -(-(hi - lo) // CHUNK_SIZE)
            spans.append(future.chunks)
            queued.append((future, fn, task))
            unread.append(future)
            most_unread = max(most_unread, len(unread))
            most_chunks_in_flight = max(most_chunks_in_flight, sum(f.chunks for f in unread))
            return future

    # 200 chunks would make spans of 17 at three workers; the cap cuts them
    # to 16, and the last span holds the 8 chunks left over.
    workers, n_samples = 3, 199 * CHUNK_SIZE + 5
    cap = experiments._SPAN_CAP
    assert -(-200 // (4 * workers)) > cap
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiments, "_worker_count", lambda threads, n_chunks: threads)
    monkeypatch.setattr(experiments, "_worker_tree", None)  # set by the stand-in; restored after
    total = _run(Firsts, UnitarySource.haar(), 3, n_samples, 0, threads=workers)
    assert total.firsts == list(range(0, n_samples, CHUNK_SIZE))
    assert spans == [cap] * 12 + [8]
    assert most_unread == 2 * workers
    assert most_chunks_in_flight == 2 * workers * cap
    assert not queued and not unread


def test_scaling_sweep_rows_and_csv():
    points = [(3, UnitarySource.brickwall(1)), (4, UnitarySource.haar())]
    rows = scaling_sweep(points, 100, 12)
    assert [row.n_sites for row in rows] == [3, 4]
    assert all(row.s_max >= 0.0 for row in rows)
    assert all(1 <= row.l_max <= row.n_sites - 1 for row in rows)
    text = scaling_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,source,depth,s_max,k_max,l_max,stderr"
    assert len(lines) == 3
    assert lines[1].startswith("3,brickwall,1,")
    assert lines[2].startswith("4,haar,,")


def _recorded(monkeypatch, name: str) -> list:
    # The argument tuples of every call to experiments.<name>, which still runs.
    calls = []
    original = getattr(experiments, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, recording)
    return calls


SIX_MODES_AT_EIGHT_SITES = {  # run with two chunks, so that two threads start a pool
    "grid": lambda samples, threads: averaged_entropy_grid(
        8, 8, UnitarySource.fixed(np.eye(6)), samples, 1, threads
    ),
    "records": lambda samples, threads: trajectory_records(
        8, 8, UnitarySource.fixed(np.eye(6)), 4, samples, 1, threads=threads
    ),
    "mixture": lambda samples, threads: mixture_entropy_report(
        8, 8, UnitarySource.fixed(np.eye(6)), 4, 4, samples, 1, threads
    ),
    "distribution": lambda samples, threads: distribution_comparison(
        8, 4, UnitarySource.fixed(np.eye(6)), samples, 1, threads
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("run", SIX_MODES_AT_EIGHT_SITES)
def test_a_fixed_unitary_of_the_wrong_size_fails_before_any_chunk(monkeypatch, run, threads):
    chunks = _recorded(monkeypatch, "_accumulate")
    laws = _recorded(monkeypatch, "outcome_law")
    with pytest.raises(ValueError, match="^fixed unitary is 6-mode, need 8$"):
        SIX_MODES_AT_EIGHT_SITES[run](CHUNK_SIZE + 1, threads)
    assert chunks == [] and laws == []


ONE_NETWORK_ESTIMATORS = {  # run with two chunks, so that two threads would start a pool
    "mixture_entropy_report": lambda source: mixture_entropy_report(
        4, 4, source, 2, 2, CHUNK_SIZE + 1, 1, threads=2
    ),
    "distribution_comparison": lambda source: distribution_comparison(
        4, 4, source, CHUNK_SIZE + 1, 1, threads=2
    ),
}


@pytest.mark.parametrize("source", [UnitarySource.haar(), UnitarySource.brickwall(2)],
                         ids=["haar", "brickwall"])
@pytest.mark.parametrize("estimator", ONE_NETWORK_ESTIMATORS)
def test_a_fresh_source_fails_where_one_network_is_needed(monkeypatch, estimator, source):
    # The exact law and the averaged state belong to one fixed network.
    names = ("enumerate_outcomes", "outcome_law", "_run", "_accumulate")
    ran = [_recorded(monkeypatch, name) for name in names]
    message = f"^{estimator} needs a fixed unitary, got a {source.kind} source$"
    with pytest.raises(ValueError, match=message):
        ONE_NETWORK_ESTIMATORS[estimator](source)
    assert ran == [[]] * len(names)


def test_an_unknown_source_kind_fails_before_any_chunk(monkeypatch):
    chunks = _recorded(monkeypatch, "_accumulate")
    with pytest.raises(ValueError, match="^unknown unitary source 'bogus'$"):
        averaged_entropy_grid(4, 4, UnitarySource(kind="bogus"), 10, 1)
    assert chunks == []


def test_a_dump_cut_outside_the_chain_fails_before_any_chunk(monkeypatch):
    chunks = _recorded(monkeypatch, "_accumulate")
    with pytest.raises(ValueError, match=r"^cut must be in \[1, 3\], got 0$"):
        trajectory_records(4, 2, UnitarySource.haar(), 0, CHUNK_SIZE + 1, 1, threads=2)
    assert chunks == []


def test_a_mixture_cut_outside_the_chain_fails_before_any_chunk(monkeypatch):
    # The same rule, and the same words, as the dump's cut.
    chunks = _recorded(monkeypatch, "_accumulate")
    with pytest.raises(ValueError, match=r"^cut must be in \[1, 3\], got 0$"):
        mixture_entropy_report(4, 2, UnitarySource.identity(4), 1, 0, CHUNK_SIZE + 1, 1, threads=2)
    assert chunks == []


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "bogus"}, r"unknown unitary source 'bogus'"),
        ({"kind": "brickwall"}, rf"depth must lie in \[0, {MAX_DEPTH}\], got None"),
        ({"kind": "brickwall", "depth": -1}, rf"depth must lie in \[0, {MAX_DEPTH}\], got -1"),
        ({"kind": "brickwall", "depth": 2.0}, rf"depth must lie in \[0, {MAX_DEPTH}\], got 2.0"),
        ({"kind": "brickwall", "depth": MAX_DEPTH + 1},
         rf"depth must lie in \[0, {MAX_DEPTH}\], got {MAX_DEPTH + 1}"),
        ({"kind": "fixed"}, r"expected a square matrix, got shape \(\)"),
        ({"kind": "fixed", "matrix": np.ones((2, 3))},
         r"expected a square matrix, got shape \(2, 3\)"),
        ({"kind": "fixed", "matrix": 2 * np.eye(3)}, r"matrix is not unitary: .*"),
        # A field of another kind: each would make a source unequal to its plain form.
        ({"kind": "haar", "depth": 5}, r"a haar source takes no depth, got 5"),
        ({"kind": "fixed", "matrix": np.eye(2), "depth": 0},
         r"a fixed source takes no depth, got 0"),
        ({"kind": "haar", "matrix": np.eye(2)}, r"a haar source takes no matrix"),
        ({"kind": "brickwall", "matrix": np.eye(2), "depth": 2},
         r"a brickwall source takes no matrix"),
    ],
    ids=["kind", "no-depth", "negative-depth", "float-depth", "deep", "no-matrix", "non-square",
         "non-unitary", "haar-depth", "fixed-depth", "haar-matrix", "brickwall-matrix"],
)
def test_a_bad_source_is_rejected_when_it_is_made(fields, message):
    # Built directly, not only through the constructors: no invalid source exists.
    with pytest.raises(ValueError, match=f"^{message}$"):
        UnitarySource(**fields)


def test_a_fixed_source_holds_a_read_only_copy_however_it_is_made():
    u = np.eye(3, dtype=complex)
    for source in (UnitarySource(kind="fixed", matrix=u), UnitarySource.fixed(u)):
        assert not np.shares_memory(source.matrix, u)
        assert source.matrix.dtype == complex and not source.matrix.flags.writeable
        assert source.matrix.tobytes() == u.tobytes()
    assert u.flags.writeable  # the caller's array is left as it was


def test_sources_compare_and_hash_by_kind_depth_and_matrix_bytes():
    a, b = UnitarySource.fixed(np.eye(2)), UnitarySource.fixed(np.eye(2))
    swap = UnitarySource.fixed(np.eye(2)[::-1])
    assert a == b and hash(a) == hash(b)
    assert a != swap and a != UnitarySource.identity(3) and a != UnitarySource.haar()
    assert UnitarySource.brickwall(2) == UnitarySource.brickwall(2) != UnitarySource.brickwall(3)
    assert len({a, b, swap, UnitarySource.haar(), UnitarySource.haar()}) == 3
    # A sweep row holding a fixed source compares and hashes through it.
    point = partial(ScalingPoint, n_sites=2, s_max=0.5, k_max=1, l_max=1, stderr=0.1)
    assert point(source=a) == point(source=b) != point(source=swap)
    assert hash(point(source=a)) == hash(point(source=b))


def test_sweep_source_of_unknown_kind_is_rejected_before_any_point_runs(monkeypatch):
    grids = _recorded(monkeypatch, "averaged_entropy_grid")
    with pytest.raises(ValueError, match="^unknown unitary source 'bogus'$"):
        scaling_sweep([(4, UnitarySource.haar()), (6, UnitarySource(kind="bogus"))], 10, 1)
    assert grids == []


def test_sweep_fixed_source_of_the_wrong_size_is_rejected_before_any_point_runs(monkeypatch):
    ran = []
    grid = experiments.averaged_entropy_grid

    def recording(n_sites, *args, **kwargs):
        ran.append(n_sites)
        return grid(n_sites, *args, **kwargs)

    monkeypatch.setattr(experiments, "averaged_entropy_grid", recording)
    points = [(4, UnitarySource.haar()), (8, UnitarySource.fixed(np.eye(6)))]
    with pytest.raises(ValueError, match="6-mode, need 8"):
        scaling_sweep(points, 10, 1)
    assert ran == []


def test_grid_csv_shape():
    grid = averaged_entropy_grid(3, 2, UnitarySource.haar(), 50, 4)
    lines = grid_csv(grid).strip().splitlines()
    assert lines[0] == "k,l,mean,stderr"
    assert len(lines) == 1 + 3 * 2


def test_distribution_csv_shape():
    report = distribution_comparison(2, 2, UnitarySource.fixed(balanced_splitter()), 300, 2)
    lines = distribution_csv(report).strip().splitlines()
    assert lines[0] == "outcome,exact,empirical,stderr"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "2 0"


def _csv_row_by_row(report) -> str:
    # The formatter distribution_csv replaced: one f-string per row.
    exact = np.asarray(report.exact, dtype=float)
    empirical = np.asarray(report.empirical, dtype=float)
    stderr = np.sqrt(empirical * (1.0 - empirical) / report.n_samples)
    rows = zip(report.outcomes.tolist(), exact.tolist(), empirical.tolist(), stderr.tolist())
    lines = [f"{' '.join(map(str, o))},{p!r},{f!r},{s!r}\n" for o, p, f, s in rows]
    return "outcome,exact,empirical,stderr\n" + "".join(lines)


@pytest.mark.parametrize(
    "n, m, samples",
    [(3, 12, 40), (5, 10, 3000), (1, 7, 9), (1, 10**9, 1), (4, 0, 5), (2, 999, 77)],
    ids=["two-digit", "several-blocks", "one-detector", "a-billion-clicks", "no-click",
         "wide-counts"],
)
def test_distribution_csv_is_the_row_by_row_text(n, m, samples):
    # Byte for byte against the per-row formatter, over counts of one to ten
    # digits, one detector, no click, and frequencies of 0, of 1 and
    # repeated ones.
    outcomes = oracle.enumerate_outcomes(n, m)
    rng = np.random.default_rng([n, m])
    exact = rng.random(len(outcomes)) ** 4
    exact /= exact.sum()
    exact[::7] = 0.0
    counts = rng.multinomial(samples, exact)
    report = experiments.DistributionReport(outcomes, exact, counts / samples, 0.5, samples)
    frequencies = set(report.empirical.tolist())
    if len(outcomes) > 1:
        assert 0.0 in frequencies and len(frequencies) < len(outcomes)
    else:
        assert frequencies == {1.0}
    text = distribution_csv(report)
    assert text == _csv_row_by_row(report)
    assert text.count("\n") == len(outcomes) + 1

