import os
import warnings
from concurrent.futures import Future
from functools import partial
from math import comb

import numpy as np
import pytest

from click_walk_reference import click_walk
from dense_reference import dense_cut_matrix, random_sector_state
from lontraj import experiments, oracle, trajectory
from lontraj.experiments import (
    CHUNK_SIZE,
    MAX_SAMPLES,
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
)
from lontraj.state import _lowered_raw, initial_state, sector_masks
from lontraj.trajectory import _click_walk
from lontraj.unitary import beamsplitter_unitary, haar_unitary

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


def test_chunk_hash_rejects_a_negative_seed_and_wide_indices():
    with pytest.raises(ValueError, match="master seed must be >= 0, got -1"):
        _stream_words(-1, 0, 4, 1)
    with pytest.raises(ValueError, match="do not fit one 32-bit word each"):
        _stream_words(0, 2**32 - 1, 2**32 + 1, 1)
    with pytest.raises(ValueError, match="master seed must be >= 0, got -3"):
        averaged_entropy_grid(3, 1, UnitarySource.identity(3), 4, -3)


@pytest.mark.parametrize("n_sites", [8, 10, 12, 16])
@pytest.mark.parametrize("filling", ["full", "half"])
def test_group_size_keeps_the_lowered_array_within_the_lockstep_budget(
    monkeypatch, n_sites, filling
):
    n_excited = n_sites if filling == "full" else n_sites // 2
    widest = max(comb(n_sites, j) for j in range(n_excited))
    size = experiments._group_size(n_sites, n_excited)
    assert size >= 1
    assert size == 1 or size * n_sites * widest <= experiments._LOCKSTEP_BUDGET
    assert (size + 1) * n_sites * widest > experiments._LOCKSTEP_BUDGET
    # The permanent oracle's budget is its own.
    monkeypatch.setattr(oracle, "_ELEMENT_BUDGET", 2**7)
    assert experiments._group_size(n_sites, n_excited) == size


@pytest.mark.parametrize("n_sites", [8, 10, 12, 16])
@pytest.mark.parametrize("filling", ["full", "half"])
def test_shared_group_keeps_its_distinct_states_within_the_lockstep_budget(n_sites, filling):
    # Under a shared unitary a group row holds a state, not a lowered array.
    n_excited = n_sites if filling == "full" else n_sites // 2
    widest = max(comb(n_sites, j) for j in range(n_excited))
    size = experiments._group_size(n_sites, n_excited, shared=True)
    assert size == 1 or size * widest <= experiments._LOCKSTEP_BUDGET
    assert (size + 1) * widest > experiments._LOCKSTEP_BUDGET
    assert size >= experiments._group_size(n_sites, n_excited)
    if n_sites == 8:
        assert size >= CHUNK_SIZE  # a whole chunk walks as one group


def test_a_fixed_unitary_lowers_each_click_prefix_once(monkeypatch):
    # Every trajectory starts in the same state, and after one click each is
    # in one of n states; a chunk that walked its trajectories apart would
    # lower 256 rows at both clicks.
    n = 8
    lowered = []

    def counting(n_sites, n_excited, amplitudes, u):
        lowered.append((n_excited, len(amplitudes)))
        return _lowered_raw(n_sites, n_excited, amplitudes, u)

    monkeypatch.setattr(trajectory, "_lowered_raw", counting)
    source = UnitarySource.fixed(haar_unitary(n, np.random.default_rng(91)))
    make = partial(experiments._OutcomeCounts, n, n)
    part = experiments._accumulate(((make, source, n, 5), 0, CHUNK_SIZE))
    assert sum(part.counts.values()) == CHUNK_SIZE
    rows = {e: sum(size for e_, size in lowered if e_ == e) for e in range(1, n + 1)}
    assert rows[n] == 1
    assert rows[n - 1] <= n
    assert all(rows[e] <= CHUNK_SIZE for e in rows)
    # Each slice's four lowering arrays stay within the budget.
    for e, size in lowered:
        assert size == 1 or 4 * size * n * comb(n, e - 1) <= experiments._LOCKSTEP_BUDGET


@pytest.mark.parametrize("slice_rows", [1, 3])
@pytest.mark.parametrize("n_sites", [6, 8])
def test_prefix_shared_chunk_matches_the_one_trajectory_loop(monkeypatch, n_sites, slice_rows):
    # With the budget cut down, the widest click lowers its distinct states
    # slice_rows at a time and a chunk walks in several groups.  Every
    # trajectory must still click and land exactly as it does alone.
    widest = max(comb(n_sites, j) for j in range(n_sites))
    monkeypatch.setattr(experiments, "_LOCKSTEP_BUDGET", slice_rows * 4 * n_sites * widest)
    slices = []

    def recording(n, e, amplitudes, u):
        slices.append((e, len(amplitudes)))
        return _lowered_raw(n, e, amplitudes, u)

    walked = []

    def walk(*args):
        steps = list(_click_walk(*args))
        walked.append(steps)
        yield from steps

    monkeypatch.setattr(trajectory, "_lowered_raw", recording)
    monkeypatch.setattr(experiments, "_click_walk", walk)
    u = haar_unitary(n_sites, np.random.default_rng(92 + n_sites))
    seed, size = 93, 200
    make = partial(experiments._OutcomeCounts, n_sites, n_sites)
    experiments._accumulate(((make, UnitarySource.fixed(u), n_sites, seed), 0, size))
    group = experiments._group_size(n_sites, n_sites, shared=True)
    assert len(walked) == -(-size // group) > 1
    at_widest = [rows for e, rows in slices if comb(n_sites, e - 1) == widest]
    assert max(at_widest) == slice_rows
    start = initial_state(n_sites, n_sites).amplitudes
    for index in range(size):
        steps = walked[index // group]
        b = index % group
        alone = click_walk(n_sites, n_sites, start, u, derive_rng(seed, index, 1))
        for (detectors, rows, states), (detector, amplitudes) in zip(steps, alone, strict=True):
            assert detectors[b] == detector
            assert states[rows[b]].tobytes() == amplitudes.tobytes()


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


@pytest.mark.parametrize(
    "source",
    [UnitarySource.haar(), UnitarySource.brickwall(3), UnitarySource.identity(5)],
    ids=["haar", "brickwall", "fixed"],
)
def test_unitary_source_draws_a_group_as_its_generators_alone(source):
    rngs = [np.random.default_rng([4, b]) for b in range(3)]
    alone_rngs = [np.random.default_rng([4, b]) for b in range(3)]
    alone = [source.draw(5, rng) for rng in alone_rngs]
    stack = source.draw(5, rngs)
    assert stack.shape == (3, 5, 5)
    assert [row.tobytes() for row in stack] == [u.tobytes() for u in alone]
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in alone_rngs]


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


def test_identity_distribution_is_a_point_mass():
    report = distribution_comparison(3, 3, np.eye(3, dtype=complex), 500, 8)
    index = report.outcomes.index((1, 1, 1))
    assert report.exact[index] == pytest.approx(1.0, abs=1e-12)
    assert report.empirical[index] == 1.0
    assert report.tvd == pytest.approx(0.0, abs=1e-12)


def test_distribution_report_is_consistent():
    u = haar_unitary(4, np.random.default_rng(19))
    report = distribution_comparison(4, 2, u, 800, 3)
    assert abs(report.exact.sum() - 1.0) < 1e-9
    assert abs(report.empirical.sum() - 1.0) < 1e-12
    assert 0.0 <= report.tvd <= 1.0
    assert report.tvd == pytest.approx(0.5 * np.abs(report.exact - report.empirical).sum())


def test_tvd_shrinks_when_samples_grow_tenfold():
    u = haar_unitary(3, np.random.default_rng(1001))
    small, large = [], []
    for rep in range(5):
        small.append(distribution_comparison(3, 2, u, 200, 9000 + rep).tvd)
        large.append(distribution_comparison(3, 2, u, 2000, 9500 + rep).tvd)
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
    report = mixture_entropy_report(4, 4, np.eye(4, dtype=complex), 2, 2, 2000, 78)
    assert report.mean_trajectory_entropy == 0.0
    assert report.averaged_state_entropy > 0.0
    assert report.shannon_mixture_entropy + report.tolerance >= report.averaged_state_entropy


def test_mixture_zero_clicks_is_pure():
    u = haar_unitary(4, np.random.default_rng(3))
    report = mixture_entropy_report(4, 4, u, 0, 2, 200, 5)
    assert report.mean_trajectory_entropy == 0.0
    assert report.averaged_state_entropy == pytest.approx(0.0, abs=1e-9)
    assert report.shannon_mixture_entropy == 0.0


def test_mixture_sandwich_holds_for_haar_unitary():
    u = haar_unitary(6, np.random.default_rng(606))
    report = mixture_entropy_report(6, 6, u, 3, 3, 2000, 77)
    s_bar = report.mean_trajectory_entropy
    assert s_bar <= report.averaged_state_entropy + report.tolerance
    assert report.averaged_state_entropy <= s_bar + report.shannon_mixture_entropy + report.tolerance
    assert report.n_distinct_sequences <= 6**3


def test_mixture_rejects_oversized_subsystem():
    with pytest.raises(ValueError, match="too large"):
        mixture_entropy_report(16, 16, np.eye(16, dtype=complex), 1, 13, 10, 0)


@pytest.mark.parametrize(
    "n_sites, n_excited, cut",
    [(7, 3, 2), (7, 3, 5), (8, 4, 4), (6, 5, 4), (6, 0, 2), (6, 0, 4)],
    ids=["left-smaller", "left-larger", "half", "left-larger-full", "e0-left-smaller",
         "e0-left-larger"],
)
def test_mixture_block_state_matches_the_dense_reduced_state(
    monkeypatch, n_sites, n_excited, cut
):
    rng = np.random.default_rng(90 + 10 * n_sites + cut)
    states = [random_sector_state(n_sites, n_excited, rng) for _ in range(5)]

    # One click takes every trajectory to one of the random states.
    def one_click_to_the_states(n, m, start, u, uniforms, budget):
        rows = np.arange(len(states))
        yield np.zeros(len(states), dtype=np.intp), rows, np.stack([s.amplitudes for s in states])

    monkeypatch.setattr(experiments, "_click_walk", one_click_to_the_states)
    sums = experiments._MixtureSums(n_sites, n_excited + 1, 1, cut)
    sums.add(0, None, np.zeros((len(states), n_excited + 1)))
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
    report = mixture_entropy_report(40, 2, u, 1, 1, 300, 3)
    assert 0.0 <= report.averaged_state_entropy <= LN2 + report.tolerance
    assert report.mean_trajectory_entropy <= report.averaged_state_entropy + report.tolerance


def test_serial_run_merges_each_part_before_making_the_next():
    log = []

    class Counting:
        n_excited = 1

        def __init__(self) -> None:
            log.append("make")

        def add(self, first, u, uniforms) -> None:
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
    # An in-process stand-in for the pool: a chunk runs only when some
    # result is read, and every chunk submitted by then finishes newest
    # first, so the merge order cannot come from the completion order.
    queued, unread = [], []
    most_unread = 0

    class Firsts:
        n_excited = 1

        def __init__(self) -> None:
            self.firsts = []

        def add(self, first, u, uniforms) -> None:
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
        def __init__(self, max_workers: int) -> None:
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            pass

        def submit(self, fn, task):
            nonlocal most_unread
            future = ChunkFuture()
            queued.append((future, fn, task))
            unread.append(future)
            most_unread = max(most_unread, len(unread))
            return future

    workers, n_samples = 3, 20 * CHUNK_SIZE + 5
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiments, "_worker_count", lambda threads, n_chunks: threads)
    total = _run(Firsts, UnitarySource.identity(3), 3, n_samples, 0, threads=workers)
    assert total.firsts == list(range(0, n_samples, CHUNK_SIZE))
    assert most_unread == 2 * workers
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


def test_grid_csv_shape():
    grid = averaged_entropy_grid(3, 2, UnitarySource.haar(), 50, 4)
    lines = grid_csv(grid).strip().splitlines()
    assert lines[0] == "k,l,mean,stderr"
    assert len(lines) == 1 + 3 * 2


def test_distribution_csv_shape():
    report = distribution_comparison(2, 2, balanced_splitter(), 300, 2)
    lines = distribution_csv(report).strip().splitlines()
    assert lines[0] == "outcome,exact,empirical,stderr"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "2 0"
