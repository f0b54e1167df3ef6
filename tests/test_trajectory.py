import json
import re
from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy import stats

from click_walk_reference import click_walk, pick_detector
from dense_reference import random_sector_state
from lontraj.oracle import ENUMERATION_LIMIT, _outcome_ranks, enumerate_outcomes, outcome_law
from lontraj.state import initial_state, sector_masks
from lontraj.trajectory import (
    TrajectoryRecord,
    attach_waiting_times,
    evolve_clicks,
    record_to_json,
    _click_tree,
    _distinct,
    _pick_detectors,
    run_trajectory,
    sample_click_sequence,
)
from lontraj.unitary import beamsplitter_unitary, haar_brickwall, haar_unitary
from permanent_reference import permanent_naive
from sector_reference import click_multiset_law, clicks_to_counts, jump_weights, occupations

INV_SQRT2 = 1.0 / np.sqrt(2.0)
LN2 = float(np.log(2.0))


def balanced_splitter() -> np.ndarray:
    return beamsplitter_unitary(INV_SQRT2, INV_SQRT2, np.pi)


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
def test_the_kernels_click_law_is_the_oracles(n, m, network):
    # Exact, not sampled: the multiset tree goes through the kernel's lowering,
    # the oracle through permanents.  Brick walls have exact-zero weights.
    rng = np.random.default_rng([n, m])
    u = {
        "haar": lambda: haar_unitary(n, rng),
        "brickwall:3": lambda: haar_brickwall(n, 3, rng),
        "identity": lambda: np.eye(n, dtype=complex),
    }[network]()
    law = click_multiset_law(n, m, u)
    outcomes = enumerate_outcomes(n, m)
    multisets = [tuple(np.repeat(np.arange(n), counts).tolist()) for counts in outcomes]
    assert set(law) <= set(multisets)
    tree = np.array([law.get(multiset, 0.0) for multiset in multisets])
    np.testing.assert_allclose(tree, outcome_law(u, outcomes, m), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "n, m, network",
    [(4, 3, "haar"), (6, 6, "haar"), (8, 8, "haar"), (7, 5, "brickwall:3"), (6, 6, "identity")],
)
def test_the_trees_levels_are_the_oracles_outcomes(n, m, network):
    # Rebuild each node's counts by following ``children`` from the root:
    # node p of level k must be outcome p of enumerate_outcomes(n, k).  Brick
    # walls and the identity have canonical children of zero weight, which
    # the tables list all the same.
    rng = np.random.default_rng([n, m, 3])
    u = {
        "haar": lambda: haar_unitary(n, rng),
        "brickwall:3": lambda: haar_brickwall(n, 3, rng),
        "identity": lambda: np.eye(n, dtype=complex),
    }[network]()
    tree = _click_tree(n, m, u, m)
    assert len(tree.children) == m  # every level in the tree
    counts = np.zeros((1, n), dtype=np.int64)  # level 0: the root
    for k, table in enumerate(tree.children):
        assert table.shape == (len(counts), n)
        children = np.full((table.max() + 1, n), -1, dtype=np.int64)
        for detector in range(n):
            stepped = counts.copy()
            stepped[:, detector] += 1
            reached = table[:, detector]
            known = children[reached, 0] >= 0  # every route into a node agrees on its counts
            np.testing.assert_array_equal(children[reached[known]], stepped[known])
            children[reached] = stepped
        counts = children
        assert counts.tolist() == enumerate_outcomes(n, k + 1).tolist()


def test_the_walk_yields_each_trajectorys_node_which_is_the_rank_of_its_counts():
    # Through a full (8, 8) tree a trajectory's node at level k is the index
    # of its clicks' counts in enumerate_outcomes(n, k), and the walk hands
    # over the level itself, gathering nothing.
    n = m = 8
    u = haar_unitary(n, np.random.default_rng(88))
    tree = _click_tree(n, m, u, m)
    assert len(tree.children) == m  # every click in the tree
    uniforms = np.random.default_rng(89).random((500, m))
    counts = np.zeros((500, n), dtype=np.int64)
    for k, detectors, nodes, states in tree.walk(u, uniforms, m):
        assert states is tree.states[k]
        if k:
            counts[np.arange(500), detectors] += 1
        np.testing.assert_array_equal(nodes, _outcome_ranks(counts))
    assert len(np.unique(nodes)) > 100  # many distinct leaves


def test_first_click_uniform_chi_squared():
    n, samples = 6, 10_000
    u = haar_unitary(n, np.random.default_rng(5))
    state = initial_state(n, n)
    rng = np.random.default_rng(17)
    counts = np.zeros(n)
    for _ in range(samples):
        counts[next(evolve_clicks(state, u, rng))[0]] += 1
    expected = samples / n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(1 - 1e-3, df=n - 1)


def test_bell_state_always_clicks_the_same_detector():
    u = balanced_splitter()
    rng = np.random.default_rng(3)
    state = initial_state(2, 2)
    for _ in range(20):
        first = next(evolve_clicks(state, u, rng))[0]
        after = run_trajectory(2, 2, u, 1, np.random.default_rng(int(rng.integers(2**32))))
        assert after.clicks[0] == after.clicks[1]
        assert first in (0, 1)


def test_click_frequencies_match_weights():
    rng = np.random.default_rng(23)
    u = haar_unitary(3, rng)
    state = random_sector_state(3, 2, rng)
    weights = jump_weights(3, 2, state.amplitudes, u)
    probs = weights / weights.sum()
    samples = 100_000
    draw_rng = np.random.default_rng(29)
    counts = np.zeros(3)
    for _ in range(samples):
        counts[next(evolve_clicks(state, u, draw_rng))[0]] += 1
    freqs = counts / samples
    stderr = np.sqrt(probs * (1 - probs) / samples)
    assert np.all(np.abs(freqs - probs) <= 4 * stderr)


def test_hom_sequences_bunch_and_split_evenly():
    u = balanced_splitter()
    runs = 4000
    pairs = {(0, 0): 0, (1, 1): 0}
    for i in range(runs):
        record = run_trajectory(2, 2, u, 1, np.random.default_rng(10_000 + i))
        assert record.clicks in pairs, "mixed HOM sequence observed"
        pairs[record.clicks] += 1
    freq = pairs[(0, 0)] / runs
    assert abs(freq - 0.5) <= 4 * np.sqrt(0.25 / runs)


def test_identity_network_never_entangles():
    record = run_trajectory(4, 4, np.eye(4, dtype=complex), 2, np.random.default_rng(99))
    assert record.entropies == (0.0,) * 5


def test_first_click_entropy_matches_closed_form():
    u = haar_unitary(4, np.random.default_rng(8))
    record = run_trajectory(4, 4, u, 2, np.random.default_rng(1234))
    p = float(np.sum(np.abs(u[record.clicks[0], :2]) ** 2))
    expected = -p * np.log(p) - (1 - p) * np.log(1 - p)
    assert abs(record.entropies[1] - expected) < 1e-10


@pytest.mark.parametrize("n_sites,n_excited", [(3, 2), (5, 5), (6, 1)])
def test_trajectory_terminates_in_the_ground_state(n_sites, n_excited):
    u = haar_unitary(n_sites, np.random.default_rng(n_sites))
    record = run_trajectory(n_sites, n_excited, u, 1, np.random.default_rng(7))
    assert len(record.clicks) == n_excited
    assert len(record.entropies) == n_excited + 1
    assert record.entropies[0] == 0.0
    assert record.entropies[-1] == 0.0


def test_identical_seed_reproduces_the_record():
    u = haar_unitary(5, np.random.default_rng(2))
    a = run_trajectory(5, 3, u, 2, np.random.default_rng(42))
    b = run_trajectory(5, 3, u, 2, np.random.default_rng(42))
    assert a == b


def test_sample_click_sequence_agrees_with_evolve_clicks():
    u = haar_unitary(5, np.random.default_rng(6))
    lean = sample_click_sequence(5, 4, u, np.random.default_rng(31))
    full = tuple(d for d, _ in evolve_clicks(initial_state(5, 4), u, np.random.default_rng(31)))
    assert lean == full


def test_non_unitary_network_breaks_the_weight_sum():
    u = 1.01 * haar_unitary(4, np.random.default_rng(12))
    with pytest.raises(RuntimeError, match="jump weights sum"):
        sample_click_sequence(4, 3, u, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="jump weights sum"):
        next(evolve_clicks(initial_state(4, 3), u, np.random.default_rng(0)))


def test_nan_network_breaks_the_weight_sum():
    # NaN weights must not pass the check and yield made-up clicks.
    u = haar_unitary(4, np.random.default_rng(12))
    u[2, 1] = np.nan
    walk = _click_tree(4, 3, u, 0).walk(u, np.random.default_rng(0).random((1, 3)), 3)
    next(walk)  # the start state
    with pytest.raises(RuntimeError, match="jump weights sum"):
        next(walk)


@pytest.mark.parametrize("call", ["run", "sequence", "evolve", "stack"])
def test_a_unitary_of_the_wrong_shape_fails_at_the_first_click(call):
    u = haar_unitary(3, np.random.default_rng(13))
    stack = np.stack([haar_unitary(4, np.random.default_rng(14 + b)) for b in range(2)])
    rng = np.random.default_rng(0)
    runs = {
        "run": lambda: run_trajectory(4, 2, u, 1, rng),
        "sequence": lambda: sample_click_sequence(4, 2, u, rng),
        "evolve": lambda: next(evolve_clicks(initial_state(4, 2), u, rng)),
        "stack": lambda: run_trajectory(4, 2, stack, 1, rng),  # two unitaries for one trajectory
    }
    shape = re.escape(str((2, 4, 4) if call == "stack" else (3, 3)))
    with pytest.raises(ValueError, match=rf"^unitary shape {shape} does not match 4 sites$"):
        runs[call]()


@pytest.mark.parametrize("n_sites,n_excited", [(6, 5), (8, 8), (7, 3)])
def test_lockstep_group_matches_the_one_trajectory_loop(n_sites, n_excited):
    # Row b of a group walks exactly as trajectory b did alone, bit for bit,
    # with a shared unitary and with one unitary per row.
    size = 5
    start = initial_state(n_sites, n_excited).amplitudes
    shared = haar_unitary(n_sites, np.random.default_rng(40))
    stacked = np.stack([haar_unitary(n_sites, np.random.default_rng(50 + b)) for b in range(size)])
    for u, row_u in ((shared, lambda b: shared), (stacked, lambda b: stacked[b])):
        uniforms = np.array([np.random.default_rng(b).random(n_excited) for b in range(size)])
        root = _click_tree(n_sites, n_excited, shared, 0)
        group = list(root.walk(u, uniforms, n_excited))[1:]
        assert len(group) == n_excited
        for b in range(size):
            alone = click_walk(n_sites, n_excited, start, row_u(b), np.random.default_rng(b))
            for (_, detectors, nodes, states), (detector, row) in zip(group, alone, strict=True):
                rows, states = _distinct(nodes, states)
                assert detectors[b] == detector
                assert states[rows[b]].tobytes() == row.tobytes()


@pytest.mark.parametrize("fault", ["scaled", "nan"])
def test_one_faulty_row_breaks_the_group_weight_sum(fault):
    # The faulty row sits in the middle of the group; its total is printed
    # as a plain float, not as a numpy scalar's repr.
    n = 4
    u = np.stack([haar_unitary(n, np.random.default_rng(60 + b)) for b in range(3)])
    if fault == "scaled":
        u[1] *= 1.01
        total = r"3\.0[0-9]+"
    else:
        u[1, 2, 1] = np.nan
        total = "nan"
    uniforms = np.random.default_rng(0).random((3, 3))
    walk = _click_tree(n, 3, u[0], 0).walk(u, uniforms, 3)
    next(walk)  # the start state
    with pytest.raises(RuntimeError, match=f"^jump weights sum to {total}, expected 3$"):
        next(walk)


def test_evolve_clicks_takes_one_draw_per_click_as_it_starts():
    u = haar_unitary(5, np.random.default_rng(70))
    rng = np.random.default_rng(71)
    reference = np.random.default_rng(71)
    walk = evolve_clicks(initial_state(5, 4), u, rng)
    next(walk)
    reference.random()
    assert rng.bit_generator.state == reference.bit_generator.state
    next(walk)
    reference.random()
    assert rng.bit_generator.state == reference.bit_generator.state


class _FixedDraw:
    """Generator stand-in whose random() always returns the same value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


def test_batched_pick_at_the_edges_of_the_prefix_sums():
    # The largest draw below 1.0 puts r just below the weight total, the
    # last prefix sum, so the last nonzero-weight detector clicks, never a
    # zero-weight one after it.  An r equal to a prefix sum goes right, past
    # the zero-weight detector after it.
    weights = np.array(
        [[0.5, 1.5, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 0.5, 0.0, 1.5], [1.0, 0.0, 1.0, 0.0]]
    )
    below_one = np.nextafter(1.0, 0.0)
    draws = np.array([below_one, 0.3, below_one, 0.5])
    prefix_sums = weights.cumsum(axis=1)
    detectors = _pick_detectors(prefix_sums, np.arange(4), 2, draws)
    assert detectors.tolist() == [1, 0, 3, 2]
    alone = [pick_detector(w, 2, _FixedDraw(r)) for w, r in zip(weights, draws.tolist())]
    assert detectors.tolist() == alone
    # The tree's walk picks from the rows of its trajectories' nodes, with repeats.
    rows, draws = np.array([2, 0, 2, 1, 0]), np.array([below_one, below_one, 0.25, 0.5, 0.2])
    detectors = _pick_detectors(prefix_sums, rows, 2, draws)
    assert detectors.tolist() == [3, 1, 3, 2, 0]
    alone = [pick_detector(weights[b], 2, _FixedDraw(r)) for b, r in zip(rows, draws.tolist())]
    assert detectors.tolist() == alone


def test_mean_clicks_past_enumeration():
    # N = 14 detectors, M = 10 photons: C(23, 10) = 1,144,066 outcomes, beyond
    # ENUMERATION_LIMIT.  Detector i still clicks s_i = sum_{j<M} |U_ij|^2 times
    # on average, whatever the interference.  The two-point correlator of
    # M single photons in the first M inputs is (Walschaers et al., New J.
    # Phys. 18, 032001 (2016)), with a = |U[:, :M]|^2 and U_M = U[:, :M],
    # E[n_i n_j] = s_i s_j + |(U_M U_M^dagger)_ij|^2 - 2 (a a^T)_ij + delta_ij s_i.
    n, m, samples = 14, 10, 1000
    assert comb(n + m - 1, m) > ENUMERATION_LIMIT
    u = haar_unitary(n, np.random.default_rng(1414))
    rng = np.random.default_rng(2024)
    counts = np.array([clicks_to_counts(sample_click_sequence(n, m, u, rng), n) for _ in range(samples)])
    a = np.abs(u[:, :m]) ** 2
    expected = a.sum(axis=1)
    stderr = counts.std(axis=0, ddof=1) / np.sqrt(samples)
    assert np.all(np.abs(counts.mean(axis=0) - expected) <= 5 * stderr)

    u_m = u[:, :m]
    expected_pairs = (
        np.outer(expected, expected)
        + np.abs(u_m @ u_m.conj().T) ** 2
        - 2 * a @ a.T
        + np.diag(expected)
    )
    products = counts[:, :, None] * counts[:, None, :]
    stderr_pairs = products.std(axis=0, ddof=1) / np.sqrt(samples)
    assert np.all(np.abs(products.mean(axis=0) - expected_pairs) <= 5 * stderr_pairs)


def _permanent_state(n: int, m: int, u: np.ndarray, clicks: list[int]) -> np.ndarray:
    # c_D |I> = sum_R Per(U[D, R]) |I \ R>, R over the k-subsets of I = {0..m-1},
    # normalized; every mask with a bit outside I has amplitude zero.
    masks = sector_masks(n, m - len(clicks))
    full = (1 << m) - 1
    amplitudes = np.zeros(len(masks), dtype=complex)
    for r in combinations(range(m), len(clicks)):
        mask = full ^ sum(1 << j for j in r)
        amplitudes[np.searchsorted(masks, mask)] = permanent_naive(u[np.ix_(clicks, r)])
    return amplitudes / np.linalg.norm(amplitudes)


def _assert_equal_up_to_phase(state: np.ndarray, expected: np.ndarray, outside: np.ndarray) -> None:
    assert np.all(state[outside] == 0)
    phase = np.vdot(expected, state)
    assert np.allclose(state, phase / abs(phase) * expected, rtol=0, atol=1e-12)


def test_amplitudes_past_enumeration_are_permanents_of_the_clicked_rows():
    # Past enumeration at (14, 10), the state after clicks D (k <= 4) must be
    # the permanent sum above, up to a global phase.  The tree holds one level
    # (29,029 amplitudes; a second would add 315,315), so the walk's clicks 2
    # to 4 go through _click, as do all of evolve_clicks'.
    n, m, depth = 14, 10, 4
    assert comb(n + m - 1, m) > ENUMERATION_LIMIT
    u = haar_unitary(n, np.random.default_rng(1414))
    tree = _click_tree(n, m, u, m)
    assert [len(s) for s in tree.states] == [1, n]
    outside = [sector_masks(n, m - k) >= 1 << m for k in range(depth + 1)]

    uniforms = np.random.default_rng(77).random((6, m))
    clicked = [[] for _ in uniforms]
    for k, detectors, nodes, states in tree.walk(u, uniforms, depth):
        rows, states = _distinct(nodes, states)
        for b, path in enumerate(clicked):
            if k:
                path.append(int(detectors[b]))
            _assert_equal_up_to_phase(states[rows[b]], _permanent_state(n, m, u, path), outside[k])

    for seed in (5, 6):
        path = []
        walk = evolve_clicks(initial_state(n, m), u, np.random.default_rng(seed))
        for k, (detector, state) in zip(range(1, depth + 1), walk):
            path.append(detector)
            _assert_equal_up_to_phase(state.amplitudes, _permanent_state(n, m, u, path), outside[k])


def test_averaged_occupations_are_unraveling_independent():
    # After k clicks every trajectory holds exactly M - k excitations, and on
    # average each site holds (M - k) / M of one, however the jumps are mixed.
    n, k, runs = 4, 2, 2000
    means = {}
    stderrs = {}
    for label, fresh_haar in (("identity", False), ("haar", True)):
        acc = np.zeros(n)
        acc_sq = np.zeros(n)
        for i in range(runs):
            rng = np.random.default_rng(500 + i)
            u = haar_unitary(n, rng) if fresh_haar else np.eye(n, dtype=complex)
            state = initial_state(n, n)
            for clicks, (_, state) in enumerate(evolve_clicks(state, u, rng), start=1):
                if clicks == k:
                    break
            values = occupations(n, state.n_excited, state.amplitudes)
            assert abs(values.sum() - (n - k)) < 1e-9
            acc += values
            acc_sq += values**2
        means[label] = acc / runs
        variance = np.maximum(acc_sq / runs - means[label] ** 2, 0.0)
        stderrs[label] = np.sqrt(variance / runs)
    combined = np.sqrt(stderrs["identity"] ** 2 + stderrs["haar"] ** 2)
    assert np.all(np.abs(means["identity"] - means["haar"]) <= 5 * combined)


def test_waiting_time_mean_single_excitation():
    rng = np.random.default_rng(71)
    record = TrajectoryRecord(clicks=(0,), entropies=(0.0, 0.0))
    samples = 100_000
    total = 0.0
    for _ in range(samples):
        total += attach_waiting_times(record, 1, rng).waiting_times[0]
    assert abs(total / samples - 1.0) <= 3 / np.sqrt(samples)


def test_waiting_time_total_for_three_excitations():
    rng = np.random.default_rng(72)
    record = TrajectoryRecord(clicks=(0, 1, 2), entropies=(0.0,) * 4)
    samples = 30_000
    totals = np.empty(samples)
    for i in range(samples):
        totals[i] = sum(attach_waiting_times(record, 3, rng).waiting_times)
    expected = 1 / 3 + 1 / 2 + 1.0
    stderr = totals.std(ddof=1) / np.sqrt(samples)
    assert abs(totals.mean() - expected) <= 3 * stderr


def test_waiting_times_empty_for_clickless_record():
    record = TrajectoryRecord(clicks=(), entropies=(0.0,))
    attached = attach_waiting_times(record, 0, np.random.default_rng(0))
    assert attached.waiting_times == ()


def test_waiting_times_cannot_be_attached_twice():
    record = TrajectoryRecord(clicks=(0,), entropies=(0.0, 0.0), waiting_times=(0.5,))
    with pytest.raises(ValueError, match="already"):
        attach_waiting_times(record, 1, np.random.default_rng(0))


def test_clicks_to_counts_examples():
    np.testing.assert_array_equal(clicks_to_counts((0, 2, 0), 3), [2, 0, 1])
    np.testing.assert_array_equal(clicks_to_counts((), 3), [0, 0, 0])
    np.testing.assert_array_equal(clicks_to_counts((1, 1, 1, 1), 2), [0, 4])


def test_clicks_to_counts_rejects_out_of_range():
    with pytest.raises(ValueError):
        clicks_to_counts((0, 3), 3)


def test_record_validation():
    with pytest.raises(ValueError, match="entropies"):
        TrajectoryRecord(clicks=(0,), entropies=(0.0,))
    with pytest.raises(ValueError, match="waiting time"):
        TrajectoryRecord(clicks=(0,), entropies=(0.0, 0.0), waiting_times=())


def test_record_jsonl_roundtrip():
    u = haar_unitary(3, np.random.default_rng(4))
    records = [run_trajectory(3, 2, u, 1, np.random.default_rng(seed)) for seed in (1, 2)]
    records.append(attach_waiting_times(records.pop(), 2, np.random.default_rng(9)))
    for record in records:
        obj = json.loads(record_to_json(record))
        times = obj.pop("waiting_times", None)
        assert set(obj) == {"clicks", "entropies"}
        loaded = TrajectoryRecord(
            clicks=tuple(obj["clicks"]),
            entropies=tuple(obj["entropies"]),
            waiting_times=None if times is None else tuple(times),
        )
        assert loaded == record
