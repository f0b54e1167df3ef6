import numpy as np
import pytest

from dense_reference import (
    collective_jump,
    dense_cut_matrix,
    dense_entropy,
    embed,
    random_sector_state,
    reverse_sites,
)
from lontraj.state import (
    SCHMIDT_CUTOFF,
    SectorState,
    _entropies,
    _initial_amplitudes,
    _lowered_raw,
    entanglement_entropy,
    entropy_profile,
    initial_state,
    sector_masks,
)
from lontraj.trajectory import _click_walk, evolve_clicks
from lontraj.unitary import beamsplitter_unitary, haar_unitary
from schmidt_reference import schmidt_entropy
from sector_reference import jump_weights, occupations

INV_SQRT2 = 1.0 / np.sqrt(2.0)
LN2 = float(np.log(2.0))


def balanced_splitter() -> np.ndarray:
    return beamsplitter_unitary(INV_SQRT2, INV_SQRT2, np.pi)


def symmetric_bell() -> SectorState:
    return SectorState(2, 1, np.array([INV_SQRT2, INV_SQRT2]))


def state_from_mask(n_sites: int, mask: int) -> SectorState:
    n_excited = bin(mask).count("1")
    masks = sector_masks(n_sites, n_excited)
    amps = np.zeros(len(masks), dtype=complex)
    amps[np.searchsorted(masks, mask)] = 1.0
    return SectorState(n_sites, n_excited, amps)


def test_initial_state_all_excited_pair():
    state = initial_state(2, 2)
    assert state.dim == 1
    np.testing.assert_array_equal(state.amplitudes, [1.0])


def test_initial_state_excites_the_first_sites():
    state = initial_state(7, 4)
    masks = sector_masks(7, 4)
    index = int(np.argmax(np.abs(state.amplitudes)))
    assert masks[index] == 0b0001111
    assert state.amplitudes[index] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_initial_state_all_ground():
    state = initial_state(5, 0)
    assert state.dim == 1
    np.testing.assert_array_equal(state.amplitudes, [1.0])


def test_initial_state_rejects_bad_excitation_count():
    with pytest.raises(ValueError):
        initial_state(3, 4)
    with pytest.raises(ValueError):
        initial_state(3, -1)


def test_sector_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        SectorState(2, 1, np.array([1.0, 1.0]))


def test_jump_weights_uniform_from_all_excited():
    u = haar_unitary(4, np.random.default_rng(2))
    weights = jump_weights(4, 4, _initial_amplitudes(4, 4), u)
    np.testing.assert_allclose(weights, np.ones(4), atol=1e-12)


def test_jump_weights_bell_state_only_symmetric_detector():
    bell = symmetric_bell()
    weights = jump_weights(2, 1, bell.amplitudes, balanced_splitter())
    np.testing.assert_allclose(weights, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("n_excited", [1, 2])
def test_jump_weights_match_dense_reference(n_excited):
    rng = np.random.default_rng(31 + n_excited)
    u = haar_unitary(3, rng)
    state = random_sector_state(3, n_excited, rng)
    dense = embed(state)
    expected = []
    for detector in range(3):
        jumped = collective_jump(u, detector) @ dense
        expected.append(np.vdot(jumped, jumped).real)
    lowered = _lowered_raw(3, n_excited, state.amplitudes, u)
    np.testing.assert_allclose(np.linalg.norm(lowered, axis=1) ** 2, expected, atol=1e-12)


@pytest.mark.parametrize("n_sites,n_excited", [(4, 1), (5, 3), (6, 6)])
def test_jump_weights_sum_to_excitation_count(n_sites, n_excited):
    rng = np.random.default_rng(7)
    for _ in range(5):
        state = random_sector_state(n_sites, n_excited, rng)
        u = haar_unitary(n_sites, rng)
        assert abs(jump_weights(n_sites, n_excited, state.amplitudes, u).sum() - n_excited) < 1e-9


def first_click(n_sites: int, u: np.ndarray, uniform: float) -> tuple[int, np.ndarray]:
    # The kernel's first click from full filling, drawn with the given uniform.
    walk = _click_walk(n_sites, n_sites, _initial_amplitudes(n_sites, n_sites), u, [[uniform]])
    detectors, rows, states = next(walk)
    return int(detectors[0]), states[rows[0]]


def test_apply_jump_symmetric_click_gives_bell_state():
    # Both detectors weigh 1, so a uniform below 1/2 picks detector 0.
    detector, amplitudes = first_click(2, balanced_splitter(), 0.25)
    assert detector == 0
    np.testing.assert_allclose(amplitudes, symmetric_bell().amplitudes, atol=1e-12)


def test_apply_jump_identity_clears_one_bit():
    # Each local detector weighs 1, so a uniform in [2/4, 3/4) picks detector 2.
    detector, amplitudes = first_click(4, np.eye(4, dtype=complex), 0.6)
    assert detector == 2
    expected = state_from_mask(4, 0b1011)
    np.testing.assert_allclose(amplitudes, expected.amplitudes, atol=1e-14)


def test_apply_jump_matches_dense_reference():
    rng = np.random.default_rng(12)
    u = haar_unitary(4, rng)
    state = random_sector_state(4, 2, rng)
    detector = 1
    jumped = collective_jump(u, detector) @ embed(state)
    jumped /= np.linalg.norm(jumped)
    # The uniform at the middle of detector 1's share of the inverse CDF.
    weights = jump_weights(4, 2, state.amplitudes, u)
    uniform = (weights[0] + weights[1] / 2) / weights.sum()
    (detectors, rows, states), *_ = _click_walk(4, 2, state.amplitudes, u, [[uniform]])
    assert detectors[0] == detector
    result = embed(SectorState(4, 1, states[rows[0]]))
    fidelity = abs(np.vdot(jumped, result))
    assert fidelity >= 1 - 1e-10


def test_apply_jump_preserves_normalization_along_cascades():
    rng = np.random.default_rng(40)
    u = haar_unitary(6, rng)
    for _, state in evolve_clicks(initial_state(6, 6), u, rng):
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_entropy_of_product_state_is_zero():
    state = state_from_mask(3, 0b101)
    for cut in (1, 2):
        assert entanglement_entropy(state, cut) == 0.0


def test_entropy_of_bell_state_is_ln2():
    assert abs(entanglement_entropy(symmetric_bell(), 1) - LN2) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_single_click_entropy_is_binary_entropy_of_row_mass(seed):
    rng = np.random.default_rng(100 + seed)
    n = 6
    u = haar_unitary(n, rng)
    detector, state = next(evolve_clicks(initial_state(n, n), u, rng))
    for cut in range(1, n):
        p = float(np.sum(np.abs(u[detector, :cut]) ** 2))
        expected = -p * np.log(p) - (1 - p) * np.log(1 - p)
        assert abs(entanglement_entropy(state, cut) - expected) < 1e-10


@pytest.mark.parametrize("n_sites,n_excited", [(4, 2), (5, 2), (6, 3)])
def test_entropy_symmetric_under_site_reversal(n_sites, n_excited):
    rng = np.random.default_rng(55)
    state = random_sector_state(n_sites, n_excited, rng)
    reversed_state = reverse_sites(state)
    for cut in range(1, n_sites):
        a = entanglement_entropy(state, cut)
        b = entanglement_entropy(reversed_state, n_sites - cut)
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("n_sites,n_excited", [(4, 2), (6, 3), (6, 5)])
def test_entropy_matches_dense_reference(n_sites, n_excited):
    rng = np.random.default_rng(60)
    state = random_sector_state(n_sites, n_excited, rng)
    dense = embed(state)
    for cut in range(1, n_sites):
        assert abs(entanglement_entropy(state, cut) - dense_entropy(dense, n_sites, cut)) < 1e-10


def test_entropy_within_schmidt_rank_cap():
    rng = np.random.default_rng(61)
    state = random_sector_state(6, 3, rng)
    for cut in range(1, 6):
        value = entanglement_entropy(state, cut)
        assert 0.0 <= value <= min(cut, 6 - cut) * LN2 + 1e-9


def test_entropy_rejects_bad_cut():
    state = initial_state(4, 2)
    with pytest.raises(ValueError):
        entanglement_entropy(state, 0)
    with pytest.raises(ValueError):
        entanglement_entropy(state, 4)


def test_entropy_profile_matches_per_cut_calls():
    rng = np.random.default_rng(62)
    state = random_sector_state(5, 2, rng)
    profile = entropy_profile(state)
    assert profile.shape == (4,)
    for cut in range(1, 5):
        assert profile[cut - 1] == entanglement_entropy(state, cut)


def kernel_test_state(n_sites: int, n_excited: int, seed: int) -> SectorState:
    # (8, 8) stands for the state one click after full filling at N = 8.
    rng = np.random.default_rng(seed)
    if n_excited == n_sites:
        u = haar_unitary(n_sites, rng)
        return next(evolve_clicks(initial_state(n_sites, n_sites), u, rng))[1]
    return random_sector_state(n_sites, n_excited, rng)


@pytest.mark.parametrize("n_sites,n_excited", [(6, 3), (8, 8), (10, 5), (12, 6), (16, 8)])
def test_entropy_kernel_matches_per_block_svd_reference(n_sites, n_excited):
    state = kernel_test_state(n_sites, n_excited, 70 + n_sites)
    profile = entropy_profile(state)
    reference = [
        schmidt_entropy(state.n_sites, state.n_excited, state.amplitudes, cut)
        for cut in range(1, n_sites)
    ]
    assert np.abs(profile - reference).max() <= 1e-12


def test_entropy_kernel_on_rank_deficient_state_near_the_cutoff():
    # Across the middle cut of (6, 3) the blocks hold 1, 3, 3 and 1 excitations
    # on the left.  Give block 1 rank 1 and blocks 0 and 3 weights just above
    # and just below the cutoff; block 2 has rank 2.  The kept spectrum is
    # {w, 3 SCHMIDT_CUTOFF, a, b}, the dropped weight (and the zero
    # eigenvalues) contribute nothing.
    n_sites, n_excited, cut = 6, 3, 3
    masks = sector_masks(n_sites, n_excited)
    amps = np.zeros(len(masks), dtype=complex)

    def put(left: int, right: int, value: complex) -> None:
        amps[np.searchsorted(masks, left | (right << cut))] = value

    above, below = 3 * SCHMIDT_CUTOFF, 0.3 * SCHMIDT_CUTOFF
    put(0b000, 0b111, np.sqrt(above))
    put(0b111, 0b000, np.sqrt(below))
    left_vec, right_vec = np.array([0.6, 0.8j, 0.0]), np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    for i, left in enumerate((0b001, 0b010, 0b100)):
        for j, right in enumerate((0b011, 0b101, 0b110)):
            put(left, right, np.sqrt(0.5) * left_vec[i] * right_vec[j])
    for left, right, weight in ((0b011, 0b001, 0.3), (0b101, 0b010, 0.2)):
        put(left, right, np.sqrt(weight - (above + below) / 2))
    state = SectorState(n_sites, n_excited, amps / np.linalg.norm(amps))

    kept = np.array([0.5, 0.3, 0.2, above]) - np.array([0, 1, 1, 0]) * (above + below) / 2
    kept /= kept.sum()
    expected = float(-(kept * np.log(kept)).sum())
    value = entanglement_entropy(state, cut)
    assert abs(value - expected) < 1e-12
    assert abs(value - schmidt_entropy(n_sites, n_excited, state.amplitudes, cut)) < 1e-12


@pytest.mark.parametrize("n_sites,n_excited", [(6, 3), (10, 9), (16, 8)])
def test_entropy_of_a_cut_does_not_depend_on_what_is_computed_with_it(n_sites, n_excited):
    # At (16, 8) the middle cut's spectrum has 256 entries, more than one
    # 128-element block of numpy's pairwise sum.
    rng = np.random.default_rng(80 + n_sites)
    rows = np.stack([random_sector_state(n_sites, n_excited, rng).amplitudes for _ in range(6)])
    cuts = tuple(range(1, n_sites))
    group = _entropies(n_sites, n_excited, rows, cuts)
    for b in range(len(rows)):
        assert np.array_equal(_entropies(n_sites, n_excited, rows[b : b + 1], cuts)[0], group[b])
    for index, cut in enumerate(cuts):
        assert np.array_equal(_entropies(n_sites, n_excited, rows, (cut,))[:, 0], group[:, index])


def test_dense_cut_matrix_reproduces_reduced_state():
    rng = np.random.default_rng(63)
    state = random_sector_state(5, 3, rng)
    mat = dense_cut_matrix(state, 2)
    rho = mat @ mat.conj().T
    dense = embed(state).reshape(1 << 3, 1 << 2).T
    np.testing.assert_allclose(rho, dense @ dense.conj().T, atol=1e-12)
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_site_occupations_track_excited_sites():
    state = initial_state(5, 2)
    np.testing.assert_allclose(occupations(5, 2, state.amplitudes), [1, 1, 0, 0, 0], atol=1e-14)
    rng = np.random.default_rng(64)
    random_state = random_sector_state(6, 4, rng)
    values = occupations(6, 4, random_state.amplitudes)
    assert abs(values.sum() - 4.0) < 1e-10
    assert np.all(values >= 0)
