import itertools
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from lontraj import oracle
from lontraj.oracle import (
    build_repeated_matrix,
    enumerate_outcomes,
    outcome_law,
    outcome_probability,
    permanent_ryser,
    sequence_probability,
)
from lontraj.unitary import beamsplitter_unitary, haar_unitary
from permanent_reference import permanent_gray_kahan, permanent_naive
from sector_reference import conditional_click_probability

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def balanced_splitter() -> np.ndarray:
    return beamsplitter_unitary(INV_SQRT2, INV_SQRT2, np.pi)


def random_complex(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_permanent_naive_identity():
    assert permanent_naive(np.eye(3)) == 1.0


def test_permanent_naive_2x2_definition():
    a, b, c, d = 1.5, -2.0 + 1j, 0.25j, 3.0
    assert abs(permanent_naive(np.array([[a, b], [c, d]])) - (a * d + b * c)) < 1e-14


def test_permanent_naive_all_ones():
    assert abs(permanent_naive(np.ones((4, 4))) - factorial(4)) < 1e-12


def test_permanent_naive_size_guard():
    with pytest.raises(ValueError, match="dim <= 10"):
        permanent_naive(np.eye(11))


def test_permanent_ryser_identity():
    assert abs(permanent_ryser(np.eye(5)) - 1.0) < 1e-14


def test_permanent_ryser_1x1():
    z = 0.3 - 1.7j
    assert permanent_ryser(np.array([[z]])) == z


def test_permanent_ryser_size_guard():
    with pytest.raises(ValueError, match="dim <= 30"):
        permanent_ryser(np.eye(31))


@pytest.mark.parametrize("n", range(2, 9))
def test_ryser_agrees_with_naive(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        a = random_complex(n, rng)
        naive = permanent_naive(a)
        ryser = permanent_ryser(a)
        assert abs(ryser - naive) / abs(naive) < 1e-10


def test_ryser_compensated_path_on_block_diagonal():
    # Per of a block-diagonal matrix is the product of the block permanents;
    # dim 16 exercises the compensated accumulation.
    rng = np.random.default_rng(16)
    blocks = [random_complex(2, rng) for _ in range(8)]
    a = np.zeros((16, 16), dtype=complex)
    expected = 1 + 0j
    for i, block in enumerate(blocks):
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block
        expected *= permanent_naive(block)
    assert abs(permanent_ryser(a) - expected) / abs(expected) < 1e-10


@pytest.mark.parametrize("n", [16, 18])
def test_ryser_agrees_with_the_gray_code_loop(n):
    a = haar_unitary(n, np.random.default_rng(1000 + n))
    assert permanent_ryser(a) == pytest.approx(permanent_gray_kahan(a), rel=1e-9, abs=0)


def test_permanent_of_the_empty_matrix_is_one():
    assert permanent_ryser(np.zeros((0, 0))) == 1.0


def test_build_repeated_matrix_double_click():
    u = balanced_splitter()
    np.testing.assert_array_equal(build_repeated_matrix(u, 2, (2, 0)), np.array([u[0], u[0]]))


def test_build_repeated_matrix_coincidence_is_the_unitary():
    u = balanced_splitter()
    np.testing.assert_array_equal(build_repeated_matrix(u, 2, (1, 1)), u)


def test_build_repeated_matrix_collision_row():
    u = haar_unitary(7, np.random.default_rng(70))
    counts = (1, 0, 0, 2, 1, 0, 0)
    realized = build_repeated_matrix(u, 4, counts)
    assert realized.shape == (4, 4)
    np.testing.assert_array_equal(realized[1], u[3, :4])
    np.testing.assert_array_equal(realized[2], u[3, :4])


def test_build_repeated_matrix_rejects_count_mismatch():
    with pytest.raises(ValueError, match="sum"):
        build_repeated_matrix(np.eye(3, dtype=complex), 2, (1, 1, 1))


def test_hom_sequence_probabilities():
    u = balanced_splitter()
    assert abs(sequence_probability(u, (0, 0), 2) - 0.5) < 1e-12
    assert abs(sequence_probability(u, (1, 1), 2) - 0.5) < 1e-12
    assert sequence_probability(u, (0, 1), 2) == 0.0
    assert sequence_probability(u, (1, 0), 2) == 0.0


def test_identity_network_sequences_are_uniform_over_orderings():
    u = np.eye(3, dtype=complex)
    for clicks in itertools.permutations(range(3)):
        assert abs(sequence_probability(u, clicks, 3) - 1 / factorial(3)) < 1e-12


def test_sequence_probability_rejects_wrong_length():
    with pytest.raises(ValueError, match="sequence"):
        sequence_probability(np.eye(2, dtype=complex), (0,), 2)


def test_hom_outcome_probabilities():
    u = balanced_splitter()
    assert abs(outcome_probability(u, (2, 0), 2) - 0.5) < 1e-12
    assert abs(outcome_probability(u, (0, 2), 2) - 0.5) < 1e-12
    assert outcome_probability(u, (1, 1), 2) == 0.0


@pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (5, 2)])
def test_outcome_probabilities_normalize(n, m):
    u = haar_unitary(n, np.random.default_rng(n * 10 + m))
    total = sum(outcome_probability(u, counts, m) for counts in enumerate_outcomes(n, m))
    assert abs(total - 1.0) < 1e-9


@pytest.mark.parametrize("n,m", [(7, 4), (8, 8), (12, 6)])
def test_outcome_law_matches_the_per_outcome_oracle(n, m):
    u = haar_unitary(n, np.random.default_rng(n * 100 + m))
    outcomes = enumerate_outcomes(n, m)
    law = outcome_law(u, outcomes, m)
    per_outcome = np.array([outcome_probability(u, c, m) for c in outcomes])
    assert np.abs(law - per_outcome).max() <= 1e-15
    assert abs(law.sum() - 1.0) < 1e-12


def test_outcome_law_in_small_chunks(monkeypatch):
    u = haar_unitary(7, np.random.default_rng(74))
    outcomes = enumerate_outcomes(7, 4)
    whole = outcome_law(u, outcomes, 4)
    # 2^7 elements per temporary: chunks of 8 outcomes, the last of 210 holds 2.
    monkeypatch.setattr(oracle, "_ELEMENT_BUDGET", 2**7)
    chunked = outcome_law(u, outcomes, 4)
    per_outcome = np.array([outcome_probability(u, c, 4) for c in outcomes])
    assert len(outcomes) % (2**7 >> 4) == 2
    np.testing.assert_array_equal(chunked, whole)
    assert np.abs(chunked - per_outcome).max() <= 1e-15


def test_outcome_law_hom_and_no_excitations():
    u = balanced_splitter()
    bunched, coincidence, _ = outcome_law(u, [(2, 0), (1, 1), (0, 2)], 2)
    assert abs(bunched - 0.5) < 1e-12
    assert coincidence == 0.0
    assert outcome_law(haar_unitary(3, np.random.default_rng(3)), [(0, 0, 0)], 0).tolist() == [1.0]


def test_outcome_law_rejects_bad_outcomes():
    u = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="3 nonnegative counts"):
        outcome_law(u, [(1, 1)], 2)
    with pytest.raises(ValueError, match="sum to m = 2"):
        outcome_law(u, [(1, 0, 0)], 2)
    # The power table would hold 21 * 20 * 2^20 numbers (7 GB); nothing is allocated.
    with pytest.raises(ValueError, match="table of 440401920 numbers, above the limit 1048576"):
        outcome_law(np.eye(20, dtype=complex), [(1,) * 20], 20)


def test_sequence_probability_is_ordering_invariant():
    u = haar_unitary(4, np.random.default_rng(44))
    orderings = set(itertools.permutations((0, 0, 1)))
    values = [sequence_probability(u, clicks, 3) for clicks in orderings]
    assert max(values) - min(values) < 1e-12


def test_conditional_uniform_first_click_from_all_excited():
    u = haar_unitary(5, np.random.default_rng(50))
    for detector in range(5):
        assert abs(conditional_click_probability(u, (), detector, 5, 5) - 1 / 5) < 1e-12


def test_conditional_bell_state_repeats_the_click():
    u = balanced_splitter()
    assert abs(conditional_click_probability(u, (0,), 0, 2, 2) - 1.0) < 1e-12
    assert conditional_click_probability(u, (0,), 1, 2, 2) < 1e-12


def test_conditional_chain_rule_reproduces_sequence_probability():
    rng = np.random.default_rng(4)
    u = haar_unitary(4, rng)
    for _ in range(10):
        clicks = tuple(int(c) for c in rng.integers(0, 4, size=3))
        product = 1.0
        for k in range(3):
            product *= conditional_click_probability(u, clicks[:k], clicks[k], 3, 4)
        assert abs(product - sequence_probability(u, clicks, 3)) < 1e-9


def test_enumerate_outcomes_pair():
    assert enumerate_outcomes(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]
    # At the enumeration limit: one level step per click would hold
    # 5 * 10^11 multisets; the bars between the detectors take one step.
    outcomes = enumerate_outcomes(2, 999_999)
    assert len(outcomes) == 10**6 and outcomes[1].tolist() == [999_998, 1]


def test_enumerate_outcomes_counts_collision_space():
    outcomes = enumerate_outcomes(7, 4)
    assert len(outcomes) == 210
    assert len(set(map(tuple, outcomes.tolist()))) == 210
    assert all(sum(c) == 4 for c in outcomes.tolist())


def test_enumerate_outcomes_single_detector():
    assert enumerate_outcomes(1, 3).tolist() == [[3]]
    assert enumerate_outcomes(1, 10**9).tolist() == [[10**9]]  # in no step at all


def test_enumerate_outcomes_size_guard():
    for n, m, message in [
        (40, 10, "^8217822536 outcomes exceed the enumeration limit 1000000$"),
        (3, -1, "^need m >= 0 clicks, got m = -1$"),
        (0, 2, "^need at least one detector, got 0$"),
        # Within the outcome limit, but 10^12 and 4.5e7 counts in all.
        (10**6, 1, "^1000000 outcomes of 1000000 counts each exceed the enumeration limit "
                   "of 4000000 counts$"),
        (63, 4, "^720720 outcomes of 63 counts each exceed the enumeration limit "
                "of 4000000 counts$"),
    ]:
        with pytest.raises(ValueError, match=message):
            enumerate_outcomes(n, m)


def test_enumerate_outcomes_admits_what_fits_the_count_limit():
    # A million outcomes of two counts, and every full filling up to N = M = 11.
    assert oracle.ENUMERATION_ENTRY_LIMIT == 4 * 10**6
    outcomes = enumerate_outcomes(2, 999_999)
    assert len(outcomes) == 10**6
    assert outcomes[0].tolist() == [999_999, 0] and outcomes[-1].tolist() == [0, 999_999]
    assert len(enumerate_outcomes(11, 11)) * 11 == 3_879_876 <= oracle.ENUMERATION_ENTRY_LIMIT


def test_the_largest_full_filling_enumeration_is_one_small_array():
    # N = M = 11, the largest full filling the CLI admits: 352,716 rows of 11
    # one-byte counts.  The bound lies between the array's rise (about
    # 16 MiB) and that of a list of int tuples (about 57 MiB).
    script = (
        "import resource\n"
        "from lontraj.oracle import enumerate_outcomes\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "outcomes = enumerate_outcomes(11, 11)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(after - before, outcomes.shape, outcomes.dtype)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", script]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rise_kib, shape = done.stdout.split(maxsplit=1)
    assert int(rise_kib) < 30 * 1024  # ru_maxrss is in KiB on Linux
    assert shape == "(352716, 11) uint8\n"


ORDER_CASES = [(1, 3), (2, 2), (3, 0), (3, 5), (4, 3), (7, 4), (8, 8), (10, 10)]


@pytest.mark.parametrize("n, m", ORDER_CASES + [(5, 9), (2, 40)])
def test_enumerate_outcomes_is_lexicographic_in_sorted_detectors(n, m):
    # First count descending is the lexicographic order of the sorted
    # detectors, which combinations_with_replacement yields.  More clicks
    # than detectors go through the bars between detectors instead.  Both
    # build the smallest unsigned dtype that holds m.
    multisets = itertools.combinations_with_replacement(range(n), m)
    expected = [np.bincount(s, minlength=n).tolist() for s in multisets]
    outcomes = enumerate_outcomes(n, m)
    assert outcomes.tolist() == expected
    assert outcomes.dtype == np.min_scalar_type(m)


@pytest.mark.parametrize("n, m", ORDER_CASES)
def test_outcome_ranks_invert_the_enumeration(n, m):
    # Covers no clicks, more clicks than detectors and a single detector.
    outcomes = enumerate_outcomes(n, m)
    ranks = oracle._outcome_ranks(outcomes)
    assert ranks.dtype == np.int64
    np.testing.assert_array_equal(ranks, np.arange(len(outcomes)))
