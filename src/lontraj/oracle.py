"""Exact click statistics via matrix permanents.

After all excitations decay, the probability of an ordered click sequence is
|Per(U_T)|^2 / M!, where U_T keeps the first M columns of the network
unitary and repeats row i once per click on detector i; unordered outcome
probabilities divide by the multiplicities' factorials instead.  This module
provides Ryser's permanent algorithm, the probability formulas, conditional
click probabilities evaluated on sector states, and full outcome enumeration
for small instances.
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np

from .state import apply_jump, initial_state, jump_weights

RYSER_MAX_DIM = 30
ENUMERATION_LIMIT = 10**6
_COMPENSATED_MIN_DIM = 16


def permanent_ryser(a: np.ndarray) -> complex:
    """Permanent via Ryser's inclusion-exclusion with Gray-code subset updates.

    Each of the 2^n - 1 column subsets differs from the previous one by a
    single column, so the running row sums are updated in O(n) per subset.
    The alternating sum cancels heavily; for dim >= 16 the accumulation is
    Kahan-compensated.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > RYSER_MAX_DIM:
        raise ValueError(f"permanent_ryser supports dim <= {RYSER_MAX_DIM}, got {n}")
    if n == 0:
        return 1 + 0j
    columns = [a[:, j].tolist() for j in range(n)]
    row_sums = [0j] * n
    compensate = n >= _COMPENSATED_MIN_DIM
    total = 0j
    carry = 0j
    gray = 0
    n_selected = 0
    for k in range(1, 1 << n):
        bit = k & -k
        j = bit.bit_length() - 1
        gray ^= bit
        col = columns[j]
        if gray & bit:
            n_selected += 1
            for i in range(n):
                row_sums[i] += col[i]
        else:
            n_selected -= 1
            for i in range(n):
                row_sums[i] -= col[i]
        product = 1 + 0j
        for value in row_sums:
            product *= value
        if (n - n_selected) % 2:
            product = -product
        if compensate:
            y = product - carry
            t = total + y
            carry = (t - total) - y
            total = t
        else:
            total += product
    return total


def build_repeated_matrix(u: np.ndarray, m: int, counts) -> np.ndarray:
    """The M x M matrix whose permanent gives a click outcome's probability.

    Keeps the first M columns of ``u`` with row i repeated ``counts[i]``
    times, rows in ascending detector order (the permanent is row-order
    invariant, so this is a canonical form).  ``counts[i]`` is the number of
    clicks on detector i; click sequences are first reduced to counts (e.g.
    with ``trajectory.clicks_to_counts``).
    """
    u = np.asarray(u, dtype=complex)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (u.shape[0],):
        raise ValueError(f"counts length {counts.shape} does not match {u.shape[0]} detectors")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    if counts.sum() != m:
        raise ValueError(f"counts sum to {counts.sum()}, expected {m}")
    rows = np.repeat(np.arange(u.shape[0]), counts)
    return u[np.ix_(rows, np.arange(m))]


def sequence_probability(u: np.ndarray, clicks, m: int) -> float:
    """Probability of one ordered click sequence: |Per(U_T)|^2 / M!.

    Identical for every ordering of the same per-detector counts.
    """
    clicks = list(clicks)
    if len(clicks) != m:
        raise ValueError(f"expected a sequence of {m} clicks, got {len(clicks)}")
    counts = np.bincount(clicks, minlength=np.asarray(u).shape[0])
    perm = permanent_ryser(build_repeated_matrix(u, m, counts))
    return min(max(abs(perm) ** 2 / factorial(m), 0.0), 1.0)


def outcome_probability(u: np.ndarray, counts, m: int) -> float:
    """Probability of an unordered outcome: |Per(U_T)|^2 / prod_i(counts_i!)."""
    counts = np.asarray(counts, dtype=np.int64)
    perm = permanent_ryser(build_repeated_matrix(u, m, counts))
    denom = 1
    for c in counts:
        denom *= factorial(int(c))
    return min(max(abs(perm) ** 2 / denom, 0.0), 1.0)


def conditional_click_probability(
    u: np.ndarray, prior, next_detector: int, m: int, n: int
) -> float:
    """Probability that ``next_detector`` clicks next, given the clicks so far.

    Evaluates the jump weight of ``next_detector`` on the normalized state
    reached after the prior sequence, divided by the remaining excitation
    count; the product of these along a full sequence reproduces
    :func:`sequence_probability`.
    """
    prior = list(prior)
    k = len(prior)
    if k >= m:
        raise ValueError(f"prior sequence of {k} clicks exhausts the {m} excitations")
    state = initial_state(n, m)
    for detector in prior:
        state = apply_jump(state, u, detector)
    weights = jump_weights(state, u)
    if not 0 <= next_detector < n:
        raise ValueError(f"detector {next_detector} outside [0, {n})")
    return float(weights[next_detector]) / (m - k)


def enumerate_outcomes(n_detectors: int, m: int) -> list[tuple[int, ...]]:
    """All multisets of m clicks over n_detectors, first detector count descending."""
    if n_detectors < 1:
        raise ValueError(f"need at least one detector, got {n_detectors}")
    n_outcomes = comb(n_detectors + m - 1, m)
    if n_outcomes > ENUMERATION_LIMIT:
        raise ValueError(f"{n_outcomes} outcomes exceed the enumeration limit {ENUMERATION_LIMIT}")
    outcomes: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            outcomes.append(prefix + (remaining,))
            return
        for c in range(remaining, -1, -1):
            extend(prefix + (c,), remaining - c, slots - 1)

    extend((), m, n_detectors)
    return outcomes
