"""Exact click statistics via matrix permanents.

After all excitations decay, the probability of an ordered click sequence is
|Per(U_T)|^2 / M!, where U_T keeps the first M columns of the network unitary and
repeats row i once per click on detector i; unordered outcome probabilities divide by
the multiplicities' factorials instead.  This module provides Ryser's permanent as
one vectorised sum over column subsets, the whole outcome law from one shared subset
table, the single-outcome formulas, conditional click probabilities and enumeration.
"""

from __future__ import annotations

from math import comb, factorial, prod

import numpy as np

from .state import apply_jump, initial_state, jump_weights

RYSER_MAX_DIM = 30
ENUMERATION_LIMIT = 10**6
# Complex elements in any one temporary of the subset sums; it also bounds the
# lowered array of a lockstep click group (experiments._group_size).
_ELEMENT_BUDGET = 2**14


def _subset_sums(a: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs (-1)^(ncols - |S|) and row sums rows[i, S] = sum_{j in S} a[i, j] of the
    column subsets S = start, ..., stop - 1, where bit j of S selects column j."""
    bits = (np.arange(start, stop) >> np.arange(a.shape[1])[:, None]) & 1
    return 1.0 - 2.0 * ((a.shape[1] - bits.sum(axis=0)) & 1), a @ bits


def permanent_ryser(a: np.ndarray) -> complex:
    """Permanent by Ryser's formula, Per(A) = sum_S (-1)^(n - |S|) prod_i sum_{j in S} A_ij.

    The 2^n column subsets S go in chunks of at most ``_ELEMENT_BUDGET`` row sums.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > RYSER_MAX_DIM:
        raise ValueError(f"permanent_ryser supports dim <= {RYSER_MAX_DIM}, got {n}")
    step = max(1, _ELEMENT_BUDGET // max(n, 1))
    total = 0j
    for start in range(0, 1 << n, step):
        sign, rows = _subset_sums(a, start, min(start + step, 1 << n))
        total += complex(rows.prod(axis=0) @ sign)
    return total


def build_repeated_matrix(u: np.ndarray, m: int, counts) -> np.ndarray:
    """The M x M matrix whose permanent gives a click outcome's probability.

    Keeps the first M columns of ``u`` with row i repeated ``counts[i]`` times, rows in
    ascending detector order (a canonical form: the permanent is row-order invariant).
    ``counts[i]`` is the number of clicks on detector i; click sequences are first
    reduced to counts (e.g. with ``trajectory.clicks_to_counts``).
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
    denom = prod(factorial(int(c)) for c in counts)
    return min(max(abs(perm) ** 2 / denom, 0.0), 1.0)


def outcome_law(u: np.ndarray, outcomes, m: int) -> np.ndarray:
    """:func:`outcome_probability` of every outcome, from one shared subset table.

    All permanents sum over the column subsets S of the first m columns, with
    Per = sum_S (-1)^(m - |S|) prod_i R[S, i]^(c_i) and R[S, i] = sum_{j in S} u_ij,
    so the powers of R are tabulated once.  Outcomes go in chunks of
    ``_ELEMENT_BUDGET >> m``, so no temporary exceeds ``_ELEMENT_BUDGET`` numbers.
    """
    u = np.asarray(u, dtype=complex)
    counts = np.asarray(outcomes, dtype=np.intp)
    if counts.ndim != 2 or counts.shape[1] != u.shape[0] or (counts < 0).any():
        raise ValueError(f"outcomes must be rows of {u.shape[0]} nonnegative counts")
    if (counts.sum(axis=1) != m).any() or m > min(u.shape[1], RYSER_MAX_DIM):
        raise ValueError(f"counts must sum to m = {m}, at most {RYSER_MAX_DIM} and u's width")
    sign, rows = _subset_sums(u[:, :m], 0, 1 << m)
    powers = np.cumprod([np.ones_like(rows)] + [rows] * m, axis=0)  # [c, i, S]: rows[i, S]^c
    denominators = np.array([factorial(c) for c in range(m + 1)], dtype=float)[counts].prod(axis=1)
    step = max(1, _ELEMENT_BUDGET >> m)
    perms = np.empty(len(counts), dtype=complex)
    for start in range(0, len(counts), step):
        chunk = counts[start : start + step]
        terms = powers[chunk[:, 0], 0]
        for i in range(1, u.shape[0]):
            terms *= powers[chunk[:, i], i]
        perms[start : start + step] = terms @ sign
    return np.clip(np.abs(perms) ** 2 / denominators, 0.0, 1.0)


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
