"""Exact click statistics via matrix permanents.

After all excitations decay, the probability of an ordered click sequence is
|Per(U_T)|^2 / M!, where U_T keeps the first M columns of the network unitary and
repeats row i once per click on detector i; unordered outcome probabilities divide by
the multiplicities' factorials instead.  This module provides Ryser's permanent as
one vectorised sum over column subsets, the whole outcome law from one shared subset
table, the single-outcome formulas, and the one order of click outcomes: the
enumeration, the level step that the click-multiset tree shares, and its
inverse, the rank.
"""

from __future__ import annotations

from math import comb, factorial, prod

import numpy as np

RYSER_MAX_DIM = 30
ENUMERATION_LIMIT = 10**6
# Per-detector counts in one enumeration, outcomes times detectors.  It admits
# every full-filling enumeration up to N = M = 11 (3.9e6 counts) and
# enumerate_outcomes(2, 999_999), but not a million outcomes over many detectors.
ENUMERATION_ENTRY_LIMIT = 4 * 10**6
# Complex elements in any one chunk of the subset sums.
_ELEMENT_BUDGET = 2**14
# Complex elements in outcome_law's table of row-sum powers.  Every outcome
# law the CLI can ask for (at most ENUMERATION_LIMIT outcomes) needs under 3e5.
_TABLE_LIMIT = 2**20


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
    reduced to counts (e.g. with ``np.bincount(clicks, minlength=n)``).
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
    so the powers of R are tabulated once: (m + 1) * n * 2^m numbers for n
    detectors, and a law whose table would exceed ``_TABLE_LIMIT`` is rejected
    before anything is allocated.  Outcomes go in chunks of ``_ELEMENT_BUDGET >> m``
    (at least one), so each chunk's product holds at most max(_ELEMENT_BUDGET, 2^m) numbers.
    """
    u = np.asarray(u, dtype=complex)
    counts = np.asarray(outcomes, dtype=np.intp)
    if counts.ndim != 2 or counts.shape[1] != u.shape[0] or (counts < 0).any():
        raise ValueError(f"outcomes must be rows of {u.shape[0]} nonnegative counts")
    if (counts.sum(axis=1) != m).any() or m > min(u.shape[1], RYSER_MAX_DIM):
        raise ValueError(f"counts must sum to m = {m}, at most {RYSER_MAX_DIM} and u's width")
    table = (m + 1) * u.shape[0] * (1 << m)
    if table > _TABLE_LIMIT:
        raise ValueError(
            f"the outcome law at m = {m} over {u.shape[0]} detectors needs a table of "
            f"{table} numbers, above the limit {_TABLE_LIMIT}"
        )
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


def _next_level(n_detectors: int, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level k + 1 of the multiset order from the largest detector ``last[p]`` of each p of level k.

    Levels list multisets lexicographically in their sorted detectors, so
    level k + 1 lists, for each p in order, p plus d for d = last[p]..n - 1:
    p is the child's canonical parent, and d its largest detector.  Returns
    both, per child.  The root, the empty multiset, has ``last`` 0.
    """
    widths = n_detectors - last
    parent = np.repeat(np.arange(len(last)), widths)
    first = np.cumsum(widths) - widths
    return parent, np.arange(len(parent)) - first[parent] + last[parent]


def enumerate_outcomes(n_detectors: int, m: int) -> np.ndarray:
    """All multisets of m clicks over n_detectors, first detector count descending.

    Returns their per-detector counts, one row per outcome, in
    ``np.min_scalar_type(m)``, the smallest unsigned dtype that holds m.  The
    rows are in the order of level m of :func:`_next_level`, which the
    click-multiset tree's levels share.  Built in at most min(m, n_detectors)
    steps, whose levels hold at most twice the outcomes in all.  More than
    ENUMERATION_LIMIT outcomes, or ENUMERATION_ENTRY_LIMIT counts in all, are
    refused before anything is allocated.
    """
    if n_detectors < 1:
        raise ValueError(f"need at least one detector, got {n_detectors}")
    if m < 0:
        raise ValueError(f"need m >= 0 clicks, got m = {m}")
    n_outcomes = comb(n_detectors + m - 1, m)
    if n_outcomes > ENUMERATION_LIMIT:
        raise ValueError(f"{n_outcomes} outcomes exceed the enumeration limit {ENUMERATION_LIMIT}")
    if n_outcomes * n_detectors > ENUMERATION_ENTRY_LIMIT:
        raise ValueError(
            f"{n_outcomes} outcomes of {n_detectors} counts each exceed the enumeration limit "
            f"of {ENUMERATION_ENTRY_LIMIT} counts"
        )
    last = np.zeros(1, dtype=np.intp)
    small = np.min_scalar_type(m)  # no count exceeds m
    if m <= n_detectors:
        # A multiset's counts are its canonical parent's plus one at its largest detector.
        counts = np.zeros((1, n_detectors), dtype=small)
        for _ in range(m):
            parent, last = _next_level(n_detectors, last)
            counts = counts[parent]
            counts[np.arange(len(counts)), last] += 1
    else:
        # Stars and bars: the counts c are the gaps between n_detectors - 1
        # bars at c_0, c_0 + c_1, ..., sorted positions in 0..m, and first
        # count descending is the reverse of the bars' order.
        bars = np.zeros((1, 0), dtype=small)
        for _ in range(n_detectors - 1):
            parent, last = _next_level(m + 1, last)
            bars = np.column_stack([bars[parent], last.astype(small)])
        counts = np.diff(bars[::-1], prepend=small.type(0), append=small.type(m))
    return counts


def _outcome_ranks(counts: np.ndarray) -> np.ndarray:
    """The index in enumerate_outcomes(n, m) of each row of n counts summing to m.

    The combinatorial number system of the order: the outcomes before row c
    agree with it up to some detector i < n - 1 and have more clicks on i.
    With s clicks of c past i, they put at most s - 1 clicks on the
    b = n - 1 - i detectors past i, in C(s + b - 1, b) ways.
    """
    n = counts.shape[1]
    past = counts[:, :0:-1].cumsum(axis=1)[:, ::-1]  # past[:, i]: clicks past detector i < n - 1
    # before[s, i] = C(s + b - 1, b), for s up to the most clicks past any detector.
    before = np.array([[comb(s + b - 1, b) for b in range(n - 1, 0, -1)]
                       for s in range(int(past.max(initial=0)) + 1)], dtype=np.int64)
    return before[past, np.arange(n - 1)].sum(axis=1)
