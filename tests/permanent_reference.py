"""Reference permanents the vectorised Ryser implementation is tested against.

``permanent_naive`` sums over all permutations.  ``permanent_gray_kahan`` is
Ryser's formula walked in Gray-code order with running row sums and, from
dim 16 up, a Kahan-compensated accumulation.
"""

from functools import lru_cache
from itertools import islice, permutations

import numpy as np

NAIVE_MAX_DIM = 10
_PERM_CHUNK = 40320
RYSER_MAX_DIM = 30
_COMPENSATED_MIN_DIM = 16


@lru_cache(maxsize=8)
def _permutation_block(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.intp)


def permanent_naive(a: np.ndarray) -> complex:
    """Permanent by direct summation over all permutations; reference oracle.

    Limited to dim <= 10 by the factorial number of terms.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > NAIVE_MAX_DIM:
        raise ValueError(f"permanent_naive supports dim <= {NAIVE_MAX_DIM}, got {n}")
    if n == 0:
        return 1 + 0j
    rows = np.arange(n)
    if n <= 8:
        perms = _permutation_block(n)
        return complex(a[rows, perms].prod(axis=1).sum())
    total = 0 + 0j
    it = permutations(range(n))
    while True:
        block = list(islice(it, _PERM_CHUNK))
        if not block:
            return total
        total += complex(a[rows, np.array(block, dtype=np.intp)].prod(axis=1).sum())


def permanent_gray_kahan(a: np.ndarray) -> complex:
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
        raise ValueError(f"permanent_gray_kahan supports dim <= {RYSER_MAX_DIM}, got {n}")
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
