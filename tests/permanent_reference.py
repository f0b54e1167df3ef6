"""Permutation-sum permanent: the reference the Ryser implementation is tested against."""

from functools import lru_cache
from itertools import islice, permutations

import numpy as np

NAIVE_MAX_DIM = 10
_PERM_CHUNK = 40320


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
