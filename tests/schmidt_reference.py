"""Reference entanglement entropies the batched Schmidt kernel is tested against.

One cut of one state at a time: each excitation block of the amplitude
matrix across the cut is scattered into a dense matrix and its singular
values are taken with ``np.linalg.svd``; the squared values of every block
form the Schmidt spectrum.
"""

from functools import lru_cache
from math import comb

import numpy as np

from lontraj.state import SCHMIDT_CUTOFF, sector_masks


@lru_cache(maxsize=None)
def _cut_tables(n_sites: int, n_excited: int, cut: int):
    # For each block b (excitations left of the cut), (sel, flat, shape):
    # ``matrix.flat[flat] = amplitudes[sel]`` fills a C(cut, b) x
    # C(n_sites - cut, n_excited - b) block.
    masks = sector_masks(n_sites, n_excited)
    low = masks & ((1 << cut) - 1)
    high = masks >> cut
    left_bits = np.bitwise_count(low)
    blocks = []
    for b in range(max(0, n_excited - (n_sites - cut)), min(cut, n_excited) + 1):
        sel = np.nonzero(left_bits == b)[0]
        shape = (comb(cut, b), comb(n_sites - cut, n_excited - b))
        rows = np.searchsorted(sector_masks(cut, b), low[sel])
        cols = np.searchsorted(sector_masks(n_sites - cut, n_excited - b), high[sel])
        blocks.append((sel, rows * shape[1] + cols, shape))
    return blocks


def schmidt_squares(n_sites: int, n_excited: int, amplitudes: np.ndarray, cut: int) -> np.ndarray:
    """Squared Schmidt coefficients across ``cut``, block by block."""
    parts = []
    for sel, flat, shape in _cut_tables(n_sites, n_excited, cut):
        block = np.zeros(shape[0] * shape[1], dtype=complex)
        block[flat] = amplitudes[sel]
        if min(shape) == 1:
            parts.append(np.array([np.vdot(block, block).real]))
        else:
            parts.append(np.linalg.svd(block.reshape(shape), compute_uv=False) ** 2)
    return np.concatenate(parts)


def schmidt_entropy(n_sites: int, n_excited: int, amplitudes: np.ndarray, cut: int) -> float:
    """Entropy (nats) across ``cut`` from the kept, renormalized spectrum, clamped to >= 0."""
    p = schmidt_squares(n_sites, n_excited, amplitudes, cut)
    p = p[p >= SCHMIDT_CUTOFF]
    p = p / p.sum()
    value = float(-(p * np.log(p)).sum())
    return value if value > 0.0 else 0.0
