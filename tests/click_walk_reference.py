"""One-trajectory click loop, the reference for the lockstep kernel.

This is the click walk as it ran before trajectories were grouped: one
trajectory at a time, its detector found with ``searchsorted``.  The grouped
click step, ``trajectory._click``, must give the same clicks and the same
amplitude bytes for each of its rows.
"""

from __future__ import annotations

import numpy as np

from lontraj.state import NORM_TOL, _lowered_raw


def pick_detector(weights: np.ndarray, n_excited: int, rng: np.random.Generator) -> int:
    total = weights.sum()
    if not abs(total - n_excited) <= NORM_TOL * n_excited:  # NaN fails too
        raise RuntimeError(f"jump weights sum to {total!r}, expected {n_excited}")
    r = rng.random() * total
    detector = int(np.searchsorted(np.cumsum(weights), r, side="right"))
    if detector >= len(weights):
        # r fell in the ulp sliver between sum() and cumsum()[-1].
        detector = int(np.nonzero(weights)[0][-1])
    return detector


def click_walk(n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray, rng):
    """Yield (detector, normalized post-click amplitudes) of one trajectory."""
    for e in range(n_excited, 0, -1):
        lowered = _lowered_raw(n_sites, e, amplitudes, u)
        weights = np.vecdot(lowered, lowered).real
        detector = pick_detector(weights, e, rng)
        amplitudes = lowered[detector] / np.sqrt(weights[detector])
        yield detector, amplitudes
