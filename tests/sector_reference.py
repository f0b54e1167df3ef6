"""Forced jumps on raw sector states, for tests that choose the detector.

The package applies clicks only in its click kernel, ``trajectory._click``
and the click-multiset tree, which sample each detector.  The functions here
apply a chosen detector's jump instead, on the raw ``(n_sites, n_excited,
amplitudes)`` form and through the same lowering, ``state._lowered_raw``.
They take no guards: a caller passes a state with an excitation left and a
detector of nonzero weight.  ``clicks_to_counts`` reduces a click sequence
to the per-detector counts the permanent oracle takes.  ``lowered_by_scatter``
builds the lowering by zero fill and scatter, the reference that the
package's gather must match byte for byte.  ``click_multiset_levels`` gives
the exact law and state of every multiset of clicks, level by level, and
``click_multiset_law`` the exact law of the full click record.
"""

import numpy as np

from lontraj.state import _initial_amplitudes, _lowered_raw, sector_masks


def lowered_by_scatter(
    n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """``state._lowered_raw`` by zero-filling the lowered stack and scattering into it.

    For each site j, every state with bit j set is written, with bit j
    cleared, into row j of a zero (..., n_sites, dim_lo) stack, which is then
    multiplied by ``u``.
    """
    masks_hi = sector_masks(n_sites, n_excited)
    masks_lo = sector_masks(n_sites, n_excited - 1)
    lowered = np.zeros(amplitudes.shape[:-1] + (n_sites, len(masks_lo)), dtype=complex)
    for j in range(n_sites):
        src = np.nonzero((masks_hi >> j) & 1)[0]
        dst = np.searchsorted(masks_lo, masks_hi[src] ^ (1 << j))
        lowered[..., j, dst] = amplitudes[..., src]
    return u @ lowered


def jump_weights(n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Click weight of each detector: the squared norm of its unnormalized jump."""
    lowered = _lowered_raw(n_sites, n_excited, amplitudes, u)
    return np.einsum("ij,ij->i", lowered, lowered.conj()).real


def forced_jump(
    n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray, detector: int
) -> np.ndarray:
    """Normalized amplitudes, one sector down, after ``detector`` clicks."""
    row = _lowered_raw(n_sites, n_excited, amplitudes, u)[detector]
    return row / np.linalg.norm(row)


def click_multiset_levels(n_sites: int, n_excited: int, u: np.ndarray) -> list[dict]:
    """Level k maps each multiset of k clicks, by sorted detectors, to (probability, amplitudes).

    The collective jumps commute, so the state after clicks S depends on the
    multiset S alone: it is the forced jump of S minus its largest detector,
    from that multiset's state.  With e excitations left in S,
    P(S + d) sums P(S) * w_S[d] / e over the parents S of S + d.  Multisets of
    probability exactly 0 are dropped; a reachable multiset always has a
    reachable parent without its largest detector, because the jumps commute.
    """
    levels = [{(): (1.0, _initial_amplitudes(n_sites, n_excited))}]
    for e in range(n_excited, 0, -1):
        level = levels[-1]
        probabilities = {}
        for multiset, (p, amplitudes) in level.items():
            weights = jump_weights(n_sites, e, amplitudes, u)
            for d in np.nonzero(weights)[0].tolist():
                child = tuple(sorted(multiset + (d,)))
                probabilities[child] = probabilities.get(child, 0.0) + p * weights[d] / e
        levels.append({
            child: (p, forced_jump(n_sites, e, level[child[:-1]][1], u, child[-1]))
            for child, p in probabilities.items()
            if p > 0.0
        })
    return levels


def click_multiset_law(n_sites: int, n_excited: int, u: np.ndarray) -> dict:
    """Exact probability of each multiset of all ``n_excited`` clicks, by sorted detectors."""
    leaves = click_multiset_levels(n_sites, n_excited, u)[-1]
    return {multiset: p for multiset, (p, _) in leaves.items()}


def occupations(n_sites: int, n_excited: int, amplitudes: np.ndarray) -> np.ndarray:
    """Excitation probability of each site, length n_sites; sums to n_excited."""
    masks = sector_masks(n_sites, n_excited)
    bits = (masks[:, None] >> np.arange(n_sites)[None, :]) & 1
    return bits.T @ (np.abs(amplitudes) ** 2)


def conditional_click_probability(u: np.ndarray, prior, next_detector: int, m: int, n: int) -> float:
    """Probability that ``next_detector`` clicks next, given the clicks so far.

    The chain starts with its first m of n sites excited.  The product of
    these along a full sequence is the sequence's permanent law.
    """
    amplitudes = _initial_amplitudes(n, m)
    for k, detector in enumerate(prior):
        amplitudes = forced_jump(n, m - k, amplitudes, u, detector)
    left = m - len(prior)
    return float(jump_weights(n, left, amplitudes, u)[next_detector]) / left


def clicks_to_counts(clicks, n_detectors: int) -> np.ndarray:
    """Per-detector click multiplicities of a sequence, as a length-n_detectors vector."""
    clicks = list(clicks)
    if any(not 0 <= c < n_detectors for c in clicks):
        raise ValueError(f"click indices must lie in [0, {n_detectors})")
    return np.bincount(clicks, minlength=n_detectors).astype(np.int64)
