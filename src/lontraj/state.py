"""Emitter-chain states restricted to a fixed excitation sector.

A chain of ``n_sites`` two-level emitters with exactly ``n_excited`` of them
excited lives in a sector of dimension C(n_sites, n_excited), far smaller
than 2^n_sites.  Basis states are bitmasks (bit j set = emitter j excited)
listed in ascending numeric order, which coincides with colexicographic
order of the excited-site sets.  Jumps triggered by detector clicks move the
state down one sector; the collective jump operator of detector ``i`` mixes
the local decay operators of all sites through a unitary ``u``:
row ``i`` of ``u`` gives the amplitudes with which each site contributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

NORM_TOL = 1e-10
SCHMIDT_CUTOFF = 1e-12
MAX_SITES = 63  # sector bitmasks are int64, whose top bit is the sign


@lru_cache(maxsize=None)
def sector_masks(n_sites: int, n_excited: int) -> np.ndarray:
    """All n_sites-bit masks with n_excited set bits, ascending."""
    if not 0 <= n_excited <= n_sites:
        raise ValueError(f"need 0 <= n_excited <= n_sites, got ({n_sites}, {n_excited})")
    masks = sorted(sum(1 << p for p in c) for c in combinations(range(n_sites), n_excited))
    arr = np.array(masks, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SectorState:
    """Normalized pure state of the chain within one excitation sector.

    ``amplitudes[r]`` belongs to the basis mask ``sector_masks(n_sites,
    n_excited)[r]``.  Instances are immutable; all operations return new
    states.
    """

    n_sites: int
    n_excited: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_sites < 1 or not 0 <= self.n_excited <= self.n_sites:
            raise ValueError(f"invalid sector ({self.n_sites}, {self.n_excited})")
        amps = np.array(self.amplitudes, dtype=complex)
        dim = comb(self.n_sites, self.n_excited)
        if amps.shape != (dim,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({dim},)")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def initial_state(n_sites: int, n_excited: int) -> SectorState:
    """Product state with the first ``n_excited`` sites excited, the rest in the ground state."""
    return SectorState(n_sites, n_excited, _initial_amplitudes(n_sites, n_excited))


def _initial_amplitudes(n_sites: int, n_excited: int) -> np.ndarray:
    masks = sector_masks(n_sites, n_excited)
    amps = np.zeros(len(masks), dtype=complex)
    amps[np.searchsorted(masks, (1 << n_excited) - 1)] = 1.0
    return amps


@lru_cache(maxsize=None)
def _lowering_table(n_sites: int, n_excited: int) -> np.ndarray:
    """Gather table realizing every local decay operator sector -> sector-1 at once.

    A read-only (n_sites, dim_lo) matrix of indices into the sector's
    amplitudes with one zero appended: entry [j, r] is the index of the
    lower sector's mask r with bit j set, or the zero's where it already is.
    """
    masks_lo = sector_masks(n_sites, n_excited - 1)
    bits = (1 << np.arange(n_sites, dtype=np.int64))[:, None]
    table = np.searchsorted(sector_masks(n_sites, n_excited), masks_lo | bits)
    table[(masks_lo & bits) != 0] = comb(n_sites, n_excited)
    table.setflags(write=False)
    return table


def _lowered_raw(n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Leading axes of ``amplitudes`` (and of ``u``, if stacked) index a group of
    # states lowered together: (..., dim) -> (..., n_sites, dim_lo), gathered
    # with one zero appended.  Row i of each (n_sites, dim_lo) block is detector
    # i's unnormalized jump of the state; its squared norm is the click weight.
    padded = np.concatenate((amplitudes, np.zeros(amplitudes.shape[:-1] + (1,), complex)), -1)
    return u @ padded.take(_lowering_table(n_sites, n_excited), axis=-1)


def _spectrum_length(n_sites: int, n_excited: int, cut: int) -> int:
    # Schmidt coefficients across the cut: each excitation block contributes
    # as many as its smaller side.
    return sum(
        min(comb(cut, b), comb(n_sites - cut, n_excited - b))
        for b in range(max(0, n_excited - (n_sites - cut)), min(cut, n_excited) + 1)
    )


@lru_cache(maxsize=1)  # the mixture's one cut; _schmidt_tables keeps its own stacked copies
def _cut_blocks(n_sites: int, n_excited: int, cut: int) -> tuple[np.ndarray, ...]:
    """Index matrices of the sector's amplitude matrix across ``cut``, one per dense block.

    The matrix is block diagonal in the number b of excitations left of the
    cut.  Block b, b ascending, is C(cut, b) x C(n_sites - cut, n_excited - b),
    its rows and columns in the order of ``sector_masks`` of the left and right sites.
    """
    masks = sector_masks(n_sites, n_excited)
    low, high = masks & ((1 << cut) - 1), masks >> cut
    left_bits = np.bitwise_count(low)
    blocks = []
    for b in range(max(0, n_excited - (n_sites - cut)), min(cut, n_excited) + 1):
        sel = np.nonzero(left_bits == b)[0]
        idx = np.empty((comb(cut, b), comb(n_sites - cut, n_excited - b)), dtype=np.intp)
        rows = np.searchsorted(sector_masks(cut, b), low[sel])
        cols = np.searchsorted(sector_masks(n_sites - cut, n_excited - b), high[sel])
        idx[rows, cols] = sel
        blocks.append(idx)
    return tuple(blocks)


@lru_cache(maxsize=None)
def _schmidt_tables(n_sites: int, n_excited: int, cuts: tuple[int, ...]):
    """Gather tables for the Schmidt spectra of every cut in ``cuts`` at once.

    Each block of ``_cut_blocks`` is oriented with its smaller side first,
    and blocks of equal shape are grouped over all cuts.  Returns (width,
    groups): for each shape (s, w), ``amplitudes[..., idx]`` with idx of
    shape (blocks, s, w) gathers its blocks, and their s squared Schmidt
    coefficients each go to ``slots`` of a flat (len(cuts), width) spectrum
    table, one row per cut.  ``width`` is the longest spectrum of any cut of
    the sector, so where a cut's coefficients sit in its row does not depend
    on which other cuts are asked for.
    """
    width = max((_spectrum_length(n_sites, n_excited, cut) for cut in range(1, n_sites)), default=0)
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for row, cut in enumerate(cuts):
        slot = row * width
        for idx in _cut_blocks(n_sites, n_excited, cut):
            if idx.shape[0] > idx.shape[1]:
                idx = idx.T
            blocks, slots = groups.setdefault(idx.shape, ([], []))
            blocks.append(idx)
            slots.append(np.arange(slot, slot + idx.shape[0]))
            slot += idx.shape[0]
    return width, [(np.stack(blocks), np.concatenate(slots)) for blocks, slots in groups.values()]


def _spectrum_entropy(p: np.ndarray, renormalize: bool = False) -> np.ndarray:
    """-sum p log p along the last axis over the weights at or above SCHMIDT_CUTOFF.

    Weights below the cutoff count as zeros in place, so each row is summed
    in the same order whatever it is computed with.  With ``renormalize``
    the kept weights are first scaled to sum to 1.  Results are clamped to
    >= +0.0.
    """
    kept = p >= SCHMIDT_CUTOFF
    p = np.where(kept, p, 0.0)
    if renormalize:
        p = p / p.sum(axis=-1, keepdims=True)
    value = -(p * np.log(np.where(kept, p, 1.0))).sum(axis=-1)
    return np.where(value > 0.0, value, 0.0)


def _entropies(
    n_sites: int, n_excited: int, amplitudes: np.ndarray, cuts: tuple[int, ...]
) -> np.ndarray:
    """Entanglement entropy (nats) of each row of ``amplitudes`` at each cut.

    ``amplitudes`` is (B, dim); returns (B, len(cuts)).  Each block shape
    takes one gather, one Gram product on the smaller side and one batched
    ``eigvalsh`` for all rows and cuts; blocks one coefficient wide take a
    squared norm.  Every row and cut is computed as it would be alone, so no
    value depends on the group size or on the other cuts asked for.
    """
    width, groups = _schmidt_tables(n_sites, n_excited, cuts)
    size = len(amplitudes)
    spectra = np.zeros((size, len(cuts) * width))
    for idx, slots in groups:
        # take() returns a C-contiguous stack, so every sum below runs along
        # contiguous rows and pairs its terms the same way for any group size.
        blocks = amplitudes.take(idx, axis=-1)
        if idx.shape[1] == 1:
            squares = (blocks.real**2 + blocks.imag**2).sum(axis=-1)
        else:
            squares = np.linalg.eigvalsh(blocks @ blocks.conj().swapaxes(-1, -2))
        spectra[:, slots] = squares.reshape(size, -1)
    # Renormalizing the kept spectrum absorbs rounding in the state norm and
    # makes single-coefficient (product) states exactly zero.
    return _spectrum_entropy(spectra.reshape(size, len(cuts), width), renormalize=True)


def _check_cut(n_sites: int, cut: int) -> None:
    if not 1 <= cut <= n_sites - 1:
        raise ValueError(f"cut must be in [1, {n_sites - 1}], got {cut}")


def entanglement_entropy(state: SectorState, cut: int) -> float:
    """Von Neumann entropy (nats) across the cut after ``cut`` boundary sites.

    Subsystem A is the contiguous block of sites {0..cut-1}.  The squared
    Schmidt coefficients are the eigenvalues of the Gram matrix of each
    excitation block of the reshaped amplitude matrix; those below 1e-12
    contribute nothing.
    """
    _check_cut(state.n_sites, cut)
    return float(_entropies(state.n_sites, state.n_excited, state.amplitudes[None], (cut,))[0, 0])


def entropy_profile(state: SectorState) -> np.ndarray:
    """Entanglement entropy at every cut 1..n_sites-1, as a vector."""
    cuts = tuple(range(1, state.n_sites))
    return _entropies(state.n_sites, state.n_excited, state.amplitudes[None], cuts)[0]
