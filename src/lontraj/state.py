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
def _lowering_tables(n_sites: int, n_excited: int):
    """Index maps realizing every local decay operator sector -> sector-1 at once.

    Returns (src, flat_dst, dim_lo): writing ``amplitudes[src]`` into a flat
    (n_sites * dim_lo) buffer at ``flat_dst`` fills the stacked matrix whose
    row j holds the state with bit j cleared wherever it was set.
    """
    masks_hi = sector_masks(n_sites, n_excited)
    masks_lo = sector_masks(n_sites, n_excited - 1)
    dim_lo = len(masks_lo)
    src_parts = []
    dst_parts = []
    for j in range(n_sites):
        src = np.nonzero((masks_hi >> j) & 1)[0]
        dst = np.searchsorted(masks_lo, masks_hi[src] ^ (1 << j))
        src_parts.append(src)
        dst_parts.append(j * dim_lo + dst)
    return np.concatenate(src_parts), np.concatenate(dst_parts), dim_lo


def _lowered_raw(n_sites: int, n_excited: int, amplitudes: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Leading axes of ``amplitudes`` (and of ``u``, if stacked) index a group
    # of states lowered together: (..., dim) -> (..., n_sites, dim_lo).
    src, flat_dst, dim_lo = _lowering_tables(n_sites, n_excited)
    lowered = np.zeros(amplitudes.shape[:-1] + (n_sites * dim_lo,), dtype=complex)
    lowered[..., flat_dst] = amplitudes[..., src]
    return u @ lowered.reshape(amplitudes.shape[:-1] + (n_sites, dim_lo))


def apply_all_jumps(state: SectorState, u: np.ndarray) -> np.ndarray:
    """Unnormalized post-jump amplitudes for every detector at once.

    Returns an (n_sites, C(n_sites, n_excited-1)) array whose row ``i`` is the
    amplitude vector of jump ``i`` applied to ``state`` (not normalized).
    """
    if u.shape != (state.n_sites, state.n_sites):
        raise ValueError(f"unitary shape {u.shape} does not match {state.n_sites} sites")
    if state.n_excited < 1:
        raise ValueError("no excitations left to decay")
    return _lowered_raw(state.n_sites, state.n_excited, state.amplitudes, u)


def jump_weights(state: SectorState, u: np.ndarray) -> np.ndarray:
    """Click weight of each detector: the squared norm of each unnormalized jump.

    Nonnegative by construction; the weights sum to ``n_excited`` because the
    collective jumps conserve the total excitation-number operator.
    """
    lowered = apply_all_jumps(state, u)
    return np.einsum("ij,ij->i", lowered, lowered.conj()).real


def apply_jump(state: SectorState, u: np.ndarray, detector: int) -> SectorState:
    """Normalized state after detector ``detector`` clicks; drops one excitation."""
    lowered = apply_all_jumps(state, u)
    if not 0 <= detector < state.n_sites:
        raise ValueError(f"detector {detector} outside [0, {state.n_sites})")
    row = lowered[detector]
    weight = np.vdot(row, row).real
    if weight <= 0.0:
        raise ValueError(f"jump on detector {detector} has zero weight for this state")
    return SectorState(state.n_sites, state.n_excited - 1, row / np.sqrt(weight))


@lru_cache(maxsize=None)
def _cut_tables(n_sites: int, n_excited: int, cut: int):
    """Scatter tables reshaping a sector vector into per-block Schmidt matrices.

    The amplitude matrix across the cut is block diagonal in the number of
    excitations held by the left block A = sites {0..cut-1}.  For each block
    b, returns (sel, rows, cols, shape): ``matrix[rows, cols] =
    amplitudes[sel]`` fills a C(cut, b) x C(n_sites-cut, n_excited-b) block.
    """
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


def _schmidt_squares(n_sites: int, n_excited: int, amplitudes: np.ndarray, cut: int) -> np.ndarray:
    parts = []
    for sel, flat, shape in _cut_tables(n_sites, n_excited, cut):
        block = np.zeros(shape[0] * shape[1], dtype=complex)
        block[flat] = amplitudes[sel]
        if min(shape) == 1:
            parts.append(np.array([np.vdot(block, block).real]))
        else:
            parts.append(np.linalg.svd(block.reshape(shape), compute_uv=False) ** 2)
    return np.concatenate(parts)


def _entropy(n_sites: int, n_excited: int, amplitudes: np.ndarray, cut: int) -> float:
    p = _schmidt_squares(n_sites, n_excited, amplitudes, cut)
    p = p[p >= SCHMIDT_CUTOFF]
    # Renormalizing the kept spectrum absorbs rounding in the state norm and
    # makes single-coefficient (product) states exactly zero.
    p = p / p.sum()
    value = float(-(p * np.log(p)).sum())
    return value if value > 0.0 else 0.0


def _entropy_profile(n_sites: int, n_excited: int, amplitudes: np.ndarray) -> np.ndarray:
    return np.array([_entropy(n_sites, n_excited, amplitudes, cut) for cut in range(1, n_sites)])


def _check_cut(n_sites: int, cut: int) -> None:
    if not 1 <= cut <= n_sites - 1:
        raise ValueError(f"cut must be in [1, {n_sites - 1}], got {cut}")


def entanglement_entropy(state: SectorState, cut: int) -> float:
    """Von Neumann entropy (nats) across the cut after ``cut`` boundary sites.

    Subsystem A is the contiguous block of sites {0..cut-1}.  Computed from
    the singular values of the reshaped amplitude matrix; squared Schmidt
    coefficients below 1e-12 contribute nothing.
    """
    _check_cut(state.n_sites, cut)
    return _entropy(state.n_sites, state.n_excited, state.amplitudes, cut)


def entropy_profile(state: SectorState) -> np.ndarray:
    """Entanglement entropy at every cut 1..n_sites-1, as a vector."""
    return _entropy_profile(state.n_sites, state.n_excited, state.amplitudes)


def _dense_cut_matrix(n_sites: int, n_excited: int, amplitudes: np.ndarray, cut: int) -> np.ndarray:
    masks = sector_masks(n_sites, n_excited)
    mat = np.zeros((1 << cut, 1 << (n_sites - cut)), dtype=complex)
    mat[masks & ((1 << cut) - 1), masks >> cut] = amplitudes
    return mat


def dense_cut_matrix(state: SectorState, cut: int) -> np.ndarray:
    """Amplitudes as a dense (2^cut, 2^(n_sites-cut)) matrix across the cut.

    Row index is the left block's bit pattern, column index the right
    block's.  Intended for small subsystems (reduced density matrices).
    """
    _check_cut(state.n_sites, cut)
    return _dense_cut_matrix(state.n_sites, state.n_excited, state.amplitudes, cut)


def site_occupations(state: SectorState) -> np.ndarray:
    """Excitation probability of each site, length n_sites; sums to n_excited."""
    masks = sector_masks(state.n_sites, state.n_excited)
    bits = (masks[:, None] >> np.arange(state.n_sites)[None, :]) & 1
    return bits.T @ (np.abs(state.amplitudes) ** 2)
