"""Independent full-Hilbert-space reference implementations.

Everything here works on dense 2^n vectors and matrices, with the basis
index read as a bitmask (bit j set = site j excited) exactly like the
sector code, but without any sector restriction.  Used to cross-check the
sector-restricted fast paths.
"""

import numpy as np

from lontraj.state import SectorState, sector_masks


def lowering_operator(n_sites: int, site: int) -> np.ndarray:
    """Dense 2^n x 2^n local decay operator of one site."""
    dim = 1 << n_sites
    op = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        if (basis >> site) & 1:
            op[basis ^ (1 << site), basis] = 1.0
    return op


def collective_jump(u: np.ndarray, detector: int) -> np.ndarray:
    """Dense jump operator of one detector: the u-weighted sum of local decays."""
    n = u.shape[0]
    return sum(u[detector, j] * lowering_operator(n, j) for j in range(n))


def embed(state: SectorState) -> np.ndarray:
    """SectorState as a dense 2^n vector."""
    dense = np.zeros(1 << state.n_sites, dtype=complex)
    dense[sector_masks(state.n_sites, state.n_excited)] = state.amplitudes
    return dense


def dense_entropy(dense_vec: np.ndarray, n_sites: int, cut: int) -> float:
    """Von Neumann entropy of sites {0..cut-1} from the dense vector."""
    # index = (high << cut) | low, so reshaping exposes (high, low).
    mat = dense_vec.reshape(1 << (n_sites - cut), 1 << cut).T
    rho = mat @ mat.conj().T
    eigenvalues = np.linalg.eigvalsh(rho)
    eigenvalues = eigenvalues[eigenvalues > 1e-12]
    return float(-(eigenvalues * np.log(eigenvalues)).sum())


def dense_cut_matrix(state: SectorState, cut: int) -> np.ndarray:
    """Amplitudes as a dense (2^cut, 2^(n_sites-cut)) matrix across the cut.

    Row index is the left block's bit pattern, column index the right
    block's.
    """
    masks = sector_masks(state.n_sites, state.n_excited)
    mat = np.zeros((1 << cut, 1 << (state.n_sites - cut)), dtype=complex)
    mat[masks & ((1 << cut) - 1), masks >> cut] = state.amplitudes
    return mat


def random_sector_state(n_sites: int, n_excited: int, rng: np.random.Generator) -> SectorState:
    dim = len(sector_masks(n_sites, n_excited))
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return SectorState(n_sites, n_excited, amps / np.linalg.norm(amps))


def reverse_sites(state: SectorState) -> SectorState:
    """The same state on the chain with site order reversed."""
    masks = sector_masks(state.n_sites, state.n_excited)
    reversed_masks = np.array(
        [int(format(m, f"0{state.n_sites}b")[::-1], 2) for m in masks], dtype=np.int64
    )
    amps = np.zeros_like(state.amplitudes)
    amps[np.searchsorted(masks, reversed_masks)] = state.amplitudes
    return SectorState(state.n_sites, state.n_excited, amps)
