"""Linear-optical-network unitaries: 2x2 beam-splitter gates, brick-wall circuits, Haar sampling.

All mode indices are 0-based.  Matrices are dense ``numpy`` arrays of
``complex128``; every constructor in this module returns a matrix that is
unitary to better than 1e-12 entrywise.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-12


def check_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    """Raise ValueError unless ``u`` is square with max entry of |U U† - I| below ``tol``."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    deviation = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if deviation > tol:
        raise ValueError(f"matrix is not unitary: max |U U† - I| = {deviation:.3e}")


@dataclass(frozen=True)
class BeamSplitterParams:
    """Parameters of a two-mode mixing gate: amplitudes (a, b) and relative phase phi.

    The amplitudes must satisfy |a|^2 + |b|^2 = 1; ``phi`` is in radians.
    """

    a: complex
    b: complex
    phi: float

    def __post_init__(self) -> None:
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(norm - 1.0) > UNITARITY_TOL:
            raise ValueError(f"(a, b) not normalized: |a|^2 + |b|^2 = {norm!r}")


def beamsplitter_unitary(params: BeamSplitterParams) -> np.ndarray:
    """2x2 unitary [[a, b], [-e^{i phi} b*, e^{i phi} a*]] of a general beam splitter."""
    a, b = complex(params.a), complex(params.b)
    phase = cmath.exp(1j * params.phi)
    return np.array([[a, b], [-phase * b.conjugate(), phase * a.conjugate()]])


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n x n unitary from the Haar measure.

    Uses the complex-Ginibre + QR construction: QR alone is not Haar
    distributed, so each column of Q is multiplied by the unit phase of the
    corresponding diagonal entry of R.

    Parameters
    ----------
    n : int
        Matrix dimension, n >= 1.
    rng : numpy.random.Generator
        Source of randomness; identical generator state gives bit-identical
        output.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    ginibre = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@dataclass(frozen=True)
class BrickwallSpec:
    """A depth-D staggered circuit of two-mode gates.

    ``gates`` holds (layer, top_mode, params) triples; layer ``l`` places
    gates on mode pairs (j, j+1) with j = l (mod 2), so gates within a layer
    never overlap.
    """

    n_modes: int
    depth: int
    gates: tuple[tuple[int, int, BeamSplitterParams], ...]

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        seen = set()
        for layer, top, _params in self.gates:
            if not 0 <= layer < self.depth:
                raise ValueError(f"gate layer {layer} outside [0, {self.depth})")
            if not 0 <= top <= self.n_modes - 2:
                raise ValueError(f"gate top mode {top} outside [0, {self.n_modes - 2}]")
            if top % 2 != layer % 2:
                raise ValueError(f"gate at (layer {layer}, top {top}) breaks the staggering rule")
            if (layer, top) in seen:
                raise ValueError(f"duplicate gate at (layer {layer}, top {top})")
            seen.add((layer, top))


def _gate_params(g: np.ndarray) -> BeamSplitterParams:
    # Any 2x2 unitary factors as [[a, b], [-e^{i phi} b*, e^{i phi} a*]]
    # with a = g00, b = g01 and e^{i phi} = det(g).
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return BeamSplitterParams(a=complex(g[0, 0]), b=complex(g[0, 1]), phi=float(cmath.phase(det)))


def sample_haar_brickwall(n_modes: int, depth: int, rng: np.random.Generator) -> BrickwallSpec:
    """Draw a brick-wall circuit whose 2x2 blocks are independent Haar unitaries.

    Layer 0 acts on the even mode pairs (0,1), (2,3), ...; odd layers are
    shifted by one mode.
    """
    if depth >= 1 and n_modes < 2:
        raise ValueError(f"need at least 2 modes for depth {depth}, got {n_modes}")
    gates = []
    for layer in range(depth):
        for top in range(layer % 2, n_modes - 1, 2):
            gates.append((layer, top, _gate_params(haar_unitary(2, rng))))
    return BrickwallSpec(n_modes=n_modes, depth=depth, gates=tuple(gates))


def compose_brickwall(spec: BrickwallSpec) -> np.ndarray:
    """Multiply out a brick-wall circuit into a dense n_modes x n_modes unitary.

    Later layers multiply from the left (they sit closest to the detectors).
    Entries outside the light cone of the staggered layers are exact zeros,
    so the result is banded with half-width < 2 * depth.
    """
    u = np.eye(spec.n_modes, dtype=complex)
    for layer in range(spec.depth):
        layer_mat = np.eye(spec.n_modes, dtype=complex)
        for gate_layer, top, params in spec.gates:
            if gate_layer == layer:
                layer_mat[top : top + 2, top : top + 2] = beamsplitter_unitary(params)
        u = layer_mat @ u
    return u


def unitary_to_json(u: np.ndarray) -> str:
    """Serialize a unitary as {"dim": n, "entries": [[re, im], ...]} (row-major)."""
    check_unitary(u)
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(u).ravel()]
    return json.dumps({"dim": int(u.shape[0]), "entries": entries})


def unitary_from_json(text: str) -> np.ndarray:
    """Parse the JSON produced by :func:`unitary_to_json`, enforcing unitarity."""
    obj = json.loads(text)
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries for dim {dim}, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    u = flat.reshape(dim, dim)
    check_unitary(u)
    return u


def load_unitary(path) -> np.ndarray:
    with open(path) as fh:
        return unitary_from_json(fh.read())
