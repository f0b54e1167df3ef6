"""Linear-optical-network unitaries: 2x2 beam-splitter gates, brick-wall circuits, Haar sampling.

All mode indices are 0-based.  Matrices are dense ``numpy`` arrays of
``complex128``; every constructor in this module returns a matrix that is
unitary to better than 1e-12 entrywise.
"""

from __future__ import annotations

import cmath
import json

import numpy as np

UNITARITY_TOL = 1e-12


def check_unitary(u: np.ndarray) -> None:
    """Raise ValueError unless ``u`` is square with every |U U† - I| entry within UNITARITY_TOL."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    deviation = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if not deviation <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"matrix is not unitary: max |U U† - I| = {deviation:.3e}")


def beamsplitter_unitary(a: complex, b: complex, phi: float) -> np.ndarray:
    """2x2 unitary [[a, b], [-e^{i phi} b*, e^{i phi} a*]] of a general beam splitter.

    The amplitudes must satisfy |a|^2 + |b|^2 = 1; ``phi`` is in radians.
    """
    a, b = complex(a), complex(b)
    norm = abs(a) ** 2 + abs(b) ** 2
    if abs(norm - 1.0) > UNITARITY_TOL:
        raise ValueError(f"(a, b) not normalized: |a|^2 + |b|^2 = {norm!r}")
    phase = cmath.exp(1j * phi)
    return np.array([[a, b], [-phase * b.conjugate(), phase * a.conjugate()]])


def _haar_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    # ``count`` independent Haar unitaries by the recipe of haar_unitary.
    # Matrix i takes the real, then the imaginary parts of its entries from
    # the stream before matrix i + 1 does.
    normals = rng.standard_normal((count, 2, n, n))
    ginibre = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


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
    return _haar_stack(n, 1, rng)[0]


def haar_brickwall(n_modes: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """Dense n_modes x n_modes unitary of a depth-``depth`` brick wall of Haar 2x2 gates.

    Layer 0 acts on the even mode pairs (0,1), (2,3), ...; odd layers are
    shifted by one mode.  Later layers multiply from the left (they sit
    closest to the detectors).  Entries outside the light cone of the
    staggered layers are exact zeros, so the result is banded with
    half-width < 2 * depth; depth 0 gives the identity.

    The stream holds one Haar 2x2 per gate, in layer-then-top-mode order,
    each drawn as for ``haar_unitary(2, rng)``: 4 real then 4 imaginary
    standard normals.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth >= 1 and n_modes < 2:
        raise ValueError(f"need at least 2 modes for depth {depth}, got {n_modes}")
    tops = [range(layer % 2, n_modes - 1, 2) for layer in range(depth)]
    gates = iter(_haar_stack(2, sum(map(len, tops)), rng).tolist())
    u = np.eye(n_modes, dtype=complex)
    for layer_tops in tops:
        layer = np.eye(n_modes, dtype=complex)
        for top in layer_tops:
            # Any 2x2 unitary [[a, b], [c, d]] is the beam splitter with
            # e^{i phi} = det = a d - b c.  Rebuilding each gate this way in
            # Python complex arithmetic, and multiplying whole layers rather
            # than updating two rows, fixes every output byte (signed zeros
            # included) to the per-gate reference in the tests.
            (a, b), (c, d) = next(gates)
            phi = cmath.phase(a * d - b * c)
            layer[top : top + 2, top : top + 2] = beamsplitter_unitary(a, b, phi)
        u = layer @ u
    return u


def unitary_to_json(u: np.ndarray) -> str:
    """Serialize a unitary as {"dim": n, "entries": [[re, im], ...]} (row-major)."""
    check_unitary(u)
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(u).ravel()]
    return json.dumps({"dim": int(u.shape[0]), "entries": entries})


def unitary_from_json(text: str) -> np.ndarray:
    """Parse the JSON produced by :func:`unitary_to_json`, enforcing unitarity.

    Text of any other shape raises ValueError (malformed JSON included).
    """
    obj = json.loads(text)
    if not isinstance(obj, dict) or not {"dim", "entries"} <= obj.keys():
        raise ValueError('expected a JSON object with keys "dim" and "entries"')
    try:
        dim = int(obj["dim"])
        flat = np.array([complex(re, im) for re, im in obj["entries"]], dtype=complex)
    except (TypeError, ValueError):
        raise ValueError('expected an integer "dim" and "entries" of [re, im] pairs') from None
    if dim < 1:
        raise ValueError(f'"dim" must be >= 1, got {dim}')
    if len(flat) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries for dim {dim}, got {len(flat)}")
    u = flat.reshape(dim, dim)
    check_unitary(u)
    return u


def load_unitary(path) -> np.ndarray:
    with open(path) as fh:
        return unitary_from_json(fh.read())
