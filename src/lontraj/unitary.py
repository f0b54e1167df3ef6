"""Linear-optical-network unitaries: 2x2 beam-splitter gates, brick-wall circuits, Haar sampling.

A run takes its unitaries from one ``UnitarySource``: a fixed matrix, or a
fresh Haar or brick-wall draw per trajectory.

All mode indices are 0-based.  Matrices are dense ``numpy`` arrays of
``complex128``; every constructor in this module returns a matrix that is
unitary to better than 1e-12 entrywise.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

UNITARITY_TOL = 1e-12
MAX_DEPTH = 4096  # deepest brick wall a run may ask for; above N^2 at N = 63


def check_unitary(u: np.ndarray) -> None:
    """Raise ValueError unless ``u`` is square with every |U U† - I| entry within
    UNITARITY_TOL."""
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


def _normals(rngs, shape: tuple[int, ...]) -> np.ndarray:
    # Row b holds rngs[b].standard_normal(shape): each stream is read as
    # that draw alone would read it.
    out = np.empty((len(rngs),) + shape)
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=out[b])
    return out


def _haar_from_normals(normals: np.ndarray) -> np.ndarray:
    # One Haar unitary per normals[i] of shape (2, n, n), the real then the
    # imaginary parts of a Ginibre matrix.  np.linalg.qr and every
    # elementwise step act matrix by matrix, so each result is bit-equal
    # however many are stacked.
    ginibre = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def _haar_stack(n: int, rngs) -> np.ndarray:
    # (len(rngs), n, n): row b is haar_unitary(n, rngs[b]), from one QR call.
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return _haar_from_normals(_normals(rngs, (2, n, n)))


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
    return _haar_stack(n, [rng])[0]


@lru_cache(maxsize=8)
def _layer_plan(n_modes: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    # One brick-wall layer of the given parity as a flat (n_modes * n_modes)
    # dense matrix: the identity, and for every gate in top-mode order the
    # four flat slots of its entries [top, top], [top, top + 1], [top + 1, top],
    # [top + 1, top + 1].
    identity = np.eye(n_modes, dtype=complex).ravel()
    slots = [
        (top + row) * n_modes + top + col
        for top in range(parity, n_modes - 1, 2)
        for row, col in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    slots = np.array(slots, dtype=np.intp)
    identity.flags.writeable = slots.flags.writeable = False  # shared by every caller
    return identity, slots


def _brickwall_stack(n_modes: int, depth: int, rngs) -> np.ndarray:
    # (len(rngs), n_modes, n_modes): row b is haar_brickwall(n_modes, depth, rngs[b]).
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth >= 1 and n_modes < 2:
        raise ValueError(f"need at least 2 modes for depth {depth}, got {n_modes}")
    size = len(rngs)
    u = np.tile(np.eye(n_modes, dtype=complex), (size, 1, 1))
    for layer in range(depth):
        # Every stream draws the layer's gates in top-mode order, so each is
        # read as the gate-by-gate draw reads it.  A dense layer over the
        # group holds as many entries as the group's unitaries.
        identity, slots = _layer_plan(n_modes, layer % 2)
        normals = _normals(rngs, (len(slots) // 4, 2, 2, 2)).reshape(-1, 2, 2, 2)
        dense = np.tile(identity, (size, 1))
        dense[:, slots] = _haar_from_normals(normals).reshape(size, -1)
        # Whole dense layers multiply from the left, as a dense layer product
        # does: updating only the two rows a gate touches would sum fewer
        # terms and could change signed zeros and last bits.
        u = dense.reshape(size, n_modes, n_modes) @ u
    return u


def haar_brickwall(n_modes: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """Dense n_modes x n_modes unitary of a depth-``depth`` brick wall of Haar 2x2 gates.

    Layer 0 acts on the even mode pairs (0,1), (2,3), ...; odd layers are
    shifted by one mode.  Later layers multiply from the left (they sit
    closest to the detectors).  Entries outside the light cone of the
    staggered layers are exact zeros, so the result is banded with
    half-width < 2 * depth; depth 0 gives the identity.

    The stream holds one Haar 2x2 per gate, in layer-then-top-mode order,
    and each gate is the ``haar_unitary(2, rng)`` draw itself: 4 real then
    4 imaginary standard normals, one QR, the column phases of diag(R).
    Whole dense layers multiply one by one, so the result is byte-identical
    to placing every such draw in its own identity-padded layer (the
    per-gate reference in the tests), however the gates are batched.
    """
    return _brickwall_stack(n_modes, depth, [rng])[0]


@dataclass(frozen=True, eq=False)
class UnitarySource:
    """Where each trajectory's network unitary comes from.

    ``haar`` and ``brickwall`` draw a fresh unitary per trajectory; ``fixed``
    reuses a read-only copy of the given matrix for every trajectory.  A
    source is checked when it is made, so every one that exists is valid.
    Sources compare and hash by kind, depth and the bytes of the matrix.
    """

    kind: str
    matrix: np.ndarray | None = None
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "haar", "brickwall"):
            raise ValueError(f"unknown unitary source {self.kind!r}")
        # A field of another kind would set the source apart from its equals.
        if self.depth is not None and self.kind != "brickwall":
            raise ValueError(f"a {self.kind} source takes no depth, got {self.depth!r}")
        if self.matrix is not None and self.kind != "fixed":
            raise ValueError(f"a {self.kind} source takes no matrix")
        if self.kind == "fixed":
            check_unitary(self.matrix)
            matrix = np.array(self.matrix, dtype=complex)
            matrix.setflags(write=False)  # shared by every trajectory and worker
            object.__setattr__(self, "matrix", matrix)
        elif self.kind == "brickwall":
            # Every trajectory draws and multiplies this many layers.
            if not (isinstance(self.depth, (int, np.integer)) and 0 <= self.depth <= MAX_DEPTH):
                raise ValueError(f"depth must lie in [0, {MAX_DEPTH}], got {self.depth}")

    def _key(self) -> tuple:
        matrix = None if self.matrix is None else (self.matrix.shape, self.matrix.tobytes())
        return self.kind, self.depth, matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitarySource):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def fixed(cls, u: np.ndarray) -> "UnitarySource":
        return cls(kind="fixed", matrix=u)

    @classmethod
    def identity(cls, n_modes: int) -> "UnitarySource":
        return cls.fixed(np.eye(n_modes, dtype=complex))

    @classmethod
    def haar(cls) -> "UnitarySource":
        return cls(kind="haar")

    @classmethod
    def brickwall(cls, depth: int) -> "UnitarySource":
        return cls(kind="brickwall", depth=depth)

    @property
    def fresh_per_sample(self) -> bool:
        return self.kind in ("haar", "brickwall")

    def draw(self, n_modes: int, rngs) -> np.ndarray:
        """The unitary or the stack that trajectory._click takes, for ``rngs``.

        A fixed source gives its (n_modes, n_modes) matrix, shared, and reads
        no generator.  A fresh one gives a matrix from one generator, and from
        a list of B the (B, n_modes, n_modes) stack whose row b is the matrix
        rngs[b] alone would give, from one batched draw.
        """
        if self.kind == "fixed":
            if self.matrix.shape[0] != n_modes:
                raise ValueError(f"fixed unitary is {self.matrix.shape[0]}-mode, need {n_modes}")
            return self.matrix
        group = [rngs] if isinstance(rngs, np.random.Generator) else rngs
        if self.kind == "haar":
            stack = _haar_stack(n_modes, group)
        else:
            stack = _brickwall_stack(n_modes, self.depth, group)
        return stack if group is rngs else stack[0]


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
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):  # not 2.7, "2" or true
        raise ValueError(f'"dim" must be a JSON integer, got {json.dumps(dim)}')
    try:
        flat = np.array([complex(re, im) for re, im in obj["entries"]], dtype=complex)
    except (TypeError, ValueError):
        raise ValueError('expected "entries" of [re, im] pairs') from None
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
