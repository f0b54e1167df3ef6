"""Per-gate brick-wall draw: the reference ``haar_brickwall`` is tested against.

Draws each 2x2 gate with its own Ginibre + QR, in layer-then-top-mode order,
and multiplies identity-padded layers from the left.
"""

import numpy as np


def haar_unitary_reference(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n Haar unitary from one Ginibre matrix and one QR."""
    ginibre = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def brickwall_reference(n_modes: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """Dense brick-wall unitary, one gate draw and one dense layer at a time."""
    u = np.eye(n_modes, dtype=complex)
    for layer in range(depth):
        layer_mat = np.eye(n_modes, dtype=complex)
        for top in range(layer % 2, n_modes - 1, 2):
            layer_mat[top : top + 2, top : top + 2] = haar_unitary_reference(2, rng)
        u = layer_mat @ u
    return u
