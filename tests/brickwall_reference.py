"""Per-gate brick-wall draw: the reference ``haar_brickwall`` is tested against.

Draws each 2x2 gate from its own 8 normals and computes it alone, one
Python float at a time, in layer-then-top-mode order; then multiplies
identity-padded layers from the left.
"""

import math

import numpy as np


def haar_unitary_reference(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n Haar unitary from one Ginibre matrix and one QR."""
    ginibre = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_gate_reference(rng: np.random.Generator) -> np.ndarray:
    """One Haar 2x2 gate: the QR with a positive diag(R) of a Ginibre matrix G.

    G = [[a, b], [c, d]] is read as ``haar_unitary_reference(2, rng)`` reads
    it, real parts then imaginary parts.  The first column is (u, v) =
    (a, c) / |(a, c)|; the second is (-conj(v), conj(u)) times the phase of
    det G, the unit vector orthogonal to (u, v) along which (b, d) has a
    positive part.  Each step is one Python float operation, grouped as the
    batched draw groups it.
    """
    (a_re, b_re), (c_re, d_re) = rng.standard_normal((2, 2)).tolist()
    (a_im, b_im), (c_im, d_im) = rng.standard_normal((2, 2)).tolist()
    det_re = (a_re * d_re - a_im * d_im) - (c_re * b_re - c_im * b_im)
    det_im = (a_re * d_im + a_im * d_re) - (c_re * b_im + c_im * b_re)
    det_abs = math.sqrt(det_re * det_re + det_im * det_im)
    s_re, s_im = det_re / det_abs, det_im / det_abs
    norm = math.sqrt((a_re * a_re + a_im * a_im) + (c_re * c_re + c_im * c_im))
    u_re, u_im, v_re, v_im = a_re / norm, a_im / norm, c_re / norm, c_im / norm
    return np.array([
        [complex(u_re, u_im), complex(-(v_re * s_re + v_im * s_im), v_im * s_re - v_re * s_im)],
        [complex(v_re, v_im), complex(u_re * s_re + u_im * s_im, -(u_im * s_re - u_re * s_im))],
    ])


def brickwall_reference(n_modes: int, depth: int, rng: np.random.Generator) -> np.ndarray:
    """Dense brick-wall unitary, one gate draw and one dense layer at a time."""
    u = np.eye(n_modes, dtype=complex)
    for layer in range(depth):
        layer_mat = np.eye(n_modes, dtype=complex)
        for top in range(layer % 2, n_modes - 1, 2):
            layer_mat[top : top + 2, top : top + 2] = haar_gate_reference(rng)
        u = layer_mat @ u
    return u
