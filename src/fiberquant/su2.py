"""SU(2) group and Lie-algebra helpers used by the fiber and gauge layers."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# Anti-Hermitian generators, [TAU[0], TAU[1]] = TAU[2] and cyclic.
TAU = -0.5j * PAULI


def su2_exp(c: np.ndarray) -> np.ndarray:
    """exp(sum_a c_a TAU[a]) in closed form for each real 3-vector of the stack c (..., 3), shaped (..., 2, 2); a single
    vector is the stack of shape (), and one of norm below 1e-300 gives the identity.  The norm sqrt(vecdot(c, c))
    rounds as ``np.linalg.norm`` of one vector, so a stack is bit-identical to its single calls."""
    c = np.asarray(c, dtype=float)
    angle = np.sqrt(np.vecdot(c, c))
    identity = angle < 1e-300
    axis = c / np.where(identity, 1.0, angle)[..., None]
    sigma_n = np.einsum("...a,aij->...ij", axis, PAULI)
    half = (angle / 2.0)[..., None, None]
    g = np.cos(half) * np.eye(2) - 1.0j * np.sin(half) * sigma_n
    return np.where(identity[..., None, None], np.eye(2, dtype=complex), g)


def check_special_unitary(g: np.ndarray) -> np.ndarray:
    """g as a complex array, once every element of the stack g (..., 2, 2) is a unitary of determinant 1
    to 1e-10; a single element is the stack of shape ()."""
    tol = 1e-10
    g = np.asarray(g, dtype=complex)
    if g.shape[-2:] != (2, 2):
        raise InvalidArgument(f"group element must be 2x2, got {g.shape}")
    if not np.all(np.linalg.norm(g.conj().swapaxes(-1, -2) @ g - np.eye(2), axis=(-2, -1)) <= tol):
        raise InvalidArgument("group element is not unitary")
    if not np.all(abs(np.linalg.det(g) - 1.0) <= tol):
        raise InvalidArgument("group element is not unimodular")
    return g


def random_su2(rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-distributed SU(2) elements (*shape, 2, 2) via normalized quaternions, one ``standard_normal(shape + (4,))``
    block; a stack equals its per-draw calls bit for bit and leaves ``rng`` in the same state."""
    q = rng.standard_normal(shape + (4,))
    q /= np.sqrt(np.vecdot(q, q))[..., None]
    a, b = q[..., 0] + 1.0j * q[..., 3], q[..., 2] + 1.0j * q[..., 1]
    return np.stack([a, b, -np.conj(b), np.conj(a)], axis=-1).reshape(shape + (2, 2))
