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
    """exp(sum_a c_a TAU[a]) in closed form, c a real 3-vector."""
    c = np.asarray(c, dtype=float)
    angle = np.linalg.norm(c)
    if angle < 1e-300:
        return np.eye(2, dtype=complex)
    axis = c / angle
    sigma_n = np.einsum("a,aij->ij", axis, PAULI)
    return np.cos(angle / 2.0) * np.eye(2) - 1.0j * np.sin(angle / 2.0) * sigma_n


def check_special_unitary(g: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise InvalidArgument(f"group element must be 2x2, got {g.shape}")
    if not np.linalg.norm(g.conj().T @ g - np.eye(2)) <= tol:
        raise InvalidArgument("group element is not unitary")
    if not abs(np.linalg.det(g) - 1.0) <= tol:
        raise InvalidArgument("group element is not unimodular")
    return g


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed SU(2) element via a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a = q[0] + 1.0j * q[3]
    b = q[2] + 1.0j * q[1]
    return np.array([[a, b], [-np.conj(b), np.conj(a)]], dtype=complex)
