"""Shared numerical kernels: quadrature, RK4, matrix exponential, stencils.

All kernels are deterministic pure functions; identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyFailure, InvalidArgument


@dataclass(frozen=True)
class Quadrature1D:
    """Gauss-Legendre rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.size < 1:
            raise InvalidArgument("quadrature rule needs at least one node")
        if not abs(self.weights.sum() - 2.0) <= 1e-12:
            raise AccuracyFailure("1-D weights do not sum to the interval length")


@dataclass(frozen=True)
class QuadratureRule:
    """Product rule on the sphere: nodes are (t, phi) with t = cos(theta).

    Integrates f dOmega = f dt dphi over t in [-1,1], phi in [0, 2pi).
    """

    nodes: np.ndarray    # shape (N, 2): columns t, phi
    weights: np.ndarray  # shape (N,)
    n_t: int
    n_phi: int

    def __post_init__(self):
        if self.nodes.shape[0] < 1:
            raise InvalidArgument("quadrature rule needs at least one node")
        if not abs(self.weights.sum() - 4.0 * np.pi) <= 1e-12:
            raise AccuracyFailure("sphere weights do not sum to 4*pi")

    @property
    def t(self) -> np.ndarray:
        return self.nodes[:, 0]

    @property
    def phi(self) -> np.ndarray:
        return self.nodes[:, 1]


def gauss_legendre(n: int) -> Quadrature1D:
    """n-point Gauss-Legendre rule, exact for polynomials of degree <= 2n-1."""
    if n < 1:
        raise InvalidArgument(f"need n >= 1 nodes, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return Quadrature1D(nodes=nodes, weights=weights)


def sphere_rule(n_t: int, n_phi: int) -> QuadratureRule:
    """Product rule: Gauss-Legendre in t = cos(theta) x uniform in phi.

    Exact for integrands polynomial in t of degree <= 2*n_t - 1 with
    azimuthal Fourier modes of absolute order < n_phi.
    """
    if n_t < 1 or n_phi < 1:
        raise InvalidArgument(f"need n_t, n_phi >= 1, got ({n_t}, {n_phi})")
    gl = gauss_legendre(n_t)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi
    tt, pp = np.meshgrid(gl.nodes, phis, indexing="ij")
    ww = np.outer(gl.weights, np.full(n_phi, w_phi))
    nodes = np.column_stack([tt.ravel(), pp.ravel()])
    return QuadratureRule(nodes=nodes, weights=ww.ravel(), n_t=n_t, n_phi=n_phi)


def rk4_step(field, t: float, y, h: float):
    """One classical RK4 step of y' = field(t, y) from t to t + h.

    ``h`` may have either sign; a negative step integrates backwards.
    """
    k1 = np.asarray(field(t, y))
    k2 = np.asarray(field(t + 0.5 * h, y + 0.5 * h * k1))
    k3 = np.asarray(field(t + 0.5 * h, y + 0.5 * h * k2))
    k4 = np.asarray(field(t + h, y + h * k3))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling-and-squaring with a truncated Taylor series.

    Relative accuracy ~1e-12 for ||m|| <= 10; used as the transport oracle
    for constant connections.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgument(f"matrix_exp needs a square matrix, got {m.shape}")
    norm = np.linalg.norm(m, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    a = m / (2.0 ** squarings)
    n = m.shape[0]
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        result = result + term
        if np.linalg.norm(term, 1) <= 1e-18 * max(np.linalg.norm(result, 1), 1.0):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def central_difference(f, x: float, h: float):
    """(f(x+h) - f(x-h)) / (2h) for scalar- or array-valued f; error O(h^2)."""
    if h <= 0:
        raise InvalidArgument(f"step must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)
