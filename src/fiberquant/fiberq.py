"""The quantum fiber: polarized sections, inner products, operators.

Wavefunctions are polynomials of degree <= two_j in the chart coordinate,
square-integrable against d nu = ((two_j+1)/pi)(1+|z|^2)^(-(two_j+2)) dA.
Monomials are orthogonal with ||z^k||^2 = 1/binom(two_j, k); everything
downstream works in the orthonormalized monomial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import constants
from .errors import AccuracyFailure, InvalidArgument
from .numerics import QuadratureRule, sphere_rule
from .orbit import (
    Chart,
    ChartPoint,
    FiberHamiltonian,
    OrbitGeometry,
    OrbitSpec,
    hamiltonian_field_complex,
    theta_dz,
)
from .su2 import check_special_unitary


@lru_cache(maxsize=None)
def _shared_rule(n_t: int, n_phi: int) -> QuadratureRule:
    """Read-only sphere rule, built once per size and shared by every caller."""
    rule = sphere_rule(n_t, n_phi)
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def default_rule(spec: OrbitSpec) -> QuadratureRule:
    return _shared_rule(*constants.default_rule_sizes(spec.two_j))


def rule_points(rule: QuadratureRule) -> np.ndarray:
    """Chart coordinates z of the rule nodes (t = cos(theta) substitution)."""
    r = np.sqrt((1.0 - rule.t) / (1.0 + rule.t))
    return r * np.exp(1j * rule.phi)


def measure_weights(spec: OrbitSpec, rule: QuadratureRule) -> np.ndarray:
    """Quadrature weights for integrals against d nu in the chart."""
    two_j = spec.two_j
    prefactor = (two_j + 1) / np.pi
    jac = prefactor * 2.0 ** (-(two_j + 2)) * (1.0 + rule.t) ** two_j
    return jac * rule.weights


def exact_monomial_norms_sq(spec: OrbitSpec) -> np.ndarray:
    """Closed form ||z^k||^2 = 1/binom(two_j, k) (radial Beta integral)."""
    return np.array([1.0 / comb(spec.two_j, k) for k in range(spec.dim)])


@dataclass(frozen=True)
class FiberBasis:
    spec: OrbitSpec
    degrees: np.ndarray
    norms: np.ndarray      # quadrature monomial norms, ||z^k||
    gram: np.ndarray       # quadrature Gram matrix of the monomials

    def eval(self, z: np.ndarray) -> np.ndarray:
        """Orthonormal basis values e_k(z); shape (n, len(z))."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        powers = z[None, :] ** self.degrees[:, None]
        return powers / self.norms[:, None]

    def eval_deriv(self, z: np.ndarray) -> np.ndarray:
        """Derivatives e_k'(z); shape (n, len(z))."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        k = self.degrees[1:, None]
        out = np.zeros((self.spec.dim, z.size), dtype=complex)
        out[1:] = k * z[None, :] ** (k - 1) / self.norms[1:, None]
        return out


@dataclass(frozen=True)
class FiberSection:
    """Coefficients of a polarized section in the orthonormal basis."""

    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.ndim != 1:
            raise InvalidArgument("section coefficients must be a vector")


@dataclass(frozen=True)
class PrequantOperator:
    matrix: np.ndarray
    hamiltonian: FiberHamiltonian


@dataclass(frozen=True)
class QuantizedTransition:
    group_element: np.ndarray
    matrix: np.ndarray


def build_basis(spec: OrbitSpec, rule: QuadratureRule | None = None) -> FiberBasis:
    """Monomial Gram matrix by quadrature, checked against the Beta oracle."""
    if rule is None:
        rule = default_rule(spec)
    z = rule_points(rule)
    w = measure_weights(spec, rule)
    degrees = np.arange(spec.dim)
    powers = z[None, :] ** degrees[:, None]
    gram = (powers * w[None, :]) @ powers.conj().T
    gram = gram.T  # gram[k, l] = <z^k, z^l>
    diag = gram.diagonal().real
    off = gram - np.diag(diag)
    if not np.max(np.abs(off)) <= 1e-10:
        raise AccuracyFailure("monomial Gram matrix has off-diagonal leakage; rule under-resolved")
    exact = exact_monomial_norms_sq(spec)
    rel = np.max(np.abs(diag - exact) / exact)
    if not rel <= 1e-8:
        raise AccuracyFailure(f"Gram deviates from the closed form by {rel:.2e}; rule under-resolved")
    return FiberBasis(spec=spec, degrees=degrees, norms=np.sqrt(diag), gram=gram)


def _prequant_pointwise(geom: OrbitGeometry, w: FiberHamiltonian, z: np.ndarray,
                        f_vals: np.ndarray, f_deriv: np.ndarray) -> np.ndarray:
    """Apply O(w) = -i nabla_{H_w} + w to section values in the chart frame.

    For values f and derivative f' of a polarized section,
    O(w) f = -i h_w f' + (w - <theta, H_w>) f with h_w the dz-component
    of the Hamiltonian field.  ``f_vals`` and ``f_deriv`` are (n, len(z))
    blocks, one row per basis section; the node data is computed once,
    as one array-valued call per kernel.
    """
    pt = ChartPoint(Chart.NORTH, z)
    h = hamiltonian_field_complex(geom, w, pt)
    theta = theta_dz(geom, pt)
    wv = w.value(pt)
    return -1j * h * f_deriv + (wv - theta * h) * f_vals


def prequant_matrix(
    geom: OrbitGeometry,
    basis: FiberBasis,
    w: FiberHamiltonian,
    rule: QuadratureRule | None = None,
) -> PrequantOperator:
    """Matrix elements <e_nu | O(w) e_mu> by quadrature."""
    if rule is None:
        rule = default_rule(basis.spec)
    z = rule_points(rule)
    wts = measure_weights(basis.spec, rule)
    vals = basis.eval(z)
    applied = _prequant_pointwise(geom, w, z, vals, basis.eval_deriv(z))
    matrix = (vals.conj() * wts[None, :]) @ applied.T
    herm = np.linalg.norm(matrix - matrix.conj().T, 2)
    if not herm <= 1e-8:
        raise AccuracyFailure(f"prequantization matrix not Hermitian to tolerance ({herm:.2e})")
    return PrequantOperator(matrix=matrix, hamiltonian=w)


def polarization_residual(
    geom: OrbitGeometry,
    basis: FiberBasis,
    w: FiberHamiltonian,
    rule: QuadratureRule | None = None,
) -> float:
    """Largest leakage of O(w) e_k outside the polarized subspace.

    The component orthogonal to the polarized span is formed pointwise on
    the quadrature nodes (avoiding norm-difference cancellation) and its
    L^2(d nu) norm is returned, maximized over basis columns.
    """
    if rule is None:
        rule = _shared_rule(*constants.residual_rule_sizes(basis.spec.two_j))
    z = rule_points(rule)
    wts = measure_weights(basis.spec, rule)
    vals = basis.eval(z)
    applied = _prequant_pointwise(geom, w, z, vals, basis.eval_deriv(z))
    # Stacked matrix-vector products, one per basis column: the same
    # kernels a per-column loop calls, so the residual is unchanged to the bit.
    coeffs = np.matmul(vals.conj() * wts[None, :], applied[:, :, None])[..., 0]
    leak = applied - np.matmul(coeffs[:, None, :], vals)[:, 0, :]
    norm_sq = np.matmul((np.abs(leak) ** 2)[:, None, :], wts)[:, 0]
    return float(np.sqrt(np.maximum(norm_sq, 0.0)).max())


def quantize_transition(spec: OrbitSpec, basis: FiberBasis, g: np.ndarray) -> QuantizedTransition:
    """Unitary action of g on polarized sections, lifted by the factor of
    automorphy.

    For g = [[a, b], [-conj(b), conj(a)]] the operator substitutes the
    inverse Moebius map,

        (X(g) p)(z) = (conj(b) z + a)^{two_j} p((conj(a) z - b)/(conj(b) z + a)),

    which composes as a true representation: X(g1 g2) = X(g1) X(g2).
    On the monomial z^k the image is (conj(a) z - b)^k (conj(b) z + a)^{two_j - k},
    expanded exactly by binomial convolution.
    """
    g = check_special_unitary(g)
    a, b = g[0, 0], g[0, 1]
    two_j = spec.two_j
    n = spec.dim
    mono = np.zeros((n, n), dtype=complex)
    for k in range(n):
        p1 = np.zeros(k + 1, dtype=complex)          # (conj(a) z - b)^k
        for i in range(k + 1):
            p1[i] = comb(k, i) * np.conj(a) ** i * (-b) ** (k - i)
        p2 = np.zeros(two_j - k + 1, dtype=complex)  # (conj(b) z + a)^{two_j - k}
        for l in range(two_j - k + 1):
            p2[l] = comb(two_j - k, l) * np.conj(b) ** l * a ** (two_j - k - l)
        mono[:, k] = np.convolve(p1, p2)
    matrix = basis.norms[:, None] * mono / basis.norms[None, :]
    dev = np.linalg.norm(matrix.conj().T @ matrix - np.eye(n), 2)
    if not dev <= 1e-9:
        raise AccuracyFailure(f"quantized transition not unitary to tolerance ({dev:.2e})")
    return QuantizedTransition(group_element=g, matrix=matrix)
