"""The quantum fiber: polarized sections, inner products, operators.

Wavefunctions are polynomials of degree <= two_j in the chart coordinate,
square-integrable against d nu = ((two_j+1)/pi)(1+|z|^2)^(-(two_j+2)) dA.
Monomials are orthogonal with ||z^k||^2 = 1/binom(two_j, k); everything
downstream works in the orthonormalized monomial basis.  The fiber is a
function of its spin alone: a ``FiberBasis`` is built on the spin's default
rule, which integrates every Gram and operator integrand exactly, and every
operator here is assembled from the basis alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import constants
from .errors import AccuracyFailure
from .numerics import QuadratureRule, spectral_norm, sphere_rule
from .orbit import (
    Chart,
    ChartPoint,
    FiberHamiltonian,
    OrbitSpec,
    hamiltonian_field_complex,
    theta_dz,
)
from .su2 import TAU, check_special_unitary


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
    """Orthonormalized monomials of the weight ``spec`` fiber, built on ``default_rule(spec)``."""

    spec: OrbitSpec
    norms: np.ndarray      # quadrature monomial norms, ||z^k||
    gram: np.ndarray       # quadrature Gram matrix of the monomials

    def eval(self, z: np.ndarray) -> np.ndarray:
        """Orthonormal basis values e_k(z); shape (n, len(z))."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        powers = z[None, :] ** np.arange(self.spec.dim)[:, None]
        return powers / self.norms[:, None]

    def eval_deriv(self, z: np.ndarray) -> np.ndarray:
        """Derivatives e_k'(z); shape (n, len(z))."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        k = np.arange(1, self.spec.dim)[:, None]
        out = np.zeros((self.spec.dim, z.size), dtype=complex)
        out[1:] = k * z[None, :] ** (k - 1) / self.norms[1:, None]
        return out


def build_basis(spec: OrbitSpec) -> FiberBasis:
    """Monomial Gram matrix by quadrature on the default rule, checked against the Beta oracle.

    That rule resolves the Gram matrix at every spin; where the check fails,
    z**k against the weight (1 + |z|^2)^-(2j+2) has lost the precision, and a
    finer rule does not bring it back.
    """
    rule = default_rule(spec)
    z = rule_points(rule)
    w = measure_weights(spec, rule)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = z[None, :] ** np.arange(spec.dim)[:, None]
    if not np.all(np.isfinite(powers)):
        raise AccuracyFailure(f"monomial powers z**k overflow on the quadrature nodes "
                              f"at two_j = {spec.two_j}")
    gram = (powers * w[None, :]) @ powers.conj().T
    gram = gram.T  # gram[k, l] = <z^k, z^l>
    cause = f"at two_j = {spec.two_j}; the monomial basis z**k loses precision at this spin"
    diag = gram.diagonal().real
    off = gram - np.diag(diag)
    if not np.max(np.abs(off)) <= 1e-10:
        raise AccuracyFailure(f"monomial Gram matrix has off-diagonal leakage {cause}")
    exact = exact_monomial_norms_sq(spec)
    rel = np.max(np.abs(diag - exact) / exact)
    if not rel <= 1e-8:
        raise AccuracyFailure(f"Gram deviates from the closed form by {rel:.2e} {cause}")
    return FiberBasis(spec=spec, norms=np.sqrt(diag), gram=gram)


def _prequant_pointwise(basis: FiberBasis, w: FiberHamiltonian, z: np.ndarray, f_vals: np.ndarray) -> np.ndarray:
    """Apply O(w) = -i nabla_{H_w} + w to the basis sections in the chart frame.

    For values f and derivative f' of a polarized section,
    O(w) f = -i h_w f' + (w - <theta, H_w>) f with h_w the dz-component
    of the Hamiltonian field.  ``f_vals`` is the (n, len(z)) block of the
    basis values, one row per basis section; the node data is computed
    once, as one array-valued call per kernel.  A stack of k Hamiltonians
    gives (k, n, len(z)): a basis-row axis goes in front of w's node axis.
    The derivatives are dropped once their term is formed, so a stack
    holds two such blocks at its peak.
    """
    pt = ChartPoint(Chart.NORTH, z)
    h, wv = (x[..., None, :] if np.ndim(x) else x for x in (hamiltonian_field_complex(basis.spec, w, pt), w.value(pt)))
    deriv_term = -1j * h * basis.eval_deriv(z)
    applied = (wv - theta_dz(basis.spec, pt) * h) * f_vals
    applied += deriv_term
    return applied


def prequant_matrix(basis: FiberBasis, w: FiberHamiltonian) -> np.ndarray:
    """Matrix elements <e_nu | O(w) e_mu> by quadrature on the basis's default rule, (..., n, n) for a stack of
    fiber Hamiltonians; each is checked Hermitian to 1e-8, and the message gives the worst deviation."""
    rule = default_rule(basis.spec)
    z = rule_points(rule)
    wts = measure_weights(basis.spec, rule)
    vals = basis.eval(z)
    applied = _prequant_pointwise(basis, w, z, vals)
    matrix = (vals.conj() * wts[None, :]) @ applied.swapaxes(-1, -2)
    herm = spectral_norm(matrix - matrix.conj().swapaxes(-1, -2))
    if not np.all(herm <= 1e-8):
        raise AccuracyFailure(f"prequantization matrix not Hermitian to tolerance ({np.max(herm):.2e})")
    return matrix


def polarization_residual(basis: FiberBasis, w: FiberHamiltonian) -> float:
    """Largest leakage of O(w) e_k outside the polarized subspace, over a stack's members too.

    The leakage integrand is not polynomial, so it is integrated on the
    oversized residual rule, not on the default rule.  The component
    orthogonal to the polarized span is formed pointwise on its nodes
    (avoiding norm-difference cancellation) and its L^2(d nu) norm is
    returned, maximized over basis columns.
    """
    rule = _shared_rule(*constants.residual_rule_sizes(basis.spec.two_j))
    z = rule_points(rule)
    wts = measure_weights(basis.spec, rule)
    vals = basis.eval(z)
    applied = _prequant_pointwise(basis, w, z, vals)
    # Stacked matrix-vector products, one per basis column and member: the same
    # kernels a per-column loop calls, so the residual is unchanged to the bit.
    # The leak overwrites ``applied``, so a stack holds two blocks at its peak.
    coeffs = np.matmul(vals.conj() * wts[None, :], applied[..., None])[..., 0]
    leak = np.subtract(applied, np.matmul(coeffs[..., None, :], vals)[..., 0, :], out=applied)
    norm_sq = np.matmul((np.abs(leak) ** 2)[..., None, :], wts)[..., 0]
    return float(np.sqrt(np.maximum(norm_sq, 0.0)).max())


def monomial_generators(spec: OrbitSpec) -> np.ndarray:
    """rho(tau_a) on the monomials z^k, shape (3, n, n): the derivative of ``spin_lift`` at the identity.

    Along (a, b) = (1, 0) + s (a', b'), with (a', b') the first row of tau_a,
    the monomial image (conj(a) z - b)^k (conj(b) z + a)^{two_j - k} has derivative
    k (conj(a') z^k - b' z^{k-1}) + (two_j - k) (conj(b') z^{k+1} + a' z^k):
    a tridiagonal matrix.
    """
    two_j, k = spec.two_j, np.arange(spec.dim)
    return np.array([np.diag(k * np.conj(a) + (two_j - k) * a) - np.diag(k[1:] * b, 1)
                     + np.diag((two_j - k[:-1]) * np.conj(b), -1) for a, b in TAU[:, 0]])


@lru_cache(maxsize=None)
def _rotation_eigenbasis(spec: OrbitSpec) -> tuple:
    """Exact monomial norms ||z^k||, the weights m = k - j, and the eigenvectors V of
    i rho(tau_2) in the exact orthonormal monomial basis, built once per spin.
    i rho(tau_2) is Hermitian with the simple spectrum m, ascending as ``eigh`` returns it."""
    norms = np.sqrt(exact_monomial_norms_sq(spec))
    _, vecs = np.linalg.eigh(1j * norms[:, None] * monomial_generators(spec)[1] / norms[None, :])
    table = (norms, np.arange(spec.dim) - spec.j, vecs)
    for arr in table:
        arr.setflags(write=False)
    return table


def spin_lift(basis: FiberBasis, u: np.ndarray) -> np.ndarray:
    """X(u) on the basis's fiber, for a stack u (..., 2, 2) of quaternions [[a, b], [-conj(b), conj(a)]].

    Reads a and b from the first row and checks nothing, so a stack of
    first rows (..., 1, 2) lifts alike: a quaternion of norm r lifts to
    r^{two_j} X(u / r).  For g in SU(2) the operator substitutes the
    inverse Moebius map,

        (X(g) p)(z) = (conj(b) z + a)^{two_j} p((conj(a) z - b)/(conj(b) z + a)),

    a true representation: X(g1 g2) = X(g1) X(g2).  It is the Wigner-D product
    of u / r = D(psi1) R(beta) D(psi2), with D(psi) = diag(e^{i psi}, e^{-i psi}),
    R(beta) = exp(-beta tau_2), beta = 2 atan2(|b|, |a|) and psi1, psi2 = (arg a +- arg b) / 2,
    with arg b = 0 where b == 0, so that the sign of a zero b does not reach the lift.
    D(psi) lifts to the phases e^{-2i psi m}, m = k - j, and R(beta) to exp(-beta rho(tau_2))
    = I + V diag(expm1(i beta m)) V^dagger, so X is unitary to round-off at every spin.
    Each stack element is computed alone, in place: stacked and single calls agree bit for bit,
    and a stack of N lifts holds two (N, n, n) arrays at its peak.
    """
    u = np.asarray(u, dtype=complex)
    norms, m, vecs = _rotation_eigenbasis(basis.spec)
    a, b = u[..., 0, 0], u[..., 0, 1]
    arg_a, arg_b = np.angle(a)[..., None], np.where(b == 0.0, 0.0, np.angle(b))[..., None]
    beta = 2.0 * np.arctan2(np.abs(b), np.abs(a))[..., None]
    left, right = np.exp(-1j * (arg_a + arg_b) * m), np.exp(-1j * (arg_a - arg_b) * m)
    scale = np.hypot(np.abs(a), np.abs(b))[..., None] ** basis.spec.two_j
    ratio = basis.norms / norms
    lifted = (vecs * np.expm1(1j * beta * m)[..., None, :]) @ vecs.conj().T
    lifted += np.eye(m.size)
    lifted *= (scale * ratio * left)[..., :, None]
    lifted *= (right / ratio)[..., None, :]
    return lifted


def quantize_transition(basis: FiberBasis, g: np.ndarray) -> np.ndarray:
    """X(g) (``spin_lift``) for each element of a stack g (..., 2, 2) in SU(2), shaped (..., n, n); a single
    element is the stack of shape ().  Each lift is checked unitary to 1e-9 in the Frobenius norm, which
    bounds the 2-norm from above; the message gives the worst element's deviation."""
    matrix = spin_lift(basis, check_special_unitary(g))
    dev = np.linalg.norm(matrix.conj().swapaxes(-1, -2) @ matrix - np.eye(basis.spec.dim), axis=(-2, -1))
    if not np.all(dev <= 1e-9):
        raise AccuracyFailure(f"quantized transition not unitary to tolerance (Frobenius norm {np.max(dev):.2e})")
    return matrix
