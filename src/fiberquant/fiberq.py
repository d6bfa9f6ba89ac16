"""The quantum fiber: polarized sections, inner products, operators.

Wavefunctions are polynomials of degree <= two_j in the chart coordinate,
square-integrable against d nu = ((two_j+1)/pi)(1+|z|^2)^(-(two_j+2)) dA.
Monomials are orthogonal with ||z^k||^2 = 1/binom(two_j, k); everything
downstream works in the orthonormalized monomial basis.  A ``FiberBasis``
carries the spin and the quadrature rule its Gram matrix was built on, and
every operator here is assembled from the basis alone.
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
    """Orthonormalized monomials of the weight ``spec`` fiber, built on ``rule``."""

    spec: OrbitSpec
    rule: QuadratureRule
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


def build_basis(spec: OrbitSpec, rule: QuadratureRule | None = None) -> FiberBasis:
    """Monomial Gram matrix by quadrature, checked against the Beta oracle."""
    if rule is None:
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
    diag = gram.diagonal().real
    off = gram - np.diag(diag)
    if not np.max(np.abs(off)) <= 1e-10:
        raise AccuracyFailure("monomial Gram matrix has off-diagonal leakage; rule under-resolved")
    exact = exact_monomial_norms_sq(spec)
    rel = np.max(np.abs(diag - exact) / exact)
    if not rel <= 1e-8:
        raise AccuracyFailure(f"Gram deviates from the closed form by {rel:.2e}; rule under-resolved")
    return FiberBasis(spec=spec, rule=rule, norms=np.sqrt(diag), gram=gram)


def _prequant_pointwise(spec: OrbitSpec, w: FiberHamiltonian, z: np.ndarray,
                        f_vals: np.ndarray, f_deriv: np.ndarray) -> np.ndarray:
    """Apply O(w) = -i nabla_{H_w} + w to section values in the chart frame.

    For values f and derivative f' of a polarized section,
    O(w) f = -i h_w f' + (w - <theta, H_w>) f with h_w the dz-component
    of the Hamiltonian field.  ``f_vals`` and ``f_deriv`` are (n, len(z))
    blocks, one row per basis section; the node data is computed once,
    as one array-valued call per kernel.
    """
    pt = ChartPoint(Chart.NORTH, z)
    h = hamiltonian_field_complex(spec, w, pt)
    theta = theta_dz(spec, pt)
    wv = w.value(pt)
    return -1j * h * f_deriv + (wv - theta * h) * f_vals


def prequant_matrix(basis: FiberBasis, w: FiberHamiltonian) -> np.ndarray:
    """Matrix elements <e_nu | O(w) e_mu> by quadrature on the basis's rule."""
    z = rule_points(basis.rule)
    wts = measure_weights(basis.spec, basis.rule)
    vals = basis.eval(z)
    applied = _prequant_pointwise(basis.spec, w, z, vals, basis.eval_deriv(z))
    matrix = (vals.conj() * wts[None, :]) @ applied.T
    herm = spectral_norm(matrix - matrix.conj().T)
    if not herm <= 1e-8:
        raise AccuracyFailure(f"prequantization matrix not Hermitian to tolerance ({herm:.2e})")
    return matrix


def polarization_residual(basis: FiberBasis, w: FiberHamiltonian) -> float:
    """Largest leakage of O(w) e_k outside the polarized subspace.

    The leakage integrand is not polynomial, so it is integrated on the
    oversized residual rule, not on the basis's rule.  The component
    orthogonal to the polarized span is formed pointwise on its nodes
    (avoiding norm-difference cancellation) and its L^2(d nu) norm is
    returned, maximized over basis columns.
    """
    rule = _shared_rule(*constants.residual_rule_sizes(basis.spec.two_j))
    z = rule_points(rule)
    wts = measure_weights(basis.spec, rule)
    vals = basis.eval(z)
    applied = _prequant_pointwise(basis.spec, w, z, vals, basis.eval_deriv(z))
    # Stacked matrix-vector products, one per basis column: the same
    # kernels a per-column loop calls, so the residual is unchanged to the bit.
    coeffs = np.matmul(vals.conj() * wts[None, :], applied[:, :, None])[..., 0]
    leak = applied - np.matmul(coeffs[:, None, :], vals)[:, 0, :]
    norm_sq = np.matmul((np.abs(leak) ** 2)[:, None, :], wts)[:, 0]
    return float(np.sqrt(np.maximum(norm_sq, 0.0)).max())


_LIFT_CHUNK_TERMS = 1 << 14  # lift terms per stacked block: 1 MB of gathered powers


@lru_cache(maxsize=None)
def _lift_terms(two_j: int) -> tuple:
    """Term table of the binomial convolution behind X(g), built once per spin.

    The monomial z^k maps to (conj(a) z - b)^k (conj(b) z + a)^{two_j - k},
    whose z^m coefficient sums, over i + l = m,
    binom(k, i) binom(two_j - k, l) (-1)^(k-i) conj(a)^i conj(b)^l a^(two_j-k-l) b^(k-i).
    Returns the signed coefficients, the four power indices of each term
    into the table [conj(a)^p, conj(b)^p, a^p, b^p] (p = 0..two_j), and the
    first term of each output entry m * n + k; terms are sorted by entry.
    """
    n = two_j + 1
    rows = sorted((m * n + k, (-1) ** (k - i) * comb(k, i) * comb(two_j - k, m - i),
                   i, n + m - i, 2 * n + two_j - k - m + i, 3 * n + k - i)
                  for k in range(n) for m in range(n)
                  for i in range(max(0, m - two_j + k), min(k, m) + 1))
    entry, coef, *index = (np.array(col) for col in zip(*rows))
    table = (coef.astype(float), np.stack(index, axis=-1), np.flatnonzero(np.diff(entry, prepend=-1)))
    for arr in table:
        arr.setflags(write=False)
    return table


def spin_lift(basis: FiberBasis, u: np.ndarray) -> np.ndarray:
    """X(u) on the basis's fiber, for a stack u (..., 2, 2) of quaternions [[a, b], [-conj(b), conj(a)]].

    Reads a and b from the first row and checks nothing: a quaternion of
    norm r lifts to r^{two_j} X(u / r).  For g in SU(2) the operator
    substitutes the inverse Moebius map,

        (X(g) p)(z) = (conj(b) z + a)^{two_j} p((conj(a) z - b)/(conj(b) z + a)),

    which composes as a true representation: X(g1 g2) = X(g1) X(g2).  On
    the monomial z^k the image is (conj(a) z - b)^k (conj(b) z + a)^{two_j - k},
    expanded exactly by binomial convolution, one ``_lift_terms`` sum per
    entry.  Each stack element is computed alone, so a stacked call and
    the single calls agree bit for bit.
    """
    u = np.asarray(u, dtype=complex)
    n = basis.spec.dim
    coef, index, starts = _lift_terms(basis.spec.two_j)
    first_rows = u[..., 0, :].reshape(-1, 2)
    mono = np.empty((first_rows.shape[0], n * n), dtype=complex)
    chunk = max(_LIFT_CHUNK_TERMS // coef.size, 1)
    for c0 in range(0, first_rows.shape[0], chunk):
        powers = (first_rows[c0:c0 + chunk, :, None] ** np.arange(n)).reshape(-1, 2 * n)
        table = np.concatenate([powers.conj(), powers], axis=-1)
        # np.take keeps each term's four factors contiguous, so .prod multiplies
        # them in one order, with no fused multiply-add, whatever the stack size.
        terms = coef * np.take(table, index, axis=-1).prod(axis=-1)
        mono[c0:c0 + chunk] = np.add.reduceat(terms, starts, axis=-1)
    mono = mono.reshape(u.shape[:-2] + (n, n))
    return basis.norms[:, None] * mono / basis.norms[None, :]


def quantize_transition(basis: FiberBasis, g: np.ndarray) -> np.ndarray:
    """Unitary action X(g) of g in SU(2) on polarized sections (``spin_lift``),
    checked to be unitary to 1e-9."""
    matrix = spin_lift(basis, check_special_unitary(g))
    dev = np.linalg.norm(matrix.conj().T @ matrix - np.eye(basis.spec.dim), 2)
    if not dev <= 1e-9:
        raise AccuracyFailure(f"quantized transition not unitary to tolerance ({dev:.2e})")
    return matrix
