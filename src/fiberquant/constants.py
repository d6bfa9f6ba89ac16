"""Frozen convention ledger.

Every global sign and normalization used by the package is fixed here, in
one place, and asserted by the test suite.  Nothing else in the code base
is allowed to re-derive or silently re-choose any of these.

Calibration that fixed the signs:

* ``S_OMEGA``: the symplectic form on the weight-j sphere is
  ``S_OMEGA * 4j/(1+|z|^2)^2 dx dy`` in either stereographic chart.  The
  sign is pinned by requiring that the operator assigned to the axis-3
  moment function at two_j = 1 acts on the constant section with
  eigenvalue +1/2 (measured: +1).
* ``S_POISSON``: {H_a, H_b} = S_POISSON * H_{a x b} for linear moment
  functions (measured: +1).
* ``S_DIRAC``: [O(H_a), O(H_b)] = S_DIRAC * i * O(H_{a x b})
  (measured: -1).
* ``MONOPOLE_HOLONOMY_SIGN``: latitude-loop transport phases for a
  monopole model of strength k are exp(i * sign * k * m * solid_angle)
  with sign = MONOPOLE_HOLONOMY_SIGN (measured: -1).
* su(2) generators are TAU[a] = -(i/2) * sigma[a], anti-Hermitian with
  [TAU1, TAU2] = TAU3; moment directions and potentials are expressed in
  this basis.
* Quantized transitions substitute the inverse group element, lifted by
  the factor of automorphy, so that the matrices form a true
  representation of SU(2); one-parameter phases for
  g = diag(e^{it/2}, e^{-it/2}) are e^{i m t}, m = j..-j down the basis.
* Transport states are column coefficient vectors; the transport unitary
  W satisfies Psi(1) = W Psi(0) and chart crossings insert the transition
  on the left.  A march with a group action inserts g itself into the 2x2
  transport U in SU(2) and returns W = X(U), the quantized transition's
  lift X applied once to the product; any other march inserts X(g).
"""

VERSION = "0.1.0"

S_OMEGA = +1
S_POISSON = +1
S_DIRAC = -1
MONOPOLE_HOLONOMY_SIGN = -1

# Default quadrature sizes for the fiber Hilbert space (exact for the
# polynomial integrands that occur in basis and operator assembly).
def default_rule_sizes(two_j: int) -> tuple[int, int]:
    return two_j + 8, 2 * two_j + 9


# Oversized rule for polarization-leakage checks, which involve
# non-polynomial integrands.
def residual_rule_sizes(two_j: int) -> tuple[int, int]:
    return two_j + 16, 2 * two_j + 25


# Numerical step defaults; each stencil's error budget is noted at its use site.
# The rep generators (``gauge.build_rep``) are exact and take no step.
RK4_STEPS_PER_UNIT = 1000
FD_STEP_GAUGE = 1.0e-5       # dX in the gauge-law residual
FD_STEP_FORM = 1.0e-5        # exterior-derivative stencils on the total space
CROSSING_BISECT_TOL = 1.0e-10


def conventions_record() -> dict:
    """Snapshot of the frozen constants, embedded in every result document."""
    return {
        "version": VERSION,
        "s_omega": S_OMEGA,
        "s_poisson": S_POISSON,
        "s_dirac": S_DIRAC,
        "monopole_holonomy_sign": MONOPOLE_HOLONOMY_SIGN,
        "tau_normalization": "tau_a = -(i/2) sigma_a",
        "measure": "((two_j+1)/pi) (1+|z|^2)^(-(two_j+2)) dA",
        "transport_convention": "column vectors, Psi(1) = W Psi(0)",
    }
