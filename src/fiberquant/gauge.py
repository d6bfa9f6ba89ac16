"""Bundle layer: base charts, gauge potentials, orbit functions, connections.

A ``GaugeModel`` is base data over the plane or the two-chart sphere, with
T*Q represented by (q, p) pairs: per chart a ``ChartData`` (su(2) potential,
contracted with dq in closed form, and domain), per ordered chart pair an
``Overlap`` (transition and the change of coordinates (q, dq) -> (q', dq')).
The total space carries the minimal-coupling form p dq + <mu, A(dq)> + theta,
whose potential is pulled back from Q and which has no dp term: a connection
value, orbit function or horizontal lift reads only q and dq, so a base
point is its chart name and q array and a base tangent is its dq array,
each q or dq of shape (2,), or (..., 2) for a stack.  Connection values,
residuals and total-space components compute a single point as a stack
of length 1.  Only the canonical term p dq reads p
(``alpha_total_components``).
``check_model`` tests a model against the ``FiberBasis`` in use: its
potentials against its transitions, and minimal coupling, which holds for
every potential at a spin once the three moment functions' operators
preserve the polarization there (``polarization_residual`` on their stack).  The
connection on the quantum bundle is the potential's tau-coefficients
contracted with a ``LieAlgebraRep``, three generator matrices built from
the ``FiberBasis`` alone, in two independent ways:

* ``quadrature_rep`` takes i O(mu_a) of the three moment functions, with
  O the prequantum operator by quadrature (Kostant-Souriau), and
* ``build_rep`` takes the derivative of the group action X (``spin_lift``)
  at the identity, in closed form.

``connection_rep_batch`` is the one contraction, a real matmul; the
agreement of the two generator sets is the package's central cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import constants
from .errors import AccuracyFailure, ChartError, ConfigurationError, InvalidArgument
from .fiberq import (
    FiberBasis,
    monomial_generators,
    polarization_residual,
    prequant_matrix,
    quantize_transition,
)
from .numerics import central_difference, richardson_difference, spectral_norm
from .orbit import (
    Chart,
    ChartPoint,
    FiberHamiltonian,
    OrbitSpec,
    _moment_functions,
    hamiltonian_field,
    kahler_potential_at,
    moment_hamiltonian,
)
from .su2 import TAU, su2_exp

# Chart validity for the sphere base: north keeps colatitude <= 3*pi/4,
# south keeps colatitude >= pi/4 (stereographic radius tan(theta/2)).
_SPHERE_CHART_RADIUS_SQ = float(np.tan(3.0 * np.pi / 8.0) ** 2)


@dataclass(frozen=True)
class LieAlgebraRep:
    """Anti-Hermitian images of the su(2) generators on the quantum fiber.

    ``group_action`` is the basis whose ``spin_lift`` the generators
    differentiate, so that a path-ordered exponential of them
    is the ``spin_lift`` of the 2x2 one; None when no group action is known.
    """

    matrices: np.ndarray  # shape (3, n, n)
    group_action: FiberBasis | None = None

    def commutator_residual(self) -> float:
        """Largest 2-norm of [X_a, X_b] - X_c over the cyclic (a, b, c), the three as one stack."""
        x, y, z = self.matrices, self.matrices[[1, 2, 0]], self.matrices[[2, 0, 1]]
        return float(np.max(spectral_norm(x @ y - y @ x - z)))


@dataclass(frozen=True)
class ChartData:
    """A chart's potential and its domain, boundary(q) <= 0 (None: the whole plane).
    ``potential(q, dq)`` maps points and tangents (..., 2) to the real
    tau-coefficients (..., 3) of <A(q), dq>: [a] multiplies TAU[a].  A tangent
    is only its dq: the minimal-coupling form has no dp term."""

    potential: Callable[[np.ndarray, np.ndarray], np.ndarray]
    boundary: Callable[[np.ndarray], np.ndarray] | None = None

    def holds(self, q: np.ndarray) -> np.ndarray:
        """Whether each point of q (..., 2) lies in the chart, shaped (...)."""
        return np.full(np.shape(q)[:-1], True) if self.boundary is None else self.boundary(q) <= 0.0


@dataclass(frozen=True)
class Overlap:
    """Ordered chart pair (i, j): the transition g(q) in SU(2) at the chart-i point q,
    and the change of coordinates (q, dq) -> (q', dq') of a base point and tangent; both take
    stacks, ``transition`` mapping points (..., 2) to elements (..., 2, 2)."""

    transition: Callable[[np.ndarray], np.ndarray]
    convert: Callable[[np.ndarray, np.ndarray], tuple]


@dataclass(frozen=True)
class GaugeModel:
    spec: OrbitSpec
    kind: str
    charts: dict  # name -> ChartData
    overlaps: dict = field(default_factory=dict)  # (from chart, to chart) -> Overlap

    def chart_data(self, chart: str, q: np.ndarray) -> ChartData:
        """The data of ``chart``, checked to be a chart of the model whose domain holds q (..., 2) (else ChartError,
        naming the first point outside)."""
        if chart not in self.charts:
            raise ChartError(f"unknown chart {chart!r}")
        data = self.charts[chart]
        inside = np.ravel(data.holds(q))
        if not np.all(inside):
            raise ChartError(f"point {np.reshape(q, (-1, 2))[~inside][0]} outside chart {chart!r}")
        return data

    def other_chart(self, name: str) -> str | None:
        return next((j for i, j in self.overlaps if i == name), None)


def check_spin(basis: FiberBasis, what: str, two_j: int) -> None:
    """Raise InvalidArgument unless ``what`` (of spin ``two_j``) acts on the basis's fiber."""
    if two_j != basis.spec.two_j:
        raise InvalidArgument(f"{what} has two_j = {two_j} but the basis has two_j = {basis.spec.two_j}; "
                              "build both from one OrbitSpec")


# The fiber trivialization pairs the potential direction with the moment
# functions through a frozen orientation: generator coefficients
# (c1, c2, c3) map to the moment direction (c1, -c2, -c3).  This is the
# unique choice under which the quadrature connection coincides with the
# representation connection (asserted by the equivalence tests).
_MOMENT_TWIST = np.array([1.0, -1.0, -1.0])


def orbit_function(model: GaugeModel, chart: str, q: np.ndarray, dq: np.ndarray) -> FiberHamiltonian:
    """The fiber Hamiltonian induced by the potential at the chart points q (..., 2) along the base tangents dq
    (..., 2); on a stack, its values at fiber points of the stack's shape are one per point."""
    coeffs = model.chart_data(chart, q).potential(q, dq) * _MOMENT_TWIST
    return moment_hamiltonian(model.spec, np.moveaxis(coeffs, -1, 0))


def horizontal_lift(model: GaugeModel, chart: str, q: np.ndarray, dq: np.ndarray, f: ChartPoint) -> np.ndarray:
    """Fiber part -H_w, shaped (2,) + f.z.shape, of the horizontal lift (dq, 0, -H_w) of a base tangent at f.

    Its base part is dq itself, and its p-velocity is 0: the minimal-coupling
    form has no dp term, so no p-velocity enters the lift."""
    return -hamiltonian_field(model.spec, orbit_function(model, chart, q, dq), f)


def quadrature_rep(basis: FiberBasis) -> LieAlgebraRep:
    """Generators i * _MOMENT_TWIST[a] * <e_nu | O(mu_a) e_mu> of the moment functions, by quadrature:
    one ``prequant_matrix`` call on the stack of the three.

    O(w) is linear in w, so the connection value i O(w) of the orbit
    function is the potential contracted with these three matrices.  Every
    value is a real combination of them, so the anti-Hermiticity guard
    runs here, once per generator.
    """
    mats = 1j * _MOMENT_TWIST[:, None, None] * prequant_matrix(basis, _moment_functions(basis.spec))
    dev = spectral_norm(mats + np.swapaxes(mats, -1, -2).conj())
    if not np.all(dev <= 1e-8):
        raise AccuracyFailure(f"quadrature generator not anti-Hermitian ({np.max(dev):.2e})")
    return LieAlgebraRep(matrices=mats)


def build_rep(basis: FiberBasis) -> LieAlgebraRep:
    """rho(tau_a) = d/ds X(exp(s tau_a)) at s = 0, the derivative of ``spin_lift`` in closed form:
    the tridiagonal ``monomial_generators``, carried to the orthonormal basis by the norms."""
    mono = monomial_generators(basis.spec)
    return LieAlgebraRep(matrices=basis.norms[:, None] * mono / basis.norms[None, :], group_action=basis)


def connection_rep(model: GaugeModel, rep: LieAlgebraRep, chart: str, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Connection values (..., n, n) at the chart points q (..., 2) along dq (..., 2), checked against their chart.
    Each point is a one-point ``connection_rep_batch``, the march's contraction: a stack equals its per-point
    calls bit for bit on either route, and a point its row in a larger batch to within that function's bound."""
    q, dq = np.asarray(q, dtype=float), np.asarray(dq, dtype=float)
    model.chart_data(chart, q)
    return connection_rep_batch(model, rep, chart, q[..., None, :], dq[..., None, :])[..., 0, :, :]


def connection_rep_batch(model: GaugeModel, rep: LieAlgebraRep, chart: str, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Vectorized connection values along arrays of points/tangents, shaped like one rep matrix each:
    the real coefficients times the float view (re, im interleaved) of the generators, read as complex.
    One point is a gemv, more a gemm; on the quad route the two differ by <= 3 eps (|coeffs| @ |generators|)."""
    coeffs = model.charts[chart].potential(q, dq)
    generators = rep.matrices.reshape(3, -1).view(np.float64)
    return (coeffs @ generators).view(complex).reshape(coeffs.shape[:-1] + rep.matrices.shape[1:])


def _gauge_law_defect(a_here: np.ndarray, a_there: np.ndarray, transition: Callable, lift: Callable,
                      q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """||a_there - (g a_here g^{-1} + (dg along dq) g^{-1})||_2 for g = lift(transition(q)), dg by the Richardson
    difference, whose truncation error, which grows with g's rate of change, is O(h^4).  q and dq are stacks (..., 2),
    a_here and a_there (..., n, n), the defects (...), inf where not finite (``spectral_norm``).  ``lift`` maps SU(2)
    stacks (..., 2, 2) to their unitaries; it and ``transition`` are called on g, then once on every stencil point."""
    g = lift(transition(q))
    g_inv = g.conj().swapaxes(-1, -2)
    stencil = lambda s: lift(transition(q + np.multiply.outer(s, dq)))
    dg = richardson_difference(stencil, 0.0, constants.FD_STEP_GAUGE)
    return spectral_norm(a_there - (g @ a_here @ g_inv + dg @ g_inv))


def gauge_residual(model: GaugeModel, basis: FiberBasis, rep: LieAlgebraRep, chart: str, q: np.ndarray,
                   dq: np.ndarray) -> float | np.ndarray:
    """Defects (...) of the gauge transformation law across the overlap at the chart points q (..., 2) along dq
    (..., 2); a float for one point.  ChartError if any point lies outside the overlap.

    Compares A in the neighbour chart against
    X A X^{-1} + (dX along dq) X^{-1}, with A the connection of ``rep`` and
    X the quantized transition: the law ``verify_gauge_data`` checks on the
    2x2 potentials, here on the quantum fiber.  The points are one flat
    stack, a single point one of length 1: one ``overlap.convert``, one
    stacked ``connection_rep`` per chart and one ``_gauge_law_defect``.
    """
    target = model.other_chart(chart)
    if target is None:
        raise ChartError(f"chart {chart!r} has no registered overlap")
    overlap = model.overlaps[(chart, target)]
    shape = np.shape(q)[:-1]
    q, dq = np.reshape(np.asarray(q, dtype=float), (-1, 2)), np.reshape(np.asarray(dq, dtype=float), (-1, 2))
    here = connection_rep(model, rep, chart, q, dq)
    there = connection_rep(model, rep, target, *overlap.convert(q, dq))
    defects = _gauge_law_defect(here, there, overlap.transition, lambda g: quantize_transition(basis, g), q, dq)
    return defects.reshape(shape) if shape else float(defects[0])


def curvature(model: GaugeModel, rep: LieAlgebraRep, chart: str, q: np.ndarray, v1: np.ndarray,
              v2: np.ndarray) -> np.ndarray:
    """Field strength at the chart point q on the base tangents (v1, v2) by small-displacement stencils.

    Normalized to the small-loop law of the transport ordering: holonomy
    around the (v1, v2) square of side eps is I + eps^2 F + O(eps^3), so
    F = d1 A(v2) - d2 A(v1) + [A(v2), A(v1)].  Vanishes for pure-gauge
    potentials.  The six stencil points are one stacked ``connection_rep``
    call: A(v2) at q +- h v1, A(v1) at q +- h v2, then A(v1) and A(v2) at q.
    """
    h = 1.0e-5
    shifts = np.array([[h], [-h]])
    up1, down1, up2, down2, a1, a2 = connection_rep(model, rep, chart, np.concatenate(
        [q + shifts * v1, q + shifts * v2, [q, q]]), np.array([v2, v2, v1, v1, v1, v2]))
    return (up1 - down1) / (2.0 * h) - (up2 - down2) / (2.0 * h) + a2 @ a1 - a1 @ a2


def alpha_total_components(model: GaugeModel, chart: str, q: np.ndarray, p: np.ndarray,
                           z: complex | np.ndarray) -> np.ndarray:
    """Chart components (..., 6) of the total-space potential at the points (q, p, z), q and p (..., 2), z (...).

    Coordinates are (q1, q2, p1, p2, x, y); the returned covector pairs
    with real tangents in these coordinates.  Base components combine the
    canonical form with the orbit functions of the unit base directions;
    fiber components are the holomorphic-frame potential
    (``orbit.kahler_potential_at``).  The points are one flat stack, a
    single point one of length 1.
    """
    z = np.asarray(z, dtype=complex)
    q, p = (np.reshape(np.asarray(x, dtype=float), (-1, 2)) for x in (q, p))
    pt = ChartPoint(Chart.NORTH, z.reshape(-1))
    out = np.zeros((len(q), 6), dtype=complex)
    for k in range(2):
        out[:, k] = p[:, k] + orbit_function(model, chart, q, np.broadcast_to(np.eye(2)[k], q.shape)).value(pt)
    out[:, 4:] = kahler_potential_at(model.spec, pt).T
    return out.reshape(z.shape + (6,))


def lift_orthogonality_residual(model: GaugeModel, chart: str, q: np.ndarray, p: np.ndarray, dq: np.ndarray,
                                f: ChartPoint, xi: np.ndarray) -> float | np.ndarray:
    """|Omega_total(lift(dq), vertical xi)| at the total-space points (q, p, f) by a central-difference stencil;
    q, p, dq and the fiber tangents xi (..., 2), f.z (...), the residuals (...), a float for one point.

    The two-form is evaluated on constant coordinate extensions, for which
    d alpha(V1, V2) = D_V1 <alpha, V2> - D_V2 <alpha, V1>.  The lift has no
    p-velocity: the minimal-coupling form has no dp term, so its p components
    in ``alpha_total_components`` are 0.  The points are one flat stack, a
    single point one of length 1, and each stencil is one call on it.
    """
    h = constants.FD_STEP_FORM
    shape = np.shape(f.z)
    z = np.reshape(np.asarray(f.z, dtype=complex), -1)
    q, p, dq, xi = (np.reshape(np.asarray(x, dtype=float), (-1, 2)) for x in (q, p, dq, xi))
    fiber = horizontal_lift(model, chart, q, dq, ChartPoint(f.chart, z)).T
    lift6 = np.concatenate([dq, np.zeros_like(dq), fiber], axis=-1)
    vert6 = np.concatenate([np.zeros((len(z), 4)), xi], axis=-1)
    base = np.concatenate([q, p, np.stack([z.real, z.imag], axis=-1)], axis=-1)

    def pairing(coords: np.ndarray, vec: np.ndarray) -> np.ndarray:
        alpha = alpha_total_components(model, chart, coords[:, 0:2], coords[:, 2:4], coords[:, 4] + 1j * coords[:, 5])
        return np.sum(alpha * vec, axis=-1)

    d1 = central_difference(lambda s: pairing(base + s * lift6, vert6), 0.0, h)
    d2 = central_difference(lambda s: pairing(base + s * vert6, lift6), 0.0, h)
    residuals = np.abs(d1 - d2)
    return residuals.reshape(shape) if shape else float(residuals[0])


def verify_gauge_data(model: GaugeModel, rng: np.random.Generator) -> float:
    """Consistency of the chart potentials with the registered transitions.

    Checks alpha_j = g alpha_i g^{-1} + (dg) g^{-1}, potentials lifted to
    matrices, on 12 points per overlap; returns the worst absolute defect.
    Each overlap draws 1200 candidates as one block (the monopole's in the
    colatitude band pi/3..2pi/3 of chart i, else in [-1, 1]^2), keeps the
    first 12 in both charts (ConfigurationError if fewer) and checks them by
    one stacked ``overlap.convert`` and ``_gauge_law_defect`` call.
    """
    lift = lambda c: np.einsum("...a,aij->...ij", c, TAU)
    worst = 0.0
    for (i, j), overlap in model.overlaps.items():
        if model.kind == "monopole":
            theta, phi = rng.uniform((np.pi / 3.0, 0.0), (2.0 * np.pi / 3.0, 2.0 * np.pi), (1200, 2)).T
            r, s = (np.tan(theta / 2.0), 1.0) if i == "north" else (1.0 / np.tan(theta / 2.0), -1.0)
            q = np.stack([r * np.cos(phi), s * r * np.sin(phi)], axis=-1)
        else:
            q = rng.uniform(-1.0, 1.0, (1200, 2))
        q = q[model.charts[i].holds(q) & model.charts[j].holds(overlap.convert(q, np.zeros_like(q))[0])][:12]
        if len(q) < 12:
            raise ConfigurationError(f"overlap ({i!r}, {j!r}): fewer than 12 sampled points lie in both charts")
        dq = rng.standard_normal((12, 2))
        xi_i = lift(model.charts[i].potential(q, dq))
        xi_j = lift(model.charts[j].potential(*overlap.convert(q, dq)))
        worst = max(worst, float(np.max(_gauge_law_defect(xi_i, xi_j, overlap.transition, np.asarray, q, dq))))
    return worst


# ----------------------------------------------------------------------
# Built-in models
# ----------------------------------------------------------------------

def _constant_potential(coefficients: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """dq_1 coefficients[0] + dq_2 coefficients[1], whatever q; a non-finite dq stays visible
    (inf * 0 is nan), so that it reaches the unitarity guards even through a zero potential."""

    def potential(q, dq):  # full-length products, then one copy: a broadcast over the length-3 axis loops per node
        transposed = np.multiply.outer(coefficients[0], dq[..., 0]) + np.multiply.outer(coefficients[1], dq[..., 1])
        return np.moveaxis(transposed, 0, -1).copy()

    return potential


_ZERO_POTENTIAL = _constant_potential(np.zeros((2, 3)))


def check_model(model: GaugeModel, basis: FiberBasis) -> None:
    """Check a model against the basis it is used with: one spin (else InvalidArgument),
    chart potentials consistent with the overlaps, and minimal coupling: the three
    moment generators preserve the polarization at the basis spin to 1e-6 (else
    ConfigurationError for either)."""
    check_spin(basis, "model", model.spec.two_j)
    data_defect = verify_gauge_data(model, np.random.default_rng(11))
    if not data_defect <= 1e-8:
        raise ConfigurationError(f"chart potentials inconsistent with transitions ({data_defect:.2e})")
    leak = polarization_residual(basis, _moment_functions(basis.spec))
    if not leak <= 1e-6:
        raise ConfigurationError(f"the moment generators break the polarization at two_j = {basis.spec.two_j} "
                                 f"(residual {leak:.2e} > 1.0e-06)")


def trivial_model(spec: OrbitSpec) -> GaugeModel:
    """Zero potential over the plane, single global chart."""
    return GaugeModel(spec=spec, kind="trivial", charts={"main": ChartData(_ZERO_POTENTIAL)})


def constant_model(spec: OrbitSpec, coefficients=None) -> GaugeModel:
    """Constant (generally non-commuting) potential over the plane.

    ``coefficients[k, a]`` multiplies TAU[a] in the dq_k component;
    default is tau_1 dq_1 + tau_2 dq_2.
    """
    if coefficients is None:
        coefficients = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    coefficients = np.array(coefficients, dtype=float)
    if coefficients.shape != (2, 3):
        raise InvalidArgument(f"coefficients must be shaped (2, 3), got {coefficients.shape}")
    return GaugeModel(spec=spec, kind="constant", charts={"main": ChartData(_constant_potential(coefficients))})


def _sphere_convert(q: np.ndarray, dq: np.ndarray) -> tuple:
    """w = 1/z between the stereographic charts, and its tangent map dw = -dz/z^2."""
    z = q[..., 0] + 1j * q[..., 1]
    w = 1.0 / z
    dw = -(dq[..., 0] + 1j * dq[..., 1]) / z**2
    return np.stack([w.real, w.imag], axis=-1), np.stack([dw.real, dw.imag], axis=-1)


def monopole_model(spec: OrbitSpec, strength: int = 1) -> GaugeModel:
    """Embedded abelian monopole over the sphere, two stereographic charts.

    North potential is strength*(1-cos theta) tau_3 dphi, south potential
    strength*(-1-cos theta) tau_3 dphi; both take the same regular form in
    their own chart coordinate.  The overlap transition winds twice around
    the tau_3 one-parameter subgroup per unit strength, which is exactly
    the integrality condition for a single-valued SU(2) transition.
    """
    if int(strength) != strength or strength == 0:
        raise InvalidArgument(f"monopole strength must be a nonzero integer, got {strength}")
    strength = int(strength)

    def potential(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        u1, u2 = q[..., 0], q[..., 1]
        rho = 1.0 + u1**2 + u2**2
        out = np.zeros(np.shape(dq)[:-1] + (3,))
        out[..., 2] = dq[..., 0] * (2.0 * strength * -u2 / rho) + dq[..., 1] * (2.0 * strength * u1 / rho)
        return out

    def boundary(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return q[..., 0] ** 2 + q[..., 1] ** 2 - _SPHERE_CHART_RADIUS_SQ

    def transition(q: np.ndarray) -> np.ndarray:
        phi = np.arctan2(q[..., 1], q[..., 0])
        return su2_exp(np.stack([np.zeros_like(phi), np.zeros_like(phi), -2.0 * strength * phi], -1))

    chart = ChartData(potential, boundary)
    overlap = Overlap(transition, _sphere_convert)
    return GaugeModel(spec=spec, kind="monopole", charts={"north": chart, "south": chart},
                      overlaps={("north", "south"): overlap, ("south", "north"): overlap})


def pure_gauge_model(spec: OrbitSpec, rates=(0.7, 1.1)) -> GaugeModel:
    """Zero potential presented in two gauges over the plane.

    The "flat" chart carries the zero potential; the "gauged" chart
    carries (dg) g^{-1} for g(q) = exp(r1 q1 tau_1) exp(r2 q2 tau_2); the
    transition between them is g itself.  Flat curvature and the gauge
    law are exact properties of this model.
    """
    r1, r2 = float(rates[0]), float(rates[1])

    def gauge(q: np.ndarray) -> np.ndarray:
        zero = np.zeros(np.shape(q)[:-1])
        return su2_exp(np.stack([r1 * q[..., 0], zero, zero], -1)) @ su2_exp(np.stack([zero, r2 * q[..., 1], zero], -1))

    def potential(q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        # (dg) g^{-1} = r1 tau_1 dq1 + r2 Ad_{exp(r1 q1 tau_1)} tau_2 dq2, and
        # Ad_{exp(s tau_1)} tau_2 = cos(s) tau_2 + sin(s) tau_3 since
        # [tau_1, tau_2] = tau_3 and [tau_1, tau_3] = -tau_2.
        s = r1 * np.asarray(q, dtype=float)[..., 0]
        return np.stack([dq[..., 0] * r1, dq[..., 1] * (r2 * np.cos(s)), dq[..., 1] * (r2 * np.sin(s))], axis=-1)

    same = lambda q, dq: (q, dq)
    return GaugeModel(
        spec=spec,
        kind="pure_gauge",
        charts={"flat": ChartData(_ZERO_POTENTIAL), "gauged": ChartData(potential)},
        overlaps={
            ("flat", "gauged"): Overlap(gauge, same),
            ("gauged", "flat"): Overlap(lambda q: gauge(q).conj().swapaxes(-1, -2), same),
        },
    )
