"""Bundle layer: base charts, gauge potentials, orbit functions, connections.

A ``GaugeModel`` is base data over the plane or the two-chart sphere, with
T*Q represented by (q, p) pairs: per chart a ``ChartData`` (su(2) potential
as tau-coefficients, and domain), per ordered chart pair an ``Overlap``
(transition and the change of coordinates (q, dq) -> (q', dq')).  The
potential is pulled back from Q, so a connection value reads only q and dq.
``check_model`` tests a model against the ``FiberBasis`` in use: its
potentials against its transitions, and minimal coupling, which holds for
every potential at a spin once the three moment functions' operators
preserve the polarization there (``moment_polarization_residual``).  The
connection on the quantum bundle is the potential's tau-coefficients
contracted with a ``LieAlgebraRep``, three generator matrices built from
the ``FiberBasis`` alone, in two independent ways:

* ``quadrature_rep`` takes i O(mu_a) of the three moment functions, with
  O the prequantum operator by quadrature (Kostant-Souriau), and
* ``build_rep`` takes the derivative of the group action X (``spin_lift``)
  at the identity, in closed form.

``connection_rep_batch`` is the one contraction; the agreement of the two
generator sets is the package's central cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import constants
from .errors import AccuracyFailure, ChartError, ConfigurationError, InvalidArgument
from .fiberq import (
    FiberBasis,
    polarization_residual,
    prequant_matrix,
    quantize_transition,
)
from .numerics import central_difference, spectral_norm
from .orbit import (
    Chart,
    ChartPoint,
    FiberHamiltonian,
    OrbitSpec,
    hamiltonian_field,
    moment_hamiltonian,
    theta_dz,
)
from .su2 import TAU, su2_exp

# Chart validity for the sphere base: north keeps colatitude <= 3*pi/4,
# south keeps colatitude >= pi/4 (stereographic radius tan(theta/2)).
_SPHERE_CHART_RADIUS_SQ = float(np.tan(3.0 * np.pi / 8.0) ** 2)


@dataclass(frozen=True)
class BasePoint:
    chart: str
    q: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class BaseTangent:
    dq: np.ndarray
    dp: np.ndarray

    @classmethod
    def of(cls, dq, dp=None) -> "BaseTangent":
        dq = np.asarray(dq, dtype=float)
        dp = np.zeros_like(dq) if dp is None else np.asarray(dp, dtype=float)
        return cls(dq=dq, dp=dp)


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
        worst = 0.0
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = self.matrices[a] @ self.matrices[b] - self.matrices[b] @ self.matrices[a]
            worst = max(worst, float(np.linalg.norm(comm - self.matrices[c], 2)))
        return worst


@dataclass(frozen=True)
class ChartData:
    """A chart's potential and its domain, boundary(q) <= 0 (None: the whole plane).
    ``potential`` maps points (..., 2) to real tau-coefficients (..., 2, 3): [k, a]
    multiplies TAU[a] in the dq_k component."""

    potential: Callable[[np.ndarray], np.ndarray]
    boundary: Callable[[np.ndarray], np.ndarray] | None = None

    def contains(self, q: np.ndarray) -> bool:
        return self.boundary is None or bool(self.boundary(q) <= 0.0)


@dataclass(frozen=True)
class Overlap:
    """Ordered chart pair (i, j): the transition g(q) in SU(2) at the chart-i point q,
    and the change of coordinates (q, dq) -> (q', dq') of a base point and tangent."""

    transition: Callable[[np.ndarray], np.ndarray]
    convert: Callable[[np.ndarray, np.ndarray], tuple]


@dataclass(frozen=True)
class GaugeModel:
    spec: OrbitSpec
    kind: str
    charts: dict  # name -> ChartData
    overlaps: dict = field(default_factory=dict)  # (from chart, to chart) -> Overlap

    def chart_data(self, b: BasePoint) -> ChartData:
        if b.chart not in self.charts:
            raise ChartError(f"unknown chart {b.chart!r}")
        data = self.charts[b.chart]
        if not data.contains(b.q):
            raise ChartError(f"point {b.q} outside chart {b.chart!r}")
        return data

    def other_chart(self, name: str) -> str | None:
        return next((j for i, j in self.overlaps if i == name), None)


def check_spin(basis: FiberBasis, what: str, two_j: int) -> None:
    """Raise InvalidArgument unless ``what`` (of spin ``two_j``) acts on the basis's fiber."""
    if two_j != basis.spec.two_j:
        raise InvalidArgument(f"{what} has two_j = {two_j} but the basis has two_j = {basis.spec.two_j}; "
                              "build both from one OrbitSpec")


def potential_contraction(model: GaugeModel, chart: str, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """tau-coefficients (..., 3) of <alpha_pot(q), dq> in a chart, along arrays of points and tangents."""
    return np.einsum("...k,...ka->...a", dq, model.charts[chart].potential(q))


# The fiber trivialization pairs the potential direction with the moment
# functions through a frozen orientation: generator coefficients
# (c1, c2, c3) map to the moment direction (c1, -c2, -c3).  This is the
# unique choice under which the quadrature connection coincides with the
# representation connection (asserted by the equivalence tests).
_MOMENT_TWIST = np.array([1.0, -1.0, -1.0])


def orbit_function(model: GaugeModel, b: BasePoint, v: BaseTangent) -> FiberHamiltonian:
    """The fiber Hamiltonian induced by the potential at (b, v)."""
    model.chart_data(b)
    return moment_hamiltonian(model.spec, potential_contraction(model, b.chart, b.q, v.dq) * _MOMENT_TWIST)


def horizontal_lift(model: GaugeModel, b: BasePoint, v: BaseTangent, f: ChartPoint) -> tuple[BaseTangent, np.ndarray]:
    """Horizontal lift (v, -H_w) of a base tangent at fiber point f."""
    w = orbit_function(model, b, v)
    return v, -hamiltonian_field(model.spec, w, f)


def quadrature_rep(basis: FiberBasis) -> LieAlgebraRep:
    """Generators i * _MOMENT_TWIST[a] * <e_nu | O(mu_a) e_mu> of the moment functions, by quadrature.

    O(w) is linear in w, so the connection value i O(w) of the orbit
    function is the potential contracted with these three matrices.  Every
    value is a real combination of them, so the anti-Hermiticity guard
    runs here, once per generator.
    """
    spec = basis.spec
    mats = np.array([1j * twist * prequant_matrix(basis, moment_hamiltonian(spec, e))
                     for twist, e in zip(_MOMENT_TWIST, np.eye(3))])
    dev = np.linalg.norm(mats + np.swapaxes(mats, -1, -2).conj(), 2, axis=(-2, -1))
    if not np.all(dev <= 1e-8):
        raise AccuracyFailure(f"quadrature generator not anti-Hermitian ({np.max(dev):.2e})")
    return LieAlgebraRep(matrices=mats)


def build_rep(basis: FiberBasis) -> LieAlgebraRep:
    """rho(tau_a) = d/ds X(exp(s tau_a)) at s = 0, the derivative of ``spin_lift`` in closed form.

    Along (a, b) = (1, 0) + s (a', b'), with (a', b') the first row of tau_a,
    the monomial image (conj(a) z - b)^k (conj(b) z + a)^{two_j - k} has derivative
    k (conj(a') z^k - b' z^{k-1}) + (two_j - k) (conj(b') z^{k+1} + a' z^k):
    a tridiagonal matrix, carried to the orthonormal basis by the norms.
    """
    two_j, k = basis.spec.two_j, np.arange(basis.spec.dim)
    mono = np.array([np.diag(k * np.conj(a) + (two_j - k) * a) - np.diag(k[1:] * b, 1)
                     + np.diag((two_j - k[:-1]) * np.conj(b), -1) for a, b in TAU[:, 0]])
    return LieAlgebraRep(matrices=basis.norms[:, None] * mono / basis.norms[None, :], group_action=basis)


def connection_rep(model: GaugeModel, rep: LieAlgebraRep, b: BasePoint, v: BaseTangent) -> np.ndarray:
    """Connection value by contracting the potential with the representation."""
    model.chart_data(b)
    return connection_rep_batch(model, rep, b.chart, b.q, v.dq)


def connection_rep_batch(model: GaugeModel, rep: LieAlgebraRep, chart: str, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Vectorized connection values along arrays of points/tangents."""
    return np.einsum("...a,aij->...ij", potential_contraction(model, chart, q, dq), rep.matrices)


def gauge_residual(model: GaugeModel, basis: FiberBasis, rep: LieAlgebraRep, b: BasePoint, v: BaseTangent) -> float:
    """Defect of the gauge transformation law across the overlap at b.

    Compares A in the neighbour chart against
    X A X^{-1} + (dX along v) X^{-1}, with A the connection of ``rep`` and
    X the quantized transition.
    """
    model.chart_data(b)
    target = model.other_chart(b.chart)
    if target is None:
        raise ChartError(f"chart {b.chart!r} has no registered overlap")
    overlap = model.overlaps[(b.chart, target)]
    q_there, dq_there = overlap.convert(b.q, v.dq)
    if not model.charts[target].contains(q_there):
        raise ChartError(f"point {b.q} not in the {b.chart!r}/{target!r} overlap")

    a_here = connection_rep(model, rep, b, v)
    a_there = connection_rep_batch(model, rep, target, q_there, dq_there)

    x_at = lambda q: quantize_transition(basis, overlap.transition(q))
    x = x_at(b.q)
    x_inv = x.conj().T
    dx = central_difference(lambda s: x_at(b.q + s * v.dq), 0.0, constants.FD_STEP_GAUGE)
    law = x @ a_here @ x_inv + dx @ x_inv
    return float(np.linalg.norm(a_there - law, 2))


def curvature(model: GaugeModel, rep: LieAlgebraRep, b: BasePoint, v1: BaseTangent, v2: BaseTangent) -> np.ndarray:
    """Field strength on (v1, v2) by small-displacement stencils.

    Normalized to the small-loop law of the transport ordering: holonomy
    around the (v1, v2) square of side eps is I + eps^2 F + O(eps^3), so
    F = d1 A(v2) - d2 A(v1) + [A(v2), A(v1)].  Vanishes for pure-gauge
    potentials.
    """
    h = 1.0e-5

    def a_at(q, v):
        return connection_rep(model, rep, BasePoint(b.chart, q, b.p), v)

    d1 = central_difference(lambda s: a_at(b.q + s * v1.dq, v2), 0.0, h)
    d2 = central_difference(lambda s: a_at(b.q + s * v2.dq, v1), 0.0, h)
    a1 = a_at(b.q, v1)
    a2 = a_at(b.q, v2)
    return d1 - d2 + a2 @ a1 - a1 @ a2


def alpha_total_components(
    model: GaugeModel,
    chart: str,
    q: np.ndarray,
    p: np.ndarray,
    z: complex,
) -> np.ndarray:
    """Chart components of the total-space potential at (q, p, z).

    Coordinates are (q1, q2, p1, p2, x, y); the returned covector pairs
    with real tangents in these coordinates.  Base components combine the
    canonical form with the orbit functions of the unit base directions;
    fiber components are the holomorphic-frame potential.
    """
    b = BasePoint(chart, np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    pt = ChartPoint(Chart.NORTH, complex(z))
    out = np.zeros(6, dtype=complex)
    for k in range(2):
        unit = np.zeros(2)
        unit[k] = 1.0
        w_k = orbit_function(model, b, BaseTangent.of(unit))
        out[k] = b.p[k] + w_k.value(pt)
    coeff = theta_dz(model.spec, pt)
    out[4] = coeff
    out[5] = 1j * coeff
    return out


def lift_orthogonality_residual(
    model: GaugeModel,
    b: BasePoint,
    v: BaseTangent,
    f: ChartPoint,
    xi: np.ndarray,
) -> float:
    """|Omega_total(lift(v), vertical xi)| by a central-difference stencil.

    The two-form is evaluated on constant coordinate extensions, for which
    d alpha(V1, V2) = D_V1 <alpha, V2> - D_V2 <alpha, V1>.
    """
    h = constants.FD_STEP_FORM
    _, fiber = horizontal_lift(model, b, v, f)
    lift6 = np.concatenate([v.dq, v.dp, fiber])
    vert6 = np.concatenate([np.zeros(4), np.asarray(xi, dtype=float)])

    base = np.concatenate([b.q, b.p, [f.z.real, f.z.imag]])

    def pairing(coords: np.ndarray, vec: np.ndarray) -> complex:
        alpha = alpha_total_components(
            model, b.chart, coords[0:2], coords[2:4], complex(coords[4], coords[5])
        )
        return complex(np.dot(alpha, vec))

    d1 = central_difference(lambda s: pairing(base + s * lift6, vert6), 0.0, h)
    d2 = central_difference(lambda s: pairing(base + s * vert6, lift6), 0.0, h)
    return abs(d1 - d2)


def moment_polarization_residual(basis: FiberBasis) -> float:
    """Largest polarization leakage of O(mu_a) over the three moment functions at the basis spin.

    Every fiber Hamiltonian a potential induces is a real combination of
    the mu_a, and O is linear, so these three bound minimal coupling for
    every model at this spin, whatever the scale of its coefficients.
    """
    return max(polarization_residual(basis, moment_hamiltonian(basis.spec, e)) for e in np.eye(3))


def verify_gauge_data(model: GaugeModel, rng: np.random.Generator) -> float:
    """Consistency of the chart potentials with the registered transitions.

    Checks alpha_j = g alpha_i g^{-1} + (dg) g^{-1}, potentials lifted to
    matrices, on 12 sampled points per overlap (ConfigurationError if none
    is found); returns the worst absolute defect.  dg is the Richardson
    combination (4 D(h/2) - D(h)) / 3 of the central difference D, so its
    O(h^2) truncation error, which grows with the transition's rate of
    change, cancels.
    """
    h = constants.FD_STEP_GAUGE
    lift = lambda c: np.einsum("...a,aij->...ij", c, TAU)
    worst = 0.0
    for (i, j), overlap in model.overlaps.items():
        g_fn = overlap.transition
        for _ in range(12):
            q = _sample_overlap_point(model, i, j, rng)
            if q is None:
                raise ConfigurationError(f"overlap ({i!r}, {j!r}): no sampled point lies in both charts")
            dq = rng.standard_normal(2)
            xi_i = lift(potential_contraction(model, i, q, dq))
            xi_j = lift(potential_contraction(model, j, *overlap.convert(q, dq)))
            g = g_fn(q)
            d = lambda step: central_difference(lambda s: g_fn(q + s * dq), 0.0, step)
            dg = (4.0 * d(0.5 * h) - d(h)) / 3.0
            g_inv = g.conj().T
            law = g @ xi_i @ g_inv + dg @ g_inv
            worst = max(worst, spectral_norm(xi_j - law))
    return worst


def _sample_overlap_point(model: GaugeModel, i: str, j: str, rng: np.random.Generator):
    """A chart-i point whose image under the registered (i, j) overlap lies in chart j; None after 100 tries."""
    convert = model.overlaps[(i, j)].convert
    for _ in range(100):
        if model.kind == "monopole":
            theta = rng.uniform(np.pi / 3.0, 2.0 * np.pi / 3.0)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            r, s = (np.tan(theta / 2.0), 1.0) if i == "north" else (1.0 / np.tan(theta / 2.0), -1.0)
            q = np.array([r * np.cos(phi), s * r * np.sin(phi)])
        else:
            q = rng.uniform(-1.0, 1.0, size=2)
        if model.charts[i].contains(q) and model.charts[j].contains(convert(q, np.zeros(2))[0]):
            return q
    return None


# ----------------------------------------------------------------------
# Built-in models
# ----------------------------------------------------------------------

def _zero_potential(q: np.ndarray) -> np.ndarray:
    return np.zeros(np.shape(q)[:-1] + (2, 3))


def check_model(model: GaugeModel, basis: FiberBasis) -> None:
    """Check a model against the basis it is used with: one spin (else InvalidArgument),
    chart potentials consistent with the overlaps, and minimal coupling: the three
    moment generators preserve the polarization at the basis spin to 1e-6 (else
    ConfigurationError for either)."""
    check_spin(basis, "model", model.spec.two_j)
    data_defect = verify_gauge_data(model, np.random.default_rng(11))
    if not data_defect <= 1e-8:
        raise ConfigurationError(f"chart potentials inconsistent with transitions ({data_defect:.2e})")
    leak = moment_polarization_residual(basis)
    if not leak <= 1e-6:
        raise ConfigurationError(f"the moment generators break the polarization at two_j = {basis.spec.two_j} "
                                 f"(residual {leak:.2e} > 1.0e-06)")


def trivial_model(spec: OrbitSpec) -> GaugeModel:
    """Zero potential over the plane, single global chart."""
    return GaugeModel(spec=spec, kind="trivial", charts={"main": ChartData(_zero_potential)})


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

    def potential(q: np.ndarray) -> np.ndarray:
        return np.broadcast_to(coefficients, np.shape(q)[:-1] + (2, 3))

    return GaugeModel(spec=spec, kind="constant", charts={"main": ChartData(potential)})


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

    def potential(q: np.ndarray) -> np.ndarray:
        u1, u2 = q[..., 0], q[..., 1]
        rho = 1.0 + u1**2 + u2**2
        out = np.zeros(np.shape(q)[:-1] + (2, 3))
        out[..., 2] = strength * 2.0 * np.stack([-u2, u1], axis=-1) / rho[..., None]
        return out

    def boundary(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return q[..., 0] ** 2 + q[..., 1] ** 2 - _SPHERE_CHART_RADIUS_SQ

    def transition(q: np.ndarray) -> np.ndarray:
        phi = np.arctan2(q[1], q[0])
        return su2_exp(np.array([0.0, 0.0, -2.0 * strength * phi]))

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
        return su2_exp(np.array([r1 * q[0], 0.0, 0.0])) @ su2_exp(np.array([0.0, r2 * q[1], 0.0]))

    def potential(q: np.ndarray) -> np.ndarray:
        # (dg) g^{-1} = r1 tau_1 dq1 + r2 Ad_{exp(r1 q1 tau_1)} tau_2 dq2, and
        # Ad_{exp(s tau_1)} tau_2 = cos(s) tau_2 + sin(s) tau_3 since
        # [tau_1, tau_2] = tau_3 and [tau_1, tau_3] = -tau_2.
        s = r1 * np.asarray(q, dtype=float)[..., 0]
        out = np.zeros(s.shape + (2, 3))
        out[..., 0, 0] = r1
        out[..., 1, 1] = r2 * np.cos(s)
        out[..., 1, 2] = r2 * np.sin(s)
        return out

    same = lambda q, dq: (q, dq)
    return GaugeModel(
        spec=spec,
        kind="pure_gauge",
        charts={"flat": ChartData(_zero_potential), "gauged": ChartData(potential)},
        overlaps={
            ("flat", "gauged"): Overlap(gauge, same),
            ("gauged", "flat"): Overlap(lambda q: gauge(q).conj().T, same),
        },
    )
