"""Verification suites: proposition-level invariants as residual tables.

Each suite computes its rows, ``{row name: value}``, at a spin;
``run_suite`` bounds every row from ``scenario.CHECKS``.  A row passes when
its value is within tolerance (mode "max") or reaches a required floor
(mode "min", used for separation witnesses such as non-commutativity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FiberquantError
from .fiberq import (
    build_basis,
    default_rule,
    exact_monomial_norms_sq,
    polarization_residual,
    prequant_matrix,
    quantize_transition,
)
from .gauge import (
    BasePoint,
    BaseTangent,
    build_rep,
    connection_rep,
    constant_model,
    curvature,
    gauge_residual,
    lift_orthogonality_residual,
    monopole_model,
    pure_gauge_model,
    quadrature_rep,
    trivial_model,
    verify_gauge_data,
)
from .numerics import central_difference, matrix_exp
from .orbit import (
    Chart,
    ChartPoint,
    OrbitSpec,
    chart_transition,
    embed_point,
    hamiltonian_field,
    kahler_potential_at,
    moment_hamiltonian,
    poisson_bracket,
    squared_hamiltonian,
    symplectic_area,
    symplectic_form_at,
)
from .scenario import CHECKS, Scenario
from .transport import (
    covariant_residual_total_space,
    covariant_section_solve,
    latitude_path,
    momentum_circle_path,
    phase_circle_path,
    reverse_path,
    segment_path,
    transport,
    wilson_loop,
)

@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    mode: str = "max"  # "max": value <= tolerance; "min": value >= tolerance

    @property
    def passed(self) -> bool:
        if self.mode == "min":
            return self.value >= self.tolerance
        return self.value <= self.tolerance


def _random_point(rng, scale: float = 1.2) -> ChartPoint:
    z = complex(rng.normal(scale=scale), rng.normal(scale=scale))
    return ChartPoint(Chart.NORTH, z)


def suite_orbit(_two_j: int) -> dict[str, float]:
    """Orbit rows, at fixed spins."""
    rng = np.random.default_rng(101)
    rows = {}

    worst_area = 0.0
    for two_j in (1, 2, 4):
        spec = OrbitSpec(two_j)
        area = symplectic_area(spec, default_rule(spec))
        worst_area = max(worst_area, abs(area - 4.0 * np.pi * (two_j / 2.0)))
    rows["orbit.area_oracle"] = worst_area

    spec = OrbitSpec(2)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal(3)
        w = moment_hamiltonian(spec, a)
        pt = _random_point(rng)
        xi = rng.standard_normal(2)
        field = hamiltonian_field(spec, w, pt)
        lhs = symplectic_form_at(spec, pt, field, xi)
        grad = w.chart_gradient(pt)
        worst = max(worst, abs(lhs + float(np.dot(grad, xi))))
    rows["orbit.hamiltonian_field_identity"] = worst
    rows["orbit.potential_lie_chain"] = _lie_chain_residual(spec, rng)

    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal(3)
        w = moment_hamiltonian(spec, a)
        pt = _random_point(rng)
        other = chart_transition(pt)
        worst = max(worst, abs(w.value(pt) - w.value(other)))
    rows["orbit.chart_covariance"] = worst

    worst = 0.0
    for two_j in (1, 2, 3, 4):
        spec_j = OrbitSpec(two_j)
        for _ in range(25):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            pt = _random_point(rng)
            bracket = poisson_bracket(spec_j, moment_hamiltonian(spec_j, a),
                                      moment_hamiltonian(spec_j, b), pt)
            expected = moment_hamiltonian(spec_j, np.cross(a, b)).value(pt)
            worst = max(worst, abs(bracket - expected))
    rows["orbit.poisson_sign_global"] = worst

    worst = 0.0
    for _ in range(100):
        pt = _random_point(rng)
        worst = max(worst, abs(np.linalg.norm(embed_point(spec, pt)) - spec.j))
    rows["orbit.embed_radius"] = worst
    rows["orbit.potential_curvature"] = _curl_vs_form_residual(spec, rng)
    return rows


def _lie_chain_residual(spec: OrbitSpec, rng) -> float:
    """The one-form identity behind the field definition, via stencils.

    Checks Omega(H_w, xi) = H_w<theta, xi> - xi<theta, H_w> - <theta,[H_w, xi]>
    for constant chart fields xi.
    """
    worst = 0.0
    for _ in range(25):
        a = rng.standard_normal(3)
        w = moment_hamiltonian(spec, a)
        pt = _random_point(rng)
        xi = rng.standard_normal(2)

        def theta_pair(point: ChartPoint, vec) -> complex:
            return complex(np.dot(kahler_potential_at(spec, point), vec))

        def field_at(point: ChartPoint) -> np.ndarray:
            return hamiltonian_field(spec, w, point)

        hw = field_at(pt)

        def shift(point: ChartPoint, direction, step) -> ChartPoint:
            return ChartPoint(point.chart, point.z + step * (direction[0] + 1j * direction[1]))

        # <theta, H_w> is a function of the point through both factors.
        def theta_dot_field(point: ChartPoint) -> complex:
            return theta_pair(point, field_at(point))

        d_hw = central_difference(lambda s: theta_pair(shift(pt, hw, s), xi), 0.0, 1e-5)
        d_xi = central_difference(lambda s: theta_dot_field(shift(pt, xi, s)), 0.0, 1e-5)
        # [H_w, xi] = -(D H_w) xi for constant xi, by stencil on the field.
        jac_xi = central_difference(lambda s: field_at(shift(pt, xi, s)), 0.0, 1e-5)
        commutator = -jac_xi
        lhs = symplectic_form_at(spec, pt, hw, xi)
        rhs = d_hw - d_xi - theta_pair(pt, commutator)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _curl_vs_form_residual(spec: OrbitSpec, rng) -> float:
    worst = 0.0
    for _ in range(100):
        pt = _random_point(rng)

        def comp(point: ChartPoint, k: int) -> complex:
            return complex(kahler_potential_at(spec, point)[k])

        z = pt.z
        d_x_theta_y = central_difference(lambda s: comp(ChartPoint(pt.chart, z + s), 1), 0.0, 1e-5)
        d_y_theta_x = central_difference(lambda s: comp(ChartPoint(pt.chart, z + 1j * s), 0), 0.0, 1e-5)
        curl = d_x_theta_y - d_y_theta_x
        expected = symplectic_form_at(spec, pt, (1.0, 0.0), (0.0, 1.0))
        worst = max(worst, abs(curl - expected))
    return worst


def suite_fiber(_two_j: int) -> dict[str, float]:
    """Fiber rows, at fixed spins."""
    rng = np.random.default_rng(202)
    rows = {}

    worst = 0.0
    for two_j in range(0, 11):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        exact = exact_monomial_norms_sq(spec)
        worst = max(worst, float(np.max(np.abs(basis.norms**2 - exact) / exact)))
    rows["fiber.gram_oracle"] = worst

    worst_h = 0.0
    worst_s = 0.0
    for two_j in (1, 2, 3, 4):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        for _ in range(5):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            op = prequant_matrix(basis, moment_hamiltonian(spec, a))
            worst_h = max(worst_h, float(np.linalg.norm(op - op.conj().T, 2)))
            eig = np.sort(np.linalg.eigvalsh(op))
            expected = np.arange(-spec.j, spec.j + 1.0)
            worst_s = max(worst_s, float(np.max(np.abs(eig - expected))))
    rows["fiber.hermiticity"] = worst_h
    rows["fiber.spectrum_no_half_form"] = worst_s

    worst = 0.0
    for two_j in (1, 2, 3, 4, 5):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        ops = [prequant_matrix(basis, moment_hamiltonian(spec, e))
               for e in np.eye(3)]
        for _ in range(20):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            oa = np.einsum("k,kij->ij", a, np.array(ops))
            ob = np.einsum("k,kij->ij", b, np.array(ops))
            oc = np.einsum("k,kij->ij", np.cross(a, b), np.array(ops))
            comm = oa @ ob - ob @ oa
            worst = max(worst, float(np.linalg.norm(comm - (-1j) * oc, 2)))
    rows["fiber.dirac_condition"] = worst

    from .su2 import random_su2

    worst_hom = 0.0
    worst_uni = 0.0
    for two_j in (1, 2, 3):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        for _ in range(34):
            g1 = random_su2(rng)
            g2 = random_su2(rng)
            x1 = quantize_transition(basis, g1)
            x2 = quantize_transition(basis, g2)
            x12 = quantize_transition(basis, g1 @ g2)
            worst_hom = max(worst_hom, float(np.linalg.norm(x12 - x1 @ x2, 2)))
            worst_uni = max(worst_uni, float(np.linalg.norm(x1.conj().T @ x1 - np.eye(spec.dim), 2)))
    rows["fiber.transition_homomorphism"] = worst_hom
    rows["fiber.transition_unitarity"] = worst_uni

    spec = OrbitSpec(2)
    basis = build_basis(spec)
    moment_res = 0.0
    for a in np.eye(3):
        moment_res = max(moment_res, polarization_residual(basis, moment_hamiltonian(spec, a)))
    rows["fiber.polarization_moment"] = moment_res
    quad_res = polarization_residual(basis, squared_hamiltonian(moment_hamiltonian(spec, [0, 0, 1])))
    rows["fiber.polarization_counterexample_ratio"] = quad_res / max(moment_res, 1e-300)
    return rows


def _gauge_context(two_j: int):
    spec = OrbitSpec(two_j)
    basis = build_basis(spec)
    rep = build_rep(basis)
    return spec, basis, rep


def suite_gauge(two_j: int) -> dict[str, float]:
    """Gauge rows, at two_j clamped to 1..4 (2 for two_j = 0)."""
    rng = np.random.default_rng(303)
    rows = {}

    spec, basis, rep = _gauge_context(min(two_j, 4) or 2)
    quad_rep = quadrature_rep(basis)
    rows["gauge.rep_commutators"] = rep.commutator_residual()

    mono = monopole_model(spec)
    const = constant_model(spec)
    pure = pure_gauge_model(spec)

    rows["gauge.data_consistency"] = max(verify_gauge_data(mono, np.random.default_rng(7)),
                                         verify_gauge_data(pure, np.random.default_rng(8)))

    worst_eq = 0.0
    worst_ah = 0.0
    worst_lin = 0.0
    worst_pi = 0.0
    for model in (mono, const):
        for _ in range(20):
            b, v = _sample_state(model, rng)
            a_quad = connection_rep(model, quad_rep, b, v)
            a_rep = connection_rep(model, rep, b, v)
            worst_eq = max(worst_eq, float(np.linalg.norm(a_quad - a_rep, 2)))
            worst_ah = max(worst_ah, float(np.linalg.norm(a_quad + a_quad.conj().T, 2)))
            v2 = BaseTangent.of(rng.standard_normal(2), rng.standard_normal(2))
            c1, c2 = rng.standard_normal(2)
            combo = BaseTangent.of(c1 * v.dq + c2 * v2.dq, c1 * v.dp + c2 * v2.dp)
            lin = connection_rep(model, rep, b, combo) - c1 * a_rep - c2 * connection_rep(model, rep, b, v2)
            worst_lin = max(worst_lin, float(np.linalg.norm(lin, 2)))
            vert = BaseTangent.of(np.zeros(2), rng.standard_normal(2))
            shifted = BaseTangent.of(v.dq, v.dp + vert.dp)
            worst_pi = max(worst_pi, float(np.linalg.norm(
                connection_rep(model, rep, b, shifted) - a_rep, 2)))
    rows["gauge.connection_equivalence"] = worst_eq
    rows["gauge.anti_hermiticity"] = worst_ah
    rows["gauge.linearity"] = worst_lin
    rows["gauge.vertical_independence"] = worst_pi

    worst = 0.0
    for _ in range(10):
        b, v = _sample_state(mono, rng, overlap=True)
        worst = max(worst, gauge_residual(mono, basis, quad_rep, b, v))
    for _ in range(10):
        q = rng.uniform(-1, 1, size=2)
        b = BasePoint("flat", q, np.zeros(2))
        v = BaseTangent.of(rng.standard_normal(2))
        worst = max(worst, gauge_residual(pure, basis, quad_rep, b, v))
    rows["gauge.transformation_law"] = worst

    worst = 0.0
    for model in (mono, const):
        for _ in range(10):
            b, v = _sample_state(model, rng)
            f = _random_point(rng)
            xi = rng.standard_normal(2)
            worst = max(worst, lift_orthogonality_residual(model, b, v, f, xi))
    rows["gauge.lift_orthogonality"] = worst

    b = BasePoint("gauged", np.array([0.3, -0.2]), np.zeros(2))
    rows["gauge.pure_gauge_flatness"] = float(np.linalg.norm(
        curvature(pure, rep, b, BaseTangent.of([1, 0]), BaseTangent.of([0, 1])), 2))

    b = BasePoint("main", np.zeros(2), np.zeros(2))
    rows["gauge.constant_model_curvature"] = float(np.linalg.norm(
        curvature(const, rep, b, BaseTangent.of([1, 0]), BaseTangent.of([0, 1])), 2))
    return rows


def _sample_state(model, rng, overlap: bool = False):
    if model.kind == "monopole":
        lo, hi = (np.pi / 3, 2 * np.pi / 3) if overlap else (np.pi / 6, 2 * np.pi / 3)
        theta = rng.uniform(lo, hi)
        phi = rng.uniform(0, 2 * np.pi)
        r = np.tan(theta / 2.0)
        q = np.array([r * np.cos(phi), r * np.sin(phi)])
        chart = "north"
    else:
        q = rng.uniform(-1.0, 1.0, size=2)
        chart = next(iter(model.charts))
    b = BasePoint(chart, q, rng.standard_normal(2))
    v = BaseTangent.of(rng.standard_normal(2), rng.standard_normal(2))
    return b, v


def suite_transport(two_j: int) -> dict[str, float]:
    """Transport rows, at two_j clamped to 1..2 (2 for two_j = 0)."""
    rng = np.random.default_rng(404)
    rows = {}
    spec, basis, rep = _gauge_context(min(two_j, 2) or 2)

    triv = trivial_model(spec)
    const = constant_model(spec)
    mono = monopole_model(spec)

    seg = segment_path([0.0, 0.0], [1.0, 0.0])
    res = transport(triv, basis, seg, rep=rep, steps=200)
    rows["transport.trivial_identity"] = (float(np.linalg.norm(res.unitary - np.eye(spec.dim), 2))
                                          + abs(res.alpha_phase))

    res = transport(const, basis, seg, rep=rep, steps=2000)
    rows["transport.constant_oracle"] = float(np.linalg.norm(res.unitary - matrix_exp(rep.matrices[0]), 2))

    res_y = transport(const, basis, segment_path([0.0, 0.0], [0.0, 1.0]), rep=rep, steps=2000)
    rows["transport.noncommutativity"] = float(np.linalg.norm(
        res_y.unitary @ res.unitary - res.unitary @ res_y.unitary, 2))

    loop = phase_circle_path([0.0, 0.0], 0.5)
    res = transport(triv, basis, loop, rep=rep, steps=2000)
    area_err = abs(res.alpha_phase - np.pi * 0.25)
    rows["transport.green_phase"] = area_err + float(np.linalg.norm(res.unitary - np.eye(spec.dim), 2))

    fixed = momentum_circle_path([0.4, -0.1], [0.0, 0.0], 0.7)
    res = transport(const, basis, fixed, rep=rep, steps=500)
    rows["transport.vertical_loop"] = abs(res.alpha_phase) + float(
        np.linalg.norm(res.unitary - np.eye(spec.dim), 2))

    lat = latitude_path(np.pi / 3.0)
    fwd = transport(mono, basis, lat, rep=rep, steps=2000)
    bwd = transport(mono, basis, reverse_path(lat), rep=rep, steps=2000)
    rows["transport.reversal"] = float(np.linalg.norm(bwd.unitary - fwd.unitary.conj().T, 2))
    rows["transport.unitarity"] = fwd.unitarity_deviation

    from .constants import MONOPOLE_HOLONOMY_SIGN

    strength = 1
    omega = 2.0 * np.pi * (1.0 - np.cos(np.pi / 3.0))
    m_values = np.arange(spec.j, -spec.j - 1.0, -1.0)
    expected = np.exp(1j * MONOPOLE_HOLONOMY_SIGN * strength * m_values * omega)
    hol, _ = wilson_loop(mono, basis, lat, rep=rep, steps=4000)
    rows["transport.monopole_holonomy"] = float(np.max(np.abs(np.diag(hol) - expected)))

    switched = transport(mono, basis, lat, rep=rep, steps=2000,
                         forced_switches=[(0.25, "south"), (0.75, "north")])
    rows["transport.chart_independence"] = float(np.linalg.norm(fwd.unitary - switched.unitary, 2))

    quad = transport(mono, basis, lat, rep=quadrature_rep(basis), steps=300)
    repd = transport(mono, basis, lat, rep=rep, steps=300)
    rows["transport.source_independence"] = float(np.linalg.norm(quad.unitary - repd.unitary, 2))

    section = covariant_section_solve(
        triv,
        lambda q: np.exp(1j * q[0]) * np.ones(spec.dim) / np.sqrt(spec.dim),
        np.linspace(-1, 1, 5)[:, None] * np.array([1.0, 0.0]),
        np.linspace(-1, 1, 4)[:, None] * np.array([0.0, 1.0]),
    )
    rows["transport.section_constancy"] = section.residual

    stored = transport(mono, basis, lat, rep=rep, steps=4000, store=True)
    base_res = covariant_residual_total_space(mono, basis, lat, stored)
    rows["transport.total_space_residual"] = base_res
    corrupted = covariant_residual_total_space(
        mono, basis, lat, stored,
        corruption=lambda t: np.exp(1j * 1e-2 * np.sin(2 * np.pi * t)))
    rows["transport.corruption_sensitivity"] = corrupted / max(base_res, 1e-300)
    return rows


def run_suite(name: str, scenario: Scenario) -> list[CheckResult]:
    """The rows of one suite, or of all four, each bounded by its ``CHECKS`` entry."""
    # Built on each call, so that wrappers installed on the suite names
    # (benchmark tracing) see it.
    suites = {"orbit": suite_orbit, "fiber": suite_fiber, "gauge": suite_gauge,
              "transport": suite_transport}
    if name != "all" and name not in suites:
        raise FiberquantError(f"unknown suite {name!r}; choose from {(*suites, 'all')}")
    checks = []
    for part in suites if name == "all" else (name,):
        for row, value in suites[part](scenario.two_j).items():
            key, bound = CHECKS[row]  # KeyError: a row missing from the table
            checks.append(CheckResult(row, float(value), bound, mode="min") if key is None
                          else CheckResult(row, float(value), scenario.tolerance(key)))
    return checks
