"""Verification suites: proposition-level invariants as residual tables.

Each suite computes its rows, ``{row name: value}``, at a spin;
``run_suite`` bounds every row from ``scenario.CHECKS``.  A row passes when
its value is within tolerance (mode "max") or reaches a required floor
(mode "min", used for separation witnesses such as non-commutativity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import MONOPOLE_HOLONOMY_SIGN
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
from .numerics import central_difference, matrix_exp, spectral_norm
from .orbit import (
    Chart,
    ChartPoint,
    OrbitSpec,
    _moment_functions,
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
from .su2 import random_su2
from .transport import (
    covariant_residual_total_space,
    latitude_path,
    phase_circle_path,
    segment_path,
    sub_path,
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


def _random_points(normals: np.ndarray) -> ChartPoint:
    """The north-chart points z = 1.2 (x + iy) of standard normals (..., 2); one point for the shape (2,)."""
    return ChartPoint(Chart.NORTH, 1.2 * normals[..., 0] + 1j * (1.2 * normals[..., 1]))


def suite_orbit(_two_j: int) -> dict[str, float]:
    """Orbit rows, at fixed spins.  Each sampled row draws its samples as one ``rng.standard_normal((n, k))``
    block and evaluates the orbit kernels once on the whole block; a component axis is summed in order."""
    rng = np.random.default_rng(101)
    rows = {}

    worst_area = 0.0
    for two_j in (1, 2, 4):
        spec = OrbitSpec(two_j)
        area = symplectic_area(spec, default_rule(spec))
        worst_area = max(worst_area, abs(area - 4.0 * np.pi * (two_j / 2.0)))
    rows["orbit.area_oracle"] = worst_area

    spec = OrbitSpec(2)
    a, xy, xi = np.split(rng.standard_normal((100, 7)), [3, 5], axis=1)
    w = moment_hamiltonian(spec, a.T)
    pt = _random_points(xy)
    lhs = symplectic_form_at(spec, pt, hamiltonian_field(spec, w, pt), xi.T)
    rows["orbit.hamiltonian_field_identity"] = float(np.max(np.abs(lhs + np.sum(w.chart_gradient(pt) * xi.T, axis=0))))
    rows["orbit.potential_lie_chain"] = _lie_chain_residual(spec, rng)

    a, xy = np.split(rng.standard_normal((50, 5)), [3], axis=1)
    w = moment_hamiltonian(spec, a.T)
    pt = _random_points(xy)
    rows["orbit.chart_covariance"] = float(np.max(np.abs(w.value(pt) - w.value(chart_transition(pt)))))

    worst = 0.0
    for two_j in (1, 2, 3, 4):
        spec_j = OrbitSpec(two_j)
        a, b, xy = np.split(rng.standard_normal((25, 8)), [3, 6], axis=1)
        pt = _random_points(xy)
        bracket = poisson_bracket(spec_j, moment_hamiltonian(spec_j, a.T), moment_hamiltonian(spec_j, b.T), pt)
        expected = moment_hamiltonian(spec_j, np.cross(a, b).T).value(pt)
        worst = max(worst, float(np.max(np.abs(bracket - expected))))
    rows["orbit.poisson_sign_global"] = worst

    embedded = embed_point(spec, _random_points(rng.standard_normal((100, 2))))
    rows["orbit.embed_radius"] = float(np.max(np.abs(np.sqrt(np.sum(embedded * embedded, axis=0)) - spec.j)))
    rows["orbit.potential_curvature"] = _curl_vs_form_residual(spec, rng)
    return rows


def _lie_chain_residual(spec: OrbitSpec, rng) -> float:
    """The one-form identity behind the field definition, via stencils.

    Checks Omega(H_w, xi) = H_w<theta, xi> - xi<theta, H_w> - <theta,[H_w, xi]>
    for constant chart fields xi, on a block of 25 samples.
    """
    a, xy, xi = np.split(rng.standard_normal((25, 7)), [3, 5], axis=1)
    w = moment_hamiltonian(spec, a.T)
    pt = _random_points(xy)
    xi = xi.T

    def theta_pair(point: ChartPoint, vec) -> np.ndarray:
        return np.sum(vec * kahler_potential_at(spec, point), axis=0)

    def field_at(point: ChartPoint) -> np.ndarray:
        return hamiltonian_field(spec, w, point)

    def shift(direction, step) -> ChartPoint:
        return ChartPoint(pt.chart, pt.z + step * (direction[0] + 1j * direction[1]))

    hw = field_at(pt)
    d_hw = central_difference(lambda s: theta_pair(shift(hw, s), xi), 0.0, 1e-5)
    # <theta, H_w> is a function of the point through both factors.
    d_xi = central_difference(lambda s: theta_pair(shift(xi, s), field_at(shift(xi, s))), 0.0, 1e-5)
    # [H_w, xi] = -(D H_w) xi for constant xi, by stencil on the field.
    commutator = -central_difference(lambda s: field_at(shift(xi, s)), 0.0, 1e-5)
    lhs = symplectic_form_at(spec, pt, hw, xi)
    return float(np.max(np.abs(lhs - (d_hw - d_xi - theta_pair(pt, commutator)))))


def _curl_vs_form_residual(spec: OrbitSpec, rng) -> float:
    pt = _random_points(rng.standard_normal((100, 2)))

    def comp(z, k: int) -> np.ndarray:
        return kahler_potential_at(spec, ChartPoint(pt.chart, z))[k]

    d_x_theta_y = central_difference(lambda s: comp(pt.z + s, 1), 0.0, 1e-5)
    d_y_theta_x = central_difference(lambda s: comp(pt.z + 1j * s, 0), 0.0, 1e-5)
    expected = symplectic_form_at(spec, pt, (1.0, 0.0), (0.0, 1.0))
    return float(np.max(np.abs(d_x_theta_y - d_y_theta_x - expected)))


def suite_fiber(_two_j: int) -> dict[str, float]:
    """Fiber rows, at fixed spins.  Each spin's basis is built once and read by every row.  Each sampled row
    takes a spin's samples as one stack: O(w) of a moment function is the ``einsum`` of its direction with the
    spin's three operators O(mu_a), one stacked call, and the transition rows draw their SU(2) pairs as one
    ``random_su2`` block and make one ``quantize_transition`` call per spin and operand."""
    rng = np.random.default_rng(202)
    rows = {}
    bases = {two_j: build_basis(OrbitSpec(two_j)) for two_j in range(0, 11)}

    worst = 0.0
    for two_j, basis in bases.items():
        exact = exact_monomial_norms_sq(basis.spec)
        worst = max(worst, float(np.max(np.abs(basis.norms**2 - exact) / exact)))
    rows["fiber.gram_oracle"] = worst

    # two_j -> O(mu_a), shape (3, n, n)
    generators = {two_j: prequant_matrix(bases[two_j], _moment_functions(bases[two_j].spec)) for two_j in range(1, 6)}

    worst_h = worst_s = 0.0
    for two_j in (1, 2, 3, 4):
        a = rng.standard_normal((5, 3))
        op = np.einsum("rk,kij->rij", a / np.linalg.norm(a, axis=-1, keepdims=True), generators[two_j])
        worst_h = max(worst_h, float(np.max(spectral_norm(op - op.conj().swapaxes(-1, -2)))))
        expected = np.arange(-0.5 * two_j, 0.5 * two_j + 1.0)
        worst_s = max(worst_s, float(np.max(np.abs(np.linalg.eigvalsh(op) - expected))))
    rows["fiber.hermiticity"] = worst_h
    rows["fiber.spectrum_no_half_form"] = worst_s

    worst = 0.0
    for two_j, ops in generators.items():
        a, b = rng.standard_normal((20, 2, 3)).swapaxes(0, 1)  # 20 rounds of a then b
        oa, ob, oc = (np.einsum("rk,kij->rij", c, ops) for c in (a, b, np.cross(a, b)))
        comm = oa @ ob - ob @ oa
        worst = max(worst, float(np.max(spectral_norm(comm - (-1j) * oc))))
    rows["fiber.dirac_condition"] = worst

    worst_hom = worst_uni = 0.0
    for two_j in (1, 2, 3):
        g1, g2 = random_su2(rng, (34, 2)).swapaxes(0, 1)
        x1, x2, x12 = (quantize_transition(bases[two_j], g) for g in (g1, g2, g1 @ g2))
        worst_hom = max(worst_hom, float(np.max(spectral_norm(x12 - x1 @ x2))))
        uni = spectral_norm(x1.conj().swapaxes(-1, -2) @ x1 - np.eye(x1.shape[-1]))
        worst_uni = max(worst_uni, float(np.max(uni)))
    rows["fiber.transition_homomorphism"] = worst_hom
    rows["fiber.transition_unitarity"] = worst_uni

    moment_res = polarization_residual(bases[2], _moment_functions(bases[2].spec))
    rows["fiber.polarization_moment"] = moment_res
    quad_res = polarization_residual(bases[2], squared_hamiltonian(moment_hamiltonian(bases[2].spec, [0, 0, 1])))
    rows["fiber.polarization_counterexample_ratio"] = quad_res / max(moment_res, 1e-300)
    return rows


def _gauge_context(two_j: int):
    spec = OrbitSpec(two_j)
    basis = build_basis(spec)
    rep = build_rep(basis)
    return spec, basis, rep


def suite_gauge(two_j: int) -> dict[str, float]:
    """Gauge rows, at two_j clamped to 1..4 (2 for two_j = 0).  Each sampled row draws its states as blocks
    (``_sample_states``) and makes one stacked call per model and route: ``connection_rep`` for the connection
    rows, ``gauge_residual`` for the law and ``lift_orthogonality_residual`` for the lift."""
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
    for model in (mono, const):
        chart, q, _, v = _sample_states(model, rng, 20)
        v2 = rng.standard_normal((20, 2))
        c1, c2 = rng.standard_normal((2, 20, 1))
        a_quad = connection_rep(model, quad_rep, chart, q, v)
        a_rep, a_v2, a_mix = connection_rep(model, rep, chart, np.broadcast_to(q, (3, 20, 2)),
                                            np.stack([v, v2, c1 * v + c2 * v2]))
        worst_eq = max(worst_eq, float(np.max(spectral_norm(a_quad - a_rep))))
        worst_ah = max(worst_ah, float(np.max(spectral_norm(a_quad + a_quad.conj().swapaxes(-1, -2)))))
        lin = a_mix - c1[..., None] * a_rep - c2[..., None] * a_v2
        worst_lin = max(worst_lin, float(np.max(spectral_norm(lin))))
    rows["gauge.connection_equivalence"] = worst_eq
    rows["gauge.anti_hermiticity"] = worst_ah
    rows["gauge.linearity"] = worst_lin

    chart, mono_q, _, mono_v = _sample_states(mono, rng, 10, overlap=True)
    pure_q, pure_v = rng.uniform(-1, 1, (10, 2)), rng.standard_normal((10, 2))
    rows["gauge.transformation_law"] = float(max(np.max(gauge_residual(mono, basis, quad_rep, chart, mono_q, mono_v)),
                                                 np.max(gauge_residual(pure, basis, quad_rep, "flat", pure_q, pure_v))))

    worst = 0.0
    for model in (mono, const):
        chart, q, p, v = _sample_states(model, rng, 10)
        f = _random_points(rng.standard_normal((10, 2)))
        xi = rng.standard_normal((10, 2))
        worst = max(worst, float(np.max(lift_orthogonality_residual(model, chart, q, p, v, f, xi))))
    rows["gauge.lift_orthogonality"] = worst

    rows["gauge.pure_gauge_flatness"] = spectral_norm(curvature(pure, rep, "gauged", np.array([0.3, -0.2]), *np.eye(2)))
    rows["gauge.constant_model_curvature"] = spectral_norm(curvature(const, rep, "main", np.zeros(2), *np.eye(2)))
    return rows


def _sample_states(model, rng, count: int, overlap: bool = False):
    """``count`` sampled states (chart, q, p, dq), q, p and dq (count, 2) blocks; p is read only by the
    total-space form.  Monopole points lie in the north chart, in the overlap with ``overlap``."""
    if model.kind == "monopole":
        lo, hi = (np.pi / 3, 2 * np.pi / 3) if overlap else (np.pi / 6, 2 * np.pi / 3)
        r = np.tan(rng.uniform(lo, hi, count) / 2.0)
        phi = rng.uniform(0, 2 * np.pi, count)
        q = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
        chart = "north"
    else:
        q = rng.uniform(-1.0, 1.0, size=(count, 2))
        chart = next(iter(model.charts))
    p, dq = rng.standard_normal((2, count, 2))
    return chart, q, p, dq


def suite_transport(two_j: int) -> dict[str, float]:
    """Transport rows, at two_j clamped to 1..2 (2 for two_j = 0)."""
    rows = {}
    spec, basis, rep = _gauge_context(min(two_j, 2) or 2)

    triv = trivial_model(spec)
    const = constant_model(spec)
    mono = monopole_model(spec)

    seg = segment_path([0.0, 0.0], [1.0, 0.0])
    res = transport(const, basis, seg, rep=rep, steps=2000)
    rows["transport.constant_oracle"] = spectral_norm(res.unitary - matrix_exp(rep.matrices[0]))

    res_y = transport(const, basis, segment_path([0.0, 0.0], [0.0, 1.0]), rep=rep, steps=2000)
    rows["transport.noncommutativity"] = spectral_norm(res_y.unitary @ res.unitary - res.unitary @ res_y.unitary)

    loop = phase_circle_path([0.0, 0.0], 0.5)
    res = transport(triv, basis, loop, rep=rep, steps=2000)
    area_err = abs(res.alpha_phase - np.pi * 0.25)
    rows["transport.green_phase"] = area_err + spectral_norm(res.unitary - np.eye(spec.dim))

    # The pure-gauge model's gauged chart carries (dg) g^{-1}, which does not
    # commute with itself along the diagonal, so these rows see the non-abelian
    # part of the march; on a monopole latitude b stays 0 and they would read 0.
    diag = segment_path([0.0, 0.0], [1.0, 1.0], chart="gauged")
    pure = pure_gauge_model(spec)
    fwd = transport(pure, basis, diag, rep=rep, steps=2000)
    bwd = transport(pure, basis, sub_path(diag, 1.0, 0.0, diag.start_chart), rep=rep, steps=2000)
    rows["transport.reversal"] = spectral_norm(bwd.unitary - fwd.unitary.conj().T)
    rows["transport.unitarity"] = fwd.unitarity_deviation

    lat = latitude_path(np.pi / 3.0)
    strength = 1
    omega = 2.0 * np.pi * (1.0 - np.cos(np.pi / 3.0))
    m_values = np.arange(spec.j, -spec.j - 1.0, -1.0)
    expected = np.exp(1j * MONOPOLE_HOLONOMY_SIGN * strength * m_values * omega)
    hol, _ = wilson_loop(mono, basis, lat, rep=rep, steps=4000)
    rows["transport.monopole_holonomy"] = float(np.max(np.abs(np.diag(hol) - expected)))

    plain = transport(mono, basis, lat, rep=rep, steps=2000)
    switched = transport(mono, basis, lat, rep=rep, steps=2000,
                         forced_switches=[(0.25, "south"), (0.75, "north")])
    rows["transport.chart_independence"] = spectral_norm(plain.unitary - switched.unitary)

    quad = transport(pure, basis, diag, rep=quadrature_rep(basis), steps=300)
    repd = transport(pure, basis, diag, rep=rep, steps=300)
    rows["transport.source_independence"] = spectral_norm(quad.unitary - repd.unitary)

    # the clean and the corrupted residual from one knot march: a factor of exactly 1 is the clean row
    base_res, corrupted = covariant_residual_total_space(
        mono, basis, lat, rep=rep, steps=4000,
        corruption=lambda t: np.array([1.0, np.exp(1j * 1e-2 * np.sin(2 * np.pi * t))]))
    rows["transport.total_space_residual"] = base_res
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
