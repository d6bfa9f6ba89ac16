import dataclasses
from functools import lru_cache
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberquant import gauge
from fiberquant.errors import AccuracyFailure, ChartError, ConfigurationError, InvalidArgument
from fiberquant.fiberq import build_basis, polarization_residual, prequant_matrix, quantize_transition
from fiberquant.gauge import (
    BasePoint,
    BaseTangent,
    ChartData,
    build_rep,
    check_model,
    connection_rep,
    connection_rep_batch,
    constant_model,
    curvature,
    gauge_residual,
    horizontal_lift,
    lift_orthogonality_residual,
    moment_polarization_residual,
    monopole_model,
    orbit_function,
    pure_gauge_model,
    quadrature_rep,
    trivial_model,
    verify_gauge_data,
)
from fiberquant.numerics import central_difference
from fiberquant.orbit import (
    Chart,
    ChartPoint,
    OrbitSpec,
    moment_hamiltonian,
)
from fiberquant.su2 import PAULI, TAU, su2_exp

@pytest.fixture(scope="module")
def ctx():
    spec = OrbitSpec(2)
    basis = build_basis(spec)
    return {
        "spec": spec,
        "basis": basis,
        "rep": build_rep(basis),
        "quad": quadrature_rep(basis),
        "mono": monopole_model(spec),
        "const": constant_model(spec),
        "pure": pure_gauge_model(spec),
        "triv": trivial_model(spec),
    }


def lift(coeffs):
    """su(2) matrices sum_a coeffs[..., a] TAU[a] of tau-coefficients."""
    return np.einsum("...a,aij->...ij", coeffs, TAU)


def monopole_state(rng, overlap=False):
    lo, hi = (np.pi / 3, 2 * np.pi / 3) if overlap else (np.pi / 8, 2 * np.pi / 3)
    theta = rng.uniform(lo, hi)
    phi = rng.uniform(0, 2 * np.pi)
    r = np.tan(theta / 2)
    q = np.array([r * np.cos(phi), r * np.sin(phi)])
    b = BasePoint("north", q, rng.standard_normal(2))
    v = BaseTangent.of(rng.standard_normal(2), rng.standard_normal(2))
    return b, v


class TestOrbitFunction:
    def test_zero_potential(self, ctx):
        b = BasePoint("main", np.array([0.4, -0.2]), np.zeros(2))
        w = orbit_function(ctx["triv"], b, BaseTangent.of([1.0, 0.5]))
        pt = ChartPoint(Chart.NORTH, 0.3 + 0.7j)
        assert w.value(pt) == 0.0

    def test_vertical_tangent_killed(self, ctx):
        b = BasePoint("main", np.zeros(2), np.array([0.3, 0.4]))
        w = orbit_function(ctx["const"], b, BaseTangent.of([0.0, 0.0], [1.0, -2.0]))
        assert w.value(ChartPoint(Chart.NORTH, 0.5j)) == 0.0

    def test_first_axis_contraction(self, ctx):
        # tau_1 dq_1 contracted with d/dq_1 gives the first-axis moment function
        spec = ctx["spec"]
        model = constant_model(spec, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = BasePoint("main", np.zeros(2), np.zeros(2))
        w = orbit_function(model, b, BaseTangent.of([1.0, 0.0]))
        oracle = moment_hamiltonian(spec, [1.0, 0.0, 0.0])
        rng = np.random.default_rng(30)
        for _ in range(20):
            pt = ChartPoint(Chart.NORTH, complex(rng.normal(), rng.normal()))
            assert w.value(pt) == pytest.approx(oracle.value(pt), abs=1e-12)

    def test_outside_chart_rejected(self, ctx):
        b = BasePoint("north", np.array([10.0, 0.0]), np.zeros(2))
        with pytest.raises(ChartError):
            orbit_function(ctx["mono"], b, BaseTangent.of([1.0, 0.0]))


class TestRepresentation:
    def test_commutation_relations(self, ctx):
        assert ctx["rep"].commutator_residual() <= 1e-9

    def test_anti_hermitian(self, ctx):
        for mat in ctx["rep"].matrices:
            assert np.linalg.norm(mat + mat.conj().T, 2) <= 1e-9

    @pytest.mark.parametrize("two_j", [1, 3, 4])
    def test_other_spins(self, two_j):
        spec = OrbitSpec(two_j)
        rep = build_rep(build_basis(spec))
        assert rep.commutator_residual() <= 1e-9


def finite_difference_rep(basis):
    """rho(tau_a) by the central difference, at step 1e-6, of the quantized transitions exp(s tau_a)."""
    return np.array([central_difference(lambda s: quantize_transition(basis, su2_exp(s * unit)), 0.0, 1e-6)
                     for unit in np.eye(3)])


def mpmath_rep(basis):
    """rho(tau_a) at 60 digits: the central difference at s = 1e-25 of the expanded lift
    polynomials of exp(s tau_a) = cos(s/2) I - i sin(s/2) sigma_a, scaled by the basis norms."""
    two_j, n = basis.spec.two_j, basis.spec.dim

    def monomial_images(a, b):
        # [m, k]: the z^m coefficient of (conj(a) z - b)^k (conj(b) z + a)^(two_j - k)
        out = [[mpmath.mpc(0)] * n for _ in range(n)]
        for k in range(n):
            for i in range(k + 1):
                for l in range(two_j - k + 1):
                    out[i + l][k] += (comb(k, i) * mpmath.conj(a) ** i * (-b) ** (k - i)
                                      * comb(two_j - k, l) * mpmath.conj(b) ** l * a ** (two_j - k - l))
        return out

    mats = []
    with mpmath.workdps(60):
        h = mpmath.mpf("1e-25")
        for sigma in PAULI:
            s00, s01 = (mpmath.mpc(complex(x)) for x in sigma[0])
            plus, minus = (monomial_images(mpmath.cos(s / 2) - 1j * mpmath.sin(s / 2) * s00,
                                           -1j * mpmath.sin(s / 2) * s01) for s in (h, -h))
            mats.append([[complex((p - m) / (2 * h)) for p, m in zip(rp, rm)] for rp, rm in zip(plus, minus)])
    return basis.norms[:, None] * np.array(mats) / basis.norms[None, :]


@lru_cache(maxsize=None)
def rep_at(two_j):
    return build_rep(build_basis(OrbitSpec(two_j)))


class TestClosedFormGenerators:
    """build_rep is the exact derivative of the group action, not a finite difference."""

    @pytest.mark.parametrize("two_j", [1, 2, 3, 5, 8])
    def test_matches_finite_difference_of_transitions(self, two_j):
        basis = build_basis(OrbitSpec(two_j))
        assert np.max(np.abs(build_rep(basis).matrices - finite_difference_rep(basis))) <= 1e-10

    @pytest.mark.parametrize("two_j", [3, 20])
    def test_matches_mpmath_oracle(self, two_j):
        basis = build_basis(OrbitSpec(two_j))
        oracle = mpmath_rep(basis)
        assert np.max(np.abs(build_rep(basis).matrices - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("two_j", [20, 40, 80])
    def test_commutator_residual_at_high_spin(self, two_j):
        assert rep_at(two_j).commutator_residual() <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 8, 20])
    def test_matches_quadrature_rep(self, two_j):
        basis = build_basis(OrbitSpec(two_j))
        gap = np.linalg.norm(build_rep(basis).matrices - quadrature_rep(basis).matrices, 2, axis=(1, 2))
        assert np.max(gap) <= 1e-13

    @settings(max_examples=25)
    @given(two_j=st.integers(0, 80),
           c=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           d=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_real_combinations_are_anti_hermitian_and_bracket_closed(self, two_j, c, d):
        mats = rep_at(two_j).matrices
        x, y, xy = (np.einsum("a,aij->ij", v, mats) for v in (c, d, np.cross(c, d)))
        assert np.linalg.norm(x + x.conj().T, 2) <= 1e-11
        assert np.linalg.norm(x @ y - y @ x - xy, 2) <= 1e-11


class TestConnectionEquivalence:
    def test_zero_potential_vanishes(self, ctx):
        b = BasePoint("main", np.array([0.1, 0.2]), np.array([1.0, 0.0]))
        v = BaseTangent.of([1.0, 2.0], [0.5, 0.5])
        a_q = connection_rep(ctx["triv"], quadrature_rep(ctx["basis"]), b, v)
        a_r = connection_rep(ctx["triv"], ctx["rep"], b, v)
        assert np.linalg.norm(a_q, 2) < 1e-12
        assert np.linalg.norm(a_r, 2) < 1e-12

    def test_constant_potential_unit_tangent(self, ctx):
        model = constant_model(ctx["spec"], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        b = BasePoint("main", np.zeros(2), np.zeros(2))
        a_r = connection_rep(model, ctx["rep"], b, BaseTangent.of([1.0, 0.0]))
        assert np.linalg.norm(a_r - ctx["rep"].matrices[0], 2) < 1e-12

    def test_vertical_tangent_gives_zero_matrix(self, ctx):
        b = BasePoint("main", np.array([0.3, 0.1]), np.array([1.0, 2.0]))
        v = BaseTangent.of([0.0, 0.0], [0.7, -0.4])
        a_q = connection_rep(ctx["const"], quadrature_rep(ctx["basis"]), b, v)
        assert np.linalg.norm(a_q, 2) < 1e-14
        assert np.linalg.norm(connection_rep(ctx["const"], ctx["rep"], b, v), 2) == 0.0

    def test_monopole_diagonal_form(self, ctx):
        # along d/dphi the connection is diagonal with entries -i m (1 - cos theta)
        theta = np.pi / 3
        r = np.tan(theta / 2)
        q = np.array([r, 0.0])
        b = BasePoint("north", q, np.zeros(2))
        v = BaseTangent.of([0.0, r])  # d/dphi at phi = 0
        a_r = connection_rep(ctx["mono"], ctx["rep"], b, v)
        m = np.arange(ctx["spec"].j, -ctx["spec"].j - 1.0, -1.0)
        expected = np.diag(-1j * m * (1 - np.cos(theta)))
        assert np.linalg.norm(a_r - expected, 2) < 1e-10

    def test_quadrature_matches_representation(self, ctx):
        rng = np.random.default_rng(31)
        worst = 0.0
        for model in (ctx["mono"], ctx["const"]):
            for _ in range(15):
                if model.kind == "monopole":
                    b, v = monopole_state(rng)
                else:
                    b = BasePoint("main", rng.standard_normal(2), rng.standard_normal(2))
                    v = BaseTangent.of(rng.standard_normal(2), rng.standard_normal(2))
                a_q = connection_rep(model, quadrature_rep(ctx["basis"]), b, v)
                a_r = connection_rep(model, ctx["rep"], b, v)
                worst = max(worst, np.linalg.norm(a_q - a_r, 2))
        assert worst <= 1e-8

    def test_anti_hermitian_linear_and_vertical_independent(self, ctx):
        rng = np.random.default_rng(32)
        for _ in range(20):
            b, v = monopole_state(rng)
            a_v = connection_rep(ctx["mono"], ctx["rep"], b, v)
            assert np.linalg.norm(a_v + a_v.conj().T, 2) <= 1e-9
            v2 = BaseTangent.of(rng.standard_normal(2), rng.standard_normal(2))
            c1, c2 = rng.standard_normal(2)
            combo = BaseTangent.of(c1 * v.dq + c2 * v2.dq, c1 * v.dp + c2 * v2.dp)
            lin = connection_rep(ctx["mono"], ctx["rep"], b, combo) \
                - c1 * a_v - c2 * connection_rep(ctx["mono"], ctx["rep"], b, v2)
            assert np.linalg.norm(lin, 2) <= 1e-9
            vertical = BaseTangent.of(v.dq, v.dp + rng.standard_normal(2))
            shift = connection_rep(ctx["mono"], ctx["rep"], b, vertical) - a_v
            assert np.linalg.norm(shift, 2) == 0.0


class TestQuadratureBatch:
    """The quadrature generators contracted with the potential against quadrature of O(w) itself."""

    @staticmethod
    def states(model, rng, count):
        if model.kind == "monopole":
            theta = rng.uniform(np.pi / 8, 2 * np.pi / 3, count)
            phi = rng.uniform(0, 2 * np.pi, count)
            r = np.tan(theta / 2)
            q = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
            chart = "north"
        else:
            q = rng.uniform(-1, 1, (count, 2))
            chart = "gauged" if model.kind == "pure_gauge" else "main"
        return chart, q, rng.standard_normal((count, 2)), rng.standard_normal((count, 2, 2))

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    @pytest.mark.parametrize("builder", [monopole_model, constant_model, pure_gauge_model])
    def test_batch_equals_quadrature_of_orbit_function(self, builder, two_j):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        model = builder(spec)
        rng = np.random.default_rng(40 + two_j)
        chart, q, dq, p = self.states(model, rng, 24)
        batch = connection_rep_batch(model, quadrature_rep(basis), chart, q, dq)
        assert batch.shape == (24, spec.dim, spec.dim)
        for k in range(24):
            b = BasePoint(chart, q[k], p[k, 0])
            v = BaseTangent.of(dq[k], p[k, 1])
            oracle = 1j * prequant_matrix(basis, orbit_function(model, b, v))
            assert np.linalg.norm(batch[k] - oracle, 2) <= 1e-12
            single = connection_rep(model, quadrature_rep(basis), b, v)
            assert np.linalg.norm(single - oracle, 2) <= 1e-12

    def test_non_anti_hermitian_value_rejected(self, ctx, monkeypatch):
        def skewed(basis, w):
            return prequant_matrix(basis, w) + 1e-6j * np.eye(basis.spec.dim)

        monkeypatch.setattr(gauge, "prequant_matrix", skewed)
        with pytest.raises(AccuracyFailure):
            quadrature_rep(ctx["basis"])

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_generators_form_the_derived_representation(self, two_j):
        # i O(mu_a) represents su(2) (Kostant-Souriau) and equals rho(tau_a)
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        quad = quadrature_rep(basis)
        assert quad.matrices.shape == (3, spec.dim, spec.dim)
        assert quad.commutator_residual() <= 1e-12
        assert np.max(np.linalg.norm(quad.matrices - build_rep(basis).matrices, 2, axis=(1, 2))) <= 1e-8


class TestPureGaugePotential:
    """Closed form Ad_{exp(s tau_1)} tau_2 = cos(s) tau_2 + sin(s) tau_3, s = r1 q1."""

    def test_matches_group_conjugation(self):
        r1, r2 = 0.7, 1.1
        pot = pure_gauge_model(OrbitSpec(1), rates=(r1, r2)).charts["gauged"].potential
        q = np.random.default_rng(41).uniform(-3, 3, (40, 2))
        out = lift(pot(q))
        for k, qq in enumerate(q):
            a_half = su2_exp(np.array([r1 * qq[0], 0.0, 0.0]))
            assert np.max(np.abs(out[k, 0] - r1 * TAU[0])) <= 1e-14
            assert np.max(np.abs(out[k, 1] - r2 * (a_half @ TAU[1] @ a_half.conj().T))) <= 1e-14

    def test_rotation_sign_and_shapes(self):
        pot = pure_gauge_model(OrbitSpec(1), rates=(1.0, 1.0)).charts["gauged"].potential
        # a quarter turn about tau_1 carries tau_2 to +tau_3
        assert np.max(np.abs(lift(pot(np.array([np.pi / 2, 0.0]))[1]) - TAU[2])) <= 1e-15
        assert pot(np.zeros(2)).shape == (2, 3)
        assert pot(np.zeros((3, 4, 2))).shape == (3, 4, 2, 3)


class TestPotentialFormat:
    """Chart potentials are real tau-coefficients, contracted with the generators as they are."""

    @pytest.mark.parametrize("builder", [trivial_model, constant_model, monopole_model, pure_gauge_model])
    def test_coefficients_match_matrix_round_trip(self, ctx, builder):
        model = builder(ctx["spec"])
        rng = np.random.default_rng(14)
        q = rng.uniform(-1.0, 1.0, (4, 2))
        dq = rng.standard_normal((4, 2))
        for name, chart in model.charts.items():
            for points, shape in ((q[0], (2, 3)), (q, (4, 2, 3))):
                coeffs = chart.potential(points)
                assert coeffs.shape == shape and coeffs.dtype == np.float64
            # oracle: lift to matrices, contract with dq, read off -2 Re tr(xi tau_a)
            xi = np.einsum("...k,...kij->...ij", dq, lift(chart.potential(q)))
            back = -2.0 * np.einsum("...ij,aji->...a", xi, TAU).real
            oracle = np.einsum("...a,aij->...ij", back, ctx["rep"].matrices)
            got = connection_rep_batch(model, ctx["rep"], name, q, dq)
            assert np.max(np.abs(got - oracle)) <= 1e-15


class TestOverlapMaps:
    """An overlap's dq' is the derivative of its point map, and the sphere charts invert each other."""

    @pytest.mark.parametrize("builder", [monopole_model, pure_gauge_model])
    def test_tangent_map_is_derivative_of_point_map(self, ctx, builder):
        model = builder(ctx["spec"])
        rng = np.random.default_rng(12)
        for overlap in model.overlaps.values():
            for _ in range(5):
                r, phi = rng.uniform(0.6, 1.6), rng.uniform(0.0, 2.0 * np.pi)
                q = r * np.array([np.cos(phi), np.sin(phi)])
                dq = rng.standard_normal(2)
                _, dq_there = overlap.convert(q, dq)
                fd = central_difference(lambda s: overlap.convert(q + s * dq, dq)[0], 0.0, 1e-6)
                assert np.max(np.abs(dq_there - fd)) <= 1e-6

    def test_sphere_round_trip(self, ctx):
        overlaps = ctx["mono"].overlaps
        rng = np.random.default_rng(13)
        r, phi = rng.uniform(0.6, 1.6, size=20), rng.uniform(0.0, 2.0 * np.pi, size=20)
        q = r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        dq = rng.standard_normal((20, 2))
        q_back, dq_back = overlaps[("south", "north")].convert(*overlaps[("north", "south")].convert(q, dq))
        assert np.max(np.abs(q_back - q)) <= 1e-14
        assert np.max(np.abs(dq_back - dq)) <= 1e-13


class TestGaugeLaw:
    def test_identity_transition(self, ctx):
        # zero gauge rates make both charts identical and the transition trivial
        model = pure_gauge_model(ctx["spec"], rates=(0.0, 0.0))
        rng = np.random.default_rng(33)
        for _ in range(5):
            b = BasePoint("flat", rng.uniform(-1, 1, 2), np.zeros(2))
            v = BaseTangent.of(rng.standard_normal(2))
            assert gauge_residual(model, ctx["basis"], ctx["quad"], b, v) <= 1e-10

    def test_monopole_overlap(self, ctx):
        rng = np.random.default_rng(34)
        for _ in range(10):
            b, v = monopole_state(rng, overlap=True)
            assert gauge_residual(ctx["mono"], ctx["basis"], ctx["quad"], b, v) <= 1e-6

    def test_pure_gauge(self, ctx):
        rng = np.random.default_rng(35)
        for _ in range(10):
            b = BasePoint("flat", rng.uniform(-1, 1, 2), np.zeros(2))
            v = BaseTangent.of(rng.standard_normal(2))
            assert gauge_residual(ctx["pure"], ctx["basis"], ctx["quad"], b, v) <= 1e-6

    def test_point_outside_overlap_rejected(self, ctx):
        b = BasePoint("north", np.array([0.05, 0.0]), np.zeros(2))  # near north pole
        with pytest.raises(ChartError):
            gauge_residual(ctx["mono"], ctx["basis"], ctx["quad"], b, BaseTangent.of([1.0, 0.0]))

    def test_data_consistency(self, ctx):
        assert verify_gauge_data(ctx["mono"], np.random.default_rng(36)) <= 1e-8
        assert verify_gauge_data(ctx["pure"], np.random.default_rng(36)) <= 1e-8


class TestHorizontalLift:
    def test_zero_potential_flat_lift(self, ctx):
        b = BasePoint("main", np.zeros(2), np.zeros(2))
        v = BaseTangent.of([1.0, -0.5])
        _, fiber = horizontal_lift(ctx["triv"], b, v, ChartPoint(Chart.NORTH, 0.4j))
        assert np.allclose(fiber, 0.0)

    def test_equator_orthogonality(self, ctx):
        # defining property at the equator along the azimuthal direction
        b = BasePoint("north", np.array([1.0, 0.0]), np.zeros(2))  # theta = pi/2
        v = BaseTangent.of([0.0, 1.0])  # d/dphi
        rng = np.random.default_rng(37)
        for _ in range(100):
            f = ChartPoint(Chart.NORTH, complex(rng.normal(), rng.normal()))
            xi = rng.standard_normal(2)
            res = lift_orthogonality_residual(ctx["mono"], b, v, f, xi)
            assert res <= 1e-8

    def test_random_states_both_models(self, ctx):
        rng = np.random.default_rng(38)
        for model in (ctx["mono"], ctx["const"]):
            for _ in range(20):
                if model.kind == "monopole":
                    b, v = monopole_state(rng)
                else:
                    b = BasePoint("main", rng.standard_normal(2), rng.standard_normal(2))
                    v = BaseTangent.of(rng.standard_normal(2), rng.standard_normal(2))
                f = ChartPoint(Chart.NORTH, complex(rng.normal(), rng.normal()))
                xi = rng.standard_normal(2)
                assert lift_orthogonality_residual(model, b, v, f, xi) <= 1e-8


class TestCurvature:
    def test_zero_potential(self, ctx):
        b = BasePoint("main", np.zeros(2), np.zeros(2))
        f = curvature(ctx["triv"], ctx["rep"], b, BaseTangent.of([1, 0]), BaseTangent.of([0, 1]))
        assert np.linalg.norm(f, 2) < 1e-12

    def test_pure_gauge_is_flat(self, ctx):
        rng = np.random.default_rng(39)
        for _ in range(5):
            b = BasePoint("gauged", rng.uniform(-1, 1, 2), np.zeros(2))
            f = curvature(ctx["pure"], ctx["rep"], b, BaseTangent.of([1, 0]), BaseTangent.of([0, 1]))
            assert np.linalg.norm(f, 2) <= 1e-6

    def test_constant_potential_commutator(self, ctx):
        b = BasePoint("main", np.zeros(2), np.zeros(2))
        f = curvature(ctx["const"], ctx["rep"], b, BaseTangent.of([1, 0]), BaseTangent.of([0, 1]))
        rep = ctx["rep"].matrices
        comm = rep[1] @ rep[0] - rep[0] @ rep[1]
        assert np.linalg.norm(f - comm, 2) <= 1e-8
        assert np.linalg.norm(f, 2) > 0.1

    def test_antisymmetry(self, ctx):
        b = BasePoint("main", np.array([0.2, 0.1]), np.zeros(2))
        v1, v2 = BaseTangent.of([1, 0.3]), BaseTangent.of([-0.2, 1])
        f12 = curvature(ctx["const"], ctx["rep"], b, v1, v2)
        f21 = curvature(ctx["const"], ctx["rep"], b, v2, v1)
        assert np.linalg.norm(f12 + f21, 2) <= 1e-9


class TestModelConstruction:
    def test_monopole_strength_validation(self):
        with pytest.raises(InvalidArgument):
            monopole_model(OrbitSpec(1), strength=0)
        with pytest.raises(InvalidArgument):
            monopole_model(OrbitSpec(1), strength=1.5)

    def test_constant_coefficients_shape(self):
        with pytest.raises(InvalidArgument):
            constant_model(OrbitSpec(1), np.ones((3, 3)))

    def test_construction_checks_run(self):
        # full model check incl. minimal-coupling enforcement
        for model in (monopole_model(OrbitSpec(1)), trivial_model(OrbitSpec(0))):
            check_model(model, build_basis(model.spec))

    def test_check_rejects_untested_overlap(self):
        # South chart shrunk to |q| < 0.1: no sampled point lies in both
        # charts, so the inconsistent south potential would go unchecked.
        model = monopole_model(OrbitSpec(1))
        south = model.charts["south"]
        shrunk = ChartData(lambda q: 5.0 * south.potential(q),
                           lambda q: np.asarray(q)[..., 0] ** 2 + np.asarray(q)[..., 1] ** 2 - 0.01)
        bad = dataclasses.replace(model, charts={**model.charts, "south": shrunk})
        with pytest.raises(ConfigurationError, match=r"overlap \('north', 'south'\)"):
            check_model(bad, build_basis(bad.spec))

    def test_check_rejects_other_spin(self):
        with pytest.raises(InvalidArgument, match="model has two_j = 3 but the basis has two_j = 1"):
            check_model(monopole_model(OrbitSpec(3)), build_basis(OrbitSpec(1)))

    def test_check_rejects_leaking_generator(self, ctx, monkeypatch):
        monkeypatch.setattr(gauge, "polarization_residual", lambda basis, w: 1e-3)
        with pytest.raises(ConfigurationError, match=r"polarization at two_j = 2 \(residual 1.00e-03"):
            check_model(ctx["mono"], ctx["basis"])

    @pytest.mark.parametrize("two_j", [0, 1, 2, 20])
    def test_moment_generators_preserve_polarization(self, two_j):
        assert moment_polarization_residual(build_basis(OrbitSpec(two_j))) <= 1e-6

    @pytest.mark.parametrize("builder", [trivial_model, constant_model, monopole_model, pure_gauge_model])
    def test_check_probes_the_three_moments_at_the_basis_spin(self, builder, monkeypatch):
        spec = OrbitSpec(3)
        basis = build_basis(spec)
        probes = ChartPoint(Chart.NORTH, np.array([0.0, 0.4 - 0.7j, 1.3 + 0.2j]))
        seen = []

        def recording(basis_arg, w):
            seen.append((basis_arg.spec.two_j, w.value(probes)))
            return polarization_residual(basis_arg, w)

        monkeypatch.setattr(gauge, "polarization_residual", recording)
        check_model(builder(spec), basis)
        assert [two_j for two_j, _ in seen] == [3, 3, 3]
        for (_, values), e in zip(seen, np.eye(3)):
            assert np.array_equal(values, moment_hamiltonian(spec, e).value(probes))

    def test_check_is_independent_of_the_coefficient_scale(self, ctx):
        coefficients = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # the builder's default
        check_model(constant_model(ctx["spec"], 1e10 * coefficients), ctx["basis"])
