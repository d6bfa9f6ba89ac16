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
    ChartData,
    alpha_total_components,
    build_rep,
    check_model,
    connection_rep,
    connection_rep_batch,
    constant_model,
    curvature,
    gauge_residual,
    horizontal_lift,
    lift_orthogonality_residual,
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
    _moment_functions,
    moment_hamiltonian,
    theta_dz,
)
from fiberquant.su2 import PAULI, TAU, su2_exp
from fiberquant.transport import _TAU_PAIRS

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
    p = rng.standard_normal(2)
    dq = rng.standard_normal(2)
    rng.standard_normal(2)  # the retired dp draw, kept so that every later sample stays the same
    return "north", q, p, dq


class TestOrbitFunction:
    def test_zero_potential(self, ctx):
        w = orbit_function(ctx["triv"], "main", np.array([0.4, -0.2]), np.array([1.0, 0.5]))
        pt = ChartPoint(Chart.NORTH, 0.3 + 0.7j)
        assert w.value(pt) == 0.0

    def test_first_axis_contraction(self, ctx):
        # tau_1 dq_1 contracted with d/dq_1 gives the first-axis moment function
        spec = ctx["spec"]
        model = constant_model(spec, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        w = orbit_function(model, "main", np.zeros(2), np.array([1.0, 0.0]))
        oracle = moment_hamiltonian(spec, [1.0, 0.0, 0.0])
        rng = np.random.default_rng(30)
        for _ in range(20):
            pt = ChartPoint(Chart.NORTH, complex(rng.normal(), rng.normal()))
            assert w.value(pt) == pytest.approx(oracle.value(pt), abs=1e-12)

    def test_outside_chart_rejected(self, ctx):
        with pytest.raises(ChartError):
            orbit_function(ctx["mono"], "north", np.array([10.0, 0.0]), np.array([1.0, 0.0]))


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

    @pytest.mark.parametrize("two_j", [0, 1, 2, 5, 20])
    def test_stacked_residual_equals_the_per_pair_loop(self, two_j):
        basis = build_basis(OrbitSpec(two_j))
        for rep in (build_rep(basis), quadrature_rep(basis)):
            m = rep.matrices
            loop = max(float(np.linalg.norm(m[a] @ m[b] - m[b] @ m[a] - m[c], 2))
                       for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
            assert np.float64(rep.commutator_residual()).tobytes() == np.float64(loop).tobytes()


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
        q, v = np.array([0.1, 0.2]), np.array([1.0, 2.0])
        a_q = connection_rep(ctx["triv"], quadrature_rep(ctx["basis"]), "main", q, v)
        a_r = connection_rep(ctx["triv"], ctx["rep"], "main", q, v)
        assert np.linalg.norm(a_q, 2) < 1e-12
        assert np.linalg.norm(a_r, 2) < 1e-12

    def test_constant_potential_unit_tangent(self, ctx):
        model = constant_model(ctx["spec"], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        a_r = connection_rep(model, ctx["rep"], "main", np.zeros(2), np.array([1.0, 0.0]))
        assert np.linalg.norm(a_r - ctx["rep"].matrices[0], 2) < 1e-12

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_constant_potential_equals_its_broadcast_formula(self, shape):
        # one product per column gives the bits of dq_1 c[0] + dq_2 c[1] broadcast over the trailing length-3 axis,
        # and a non-finite tangent stays visible through a zero coefficient (inf * 0 is nan)
        rng = np.random.default_rng(19)
        coefficients, dq = rng.standard_normal((2, 3)), rng.standard_normal(shape + (2,))
        coefficients[1, 2] = 0.0
        dq[(0,) * len(shape) + (1,)] = np.inf
        with np.errstate(invalid="ignore"):
            got = gauge._constant_potential(coefficients)(np.zeros(shape + (2,)), dq)
            want = dq[..., 0, None] * coefficients[0] + dq[..., 1, None] * coefficients[1]
        assert got.shape == shape + (3,) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes() and np.isnan(got[(0,) * len(shape) + (2,)])

    def test_monopole_diagonal_form(self, ctx):
        # along d/dphi the connection is diagonal with entries -i m (1 - cos theta)
        theta = np.pi / 3
        r = np.tan(theta / 2)
        q = np.array([r, 0.0])
        v = np.array([0.0, r])  # d/dphi at phi = 0
        a_r = connection_rep(ctx["mono"], ctx["rep"], "north", q, v)
        m = np.arange(ctx["spec"].j, -ctx["spec"].j - 1.0, -1.0)
        expected = np.diag(-1j * m * (1 - np.cos(theta)))
        assert np.linalg.norm(a_r - expected, 2) < 1e-10

    def test_quadrature_matches_representation(self, ctx):
        rng = np.random.default_rng(31)
        worst = 0.0
        for model in (ctx["mono"], ctx["const"]):
            for _ in range(15):
                if model.kind == "monopole":
                    chart, q, _, v = monopole_state(rng)
                else:
                    chart, q = "main", rng.standard_normal(2)
                    rng.standard_normal(2)  # the p draw, which the connection does not read
                    v = rng.standard_normal(2)
                    rng.standard_normal(2)  # the retired dp draw
                a_q = connection_rep(model, quadrature_rep(ctx["basis"]), chart, q, v)
                a_r = connection_rep(model, ctx["rep"], chart, q, v)
                worst = max(worst, np.linalg.norm(a_q - a_r, 2))
        assert worst <= 1e-8

    def test_anti_hermitian_linear_and_vertical_independent(self, ctx):
        rng = np.random.default_rng(32)
        for _ in range(20):
            chart, q, _, v = monopole_state(rng)
            a_v = connection_rep(ctx["mono"], ctx["rep"], chart, q, v)
            assert np.linalg.norm(a_v + a_v.conj().T, 2) <= 1e-9
            v2 = rng.standard_normal(2)
            rng.standard_normal(2)  # the retired dp draw
            c1, c2 = rng.standard_normal(2)
            lin = connection_rep(ctx["mono"], ctx["rep"], chart, q, c1 * v + c2 * v2) \
                - c1 * a_v - c2 * connection_rep(ctx["mono"], ctx["rep"], chart, q, v2)
            assert np.linalg.norm(lin, 2) <= 1e-9
            rng.standard_normal(2)  # the retired vertical shift


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
        # dq, then the (p, dp) draws that no connection reads, kept so that the samples stay the same
        return chart, q, rng.standard_normal((count, 2)), rng.standard_normal((count, 2, 2))

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    @pytest.mark.parametrize("builder", [monopole_model, constant_model, pure_gauge_model])
    def test_batch_equals_quadrature_of_orbit_function(self, builder, two_j):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        model = builder(spec)
        rng = np.random.default_rng(40 + two_j)
        chart, q, dq, _ = self.states(model, rng, 24)
        batch = connection_rep_batch(model, quadrature_rep(basis), chart, q, dq)
        assert batch.shape == (24, spec.dim, spec.dim)
        for k in range(24):
            oracle = 1j * prequant_matrix(basis, orbit_function(model, chart, q[k], dq[k]))
            assert np.linalg.norm(batch[k] - oracle, 2) <= 1e-12
            single = connection_rep(model, quadrature_rep(basis), chart, q[k], dq[k])
            assert np.linalg.norm(single - oracle, 2) <= 1e-12

    @pytest.mark.parametrize("two_j", [2, 8])
    @pytest.mark.parametrize("builder", [monopole_model, constant_model, pure_gauge_model])
    @pytest.mark.parametrize("route", [build_rep, quadrature_rep])
    def test_single_point_is_its_batch_row(self, route, builder, two_j):
        # A one-point batch is numpy's vector-matrix product, a larger one its matrix product: they
        # may round a sum of three products apart, never by more than the rounding bound of the sum.
        spec = OrbitSpec(two_j)
        rep, model = route(build_basis(spec)), builder(spec)
        chart, q, dq, _ = self.states(model, np.random.default_rng(60 + two_j), 64)
        rows = connection_rep_batch(model, rep, chart, q, dq)
        singles = np.array([connection_rep(model, rep, chart, q[k], dq[k]) for k in range(64)])
        terms = np.abs(model.charts[chart].potential(q, dq)) @ np.abs(rep.matrices.reshape(3, -1).view(np.float64))
        gap = np.abs(singles.reshape(64, -1).view(np.float64) - rows.reshape(64, -1).view(np.float64))
        assert np.all(gap <= 3.0 * np.finfo(float).eps * terms)

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
        along_e1, along_e2 = (lift(pot(q, np.broadcast_to(e, q.shape))) for e in np.eye(2))
        for k, qq in enumerate(q):
            a_half = su2_exp(np.array([r1 * qq[0], 0.0, 0.0]))
            assert np.max(np.abs(along_e1[k] - r1 * TAU[0])) <= 1e-14
            assert np.max(np.abs(along_e2[k] - r2 * (a_half @ TAU[1] @ a_half.conj().T))) <= 1e-14

    def test_rotation_sign_and_shapes(self):
        pot = pure_gauge_model(OrbitSpec(1), rates=(1.0, 1.0)).charts["gauged"].potential
        # a quarter turn about tau_1 carries tau_2 to +tau_3
        assert np.max(np.abs(lift(pot(np.array([np.pi / 2, 0.0]), np.array([0.0, 1.0]))) - TAU[2])) <= 1e-15
        assert pot(np.zeros(2), np.zeros(2)).shape == (3,)
        assert pot(np.zeros((3, 4, 2)), np.zeros((3, 4, 2))).shape == (3, 4, 3)


class TestPotentialFormat:
    """Chart potentials are real tau-coefficients, contracted with the generators as they are."""

    @pytest.mark.parametrize("builder", [trivial_model, constant_model, monopole_model, pure_gauge_model])
    def test_coefficients_match_matrix_round_trip(self, ctx, builder):
        model = builder(ctx["spec"])
        rng = np.random.default_rng(14)
        q = rng.uniform(-1.0, 1.0, (4, 2))
        dq = rng.standard_normal((4, 2))
        for name, chart in model.charts.items():
            for points, tangents, shape in ((q[0], dq[0], (3,)), (q, dq, (4, 3))):
                coeffs = chart.potential(points, tangents)
                assert coeffs.shape == shape and coeffs.dtype == np.float64
            # oracle: lift to matrices, read off -2 Re tr(xi tau_a)
            xi = lift(chart.potential(q, dq))
            back = -2.0 * np.einsum("...ij,aji->...a", xi, TAU).real
            oracle = np.einsum("...a,aij->...ij", back, ctx["rep"].matrices)
            got = connection_rep_batch(model, ctx["rep"], name, q, dq)
            assert np.max(np.abs(got - oracle)) <= 1e-15

    @pytest.mark.parametrize("builder", [trivial_model, constant_model, monopole_model, pure_gauge_model])
    def test_linear_in_the_tangent(self, ctx, builder):
        # <A(q), dq> = dq_1 <A(q), e_1> + dq_2 <A(q), e_2>, and a non-finite tangent is not absorbed
        model = builder(ctx["spec"])
        rng = np.random.default_rng(15)
        q = rng.uniform(-1.0, 1.0, (16, 2))
        dq = rng.standard_normal((16, 2))
        for chart in model.charts.values():
            along_e1, along_e2 = (chart.potential(q, np.broadcast_to(e, q.shape)) for e in np.eye(2))
            assert np.max(np.abs(chart.potential(q, dq) - (dq[:, :1] * along_e1 + dq[:, 1:] * along_e2))) <= 1e-15
            for bad in ([np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0], [0.0, np.nan]):
                with np.errstate(invalid="ignore"):
                    coeffs = chart.potential(q, np.broadcast_to(bad, q.shape))
                assert not np.isfinite(coeffs).all(axis=-1).any()

    @pytest.mark.parametrize("builder", [trivial_model, constant_model, monopole_model, pure_gauge_model])
    def test_real_contraction_is_the_complex_one(self, ctx, builder):
        # the real matmul on the generators' float view against the complex einsum of the same coefficients
        model = builder(ctx["spec"])
        rng = np.random.default_rng(16)
        q = rng.uniform(-1.0, 1.0, (64, 2))
        dq = rng.standard_normal((64, 2))
        for name, chart in model.charts.items():
            coeffs = chart.potential(q, dq)
            for rep in (_TAU_PAIRS, ctx["rep"], ctx["quad"]):
                oracle = np.einsum("na,a...->n...", coeffs, rep.matrices)
                got = connection_rep_batch(model, rep, name, q, dq)
                assert got.dtype == oracle.dtype and got.shape == oracle.shape
                if rep is _TAU_PAIRS:
                    assert got.tobytes() == oracle.tobytes()
                else:
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
            q, v = rng.uniform(-1, 1, 2), rng.standard_normal(2)
            assert gauge_residual(model, ctx["basis"], ctx["quad"], "flat", q, v) <= 1e-10

    def test_monopole_overlap(self, ctx):
        rng = np.random.default_rng(34)
        for _ in range(10):
            chart, q, _, v = monopole_state(rng, overlap=True)
            assert gauge_residual(ctx["mono"], ctx["basis"], ctx["quad"], chart, q, v) <= 1e-6

    def test_pure_gauge(self, ctx):
        rng = np.random.default_rng(35)
        for _ in range(10):
            q, v = rng.uniform(-1, 1, 2), rng.standard_normal(2)
            assert gauge_residual(ctx["pure"], ctx["basis"], ctx["quad"], "flat", q, v) <= 1e-6

    def test_monopole_law_resolved_past_the_stencil(self):
        # dX by Richardson: the residual reads the law, not a central difference's O(h^2) error
        spec = OrbitSpec(4)
        basis = build_basis(spec)
        model, rep = monopole_model(spec), build_rep(basis)
        rng = np.random.default_rng(34)
        for _ in range(10):
            chart, q, _, v = monopole_state(rng, overlap=True)
            assert gauge_residual(model, basis, rep, chart, q, v) <= 1e-9

    def test_point_outside_overlap_rejected(self, ctx):
        q = np.array([0.05, 0.0])  # near north pole
        with pytest.raises(ChartError):
            gauge_residual(ctx["mono"], ctx["basis"], ctx["quad"], "north", q, np.array([1.0, 0.0]))

    def test_data_consistency(self, ctx):
        assert verify_gauge_data(ctx["mono"], np.random.default_rng(36)) <= 1e-8
        assert verify_gauge_data(ctx["pure"], np.random.default_rng(36)) <= 1e-8


OVERLAP_MODELS = {
    "monopole": monopole_model,
    "monopole_-2": lambda spec: monopole_model(spec, strength=-2),
    "pure_gauge": pure_gauge_model,
    "pure_gauge_rates": lambda spec: pure_gauge_model(spec, rates=(-1.3, 2.4)),
}


def overlap_samples(model, rng, count):
    """``count`` chart points of the model's first chart that lie in its overlap, with tangents."""
    chart = next(iter(model.overlaps))[0]
    if model.kind == "monopole":
        q, v = zip(*(monopole_state(rng, overlap=True)[1::2] for _ in range(count)))
    else:
        q, v = zip(*((rng.uniform(-1, 1, 2), rng.standard_normal(2)) for _ in range(count)))
    return chart, np.array(q), np.array(v)


class TestStackedGaugeLaw:
    """Transitions, ``gauge_residual`` and ``verify_gauge_data`` on stacks equal their per-point calls."""

    @pytest.mark.parametrize("name", sorted(OVERLAP_MODELS))
    def test_stacked_transition_equals_per_point_calls(self, ctx, name):
        model = OVERLAP_MODELS[name](ctx["spec"])
        q = np.random.default_rng(37).uniform(-1.5, 1.5, size=(4, 5, 2))
        q[0, 0], q[0, 1] = [0.7, 0.0], [0.0, -0.4]  # on the axes, where one coordinate is exactly 0
        for overlap in model.overlaps.values():
            stacked = overlap.transition(q)
            single = np.array([overlap.transition(x) for x in q.reshape(-1, 2)]).reshape(4, 5, 2, 2)
            assert stacked.tobytes() == single.tobytes()

    @pytest.mark.parametrize("name", sorted(OVERLAP_MODELS))
    @pytest.mark.parametrize("source", ["rep", "quad"])
    def test_stacked_residual_equals_per_point_calls(self, ctx, name, source):
        model = OVERLAP_MODELS[name](ctx["spec"])
        chart, q, v = overlap_samples(model, np.random.default_rng(38), 8)
        stacked = gauge_residual(model, ctx["basis"], ctx[source], chart, q, v)
        single = [gauge_residual(model, ctx["basis"], ctx[source], chart, x, u) for x, u in zip(q, v)]
        assert all(type(value) is float for value in single)
        assert stacked.shape == (8,) and np.array_equal(stacked, single)
        block = gauge_residual(model, ctx["basis"], ctx[source], chart, q.reshape(2, 4, 2), v.reshape(2, 4, 2))
        assert np.array_equal(block, stacked.reshape(2, 4))

    def test_any_point_outside_the_overlap_rejects_the_stack(self, ctx):
        chart, q, v = overlap_samples(ctx["mono"], np.random.default_rng(39), 6)
        q[4] = [0.05, 0.0]  # near the north pole
        with pytest.raises(ChartError):
            gauge_residual(ctx["mono"], ctx["basis"], ctx["quad"], chart, q, v)

    @pytest.mark.parametrize("name", sorted(OVERLAP_MODELS))
    def test_data_check_equals_the_per_sample_loop(self, ctx, name, monkeypatch):
        model = OVERLAP_MODELS[name](ctx["spec"])
        stacked, defect = [], gauge._gauge_law_defect
        monkeypatch.setattr(gauge, "_gauge_law_defect",
                            lambda *args: stacked.append((args, defect(*args))) or stacked[-1][1])
        worst = verify_gauge_data(model, np.random.default_rng(40))
        # one stacked call per overlap on its 12 drawn points, each point's defect its own call's bit for bit
        assert len(stacked) == len(model.overlaps)
        per_sample = []
        for ((i, j), overlap), ((_, _, _, _, q, dq), values) in zip(model.overlaps.items(), stacked):
            assert q.shape == dq.shape == (12, 2)
            assert np.all(model.charts[i].holds(q)) and np.all(model.charts[j].holds(overlap.convert(q, dq)[0]))
            single = []
            for x, v in zip(q[:, None], dq[:, None]):  # each sample a stack of length 1
                xi_i = lift(model.charts[i].potential(x, v))
                xi_j = lift(model.charts[j].potential(*overlap.convert(x, v)))
                single.append(defect(xi_i, xi_j, overlap.transition, np.asarray, x, v)[0])
            assert np.array_equal(values, single)
            per_sample += single
        assert worst == np.max(per_sample)


class TestStackedEntryPoints:
    """A stack of points, (k, 2) or (2, 4, 2), equals its calls on stacks of length 1 and on single points,
    bit for bit: a single point is computed as a stack of length 1."""

    MODELS = {"monopole": (monopole_model, "north"), "constant": (constant_model, "main"),
              "pure_gauge": (pure_gauge_model, "gauged")}

    @staticmethod
    def states(model, rng, count=8):
        """``count`` chart points of the monopole's north chart or of the plane, with q, p, dq, z and xi."""
        if model.kind == "monopole":
            r, phi = np.tan(rng.uniform(np.pi / 8, 2 * np.pi / 3, count) / 2), rng.uniform(0, 2 * np.pi, count)
            q = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
        else:
            q = rng.uniform(-1, 1, (count, 2))
        p, dq, xy, xi = rng.standard_normal((4, count, 2))
        return q, p, dq, xy[:, 0] + 1j * xy[:, 1], xi

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("route", ["rep", "quad"])
    def test_connection_rep(self, ctx, name, route):
        builder, chart = self.MODELS[name]
        model = builder(ctx["spec"])
        q, _, dq, _, _ = self.states(model, np.random.default_rng(50))
        stacked = connection_rep(model, ctx[route], chart, q, dq)
        assert stacked.shape == (8, 3, 3)
        for k in range(8):
            one = connection_rep(model, ctx[route], chart, q[k:k + 1], dq[k:k + 1])
            assert one.tobytes() == stacked[k].tobytes()
            assert connection_rep(model, ctx[route], chart, q[k], dq[k]).tobytes() == stacked[k].tobytes()
        block = connection_rep(model, ctx[route], chart, q.reshape(2, 4, 2), dq.reshape(2, 4, 2))
        assert block.shape == (2, 4, 3, 3) and block.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_orbit_function(self, ctx, name):
        builder, chart = self.MODELS[name]
        model = builder(ctx["spec"])
        q, _, dq, z, _ = self.states(model, np.random.default_rng(51))
        w, pt = orbit_function(model, chart, q, dq), ChartPoint(Chart.NORTH, z)
        values, gradients = w.value(pt), w.chart_gradient(pt)
        assert values.shape == (8,) and gradients.shape == (2, 8)
        for k in range(8):
            one, at = orbit_function(model, chart, q[k:k + 1], dq[k:k + 1]), ChartPoint(Chart.NORTH, z[k:k + 1])
            assert one.value(at).tobytes() == values[k:k + 1].tobytes()
            assert one.chart_gradient(at).tobytes() == gradients[:, k:k + 1].tobytes()
        block = orbit_function(model, chart, q.reshape(2, 4, 2), dq.reshape(2, 4, 2))
        assert block.value(ChartPoint(Chart.NORTH, z.reshape(2, 4))).tobytes() == values.tobytes()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_alpha_total_components(self, ctx, name):
        builder, chart = self.MODELS[name]
        model = builder(ctx["spec"])
        q, p, _, z, _ = self.states(model, np.random.default_rng(52))
        stacked = alpha_total_components(model, chart, q, p, z)
        assert stacked.shape == (8, 6)
        for k in range(8):
            one = alpha_total_components(model, chart, q[k:k + 1], p[k:k + 1], z[k:k + 1])
            assert one.tobytes() == stacked[k].tobytes()
            assert alpha_total_components(model, chart, q[k], p[k], complex(z[k])).tobytes() == stacked[k].tobytes()
        block = alpha_total_components(model, chart, q.reshape(2, 4, 2), p.reshape(2, 4, 2), z.reshape(2, 4))
        assert block.shape == (2, 4, 6) and block.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_lift_orthogonality_residual(self, ctx, name):
        builder, chart = self.MODELS[name]
        model = builder(ctx["spec"])
        q, p, dq, z, xi = self.states(model, np.random.default_rng(53))
        stacked = lift_orthogonality_residual(model, chart, q, p, dq, ChartPoint(Chart.NORTH, z), xi)
        assert stacked.shape == (8,) and np.all(stacked <= 1e-8)
        for k in range(8):
            one = lift_orthogonality_residual(model, chart, q[k:k + 1], p[k:k + 1], dq[k:k + 1],
                                              ChartPoint(Chart.NORTH, z[k:k + 1]), xi[k:k + 1])
            single = lift_orthogonality_residual(model, chart, q[k], p[k], dq[k],
                                                 ChartPoint(Chart.NORTH, complex(z[k])), xi[k])
            assert type(single) is float and one.tobytes() == stacked[k:k + 1].tobytes() and single == stacked[k]
        block = lift_orthogonality_residual(model, chart, *(x.reshape(2, 4, 2) for x in (q, p, dq)),
                                            ChartPoint(Chart.NORTH, z.reshape(2, 4)), xi.reshape(2, 4, 2))
        assert block.shape == (2, 4) and block.tobytes() == stacked.tobytes()

    def test_any_point_outside_the_chart_rejects_the_stack(self, ctx):
        model = ctx["mono"]
        q, p, dq, z, xi = self.states(model, np.random.default_rng(54))
        q[5] = [10.0, 0.0]  # beyond the north chart's colatitude 3 pi / 4
        calls = [lambda: connection_rep(model, ctx["rep"], "north", q, dq),
                 lambda: connection_rep(model, ctx["quad"], "north", q.reshape(2, 4, 2), dq.reshape(2, 4, 2)),
                 lambda: orbit_function(model, "north", q, dq),
                 lambda: alpha_total_components(model, "north", q, p, z),
                 lambda: lift_orthogonality_residual(model, "north", q, p, dq, ChartPoint(Chart.NORTH, z), xi)]
        for call in calls:  # the message names the point, not the whole stack
            with pytest.raises(ChartError, match=r"^point \[10\. +0\.\] outside chart 'north'$"):
                call()


class TestHorizontalLift:
    def test_zero_potential_flat_lift(self, ctx):
        fiber = horizontal_lift(ctx["triv"], "main", np.zeros(2), np.array([1.0, -0.5]), ChartPoint(Chart.NORTH, 0.4j))
        assert np.allclose(fiber, 0.0)

    def test_equator_orthogonality(self, ctx):
        # defining property at the equator along the azimuthal direction
        q, p = np.array([1.0, 0.0]), np.zeros(2)  # theta = pi/2
        v = np.array([0.0, 1.0])  # d/dphi
        rng = np.random.default_rng(37)
        for _ in range(100):
            f = ChartPoint(Chart.NORTH, complex(rng.normal(), rng.normal()))
            xi = rng.standard_normal(2)
            res = lift_orthogonality_residual(ctx["mono"], "north", q, p, v, f, xi)
            assert res <= 1e-8

    def test_random_states_both_models(self, ctx):
        rng = np.random.default_rng(38)
        for model in (ctx["mono"], ctx["const"]):
            for _ in range(20):
                if model.kind == "monopole":
                    chart, q, p, v = monopole_state(rng)
                else:
                    chart, q, p = "main", rng.standard_normal(2), rng.standard_normal(2)
                    v = rng.standard_normal(2)
                    rng.standard_normal(2)  # the retired dp draw
                f = ChartPoint(Chart.NORTH, complex(rng.normal(), rng.normal()))
                xi = rng.standard_normal(2)
                assert lift_orthogonality_residual(model, chart, q, p, v, f, xi) <= 1e-8

    @pytest.mark.parametrize("name", ["triv", "const", "mono", "pure"])
    def test_total_potential_components(self, ctx, name):
        # p dq + <mu, A(dq)> + theta: no dp component, and the fiber part is theta dz in (dx, dy)
        model, z = ctx[name], 0.3 - 0.7j
        chart = "gauged" if name == "pure" else next(iter(model.charts))
        q, p = np.array([0.4, 0.1]), np.array([-0.6, 1.3])
        alpha = alpha_total_components(model, chart, q, p, z)
        pt = ChartPoint(Chart.NORTH, z)
        coeff = theta_dz(ctx["spec"], pt)
        base = [p[k] + orbit_function(model, chart, q, np.eye(2)[k]).value(pt)
                for k in range(2)]
        assert np.array_equal(alpha, np.array([*base, 0.0, 0.0, coeff, 1j * coeff]))


class TestCurvature:
    def test_zero_potential(self, ctx):
        f = curvature(ctx["triv"], ctx["rep"], "main", np.zeros(2), *np.eye(2))
        assert np.linalg.norm(f, 2) < 1e-12

    def test_pure_gauge_is_flat(self, ctx):
        rng = np.random.default_rng(39)
        for _ in range(5):
            f = curvature(ctx["pure"], ctx["rep"], "gauged", rng.uniform(-1, 1, 2), *np.eye(2))
            assert np.linalg.norm(f, 2) <= 1e-6

    def test_constant_potential_commutator(self, ctx):
        f = curvature(ctx["const"], ctx["rep"], "main", np.zeros(2), *np.eye(2))
        rep = ctx["rep"].matrices
        comm = rep[1] @ rep[0] - rep[0] @ rep[1]
        assert np.linalg.norm(f - comm, 2) <= 1e-8
        assert np.linalg.norm(f, 2) > 0.1

    def test_antisymmetry(self, ctx):
        q = np.array([0.2, 0.1])
        v1, v2 = np.array([1, 0.3]), np.array([-0.2, 1])
        f12 = curvature(ctx["const"], ctx["rep"], "main", q, v1, v2)
        f21 = curvature(ctx["const"], ctx["rep"], "main", q, v2, v1)
        assert np.linalg.norm(f12 + f21, 2) <= 1e-9

    @pytest.mark.parametrize("model, chart, rep", [("mono", "north", "quad"), ("pure", "gauged", "rep"),
                                                   ("const", "main", "rep")])
    def test_one_stacked_call_equals_the_six_point_calls(self, ctx, monkeypatch, model, chart, rep):
        model, rep, h = ctx[model], ctx[rep], 1.0e-5
        q, v1, v2 = np.array([0.3, -0.2]), np.array([1.0, 0.3]), np.array([-0.2, 1.0])
        a_at = lambda x, v: connection_rep(model, rep, chart, x, v)
        d1 = central_difference(lambda s: a_at(q + s * v1, v2), 0.0, h)
        d2 = central_difference(lambda s: a_at(q + s * v2, v1), 0.0, h)
        a1, a2 = a_at(q, v1), a_at(q, v2)
        per_point = d1 - d2 + a2 @ a1 - a1 @ a2
        shapes, stacked = [], gauge.connection_rep
        monkeypatch.setattr(gauge, "connection_rep", lambda *args: shapes.append(np.shape(args[3])) or stacked(*args))
        assert curvature(model, rep, chart, q, v1, v2).tobytes() == per_point.tobytes()
        assert shapes == [(6, 2)]


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
        shrunk = ChartData(lambda q, dq: 5.0 * south.potential(q, dq),
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
        spec = OrbitSpec(two_j)
        assert polarization_residual(build_basis(spec), _moment_functions(spec)) <= 1e-6

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
        # one call on the stack of the three moment functions, each row the function alone, bit for bit
        [(two_j, values)] = seen
        assert two_j == 3 and values.shape == (3, 3)
        for row, e in zip(values, np.eye(3)):
            assert row.tobytes() == moment_hamiltonian(spec, e).value(probes).tobytes()

    def test_check_is_independent_of_the_coefficient_scale(self, ctx):
        coefficients = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # the builder's default
        check_model(constant_model(ctx["spec"], 1e10 * coefficients), ctx["basis"])
