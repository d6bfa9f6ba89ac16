import numpy as np
import pytest

from fiberquant.constants import CROSSING_BISECT_TOL, MONOPOLE_HOLONOMY_SIGN
from fiberquant import scenario
from fiberquant.errors import ChartError, InvalidArgument
from fiberquant.fiberq import build_basis
from fiberquant.gauge import (
    BasePoint,
    BaseTangent,
    GaugeModel,
    build_rep,
    constant_model,
    curvature,
    monopole_model,
    quadrature_rep,
    trivial_model,
)
from fiberquant.numerics import central_difference, matrix_exp
from fiberquant.orbit import OrbitSpec
from fiberquant.transport import (
    BasePath,
    covariant_residual_total_space,
    covariant_section_solve,
    latitude_path,
    meridian_path,
    momentum_circle_path,
    phase_circle_path,
    reverse_path,
    segment_path,
    transport,
    wilson_loop,
)


@pytest.fixture(scope="module")
def ctx():
    spec = OrbitSpec(2)
    basis = build_basis(spec)
    return {
        "spec": spec,
        "basis": basis,
        "rep": build_rep(basis),
        "triv": trivial_model(spec),
        "const": constant_model(spec),
        "mono": monopole_model(spec),
    }


def subpath(path, t0, t1):
    def at(chart, t):
        q, p, dq, dp = path.at(chart, t0 + (t1 - t0) * np.asarray(t, dtype=float))
        return q, p, (t1 - t0) * dq, (t1 - t0) * dp

    return BasePath(at=at, start_chart=path.start_chart)


# One path of each scenario kind, with the charts it is defined in.
_PATH_CASES = {
    "latitude": (latitude_path(1.0, winds=2, phi0=0.3), ("north", "south")),
    "meridian": (meridian_path(), ("north", "south")),
    "segment": (segment_path([0.1, -0.2], [0.7, 0.4], [0.3, 0.0], [-0.5, 0.2]), ("main",)),
    "phase_circle": (phase_circle_path([0.2, -0.1], 0.6, plane=1), ("main",)),
    "momentum_circle": (momentum_circle_path([0.4, -0.1], [0.2, 0.3], 0.7), ("main",)),
}


class TestPathMaps:
    """A path's (dq, dp) is the parameter derivative of its (q, p), in every chart."""

    def test_every_scenario_kind_has_a_case(self):
        assert set(_PATH_CASES) == set(scenario._PATHS)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", sorted(_PATH_CASES))
    def test_velocity_is_derivative_of_position(self, kind, reverse):
        path, charts = _PATH_CASES[kind]
        if reverse:
            path = reverse_path(path)
        ts = np.array([0.1, 0.37, 0.62, 0.9])
        for chart in charts:
            q, p, dq, dp = path.at(chart, ts)
            assert q.shape == p.shape == dq.shape == dp.shape == (4, 2)
            for value, deriv in ((0, dq), (1, dp)):
                fd = central_difference(lambda s: path.at(chart, ts + s)[value], 0.0, 1e-6)
                assert np.max(np.abs(deriv - fd)) <= 1e-6, (chart, value)

    @pytest.mark.parametrize("kind", ["latitude", "meridian"])
    def test_sphere_path_rejects_other_chart(self, kind):
        with pytest.raises(ChartError):
            _PATH_CASES[kind][0].at("main", np.array([0.5]))


class TestBasicTransport:
    def test_zero_potential_zero_momentum(self, ctx):
        res = transport(ctx["triv"], ctx["basis"], segment_path([0, 0], [1, 0]),
                        rep=ctx["rep"], steps=100)
        assert np.linalg.norm(res.unitary - np.eye(ctx["spec"].dim), 2) == 0.0
        assert res.alpha_phase == 0.0

    def test_constant_potential_matches_exponential(self, ctx):
        res = transport(ctx["const"], ctx["basis"], segment_path([0, 0], [1, 0]),
                        rep=ctx["rep"], steps=2000)
        oracle = matrix_exp(ctx["rep"].matrices[0])
        assert np.linalg.norm(res.unitary - oracle, 2) <= 1e-8

    def test_scaled_segment(self, ctx):
        length = 1.7
        res = transport(ctx["const"], ctx["basis"], segment_path([0, 0], [0, length]),
                        rep=ctx["rep"], steps=3000)
        oracle = matrix_exp(length * ctx["rep"].matrices[1])
        assert np.linalg.norm(res.unitary - oracle, 2) <= 1e-8

    def test_orderings_differ(self, ctx):
        res_x = transport(ctx["const"], ctx["basis"], segment_path([0, 0], [1, 0]),
                          rep=ctx["rep"], steps=1000)
        res_y = transport(ctx["const"], ctx["basis"], segment_path([0, 0], [0, 1]),
                          rep=ctx["rep"], steps=1000)
        xy = res_y.unitary @ res_x.unitary
        yx = res_x.unitary @ res_y.unitary
        assert np.linalg.norm(xy - yx, 2) > 0.1

    def test_phase_circle_green_area(self, ctx):
        res = transport(ctx["triv"], ctx["basis"], phase_circle_path([0, 0], 0.5),
                        rep=ctx["rep"], steps=2000)
        assert np.linalg.norm(res.unitary - np.eye(ctx["spec"].dim), 2) <= 1e-12
        assert res.alpha_phase == pytest.approx(np.pi * 0.25, abs=1e-10)

    def test_momentum_circle_is_trivial(self, ctx):
        res = transport(ctx["const"], ctx["basis"],
                        momentum_circle_path([0.4, -0.1], [0.0, 0.0], 0.7),
                        rep=ctx["rep"], steps=500)
        assert np.linalg.norm(res.unitary - np.eye(ctx["spec"].dim), 2) == 0.0
        assert res.alpha_phase == 0.0


class TestCompositionLaws:
    def test_reversal_inverts(self, ctx):
        lat = latitude_path(np.pi / 3)
        fwd = transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=2000)
        bwd = transport(ctx["mono"], ctx["basis"], reverse_path(lat), rep=ctx["rep"], steps=2000)
        assert np.linalg.norm(bwd.unitary - fwd.unitary.conj().T, 2) <= 1e-8
        assert bwd.alpha_phase == pytest.approx(-fwd.alpha_phase, abs=1e-12)

    def test_concatenation_and_phase_additivity(self, ctx):
        seg = segment_path([0, 0], [1, 0.5], p_from=[0.2, -0.3], p_to=[0.4, 0.1])
        full = transport(ctx["const"], ctx["basis"], seg, rep=ctx["rep"], steps=1000)
        h1 = transport(ctx["const"], ctx["basis"], subpath(seg, 0.0, 0.5), rep=ctx["rep"], steps=500)
        h2 = transport(ctx["const"], ctx["basis"], subpath(seg, 0.5, 1.0), rep=ctx["rep"], steps=500)
        assert abs((h1.alpha_phase + h2.alpha_phase) - full.alpha_phase) <= 1e-13
        assert np.linalg.norm(h2.unitary @ h1.unitary - full.unitary, 2) <= 1e-12

    def test_unitarity_step_scaling(self, ctx):
        lat = latitude_path(2 * np.pi / 3)
        ref = transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=200000)
        err_n = np.linalg.norm(transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"],
                                         steps=500).unitary - ref.unitary, 2)
        err_2n = np.linalg.norm(transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"],
                                          steps=1000).unitary - ref.unitary, 2)
        assert 12.0 <= err_n / err_2n <= 20.0
        assert ref.unitarity_deviation <= 1e-8


class TestMonopoleHolonomy:
    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3])
    def test_latitude_law(self, ctx, theta):
        hol, _ = wilson_loop(ctx["mono"], ctx["basis"], latitude_path(theta),
                             rep=ctx["rep"], steps=4000)
        spec = ctx["spec"]
        m = np.arange(spec.j, -spec.j - 1.0, -1.0)
        solid = 2 * np.pi * (1 - np.cos(theta))
        expected = np.diag(np.exp(1j * MONOPOLE_HOLONOMY_SIGN * m * solid))
        assert np.linalg.norm(hol - expected, 2) <= 1e-6

    def test_negative_strength_flips_phases(self):
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        rep = build_rep(basis)
        model = monopole_model(spec, strength=-1)
        hol, _ = wilson_loop(model, basis, latitude_path(np.pi / 3), rep=rep, steps=3000)
        m = np.array([0.5, -0.5])
        solid = 2 * np.pi * (1 - np.cos(np.pi / 3))
        expected = np.diag(np.exp(1j * MONOPOLE_HOLONOMY_SIGN * (-1) * m * solid))
        assert np.linalg.norm(hol - expected, 2) <= 1e-6

    def test_chart_decompositions_agree(self, ctx):
        lat = latitude_path(np.pi / 2)
        plain = transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=2000)
        switched = transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=2000,
                             forced_switches=[(0.25, "south"), (0.75, "north")])
        assert np.linalg.norm(plain.unitary - switched.unitary, 2) <= 1e-6

    def test_meridian_crossing_half_integer(self):
        # great circle encloses solid angle 2*pi: holonomy -1 for spin 1/2
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        rep = build_rep(basis)
        model = monopole_model(spec)
        hol, trace = wilson_loop(model, basis, meridian_path(), rep=rep, steps=4000)
        assert np.linalg.norm(hol + np.eye(2), 2) <= 1e-6
        assert trace == pytest.approx(-2.0, abs=1e-6)
        # two boundary crossings were detected and inserted
        res = transport(model, basis, meridian_path(), rep=rep, steps=4000)
        assert len(res.chart_log) == 3

    def test_source_independence(self, ctx):
        lat = latitude_path(np.pi / 3)
        a = transport(ctx["mono"], ctx["basis"], lat, rep=quadrature_rep(ctx["basis"]), steps=300)
        b = transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=300)
        assert np.linalg.norm(a.unitary - b.unitary, 2) <= 1e-6

    def test_small_square_curvature_expansion(self, ctx):
        base = BasePoint("main", np.zeros(2), np.zeros(2))
        f_mat = curvature(ctx["const"], ctx["rep"], base, BaseTangent.of([1, 0]), BaseTangent.of([0, 1]))

        def square_holonomy(eps):
            w = np.eye(ctx["spec"].dim, dtype=complex)
            corners = [(0, 0), (eps, 0), (eps, eps), (0, eps), (0, 0)]
            for a, b in zip(corners[:-1], corners[1:]):
                res = transport(ctx["const"], ctx["basis"], segment_path(a, b),
                                rep=ctx["rep"], steps=200)
                w = res.unitary @ w
            return w

        rems = []
        for eps in (0.1, 0.05):
            w = square_holonomy(eps)
            rems.append(np.linalg.norm(w - (np.eye(ctx["spec"].dim) + eps**2 * f_mat), 2))
        ratio = rems[0] / rems[1]
        assert 6.0 <= ratio <= 11.0  # remainder scales as eps^3

    def test_wilson_requires_closed_loop(self, ctx):
        with pytest.raises(InvalidArgument):
            wilson_loop(ctx["triv"], ctx["basis"], segment_path([0, 0], [1, 0]), rep=ctx["rep"])

    def test_contractible_loop_zero_potential(self, ctx):
        hol, trace = wilson_loop(ctx["triv"], ctx["basis"], phase_circle_path([0.3, 0.1], 0.4),
                                 rep=ctx["rep"], steps=1000)
        # unitary part trivial; the canonical-form phase is the enclosed area
        assert np.linalg.norm(hol - np.exp(1j * np.pi * 0.16) * np.eye(ctx["spec"].dim), 2) <= 1e-9


class TestCovariantSections:
    def test_constant_in_momentum(self, ctx):
        q_grid = np.array([[x, y] for x in np.linspace(-1, 1, 4) for y in np.linspace(-1, 1, 4)])
        p_grid = np.array([[x, 0.5] for x in np.linspace(-1, 1, 5)])
        n = ctx["spec"].dim
        section = covariant_section_solve(ctx["const"], lambda q: np.exp(1j * q[0]) * np.ones(n),
                                          q_grid, p_grid)
        assert section.residual == 0.0
        assert np.array_equal(section.values[:, 0, :], section.values[:, -1, :])

    def test_tensor_factorization(self, ctx):
        n = ctx["spec"].dim
        fiber_vec = np.arange(1, n + 1, dtype=complex)
        q_grid = np.linspace(-1, 1, 6)[:, None] * np.array([1.0, 0.0])
        p_grid = np.linspace(-1, 1, 3)[:, None] * np.array([0.0, 1.0])
        section = covariant_section_solve(ctx["triv"], lambda q: np.cos(q[0]) * fiber_vec,
                                          q_grid, p_grid)
        base_factor = np.cos(q_grid[:, 0])
        expected = base_factor[:, None, None] * fiber_vec[None, None, :]
        assert np.allclose(section.values, np.broadcast_to(expected, section.values.shape))


class TestNodeRecord:
    def test_meridian_nodes(self, ctx):
        # the meridian leaves the north chart and later the south chart
        path = meridian_path()
        stored = transport(ctx["mono"], ctx["basis"], path, rep=ctx["rep"], steps=2000, store=True)
        plain = transport(ctx["mono"], ctx["basis"], path, rep=ctx["rep"], steps=2000)
        nodes = stored.nodes
        t0, w0, phase0, chart0 = nodes[0]
        assert (t0, phase0, chart0) == (0.0, 0.0, "north")
        assert np.array_equal(w0, np.eye(ctx["spec"].dim))
        assert nodes[-1][1] is stored.unitary
        times = np.array([node[0] for node in nodes])
        assert np.all(np.diff(times) > 0.0) and times[-1] == 1.0
        # each chart change sits at a logged crossing, in the logged order
        changes = [k for k in range(1, len(nodes)) if nodes[k][3] != nodes[k - 1][3]]
        assert len(stored.chart_log) == 3
        assert [nodes[k][3] for k in changes] == [name for _, name in stored.chart_log[1:]]
        for k, (t_cross, _) in zip(changes, stored.chart_log[1:]):
            assert abs(nodes[k][0] - t_cross) <= CROSSING_BISECT_TOL
        assert np.max(np.abs(stored.unitary - plain.unitary)) <= 1e-12


class TestTotalSpaceReconstruction:
    def test_trivial_model_near_zero(self, ctx):
        seg = segment_path([0, 0], [1, 0])
        stored = transport(ctx["triv"], ctx["basis"], seg, rep=ctx["rep"], steps=2000, store=True)
        res = covariant_residual_total_space(ctx["triv"], ctx["basis"], seg, stored)
        assert res <= 1e-10

    def test_monopole_latitude_within_budget(self):
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        rep = build_rep(basis)
        model = monopole_model(spec)
        lat = latitude_path(np.pi / 3)
        stored = transport(model, basis, lat, rep=rep, steps=10000, store=True)
        res = covariant_residual_total_space(model, basis, lat, stored)
        assert res <= 1e-5

    def test_constant_model_with_momentum(self, ctx):
        seg = segment_path([0, 0], [1, 0.5], p_from=[0.3, -0.2], p_to=[0.1, 0.4])
        stored = transport(ctx["const"], ctx["basis"], seg, rep=ctx["rep"], steps=10000, store=True)
        res = covariant_residual_total_space(ctx["const"], ctx["basis"], seg, stored)
        assert res <= 1e-5

    def test_corruption_detected(self, ctx):
        lat = latitude_path(np.pi / 3)
        stored = transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=10000, store=True)
        base = covariant_residual_total_space(ctx["mono"], ctx["basis"], lat, stored)
        bad = covariant_residual_total_space(
            ctx["mono"], ctx["basis"], lat, stored,
            corruption=lambda t: np.exp(1j * 1e-2 * np.sin(2 * np.pi * t)))
        assert bad >= 10.0 * base

    def test_requires_stored_result(self, ctx):
        lat = latitude_path(np.pi / 3)
        plain = transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=500)
        with pytest.raises(InvalidArgument):
            covariant_residual_total_space(ctx["mono"], ctx["basis"], lat, plain)


class TestTransportErrors:
    def test_unregistered_crossing_rejected(self, ctx):
        from fiberquant.errors import ChartError

        stripped = GaugeModel(spec=ctx["spec"], kind="monopole", charts=ctx["mono"].charts)
        with pytest.raises(ChartError):
            transport(stripped, ctx["basis"], meridian_path(), rep=ctx["rep"], steps=500)

    def test_model_of_other_spin_rejected(self):
        basis = build_basis(OrbitSpec(1))
        with pytest.raises(InvalidArgument, match="model has two_j = 3 but the basis has two_j = 1"):
            transport(monopole_model(OrbitSpec(3)), basis, latitude_path(1.0), rep=build_rep(basis), steps=200)

    def test_rep_of_other_spin_rejected(self, ctx):
        basis = build_basis(OrbitSpec(1))
        with pytest.raises(InvalidArgument, match="rep has two_j = 2 but the basis has two_j = 1"):
            transport(monopole_model(OrbitSpec(1)), basis, latitude_path(1.0), rep=ctx["rep"], steps=200)

    def test_residual_of_other_spin_model_rejected(self):
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        lat = latitude_path(1.0)
        stored = transport(monopole_model(spec), basis, lat, rep=build_rep(basis), steps=2000, store=True)
        assert covariant_residual_total_space(monopole_model(spec), basis, lat, stored) <= 1e-5
        with pytest.raises(InvalidArgument, match="model has two_j = 3 but the basis has two_j = 1"):
            covariant_residual_total_space(monopole_model(OrbitSpec(3)), basis, lat, stored)

    @pytest.mark.parametrize("steps", [0, -5])
    def test_non_positive_steps_rejected(self, ctx, steps):
        with pytest.raises(InvalidArgument):
            transport(ctx["mono"], ctx["basis"], latitude_path(np.pi / 3), rep=ctx["rep"], steps=steps)

    def test_unitarity_blowup_rejected(self, ctx):
        from fiberquant.errors import AccuracyFailure

        with pytest.raises(AccuracyFailure):
            transport(ctx["mono"], ctx["basis"], latitude_path(2 * np.pi / 3, winds=8),
                      rep=ctx["rep"], steps=1)
