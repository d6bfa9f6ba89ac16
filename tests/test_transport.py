import dataclasses
import importlib
import tracemalloc

import mpmath
import numpy as np
import pytest

from fiberquant.constants import CROSSING_BISECT_TOL, MONOPOLE_HOLONOMY_SIGN
from fiberquant import scenario
from fiberquant.errors import ChartError, InvalidArgument
from fiberquant.fiberq import build_basis, quantize_transition, spin_lift
from fiberquant.gauge import (
    ChartData,
    GaugeModel,
    LieAlgebraRep,
    build_rep,
    constant_model,
    curvature,
    monopole_model,
    orbit_function,
    pure_gauge_model,
    quadrature_rep,
    trivial_model,
)
from fiberquant.numerics import central_difference, matrix_exp, rk4_step
from fiberquant.orbit import Chart, ChartPoint, OrbitSpec, hamiltonian_field_complex, theta_dz
from fiberquant.su2 import TAU
from fiberquant.transport import (
    _FIBER_SAMPLES,
    BasePath,
    _unit_grid,
    covariant_residual_total_space,
    latitude_path,
    meridian_path,
    phase_circle_path,
    segment_path,
    sub_path,
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


# One path of each scenario kind, with the charts it is defined in.
_PATH_CASES = {
    "latitude": (latitude_path(1.0, winds=2, phi0=0.3), ("north", "south")),
    "meridian": (meridian_path(), ("north", "south")),
    "segment": (segment_path([0.1, -0.2], [0.7, 0.4], [0.3, 0.0], [-0.5, 0.2]), ("main",)),
    "phase_circle": (phase_circle_path([0.2, -0.1], 0.6, plane=1), ("main",)),
}


class TestPathMaps:
    """A path's dq is the parameter derivative of its q, in every chart."""

    def test_every_scenario_kind_has_a_case(self):
        assert set(_PATH_CASES) == set(scenario._PATHS)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", sorted(_PATH_CASES))
    def test_velocity_is_derivative_of_position(self, kind, reverse):
        path, charts = _PATH_CASES[kind]
        if reverse:
            path = sub_path(path, 1.0, 0.0, path.start_chart)
        ts = np.array([0.1, 0.37, 0.62, 0.9])
        for chart in charts:
            q, p, dq = path.at(chart, ts)
            assert q.shape == p.shape == dq.shape == (4, 2)
            fd = central_difference(lambda s: path.at(chart, ts + s)[0], 0.0, 1e-6)
            assert np.max(np.abs(dq - fd)) <= 1e-6, chart

    @pytest.mark.parametrize("kind", ["latitude", "meridian"])
    def test_sphere_path_rejects_other_chart(self, kind):
        with pytest.raises(ChartError):
            _PATH_CASES[kind][0].at("main", np.array([0.5]))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", sorted(_PATH_CASES))
    def test_nodes_match_at_at_the_same_times(self, kind, reverse):
        # a grid equals at within 16 ulp of the largest entry, on 1001 nodes of each window, and gives a sub-range
        # the same bits; windows in the meridian's charts stay off the poles of tan and cot, where a last-bit
        # difference in the angle is no longer a few ulp of the value.  A path without a grid gives at's values.
        path, charts = _PATH_CASES[kind]
        assert (path.grid is None) == (kind == "segment")
        if reverse:
            path = sub_path(path, 1.0, 0.0, path.start_chart)
        windows = {"north": [(0.0, 0.35), (0.65, 1.0)], "south": [(0.15, 0.85)]} if kind == "meridian" else {}
        for chart in charts:
            for t0, t1 in windows.get(chart, [(0.0, 1.0)]):
                dt = (t1 - t0) / 1000
                grid, at = path.nodes(chart, t0, dt, 0, 1001), path.at(chart, t0 + dt * np.arange(1001))
                for got, want, part in zip(grid, at, path.nodes(chart, t0, dt, 300, 777)):
                    assert got.shape == want.shape == (1001, 2)
                    bound = 0.0 if path.grid is None else 16 * np.finfo(float).eps * np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= bound, (chart, t0)
                    assert np.array_equal(part, got[300:777]), (chart, t0)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_segment_equals_its_broadcast_formula(self, shape):
        # one product per column gives the bits of q0 + t dq broadcast over the trailing length-2 axis
        q0, q1, p0, p1 = np.array([0.1, -0.2]), np.array([0.7, 0.4]), np.array([0.3, 0.0]), np.array([-0.5, 0.2])
        t = np.random.default_rng(17).uniform(-0.5, 1.5, shape)
        got = segment_path(q0, q1, p0, p1).at("main", t)
        want = (q0 + t[..., None] * (q1 - q0), p0 + t[..., None] * (p1 - p0), np.broadcast_to(q1 - q0, shape + (2,)))
        for g, w in zip(got, want):
            assert g.shape == shape + (2,) and g.flags.c_contiguous
            assert g.tobytes() == np.ascontiguousarray(w).tobytes()

    def test_meridian_south_pole_stays_at_infinity(self):
        # t = 0 is the north pole, at infinity in the south chart, in a grid as in at
        path = _PATH_CASES["meridian"][0]
        for q, p, dq in (path.nodes("south", 0.0, 0.01, 0, 5), path.at("south", np.array([0.0]))):
            assert q[0, 0] == np.inf and q[0, 1] == 0.0 and np.all(np.isfinite(q[1:]))

    def test_unit_grid_against_mpmath(self):
        # 16385 nodes, angles 0.7 to 50: each value is two unit factors, exp(i (a0 + B m delta)) exp(i r delta),
        # whose angles round at most twice, so it is within one ulp of 50 plus 4 eps of exp(i (a0 + j delta)), with
        # no drift of |e| from 1; and a sub-range has the same bits wherever it starts in a block
        count, a0, eps = 16385, 0.7, np.finfo(float).eps
        delta = (50.0 - a0) / (count - 1)
        cos, sin = _unit_grid(a0, delta, 0, count)
        e = cos + 1j * sin
        with mpmath.workdps(40):
            exact = np.array([complex(mpmath.expj(mpmath.mpf(a0) + j * mpmath.mpf(delta))) for j in range(count)])
        assert np.max(np.abs(e - exact)) <= np.spacing(50.0) + 4 * eps
        assert np.max(np.abs(np.abs(e) - 1.0)) <= 4 * eps
        for start, stop in [(0, 1), (1, 130), (127, 129), (5000, 16385), (8193, 8194)]:
            part = _unit_grid(a0, delta, start, stop)
            assert np.array_equal(part[0], cos[start:stop]) and np.array_equal(part[1], sin[start:stop])


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


class TestCompositionLaws:
    def test_reversal_inverts(self, ctx):
        lat = latitude_path(np.pi / 3)
        fwd = transport(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=2000)
        bwd = transport(ctx["mono"], ctx["basis"], sub_path(lat, 1.0, 0.0, lat.start_chart), rep=ctx["rep"], steps=2000)
        assert np.linalg.norm(bwd.unitary - fwd.unitary.conj().T, 2) <= 1e-8
        assert bwd.alpha_phase == pytest.approx(-fwd.alpha_phase, abs=1e-12)

    def test_concatenation_and_phase_additivity(self, ctx):
        seg = segment_path([0, 0], [1, 0.5], p_from=[0.2, -0.3], p_to=[0.4, 0.1])
        full = transport(ctx["const"], ctx["basis"], seg, rep=ctx["rep"], steps=1000)
        h1 = transport(ctx["const"], ctx["basis"], sub_path(seg, 0.0, 0.5, "main"), rep=ctx["rep"], steps=500)
        h2 = transport(ctx["const"], ctx["basis"], sub_path(seg, 0.5, 1.0, "main"), rep=ctx["rep"], steps=500)
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
        f_mat = curvature(ctx["const"], ctx["rep"], "main", np.zeros(2), *np.eye(2))

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


# The package attribute "transport" is the function; this is the module.
transport_module = importlib.import_module("fiberquant.transport")


def closed_form_holonomy(spec, theta):
    """Monopole (strength 1) latitude holonomy diag exp(i sign m solid_angle)."""
    m = np.arange(spec.j, -spec.j - 1.0, -1.0)
    return np.diag(np.exp(1j * MONOPOLE_HOLONOMY_SIGN * m * 2 * np.pi * (1 - np.cos(theta))))


def north_line_path(model, q_from, q_to):
    """A straight line in the north chart, mapped to the south chart by the model's overlap."""
    line = segment_path(q_from, q_to)
    to_south = model.overlaps[("north", "south")].convert

    def at(chart, t):
        q, p, dq = line.at(chart, t)
        if chart != "north":
            q, dq = to_south(q, dq)
        return q, p, dq

    return BasePath(at=at, start_chart="north")


def spin_ctx(two_j):
    spec = OrbitSpec(two_j)
    basis = build_basis(spec)
    return spec, basis, build_rep(basis), monopole_model(spec)


class TestSpinLiftedMarch:
    """The rep route marches the 2x2 transport in SU(2) and lifts it once."""

    def test_only_build_rep_carries_a_group_action(self, ctx):
        assert ctx["rep"].group_action is ctx["basis"]
        assert quadrature_rep(ctx["basis"]).group_action is None

    @pytest.mark.parametrize("two_j", [1, 3, 4])
    def test_routes_agree_across_forced_crossings(self, two_j):
        spec, basis, rep, mono = spin_ctx(two_j)
        switches = [(0.25, "south"), (0.75, "north")]
        lat = latitude_path(np.pi / 3)
        lifted = transport(mono, basis, lat, rep=rep, steps=4000, forced_switches=switches)
        marched = transport(mono, basis, lat, rep=quadrature_rep(basis), steps=4000, forced_switches=switches)
        assert lifted.chart_log == marched.chart_log == ((0.0, "north"), (0.25, "south"), (0.75, "north"))
        assert np.linalg.norm(lifted.unitary - marched.unitary, 2) <= 1e-9

    @pytest.mark.parametrize("two_j", [1, 4])
    def test_routes_agree_on_the_meridian_crossings(self, two_j):
        # the monopole potential vanishes along the meridian: both routes are the transitions alone
        spec, basis, rep, mono = spin_ctx(two_j)
        lifted = transport(mono, basis, meridian_path(), rep=rep, steps=1000)
        marched = transport(mono, basis, meridian_path(), rep=quadrature_rep(basis), steps=1000)
        assert len(lifted.chart_log) == len(marched.chart_log) == 3
        assert np.linalg.norm(lifted.unitary - marched.unitary, 2) <= 1e-13

    @pytest.mark.parametrize("two_j", [8, 20, 40])
    def test_closed_form_holonomy_at_large_spin(self, two_j):
        spec, basis, rep, mono = spin_ctx(two_j)
        hol, _ = wilson_loop(mono, basis, latitude_path(np.pi / 3), rep=rep, steps=20000)
        assert np.max(np.abs(hol - closed_form_holonomy(spec, np.pi / 3))) <= 1e-12

    @pytest.mark.parametrize("route", ["rep", "quad"])
    def test_long_march_keeps_its_digits(self, ctx, route):
        # offset-form step maps: 10^5 near-identity factors add no visible round-off
        rep = ctx["rep"] if route == "rep" else quadrature_rep(ctx["basis"])
        hol, _ = wilson_loop(ctx["mono"], ctx["basis"], latitude_path(2 * np.pi / 3), rep=rep, steps=100000)
        assert np.linalg.norm(hol - closed_form_holonomy(ctx["spec"], 2 * np.pi / 3), 2) <= 1e-14

    def test_no_n_by_n_step_map_on_the_rep_route(self, monkeypatch):
        spec, basis, rep, mono = spin_ctx(4)
        shapes, step_maps = [], transport_module._step_maps

        def recording(*args):
            for chunk in step_maps(*args):
                shapes.append(chunk[0].shape[1:])
                yield chunk

        monkeypatch.setattr(transport_module, "_step_maps", recording)
        transport(mono, basis, meridian_path(), rep=rep, steps=500)
        assert shapes and set(shapes) == {(2,)}  # quaternion pairs (a, b)
        shapes.clear()
        transport(mono, basis, latitude_path(1.0), rep=quadrature_rep(basis), steps=500)
        assert set(shapes) == {(5, 5)}

    @pytest.mark.parametrize("kind", ["monopole", "pure_gauge"])
    def test_marched_transport_stays_quaternionic(self, monkeypatch, kind):
        spec, basis, rep, mono = spin_ctx(2)
        if kind == "monopole":  # abelian: U stays diagonal, the crossings insert g
            model, path = mono, meridian_path()
        else:
            model, path = pure_gauge_model(spec, rates=(5.0, 7.0)), segment_path([0.1, -0.2], [0.7, 0.4], chart="gauged")
        marched, lift = [], transport_module.spin_lift

        def recording(group, u):
            marched.append(u)
            return lift(group, u)

        monkeypatch.setattr(transport_module, "spin_lift", recording)
        covariant_residual_total_space(model, basis, path, rep=rep, steps=2000)
        # one stacked lift of the pairs (a, b), the first rows of U, that the knot march records at its 18 knots
        assert len(marched) == 1 and marched[0].shape == (18, 1, 2)
        assert np.max(np.abs(np.sum(np.abs(marched[0]) ** 2, axis=(1, 2)) - 1.0)) <= 1e-14  # |a|^2 + |b|^2 = 1


def quaternion(pairs):
    """[[a, b], [-conj(b), conj(a)]] for a stack of pairs (..., 2)."""
    a, b = pairs[..., 0], pairs[..., 1]
    return np.stack([pairs, np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)


def matrix_march(monkeypatch, model, basis, path, steps, switches=None):
    """The rep-route transport and the lift of its 2x2 np.matmul march on the full tau generators.

    The pair march's spans and inserted transitions are recorded, then replayed
    through the same _step_maps and _ordered_product on stacked 2x2 matrices.  A span
    that reads the chart boundary is replayed with it, so the replay stops where the
    pair march left the chart."""
    events, step_maps, check = [], transport_module._step_maps, transport_module.check_special_unitary

    def spans(model, rep, path, chart, t0, t1, n_steps, product, boundary=None):
        events.append((chart, t0, t1, n_steps, boundary))
        yield from step_maps(model, rep, path, chart, t0, t1, n_steps, product, boundary)

    def inserts(g):
        events.append(g)
        return check(g)

    with monkeypatch.context() as patch:
        patch.setattr(transport_module, "_step_maps", spans)
        patch.setattr(transport_module, "check_special_unitary", inserts)
        res = transport(model, basis, path, rep=build_rep(basis), steps=steps, forced_switches=switches)
    u, tau = np.eye(2, dtype=complex), LieAlgebraRep(TAU)
    for event in events:
        if isinstance(event, np.ndarray):
            u = event @ u
        else:
            *span, boundary = event
            for offsets, _ in step_maps(model, tau, path, *span, np.matmul, boundary):
                u = u + transport_module._ordered_product(offsets, np.matmul) @ u
    return res.unitary, spin_lift(basis, u)


class TestPairMarch:
    """The rep route's quaternion pairs (a, b) against the stacked 2x2 np.matmul march."""

    def test_pair_product_is_the_quaternion_product(self):
        rng = np.random.default_rng(7)
        x, y = (rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)) for _ in range(2))
        x, y = x / np.linalg.norm(x, axis=-1, keepdims=True), 2.0 * y / np.linalg.norm(y, axis=-1, keepdims=True)
        product = transport_module._pair_product
        assert product(x, y).shape == (64, 2)
        assert np.max(np.abs(quaternion(product(x, y)) - quaternion(x) @ quaternion(y))) <= 1e-15
        assert np.max(np.abs(quaternion(product(x, y[5])) - quaternion(x) @ quaternion(y[5]))) <= 1e-15
        assert np.max(np.abs(quaternion(product(x[3], y[5])) - quaternion(x[3]) @ quaternion(y[5]))) <= 1e-15

    @pytest.mark.parametrize("two_j", [1, 2, 8])
    @pytest.mark.parametrize("path", [latitude_path(1.0), meridian_path()], ids=["latitude", "meridian"])
    def test_bit_identical_on_the_monopole(self, monkeypatch, path, two_j):
        spec, basis, rep, mono = spin_ctx(two_j)
        lifted, reference = matrix_march(monkeypatch, mono, basis, path, 2000)
        assert np.array_equal(lifted, reference)

    @pytest.mark.parametrize("two_j", [1, 2, 8, 20])
    @pytest.mark.parametrize("kind", ["constant", "pure_gauge"])
    def test_within_round_off_on_non_abelian_models(self, monkeypatch, kind, two_j):
        spec = OrbitSpec(two_j)
        if kind == "constant":  # the scenario's phase_loop
            model, path, switches = constant_model(spec), phase_circle_path([0.0, 0.0], 0.5), None
        else:
            model, switches = pure_gauge_model(spec, rates=(5.0, 7.0)), [(0.5, "flat")]
            path = segment_path([0.1, -0.2], [0.7, 0.4], chart="gauged")
        lifted, reference = matrix_march(monkeypatch, model, build_basis(spec), path, 2000, switches)
        assert np.max(np.abs(lifted - reference)) <= 1e-14

    def test_memory_does_not_grow_with_the_step_count(self):
        spec, basis, rep, mono = spin_ctx(2)

        def traced_peak(steps):
            tracemalloc.start()
            try:
                transport(mono, basis, latitude_path(1.0), rep=rep, steps=steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(10**6) <= 1.05 * traced_peak(10**5)

    @staticmethod
    def counted_transport(monkeypatch, path, steps):
        """One transport along ``path``, and the sizes of its ``at`` and ``grid`` calls and connection batches."""
        spec, basis, rep, mono = spin_ctx(2)
        at_sizes, grid_sizes, batch_sizes, batch = [], [], [], transport_module.connection_rep_batch
        assert mono.charts[path.start_chart].boundary is not None

        def counting_at(chart, t):
            at_sizes.append(np.size(t))
            return path.at(chart, t)

        def counting_grid(chart, t0, dt, start, stop):
            grid_sizes.append(stop - start)
            return path.grid(chart, t0, dt, start, stop)

        def recording(model, rep, chart, q, dq):
            batch_sizes.append(len(q))
            return batch(model, rep, chart, q, dq)

        monkeypatch.setattr(transport_module, "connection_rep_batch", recording)
        counted = BasePath(at=counting_at, start_chart=path.start_chart, grid=counting_grid)
        return transport(mono, basis, counted, rep=rep, steps=steps), at_sizes, grid_sizes, batch_sizes

    def test_each_node_is_evaluated_once(self, monkeypatch):
        # a chunk of k steps evaluates its 2k + 1 nodes once, as one grid; the chart scan reuses its endpoints,
        # and a latitude's march never calls at
        chunk, steps = transport_module._CHUNK_STEPS, 20000
        res, at_sizes, grid_sizes, batch_sizes = self.counted_transport(monkeypatch, latitude_path(1.0), steps)
        assert len(res.chart_log) == 1
        assert at_sizes == []
        assert sum(grid_sizes) == 2 * steps + -(-steps // chunk)
        assert batch_sizes == grid_sizes == [2 * chunk + 1, 2 * chunk + 1, 2 * (steps - 2 * chunk) + 1]

    def test_crossings_evaluate_single_points_only(self, monkeypatch):
        # the meridian's two crossings call at for the bisection and the inserts, one point at a time; each
        # connection batch reads the marched endpoints and midpoints of its chunk's grid
        res, at_sizes, grid_sizes, batch_sizes = self.counted_transport(monkeypatch, meridian_path(), 20000)
        assert len(res.chart_log) == 3
        assert set(at_sizes) == {1} and len(at_sizes) > 4
        assert len(batch_sizes) == len(grid_sizes)
        assert all(n % 2 == 1 and n <= m for n, m in zip(batch_sizes, grid_sizes))


class TestChartLog:
    def test_meridian_crossings(self, ctx):
        # the meridian is at colatitude 2 pi t; north keeps colatitude <= 3 pi / 4 and south
        # keeps colatitude >= pi / 4, so it changes chart at t = 3/8 and at t = 7/8
        res = transport(ctx["mono"], ctx["basis"], meridian_path(), rep=ctx["rep"], steps=2000)
        assert [chart for _, chart in res.chart_log] == ["north", "south", "north"]
        assert res.chart_log[0][0] == 0.0
        for (t_cross, _), expected in zip(res.chart_log[1:], (3.0 / 8.0, 7.0 / 8.0)):
            assert abs(t_cross - expected) <= CROSSING_BISECT_TOL

    @pytest.mark.parametrize("kind", ["meridian", "line"])
    @pytest.mark.parametrize("where", ["first", "last", "middle"])
    def test_crossings_at_chunk_edges(self, monkeypatch, ctx, kind, where):
        # the first exit from the north chart on a chunk's first new endpoint, on its last one, and in
        # mid-chunk: the meridian's at t = 3/8, and that of a line whose connection does not vanish there
        model, steps = ctx["mono"], 2000
        path = meridian_path() if kind == "meridian" else north_line_path(model, [0.4, 0.3], [2.5, 1.8])
        marched, batch = [], transport_module.connection_rep_batch

        def recording(model, rep, chart, q, dq):
            marched.append((len(q) - 1) // 2)
            return batch(model, rep, chart, q, dq)

        monkeypatch.setattr(transport_module, "connection_rep_batch", recording)
        reference = transport(model, ctx["basis"], path, rep=ctx["rep"], steps=steps)
        reference_steps, marched[:] = sum(marched), []
        q_ends = path.nodes("north", 0.0, 0.5 / steps, 0, 2 * steps + 1)[0][::2]  # the endpoints the march reads
        exit_step = int(np.flatnonzero(model.charts["north"].boundary(q_ends) > 0.0)[0])
        chunk = {"first": exit_step - 1, "last": exit_step, "middle": 300}[where]
        offset = exit_step % chunk
        assert {"first": offset == 1, "last": offset == 0, "middle": offset > 1}[where]

        monkeypatch.setattr(transport_module, "_CHUNK_STEPS", chunk)
        res = transport(model, ctx["basis"], path, rep=ctx["rep"], steps=steps)
        assert [chart for _, chart in res.chart_log] == [chart for _, chart in reference.chart_log]
        if kind == "meridian":
            assert [chart for _, chart in res.chart_log] == ["north", "south", "north"]
            for (t_cross, _), expected in zip(res.chart_log[1:], (3.0 / 8.0, 7.0 / 8.0)):
                assert abs(t_cross - expected) <= CROSSING_BISECT_TOL
        assert sum(marched) == reference_steps
        # and a march that never reads a boundary, with the crossings forced at the same times
        free = dataclasses.replace(model, charts={name: ChartData(data.potential) for name, data in model.charts.items()})
        forced = transport(free, ctx["basis"], path, rep=ctx["rep"], steps=steps, forced_switches=res.chart_log[1:])
        hol = np.exp(1j * res.alpha_phase) * res.unitary
        for other in (reference, forced):
            assert np.max(np.abs(hol - np.exp(1j * other.alpha_phase) * other.unitary)) <= 1e-13


class TestMarchOrder:
    """The rep route across a pure-gauge segment in its gauged chart, where A = (dg) g^-1, against the closed
    form X(g(q1) g(q0)^-1).  The step maps do not commute, and at 20000 steps W is far from I when a chunk's
    product is applied, so this sees the operand order of the ordered product and of each chunk's apply."""

    @pytest.mark.parametrize("steps", [2000, 20000])
    @pytest.mark.parametrize("two_j", [1, 2])
    def test_pure_gauge_segment_closed_form(self, two_j, steps):
        spec = OrbitSpec(two_j)
        basis, model = build_basis(spec), pure_gauge_model(spec)
        q0, q1 = np.array([0.3, -0.2]), np.array([1.1, 0.9])
        g = model.overlaps[("flat", "gauged")].transition
        res = transport(model, basis, segment_path(q0, q1, chart="gauged"), rep=build_rep(basis), steps=steps)
        assert res.alpha_phase == 0.0
        assert np.linalg.norm(res.unitary - quantize_transition(basis, g(q1) @ g(q0).conj().T), 2) <= 1e-13


class TestTotalSpaceReconstruction:
    def test_trivial_model_near_zero(self, ctx):
        seg = segment_path([0, 0], [1, 0])
        res = covariant_residual_total_space(ctx["triv"], ctx["basis"], seg, rep=ctx["rep"], steps=2000)
        assert res <= 1e-10

    def test_monopole_latitude_within_budget(self):
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        rep = build_rep(basis)
        model = monopole_model(spec)
        lat = latitude_path(np.pi / 3)
        res = covariant_residual_total_space(model, basis, lat, rep=rep, steps=10000)
        assert res <= 1e-5

    def test_constant_model_with_momentum(self, ctx):
        seg = segment_path([0, 0], [1, 0.5], p_from=[0.3, -0.2], p_to=[0.1, 0.4])
        res = covariant_residual_total_space(ctx["const"], ctx["basis"], seg, rep=ctx["rep"], steps=10000)
        assert res <= 1e-5

    def test_corruption_detected(self, ctx):
        lat = latitude_path(np.pi / 3)
        base = covariant_residual_total_space(ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=10000)
        bad = covariant_residual_total_space(
            ctx["mono"], ctx["basis"], lat, rep=ctx["rep"], steps=10000,
            corruption=lambda t: np.exp(1j * 1e-2 * np.sin(2 * np.pi * t)))
        assert bad >= 10.0 * base

    def test_memory_does_not_grow_with_the_spin(self):
        # the residual keeps one n x n product and 18 coefficient vectors, not a lifted node per step
        def traced_peak(two_j):
            spec, basis, rep, mono = spin_ctx(two_j)
            tracemalloc.start()
            try:
                covariant_residual_total_space(mono, basis, latitude_path(np.pi / 3), rep=rep, steps=10**5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(40) <= 1.25 * traced_peak(2)


def per_centre_residual(model, basis, path, *, rep, steps, corruption=None):
    """``covariant_residual_total_space`` as it was with one march per stencil centre: each kept centre's fiber
    points take two ``rk4_step`` calls of their own, forwards and backwards, and its pairing is evaluated alone.
    The knot coefficients come from the same private knot march."""
    spec = basis.spec
    centers = [k for k in (int(frac * steps) for frac in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9))
               if 0 < k < steps]
    marks = sorted({k + d for k in centers for d in (-1, 0, 1)})
    w, phases, _, charts = transport_module._march(model, basis, path, rep, steps, knots=marks)
    coefficients = np.exp(1j * phases)[:, None] * (w @ (np.ones(spec.dim, dtype=complex) / np.sqrt(spec.dim)))
    knots = {k: (chart, c if corruption is None else corruption(k / steps) * c)
             for k, chart, c in zip(marks, charts, coefficients)}

    h = 1.0 / steps
    z0 = np.asarray(_FIBER_SAMPLES, dtype=complex)
    pt = ChartPoint(Chart.NORTH, z0)
    vals_mid = basis.eval(z0)
    worst = 0.0
    for k in centers:
        (chart_lo, c_lo), (chart, c_mid), (chart_hi, c_hi) = knots[k - 1], knots[k], knots[k + 1]
        if not chart_lo == chart == chart_hi:
            continue
        t0 = k / steps
        q, p, dq = path.at(chart, np.array([t0]))
        w = orbit_function(model, chart, q[0], dq[0])
        alpha_b = float(np.dot(p[0], dq[0]))

        def fiber_velocity(t, zz):
            qq, _, dqq = path.at(chart, np.array([t]))
            ww = orbit_function(model, chart, qq[0], dqq[0])
            return -hamiltonian_field_complex(spec, ww, ChartPoint(Chart.NORTH, zz))

        z_plus = rk4_step(fiber_velocity, t0, z0, h)
        z_minus = rk4_step(fiber_velocity, t0, z0, -h)
        psi_mid = c_mid @ vals_mid
        deriv = (c_hi @ basis.eval(z_plus) - c_lo @ basis.eval(z_minus)) / (2.0 * h)
        pairing = alpha_b + w.value(pt) - theta_dz(spec, pt) * hamiltonian_field_complex(spec, w, pt)
        worst = max(worst, float(np.max(np.abs(deriv - 1j * pairing * psi_mid), initial=0.0)))
    return worst


RESIDUAL_PATHS = pytest.mark.parametrize("path, steps", [
    (lambda mono: latitude_path(np.pi / 3), 4000),
    (lambda mono: latitude_path(0.8 * np.pi), 2000),  # starts in the south chart
    (lambda mono: meridian_path(), 2000),  # crosses charts: its centres fall in both
    # crosses charts too, with a potential that does not vanish along it, so both charts' residuals are not 0
    (lambda mono: north_line_path(mono, [0.3, 0.4], [4.0, -1.0]), 2000),
], ids=["lat60", "lat144_south", "meridian", "north_line"])


def sine_corruption(t):
    return np.exp(1j * 1e-2 * np.sin(2 * np.pi * t))


class TestStackedFiberMarch:
    """The residual marches the fiber points of every kept centre, both ways, in one ``rk4_step`` per chart,
    and its knots once for every corruption factor of a stack."""

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    @RESIDUAL_PATHS
    @pytest.mark.parametrize("corrupted", [False, True], ids=["clean", "corrupted"])
    def test_equals_the_per_centre_loop(self, two_j, path, steps, corrupted):
        spec, basis, rep, mono = spin_ctx(two_j)
        path = path(mono)
        corruption = sine_corruption if corrupted else None
        stacked = covariant_residual_total_space(mono, basis, path, rep=rep, steps=steps, corruption=corruption)
        reference = per_centre_residual(mono, basis, path, rep=rep, steps=steps, corruption=corruption)
        assert np.float64(stacked).tobytes() == np.float64(reference).tobytes()

    def test_one_march_per_chart(self, monkeypatch):
        # the six centres of a latitude loop lie in one chart: one step of 12 fiber stacks, not 12 steps
        spec, basis, rep, mono = spin_ctx(2)
        shapes, step = [], transport_module.rk4_step
        monkeypatch.setattr(transport_module, "rk4_step",
                            lambda field, t, y, h: shapes.append((np.shape(t), np.shape(y))) or step(field, t, y, h))
        covariant_residual_total_space(mono, basis, latitude_path(np.pi / 3), rep=rep, steps=4000)
        assert shapes == [((12, 1), (12, 5))]

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    @RESIDUAL_PATHS
    def test_factor_stack_equals_its_single_calls(self, two_j, path, steps):
        # [1, f]: the clean row and the corrupted row, each bit for bit the call with that factor alone
        spec, basis, rep, mono = spin_ctx(two_j)
        path = path(mono)
        rows = covariant_residual_total_space(mono, basis, path, rep=rep, steps=steps,
                                              corruption=lambda t: np.array([1.0, sine_corruption(t)]))
        singles = [covariant_residual_total_space(mono, basis, path, rep=rep, steps=steps, corruption=corruption)
                   for corruption in (None, sine_corruption)]
        assert rows.shape == (2,)
        assert rows.tobytes() == np.array(singles).tobytes()

    def test_one_knot_march_for_every_factor(self, monkeypatch):
        # a stack of two factors makes the one knot march, to all 18 knots, and the one fiber step of a single call
        spec, basis, rep, mono = spin_ctx(2)
        marches, shapes = [], []
        march, step = transport_module._march, transport_module.rk4_step
        monkeypatch.setattr(transport_module, "_march", lambda *a, **k: marches.append(k["knots"]) or march(*a, **k))
        monkeypatch.setattr(transport_module, "transport", None)  # no transport of its own
        monkeypatch.setattr(transport_module, "rk4_step",
                            lambda field, t, y, h: shapes.append(np.shape(y)) or step(field, t, y, h))
        rows = covariant_residual_total_space(mono, basis, latitude_path(np.pi / 3), rep=rep, steps=4000,
                                              corruption=lambda t: np.ones(2))
        assert ([len(knots) for knots in marches], shapes) == ([18], [(12, 5)])
        assert rows.shape == (2,) and rows[0].tobytes() == rows[1].tobytes()


def chained_knots(model, basis, path, rep, steps, marks):
    """(chart, e^{i phase} W) at each knot step, as the residual read them before its knot march: ``transport``
    chained over ``sub_path`` pieces between successive knots, each at ``steps`` steps per unit of t and started
    in the chart the previous piece ended in."""
    unitary, phase, chart, k_prev, knots = np.eye(basis.spec.dim, dtype=complex), 0.0, path.start_chart, 0, []
    for k in marks:
        if k > k_prev:
            piece = transport(model, basis, sub_path(path, k_prev / steps, k / steps, chart), rep=rep, steps=k - k_prev)
            unitary, phase, chart = piece.unitary @ unitary, phase + piece.alpha_phase, piece.chart_log[-1][1]
        knots.append((chart, np.exp(1j * phase) * unitary))
        k_prev = k
    return knots


class TestKnotMarch:
    """The residual's one knot march, which records its state at each knot, against the chained pieces."""

    @pytest.mark.parametrize("chunk", [None, 600], ids=["one_chunk", "chunk_edges_on_centres"])
    @pytest.mark.parametrize("route", ["rep", "quad"])
    @pytest.mark.parametrize("two_j", [1, 2, 4])
    @RESIDUAL_PATHS
    def test_knots_agree_with_the_chained_pieces(self, monkeypatch, two_j, path, steps, route, chunk):
        spec, basis, rep, mono = spin_ctx(two_j)
        path, rep = path(mono), rep if route == "rep" else quadrature_rep(basis)
        centers = [int(frac * steps) for frac in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)]
        marks = sorted({k + d for k in centers for d in (-1, 0, 1)})
        reference = chained_knots(mono, basis, path, rep, steps, marks)

        batch_sizes, chunk_steps, pieces = [], [], []
        batch, step_maps = transport_module.connection_rep_batch, transport_module._step_maps

        def recording_batch(model, rep, chart, q, dq):
            batch_sizes.append(len(q))
            return batch(model, rep, chart, q, dq)

        def recording_maps(*args):
            for maps in step_maps(*args):
                chunk_steps.append(maps[1].shape[0])
                yield maps

        monkeypatch.setattr(transport_module, "connection_rep_batch", recording_batch)
        monkeypatch.setattr(transport_module, "_step_maps", recording_maps)
        monkeypatch.setattr(transport_module, "sub_path", lambda *args: pieces.append(args))
        if chunk is not None:  # chunks of 600 steps end on the centres k = 600, 1200, 1800 of either step count
            monkeypatch.setattr(transport_module, "_CHUNK_STEPS", chunk)
        w, phases, _, charts = transport_module._march(mono, basis, path, rep, steps, knots=marks)

        assert pieces == []
        # one connection batch per chunk, on its 2k + 1 nodes: an odd count, as the benchmark's step tally reads it
        assert [(n - 1) // 2 for n in batch_sizes] == chunk_steps and all(n % 2 == 1 for n in batch_sizes)
        if len({chart for chart, _ in reference}) == 1:  # no crossing: the march stops at the last knot
            assert sum(chunk_steps) == marks[-1]
        assert list(charts) == [chart for chart, _ in reference]
        knots = np.exp(1j * phases)[:, None, None] * w
        assert np.max(np.linalg.norm(knots - np.array([ref for _, ref in reference]), 2, axis=(-2, -1))) <= 1e-13


class TestTransportErrors:
    def test_unregistered_crossing_rejected(self, ctx):
        from fiberquant.errors import ChartError

        stripped = GaugeModel(spec=ctx["spec"], kind="monopole", charts=ctx["mono"].charts)
        with pytest.raises(ChartError):
            transport(stripped, ctx["basis"], meridian_path(), rep=ctx["rep"], steps=500)

    def test_path_starting_outside_its_chart_rejected(self, ctx):
        # |q|^2 = 9 exceeds the north chart's tan^2(3 pi / 8)
        with pytest.raises(ChartError, match="path starts outside chart 'north'"):
            transport(ctx["mono"], ctx["basis"], segment_path([3.0, 0.0], [3.1, 0.0], chart="north"),
                      rep=ctx["rep"], steps=200)

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
        rep = build_rep(basis)
        assert covariant_residual_total_space(monopole_model(spec), basis, lat, rep=rep, steps=2000) <= 1e-5
        with pytest.raises(InvalidArgument, match="model has two_j = 3 but the basis has two_j = 1"):
            covariant_residual_total_space(monopole_model(OrbitSpec(3)), basis, lat, rep=rep, steps=2000)

    @pytest.mark.parametrize("steps", [1, 6])
    def test_residual_below_seven_steps_rejected(self, ctx, steps):
        # below 7 steps the six stencil centres are not distinct (none is at steps = 1)
        with pytest.raises(InvalidArgument, match=f"needs steps >= 7 for six distinct stencils, got {steps}"):
            covariant_residual_total_space(ctx["mono"], ctx["basis"], latitude_path(np.pi / 3), rep=ctx["rep"],
                                           steps=steps)

    def test_residual_with_no_stencil_kept_rejected(self, ctx):
        # a meridian swing whose colatitude crosses 3 pi / 4 (going south) and pi / 4 (going north) in turn at
        # the six centres k = 3, 6, ..., 18 of 20 steps: every stencil's outer knots lie in different charts
        meridian = meridian_path()
        rate = np.sqrt(2.0) / 8.0

        def at(chart, t):
            x = np.pi * (20.0 * np.asarray(t, dtype=float) - 2.25) / 3.0
            q, p, dq = meridian.at(chart, 0.25 + rate * np.sin(x))
            return q, p, (rate * 20.0 * np.pi / 3.0 * np.cos(x))[..., None] * dq

        with pytest.raises(InvalidArgument, match="every stencil .* straddles a chart crossing"):
            covariant_residual_total_space(ctx["mono"], ctx["basis"], BasePath(at=at, start_chart="north"),
                                           rep=ctx["rep"], steps=20)

    @pytest.mark.parametrize("t_switch", [1.5, -0.5, np.nan, np.inf])
    def test_forced_switch_outside_the_path_rejected(self, ctx, t_switch):
        with pytest.raises(InvalidArgument, match="outside"):
            transport(ctx["mono"], ctx["basis"], latitude_path(np.pi / 3), rep=ctx["rep"], steps=200,
                      forced_switches=[(t_switch, "south")])

    def test_forced_switches_at_the_ends_accepted(self, ctx):
        res = transport(ctx["mono"], ctx["basis"], latitude_path(np.pi / 3), rep=ctx["rep"], steps=200,
                        forced_switches=[(0.0, "south"), (1.0, "north")])
        assert res.chart_log == ((0.0, "north"), (0.0, "south"), (1.0, "north"))

    @pytest.mark.parametrize("steps", [0, -5])
    def test_non_positive_steps_rejected(self, ctx, steps):
        with pytest.raises(InvalidArgument):
            transport(ctx["mono"], ctx["basis"], latitude_path(np.pi / 3), rep=ctx["rep"], steps=steps)

    def test_unitarity_blowup_rejected(self, ctx):
        from fiberquant.errors import AccuracyFailure

        with pytest.raises(AccuracyFailure):
            transport(ctx["mono"], ctx["basis"], latitude_path(2 * np.pi / 3, winds=8),
                      rep=ctx["rep"], steps=1)
