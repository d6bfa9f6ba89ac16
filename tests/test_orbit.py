import numpy as np
import pytest

from fiberquant.errors import PoleNotInOverlap
from fiberquant.fiberq import default_rule
from fiberquant.orbit import (
    Chart,
    ChartPoint,
    FiberHamiltonian,
    OrbitSpec,
    chart_transition,
    embed_gradient,
    embed_point,
    hamiltonian_field,
    hamiltonian_field_complex,
    kahler_potential_at,
    moment_hamiltonian,
    poisson_bracket,
    squared_hamiltonian,
    symplectic_area,
    symplectic_form_at,
    theta_dz,
)


def north(z):
    return ChartPoint(Chart.NORTH, complex(z))


def south(z):
    return ChartPoint(Chart.SOUTH, complex(z))


def random_points(rng, count, scale=1.3):
    return [north(complex(rng.normal(scale=scale), rng.normal(scale=scale))) for _ in range(count)]


class TestEmbedding:
    def test_chart_centers(self):
        spec = OrbitSpec(3)
        assert embed_point(spec, north(0)) == pytest.approx([0.0, 0.0, 1.5])
        assert embed_point(spec, south(0)) == pytest.approx([0.0, 0.0, -1.5])

    def test_equator_point(self):
        spec = OrbitSpec(2)
        assert embed_point(spec, north(1)) == pytest.approx([1.0, 0.0, 0.0])

    def test_radius_invariant(self):
        rng = np.random.default_rng(7)
        spec = OrbitSpec(5)
        for pt in random_points(rng, 100):
            assert abs(np.linalg.norm(embed_point(spec, pt)) - spec.j) <= 1e-12

    def test_gradient_matches_stencil(self):
        rng = np.random.default_rng(8)
        spec = OrbitSpec(2)
        a = rng.standard_normal(3)
        w = moment_hamiltonian(spec, a)
        h = 1e-6
        for pt in random_points(rng, 20):
            gx = (w.value(north(pt.z + h)) - w.value(north(pt.z - h))) / (2 * h)
            gy = (w.value(north(pt.z + 1j * h)) - w.value(north(pt.z - 1j * h))) / (2 * h)
            assert w.chart_gradient(pt) == pytest.approx([gx, gy], abs=1e-8)


class TestChartTransition:
    def test_equator_fixed_point(self):
        spec = OrbitSpec(1)
        pt = north(1.0)
        other = chart_transition(pt)
        assert other.chart is Chart.SOUTH and other.z == 1.0
        assert embed_point(spec, pt) == pytest.approx(embed_point(spec, other))

    def test_reciprocal_map(self):
        out = chart_transition(north(2.0))
        assert out.z == pytest.approx(0.5)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        spec = OrbitSpec(4)
        for pt in random_points(rng, 100):
            back = chart_transition(chart_transition(pt))
            assert back.chart is pt.chart
            assert back.z == pytest.approx(pt.z, abs=1e-14)
            assert embed_point(spec, pt) == pytest.approx(embed_point(spec, chart_transition(pt)), abs=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(PoleNotInOverlap):
            chart_transition(north(0))


class TestSymplecticForm:
    def test_antisymmetry(self):
        spec = OrbitSpec(3)
        u = (0.4, -1.1)
        assert symplectic_form_at(spec, north(0.2 + 0.1j), u, u) == 0.0

    def test_total_area_oracle(self):
        # area must be 4*pi*j so that area / (2*pi) counts the basis states
        for two_j in (1, 2, 4):
            spec = OrbitSpec(two_j)
            area = symplectic_area(spec, default_rule(spec))
            assert area == pytest.approx(4 * np.pi * spec.j, abs=1e-10)

    def test_chart_center_value_consistent_with_area(self):
        # coefficient at z = 0 is forced to 4j by the total-area normalization
        spec = OrbitSpec(2)
        val = symplectic_form_at(spec, north(0), (1, 0), (0, 1))
        assert val == pytest.approx(4.0 * spec.j)


class TestKahlerPotential:
    def test_vanishes_at_center(self):
        spec = OrbitSpec(2)
        assert np.allclose(kahler_potential_at(spec, north(0)), 0.0)

    def test_zero_antiholomorphic_part(self):
        spec = OrbitSpec(3)
        rng = np.random.default_rng(10)
        for pt in random_points(rng, 20):
            theta = kahler_potential_at(spec, pt)
            # pairing with d/d(conj z) = (d/dx + i d/dy)/2 vanishes
            assert abs(theta[0] + 1j * theta[1]) < 1e-14

    def test_stencil_curl_reproduces_form(self):
        spec = OrbitSpec(2)
        rng = np.random.default_rng(11)
        h = 1e-5
        for pt in random_points(rng, 100):
            z = pt.z
            dy_theta_x = (kahler_potential_at(spec, north(z + 1j * h))[0]
                          - kahler_potential_at(spec, north(z - 1j * h))[0]) / (2 * h)
            dx_theta_y = (kahler_potential_at(spec, north(z + h))[1]
                          - kahler_potential_at(spec, north(z - h))[1]) / (2 * h)
            curl = dx_theta_y - dy_theta_x
            expected = symplectic_form_at(spec, pt, (1, 0), (0, 1))
            assert abs(curl - expected) < 1e-6


class TestHamiltonianField:
    def test_constant_function_gives_zero_field(self):
        spec = OrbitSpec(2)
        w = FiberHamiltonian(value=lambda pt: 3.25, chart_gradient=lambda pt: np.zeros(2))
        assert hamiltonian_field(spec, w, north(0.4 - 0.2j)) == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_axis_rotation_flow_is_circular(self):
        spec = OrbitSpec(2)
        w = moment_hamiltonian(spec, [0, 0, 1])
        rng = np.random.default_rng(12)
        for pt in random_points(rng, 25):
            field = hamiltonian_field(spec, w, pt)
            radial = np.array([pt.z.real, pt.z.imag])
            # tangent to circles |z| = const
            assert abs(np.dot(field, radial)) < 1e-10 * max(1.0, np.dot(radial, radial))

    def test_defining_relation(self):
        spec = OrbitSpec(3)
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.standard_normal(3)
            w = moment_hamiltonian(spec, a)
            pt = north(complex(rng.normal(), rng.normal()))
            xi = rng.standard_normal(2)
            field = hamiltonian_field(spec, w, pt)
            lhs = symplectic_form_at(spec, pt, field, xi)
            assert abs(lhs + np.dot(w.chart_gradient(pt), xi)) <= 1e-10


class TestMomentHamiltonian:
    def test_axis_three_formula(self):
        spec = OrbitSpec(2)
        w = moment_hamiltonian(spec, [0, 0, 1])
        rng = np.random.default_rng(14)
        for pt in random_points(rng, 20):
            r2 = abs(pt.z) ** 2
            assert w.value(pt) == pytest.approx(spec.j * (1 - r2) / (1 + r2))

    def test_zero_direction(self):
        spec = OrbitSpec(2)
        w = moment_hamiltonian(spec, [0.0, 0.0, 0.0])
        assert w.value(north(0.3 + 2j)) == 0.0

    def test_range_extremes_at_axis_poles(self):
        spec = OrbitSpec(3)
        rng = np.random.default_rng(15)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        w = moment_hamiltonian(spec, a)
        values = [w.value(pt) for pt in random_points(rng, 300, scale=2.0)]
        assert max(values) <= spec.j + 1e-12
        assert min(values) >= -spec.j - 1e-12
        # poles of the a-axis realize the extremes
        zx = (a[0] + 1j * a[1]) / (1.0 + a[2]) if a[2] > -0.999 else None
        if zx is not None:
            assert w.value(north(zx)) == pytest.approx(spec.j, abs=1e-10)

    def test_chart_covariance(self):
        spec = OrbitSpec(4)
        rng = np.random.default_rng(16)
        a = rng.standard_normal(3)
        w = moment_hamiltonian(spec, a)
        for pt in random_points(rng, 50):
            assert abs(w.value(pt) - w.value(chart_transition(pt))) <= 1e-9


class TestPoissonBracket:
    def test_self_bracket_vanishes(self):
        spec = OrbitSpec(2)
        w = moment_hamiltonian(spec, [0.3, -0.7, 1.1])
        assert poisson_bracket(spec, w, w, north(0.2 + 0.4j)) == pytest.approx(0.0, abs=1e-12)

    def test_north_pole_value(self):
        # {H_e1, H_e2} at (0, 0, j) equals the frozen global sign times j
        spec = OrbitSpec(2)
        w1 = moment_hamiltonian(spec, [1, 0, 0])
        w2 = moment_hamiltonian(spec, [0, 1, 0])
        assert poisson_bracket(spec, w1, w2, north(0)) == pytest.approx(spec.j, abs=1e-12)

    def test_global_sign_across_spins(self):
        rng = np.random.default_rng(17)
        for two_j in (1, 2, 3, 4):
            spec = OrbitSpec(two_j)
            for _ in range(25):
                a = rng.standard_normal(3)
                b = rng.standard_normal(3)
                pt = north(complex(rng.normal(), rng.normal()))
                lhs = poisson_bracket(spec, moment_hamiltonian(spec, a),
                                      moment_hamiltonian(spec, b), pt)
                rhs = moment_hamiltonian(spec, np.cross(a, b)).value(pt)
                assert abs(lhs - rhs) <= 1e-9

    def test_jacobi_identity(self):
        spec = OrbitSpec(2)
        rng = np.random.default_rng(18)
        for _ in range(50):
            dirs = rng.standard_normal((3, 3))
            pt = north(complex(rng.normal(), rng.normal()))
            total = 0.0
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                inner = moment_hamiltonian(spec, np.cross(dirs[j], dirs[k]))
                total += poisson_bracket(spec, moment_hamiltonian(spec, dirs[i]), inner, pt)
            assert abs(total) <= 1e-9


def test_squared_hamiltonian_gradient():
    spec = OrbitSpec(2)
    w = moment_hamiltonian(spec, [0, 0, 1])
    sq = squared_hamiltonian(w)
    pt = north(0.7 - 0.3j)
    assert sq.value(pt) == pytest.approx(w.value(pt) ** 2)
    assert sq.chart_gradient(pt) == pytest.approx(2 * w.value(pt) * w.chart_gradient(pt))


class TestArrayChartPoints:
    """Every orbit kernel applied to an array of chart points equals the scalar loop."""

    @staticmethod
    def kernels(spec):
        moment = moment_hamiltonian(spec, [0.3, -1.1, 0.7])
        squared = squared_hamiltonian(moment)
        return {
            "embed_point": lambda pt: embed_point(spec, pt),
            "embed_gradient": lambda pt: embed_gradient(spec, pt),
            "hamiltonian_field": lambda pt: hamiltonian_field(spec, moment, pt),
            "hamiltonian_field_complex": lambda pt: hamiltonian_field_complex(spec, moment, pt),
            "theta_dz": lambda pt: theta_dz(spec, pt),
            "moment.value": moment.value,
            "moment.gradient": moment.chart_gradient,
            "squared.value": squared.value,
            "squared.gradient": squared.chart_gradient,
        }

    @pytest.mark.parametrize("chart", [Chart.NORTH, Chart.SOUTH])
    @pytest.mark.parametrize("two_j", [1, 2, 5])
    def test_array_equals_scalar_loop(self, chart, two_j):
        rng = np.random.default_rng(17 + two_j)
        z = rng.normal(scale=1.2, size=(3, 4)) + 1j * rng.normal(scale=1.2, size=(3, 4))
        spec = OrbitSpec(two_j)
        for name, kernel in self.kernels(spec).items():
            block = np.asarray(kernel(ChartPoint(chart, z)))
            loop = np.array([[kernel(ChartPoint(chart, complex(zz))) for zz in row] for row in z])
            loop = np.moveaxis(loop, (0, 1), (-2, -1))  # point axes go last, as in the block
            assert block.shape == loop.shape, name
            assert np.max(np.abs(block - loop)) <= 1e-15, name

    def test_scalar_calls_return_python_scalars(self):
        spec = OrbitSpec(2)
        w = moment_hamiltonian(spec, [0.0, 1.0, 2.0])
        pt = north(0.4 - 0.3j)
        assert type(w.value(pt)) is float
        assert type(hamiltonian_field_complex(spec, w, pt)) is complex
        assert hamiltonian_field(spec, w, pt).shape == (2,)
        assert embed_gradient(spec, pt).shape == (2, 3)

    def test_point_orbit_field_shape(self):
        spec = OrbitSpec(0)
        w = moment_hamiltonian(spec, [1.0, 0.0, 0.0])
        z = np.linspace(0.1, 1.0, 12).reshape(3, 4) * (1 + 0.5j)
        field = hamiltonian_field(spec, w, ChartPoint(Chart.NORTH, z))
        assert field.shape == (2, 3, 4) and not field.any()
        assert hamiltonian_field_complex(spec, w, ChartPoint(Chart.NORTH, z)).shape == (3, 4)
        assert hamiltonian_field(spec, w, north(0.5)).shape == (2,)
