import numpy as np
import pytest

from fiberquant.errors import InvalidArgument
from fiberquant.fiberq import build_basis, quantize_transition
from fiberquant.numerics import (
    central_difference,
    gauss_legendre,
    matrix_exp,
    richardson_difference,
    rk4_step,
    spectral_norm,
    sphere_rule,
)
from fiberquant.orbit import OrbitSpec
from fiberquant.su2 import su2_exp


class TestGaussLegendre:
    def test_one_point_rule(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([2.0])

    def test_two_point_rule(self):
        rule = gauss_legendre(2)
        assert np.sort(rule.nodes) == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert rule.weights == pytest.approx([1.0, 1.0])

    def test_quartic_with_three_points(self):
        rule = gauss_legendre(3)
        assert np.dot(rule.weights, rule.nodes**4) == pytest.approx(2.0 / 5.0, abs=1e-14)

    def test_exactness_on_random_polynomials(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 7):
            rule = gauss_legendre(n)
            coeffs = rng.standard_normal(2 * n)  # degree 2n - 1
            exact = sum(c / (k + 1) * (1 - (-1) ** (k + 1)) for k, c in enumerate(coeffs))
            approx = np.dot(rule.weights, np.polynomial.polynomial.polyval(rule.nodes, coeffs))
            assert approx == pytest.approx(exact, abs=1e-12)

    def test_zero_nodes_rejected(self):
        with pytest.raises(InvalidArgument):
            gauss_legendre(0)


class TestSphereRule:
    def test_total_measure(self):
        rule = sphere_rule(6, 9)
        assert np.dot(rule.weights, np.ones(rule.weights.size)) == pytest.approx(4 * np.pi, abs=1e-12)

    def test_cos_squared(self):
        rule = sphere_rule(6, 9)
        assert np.dot(rule.weights, rule.t**2) == pytest.approx(4 * np.pi / 3, abs=1e-12)

    def test_azimuthal_mode_annihilated(self):
        rule = sphere_rule(5, 4)
        vals = np.exp(3j * rule.phi) * (1 + rule.t**2)
        assert abs(np.dot(rule.weights, vals)) < 1e-12

    def test_invalid_sizes(self):
        with pytest.raises(InvalidArgument):
            sphere_rule(0, 5)
        with pytest.raises(InvalidArgument):
            sphere_rule(5, 0)


class TestRK4:
    def test_step_either_sign(self):
        # one step of y' = y is the degree-4 Taylor polynomial of exp(h)
        for h in (0.1, -0.1):
            out = rk4_step(lambda t, y: y, 0.0, np.array(1.0 + 0j), h)
            assert out == pytest.approx(1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24, abs=1e-15)


class TestMatrixExp:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_phases(self):
        out = matrix_exp(np.diag([1j * np.pi, 0.0]))
        assert np.linalg.norm(out - np.diag([-1.0, 1.0]), 2) < 1e-12

    def test_anti_hermitian_gives_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            m = m - m.conj().T
            u = matrix_exp(m)
            assert np.linalg.norm(u.conj().T @ u - np.eye(5), 2) < 1e-11

    def test_hermitian_against_eigendecomposition(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = 0.5 * (m + m.conj().T)
        vals, vecs = np.linalg.eigh(m)
        oracle = (vecs * np.exp(vals)) @ vecs.conj().T
        assert np.linalg.norm(matrix_exp(m) - oracle, 2) < 1e-12 * np.linalg.norm(oracle, 2)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgument):
            matrix_exp(np.zeros((2, 3)))


class TestSpectralNorm:
    def test_finite_matches_numpy(self):
        # bit for bit: the first of the descending singular values is the maximum np.linalg.norm takes of them
        m = np.random.default_rng(5).standard_normal((4, 4)) + 1j
        assert spectral_norm(m) == float(np.linalg.norm(m, 2))
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((6, 5, 3, 3)) + 1j * rng.standard_normal((6, 5, 3, 3))
        assert spectral_norm(stack).tobytes() == np.linalg.norm(stack, 2, axis=(-2, -1)).tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    def test_non_finite_entry_is_infinite(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        assert spectral_norm(m) == np.inf

    def test_stack_is_its_single_calls(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5))
        m[0, 1, 2, 3], m[1, 2, 0, 0] = np.nan, -np.inf  # the SVD of either would not converge
        norms = spectral_norm(m)
        assert norms.shape == (2, 3)
        assert np.array_equal(norms, [[spectral_norm(x) for x in row] for row in m])
        assert np.isinf(norms).sum() == 2 and norms[0, 1] == norms[1, 2] == np.inf
        assert type(spectral_norm(m[0, 0])) is float


class TestCentralDifference:
    def test_quadratic_exact(self):
        assert central_difference(lambda x: x * x, 1.0, 1e-5) == pytest.approx(2.0, abs=1e-9)

    def test_sine_slope(self):
        assert central_difference(np.sin, 0.0, 1e-5) == pytest.approx(1.0, abs=1e-10)

    def test_constant_is_zero(self):
        assert central_difference(lambda x: 7.5, 2.0, 1e-4) == 0.0

    def test_matrix_valued(self):
        out = central_difference(lambda x: np.array([[x**2, 0.0], [0.0, 3 * x]]), 2.0, 1e-5)
        assert out[0, 0] == pytest.approx(4.0, abs=1e-9)
        assert out[1, 1] == pytest.approx(3.0, abs=1e-10)

    def test_bad_step_rejected(self):
        with pytest.raises(InvalidArgument):
            central_difference(np.sin, 0.0, 0.0)


class TestRichardsonDifference:
    def test_cancels_the_second_order_error(self):
        # at h = 1e-2 the central difference of exp is off by h^2/6; Richardson by h^4/480
        assert abs(central_difference(np.exp, 0.0, 1e-2) - 1.0) > 1e-5
        assert abs(richardson_difference(np.exp, 0.0, 1e-2) - 1.0) <= 1e-9

    @staticmethod
    def two_central_differences(f, x, h):
        return (4.0 * central_difference(f, x, 0.5 * h) - central_difference(f, x, h)) / 3.0

    @pytest.mark.parametrize("x,h", [(0.0, 1e-2), (0.3, 1e-4), (-1.7, 0.25)])
    def test_one_stacked_call_equals_two_central_differences_on_exp(self, x, h):
        assert richardson_difference(np.exp, x, h) == self.two_central_differences(np.exp, x, h)

    def test_one_stacked_call_equals_two_central_differences_on_a_transition_stencil(self):
        # the gauge-law stencil: quantized transitions along a one-parameter path, stacked or one at a time
        basis = build_basis(OrbitSpec(3))
        c = np.array([0.4, -1.1, 0.7])
        calls = []

        def transitions(s):
            calls.append(np.shape(s))
            g = np.reshape([su2_exp((0.2 + t) * c) for t in np.ravel(s)], np.shape(s) + (2, 2))
            return quantize_transition(basis, g)

        stacked = richardson_difference(transitions, 0.0, 1e-4)
        assert calls == [(4,)]
        assert np.array_equal(stacked, self.two_central_differences(transitions, 0.0, 1e-4))

    def test_bad_step_rejected(self):
        with pytest.raises(InvalidArgument):
            richardson_difference(np.sin, 0.0, 0.0)


def test_kernels_are_deterministic():
    rule_a = sphere_rule(7, 11)
    rule_b = sphere_rule(7, 11)
    assert np.array_equal(rule_a.nodes, rule_b.nodes)
    assert np.array_equal(rule_a.weights, rule_b.weights)
    m = np.arange(9, dtype=complex).reshape(3, 3) * 0.1j
    assert np.array_equal(matrix_exp(m), matrix_exp(m))
