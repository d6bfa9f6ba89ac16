import numpy as np
import pytest

from fiberquant.errors import InvalidArgument
from fiberquant.numerics import (
    central_difference,
    gauss_legendre,
    matrix_exp,
    rk4_step,
    sphere_rule,
)


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


def test_kernels_are_deterministic():
    rule_a = sphere_rule(7, 11)
    rule_b = sphere_rule(7, 11)
    assert np.array_equal(rule_a.nodes, rule_b.nodes)
    assert np.array_equal(rule_a.weights, rule_b.weights)
    m = np.arange(9, dtype=complex).reshape(3, 3) * 0.1j
    assert np.array_equal(matrix_exp(m), matrix_exp(m))
