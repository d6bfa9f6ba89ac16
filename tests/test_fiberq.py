import numpy as np
import pytest

from fiberquant.errors import AccuracyFailure, InvalidArgument
from fiberquant.fiberq import (
    build_basis,
    default_rule,
    exact_monomial_norms_sq,
    measure_weights,
    polarization_residual,
    prequant_matrix,
    quantize_transition,
    rule_points,
)
from fiberquant.numerics import sphere_rule
from fiberquant.orbit import (
    FiberHamiltonian,
    OrbitGeometry,
    OrbitSpec,
    moment_hamiltonian,
    squared_hamiltonian,
)
from fiberquant.su2 import random_su2, su2_exp


def spin_matrices(two_j: int):
    """Standard angular momentum matrices in the descending-m basis."""
    j = two_j / 2.0
    m = np.arange(j, -j - 1.0, -1.0)
    jz = np.diag(m)
    jp = np.zeros((two_j + 1, two_j + 1))
    for k in range(1, two_j + 1):
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.T
    jx = 0.5 * (jp + jm)
    jy = (jp - jm) / 2j
    return jx, jy, jz


class TestBasis:
    @pytest.mark.parametrize("two_j,diag", [(0, [1.0]), (1, [1.0, 1.0]), (2, [1.0, 0.5, 1.0])])
    def test_gram_examples(self, two_j, diag):
        basis = build_basis(OrbitSpec(two_j))
        assert np.allclose(np.diag(basis.gram).real, diag, atol=1e-12)

    def test_gram_offdiagonal_vanishes(self):
        basis = build_basis(OrbitSpec(4))
        off = basis.gram - np.diag(np.diag(basis.gram))
        assert np.max(np.abs(off)) <= 1e-10

    @pytest.mark.parametrize("two_j", range(0, 11))
    def test_gram_beta_oracle(self, two_j):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        exact = exact_monomial_norms_sq(spec)
        assert np.max(np.abs(basis.norms**2 - exact) / exact) <= 1e-10

    def test_under_resolved_rule_rejected(self):
        with pytest.raises(AccuracyFailure):
            build_basis(OrbitSpec(8), sphere_rule(2, 3))

    def test_overflowing_spin_rejected(self):
        # z**160 overflows at the outer nodes, so the Gram matrix holds NaN.
        with np.errstate(all="ignore"), pytest.raises(AccuracyFailure):
            build_basis(OrbitSpec(160))

    def test_default_rule_shared_and_read_only(self):
        rule = default_rule(OrbitSpec(3))
        assert default_rule(OrbitSpec(3)) is rule
        with pytest.raises(ValueError):
            rule.nodes[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_derivative_matches_monomial_formula(self):
        spec = OrbitSpec(5)
        basis = build_basis(spec)
        z = np.array([0.3 - 0.8j, -1.2 + 0.1j, 0.0])
        expected = np.array([k * z ** max(k - 1, 0) / basis.norms[k] for k in range(spec.dim)])
        assert np.max(np.abs(basis.eval_deriv(z) - expected)) <= 1e-13

    def test_measure_is_normalized(self):
        spec = OrbitSpec(3)
        rule = default_rule(spec)
        assert np.sum(measure_weights(spec, rule)) == pytest.approx(1.0, abs=1e-13)


class TestPrequant:
    def test_constant_hamiltonian_is_scalar(self):
        spec = OrbitSpec(2)
        basis = build_basis(spec)
        geom = OrbitGeometry(spec)
        w = FiberHamiltonian(value=lambda pt: 2.5, chart_gradient=lambda pt: np.zeros(2))
        op = prequant_matrix(geom, basis, w)
        assert np.linalg.norm(op.matrix - 2.5 * np.eye(spec.dim), 2) < 1e-12

    def test_axis_three_diagonal(self):
        spec = OrbitSpec(1)
        op = prequant_matrix(OrbitGeometry(spec), build_basis(spec), moment_hamiltonian(spec, [0, 0, 1]))
        assert np.linalg.norm(op.matrix - np.diag([0.5, -0.5]), 2) < 1e-12

    def test_axis_one_offdiagonal(self):
        spec = OrbitSpec(1)
        op = prequant_matrix(OrbitGeometry(spec), build_basis(spec), moment_hamiltonian(spec, [1, 0, 0]))
        assert np.linalg.norm(op.matrix - 0.5 * np.array([[0, 1], [1, 0]]), 2) < 1e-12

    def test_ladder_commutator_oracle(self):
        # the axis-1 operator is pinned by its commutator with the axis-3 one
        spec = OrbitSpec(3)
        geom = OrbitGeometry(spec)
        basis = build_basis(spec)
        o1 = prequant_matrix(geom, basis, moment_hamiltonian(spec, [1, 0, 0])).matrix
        o2 = prequant_matrix(geom, basis, moment_hamiltonian(spec, [0, 1, 0])).matrix
        o3 = prequant_matrix(geom, basis, moment_hamiltonian(spec, [0, 0, 1])).matrix
        assert np.linalg.norm((o3 @ o1 - o1 @ o3) - (-1j) * o2, 2) < 1e-10

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_spectrum_is_unshifted(self, two_j):
        spec = OrbitSpec(two_j)
        geom = OrbitGeometry(spec)
        basis = build_basis(spec)
        rng = np.random.default_rng(20 + two_j)
        for _ in range(5):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            op = prequant_matrix(geom, basis, moment_hamiltonian(spec, a))
            eig = np.sort(np.linalg.eigvalsh(op.matrix))
            assert np.max(np.abs(eig - np.arange(-spec.j, spec.j + 1))) <= 1e-8

    def test_hermiticity_random(self):
        rng = np.random.default_rng(21)
        for two_j in (1, 3, 5):
            spec = OrbitSpec(two_j)
            geom = OrbitGeometry(spec)
            basis = build_basis(spec)
            for _ in range(5):
                op = prequant_matrix(geom, basis, moment_hamiltonian(spec, rng.standard_normal(3)))
                assert np.linalg.norm(op.matrix - op.matrix.conj().T, 2) <= 1e-9

    def test_dirac_condition_global_sign(self):
        rng = np.random.default_rng(22)
        for two_j in (1, 2, 3, 4, 5):
            spec = OrbitSpec(two_j)
            geom = OrbitGeometry(spec)
            basis = build_basis(spec)
            ops = np.array([
                prequant_matrix(geom, basis, moment_hamiltonian(spec, e)).matrix for e in np.eye(3)
            ])
            for _ in range(20):
                a = rng.standard_normal(3)
                b = rng.standard_normal(3)
                oa = np.einsum("k,kij->ij", a, ops)
                ob = np.einsum("k,kij->ij", b, ops)
                oc = np.einsum("k,kij->ij", np.cross(a, b), ops)
                assert np.linalg.norm((oa @ ob - ob @ oa) - (-1j) * oc, 2) <= 1e-8


class TestPolarization:
    def test_constant_has_no_leakage(self):
        spec = OrbitSpec(2)
        w = FiberHamiltonian(value=lambda pt: 1.0, chart_gradient=lambda pt: np.zeros(2))
        assert polarization_residual(OrbitGeometry(spec), build_basis(spec), w) <= 1e-12

    def test_moment_functions_preserve_polarization(self):
        spec = OrbitSpec(2)
        geom = OrbitGeometry(spec)
        basis = build_basis(spec)
        rng = np.random.default_rng(23)
        for _ in range(5):
            w = moment_hamiltonian(spec, rng.standard_normal(3))
            assert polarization_residual(geom, basis, w) <= 1e-8

    def test_quadratic_counterexample_leaks(self):
        spec = OrbitSpec(2)
        geom = OrbitGeometry(spec)
        basis = build_basis(spec)
        moment = max(polarization_residual(geom, basis, moment_hamiltonian(spec, e)) for e in np.eye(3))
        quad = polarization_residual(geom, basis, squared_hamiltonian(moment_hamiltonian(spec, [0, 0, 1])))
        assert quad >= 1e3 * moment
        assert quad >= 1e3 * 1e-8


class TestFiberSection:
    def test_coefficient_vector_invariant(self):
        from fiberquant.fiberq import FiberSection

        section = FiberSection(coefficients=np.array([1.0, 0.5j, -0.2]))
        assert section.coefficients.shape == (3,)
        with pytest.raises(InvalidArgument):
            FiberSection(coefficients=np.ones((2, 2)))


class TestQuantizedTransitions:
    def test_identity(self):
        spec = OrbitSpec(3)
        basis = build_basis(spec)
        out = quantize_transition(spec, basis, np.eye(2, dtype=complex))
        assert np.linalg.norm(out.matrix - np.eye(spec.dim), 2) < 1e-14

    def test_diagonal_one_parameter_phases(self):
        spec = OrbitSpec(3)
        basis = build_basis(spec)
        t = 0.83
        g = np.diag([np.exp(1j * t / 2), np.exp(-1j * t / 2)])
        out = quantize_transition(spec, basis, g)
        m = np.arange(spec.j, -spec.j - 1.0, -1.0)
        assert np.linalg.norm(out.matrix - np.diag(np.exp(1j * m * t)), 2) < 1e-12

    def test_quarter_turn_antidiagonal(self):
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        out = quantize_transition(spec, basis, np.array([[0, 1], [-1, 0]], dtype=complex))
        assert np.allclose(out.matrix, np.array([[0, -1], [1, 0]]), atol=1e-14)

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_homomorphism(self, two_j):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        rng = np.random.default_rng(24 + two_j)
        for _ in range(34):
            g1, g2 = random_su2(rng), random_su2(rng)
            x1 = quantize_transition(spec, basis, g1).matrix
            x2 = quantize_transition(spec, basis, g2).matrix
            x12 = quantize_transition(spec, basis, g1 @ g2).matrix
            assert np.linalg.norm(x12 - x1 @ x2, 2) <= 1e-9

    def test_unitarity(self):
        spec = OrbitSpec(4)
        basis = build_basis(spec)
        rng = np.random.default_rng(25)
        for _ in range(20):
            x = quantize_transition(spec, basis, random_su2(rng)).matrix
            assert np.linalg.norm(x.conj().T @ x - np.eye(spec.dim), 2) <= 1e-9

    def test_quadrature_projection_oracle(self):
        # independent route: project the substituted sections back on the basis
        spec = OrbitSpec(2)
        basis = build_basis(spec)
        rule = sphere_rule(spec.two_j + 10, 2 * spec.two_j + 13)
        rng = np.random.default_rng(26)
        g = random_su2(rng)
        a, b = g[0, 0], g[0, 1]
        z = rule_points(rule)
        wts = measure_weights(spec, rule)
        vals = basis.eval(z)
        moebius = (np.conj(a) * z - b) / (np.conj(b) * z + a)
        automorphy = (np.conj(b) * z + a) ** spec.two_j
        transformed = automorphy[None, :] * basis.eval(moebius)
        oracle = (vals.conj() * wts[None, :]) @ transformed.T
        direct = quantize_transition(spec, basis, g).matrix
        assert np.linalg.norm(direct - oracle, 2) < 1e-10

    def test_non_unimodular_rejected(self):
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        with pytest.raises(InvalidArgument):
            quantize_transition(spec, basis, 1.1 * np.eye(2, dtype=complex))

    @pytest.mark.parametrize("g", [np.full((2, 2), np.nan, dtype=complex),
                                   np.array([[np.nan, 0], [0, 1]], dtype=complex)])
    def test_non_finite_group_element_rejected(self, g):
        spec = OrbitSpec(1)
        with pytest.raises(InvalidArgument):
            quantize_transition(spec, build_basis(spec), g)

    def test_one_parameter_generators_match_spin_matrices(self):
        # derivative of the transitions along the generator subgroups
        spec = OrbitSpec(2)
        basis = build_basis(spec)
        jx, jy, jz = spin_matrices(spec.two_j)
        h = 1e-6
        expected = {0: 1j * jx, 1: 1j * jy, 2: -1j * jz}
        for axis in range(3):
            unit = np.zeros(3)
            unit[axis] = 1.0
            plus = quantize_transition(spec, basis, su2_exp(h * unit)).matrix
            minus = quantize_transition(spec, basis, su2_exp(-h * unit)).matrix
            deriv = (plus - minus) / (2 * h)
            assert np.linalg.norm(deriv - expected[axis], 2) < 1e-9
