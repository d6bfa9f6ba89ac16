import dataclasses
import importlib
import inspect
import pkgutil
import re
import warnings
from functools import lru_cache
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberquant
from fiberquant.errors import AccuracyFailure, InvalidArgument
from fiberquant.fiberq import (
    FiberBasis,
    build_basis,
    default_rule,
    exact_monomial_norms_sq,
    measure_weights,
    polarization_residual,
    prequant_matrix,
    quantize_transition,
    rule_points,
    spin_lift,
)
from fiberquant.numerics import sphere_rule
from fiberquant.orbit import (
    FiberHamiltonian,
    OrbitSpec,
    _moment_functions,
    moment_hamiltonian,
    squared_hamiltonian,
)
from fiberquant.su2 import PAULI, check_special_unitary, random_su2, su2_exp


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

    def test_overflowing_spin_rejected(self):
        # z**160 overflows at the outer nodes: the error names it, and numpy warns of nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyFailure, match=r"overflow .* two_j = 160"):
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
        w = FiberHamiltonian(value=lambda pt: 2.5, chart_gradient=lambda pt: np.zeros(2))
        op = prequant_matrix(basis, w)
        assert np.linalg.norm(op - 2.5 * np.eye(spec.dim), 2) < 1e-12

    def test_axis_three_diagonal(self):
        spec = OrbitSpec(1)
        op = prequant_matrix(build_basis(spec), moment_hamiltonian(spec, [0, 0, 1]))
        assert np.linalg.norm(op - np.diag([0.5, -0.5]), 2) < 1e-12

    def test_axis_one_offdiagonal(self):
        spec = OrbitSpec(1)
        op = prequant_matrix(build_basis(spec), moment_hamiltonian(spec, [1, 0, 0]))
        assert np.linalg.norm(op - 0.5 * np.array([[0, 1], [1, 0]]), 2) < 1e-12

    def test_ladder_commutator_oracle(self):
        # the axis-1 operator is pinned by its commutator with the axis-3 one
        spec = OrbitSpec(3)
        basis = build_basis(spec)
        o1 = prequant_matrix(basis, moment_hamiltonian(spec, [1, 0, 0]))
        o2 = prequant_matrix(basis, moment_hamiltonian(spec, [0, 1, 0]))
        o3 = prequant_matrix(basis, moment_hamiltonian(spec, [0, 0, 1]))
        assert np.linalg.norm((o3 @ o1 - o1 @ o3) - (-1j) * o2, 2) < 1e-10

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_spectrum_is_unshifted(self, two_j):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        rng = np.random.default_rng(20 + two_j)
        for _ in range(5):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            op = prequant_matrix(basis, moment_hamiltonian(spec, a))
            eig = np.sort(np.linalg.eigvalsh(op))
            assert np.max(np.abs(eig - np.arange(-spec.j, spec.j + 1))) <= 1e-8

    def test_hermiticity_random(self):
        rng = np.random.default_rng(21)
        for two_j in (1, 3, 5):
            spec = OrbitSpec(two_j)
            basis = build_basis(spec)
            for _ in range(5):
                op = prequant_matrix(basis, moment_hamiltonian(spec, rng.standard_normal(3)))
                assert np.linalg.norm(op - op.conj().T, 2) <= 1e-9

    def test_dirac_condition_global_sign(self):
        rng = np.random.default_rng(22)
        for two_j in (1, 2, 3, 4, 5):
            spec = OrbitSpec(two_j)
            basis = build_basis(spec)
            ops = np.array([
                prequant_matrix(basis, moment_hamiltonian(spec, e)) for e in np.eye(3)
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
        assert polarization_residual(build_basis(spec), w) <= 1e-12

    def test_moment_functions_preserve_polarization(self):
        spec = OrbitSpec(2)
        basis = build_basis(spec)
        rng = np.random.default_rng(23)
        for _ in range(5):
            w = moment_hamiltonian(spec, rng.standard_normal(3))
            assert polarization_residual(basis, w) <= 1e-8

    def test_quadratic_counterexample_leaks(self):
        spec = OrbitSpec(2)
        basis = build_basis(spec)
        moment = max(polarization_residual(basis, moment_hamiltonian(spec, e)) for e in np.eye(3))
        quad = polarization_residual(basis, squared_hamiltonian(moment_hamiltonian(spec, [0, 0, 1])))
        assert quad >= 1e3 * moment
        assert quad >= 1e3 * 1e-8


class TestStackedPrequant:
    """A stack of fiber Hamiltonians is one call whose members equal their single calls bit for bit."""

    @staticmethod
    def stacks(spec):
        # the three moment functions, and a random stack of four directions, with their directions
        a = np.random.default_rng(24 + spec.two_j).standard_normal((4, 3))
        return [(_moment_functions(spec), np.eye(3)), (moment_hamiltonian(spec, a.T[..., None]), a)]

    @pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4, 5, 20])
    def test_prequant_stack_equals_per_direction_calls(self, two_j):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        for stack, directions in self.stacks(spec):
            ops = prequant_matrix(basis, stack)
            assert ops.shape == (len(directions), spec.dim, spec.dim)
            for op, a in zip(ops, directions):
                assert op.tobytes() == prequant_matrix(basis, moment_hamiltonian(spec, a)).tobytes()

    @pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4, 5, 20])
    def test_polarization_stack_is_the_largest_member(self, two_j):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        for stack, directions in self.stacks(spec):
            single = [polarization_residual(basis, moment_hamiltonian(spec, a)) for a in directions]
            assert polarization_residual(basis, stack) == max(single)

    def test_hermiticity_guard_checks_every_member(self):
        # member 0 is Hermitian, members 1 and 2 are 1e-4 i and 2e-3 i times the identity: the worst is named
        basis = build_basis(OrbitSpec(2))
        w = FiberHamiltonian(value=lambda pt: np.array([[1.0], [1e-4j], [2e-3j]]),
                             chart_gradient=lambda pt: np.zeros(2))
        with pytest.raises(AccuracyFailure, match=r"not Hermitian to tolerance \(4\.00e-03\)"):
            prequant_matrix(basis, w)


class TestQuantizedTransitions:
    def test_identity(self):
        spec = OrbitSpec(3)
        basis = build_basis(spec)
        out = quantize_transition(basis, np.eye(2, dtype=complex))
        assert np.linalg.norm(out - np.eye(spec.dim), 2) < 1e-14

    def test_diagonal_one_parameter_phases(self):
        spec = OrbitSpec(3)
        basis = build_basis(spec)
        t = 0.83
        g = np.diag([np.exp(1j * t / 2), np.exp(-1j * t / 2)])
        out = quantize_transition(basis, g)
        m = np.arange(spec.j, -spec.j - 1.0, -1.0)
        assert np.linalg.norm(out - np.diag(np.exp(1j * m * t)), 2) < 1e-12

    def test_quarter_turn_antidiagonal(self):
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        out = quantize_transition(basis, np.array([[0, 1], [-1, 0]], dtype=complex))
        assert np.allclose(out, np.array([[0, -1], [1, 0]]), atol=1e-14)

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_homomorphism(self, two_j):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        rng = np.random.default_rng(24 + two_j)
        for _ in range(34):
            g1, g2 = random_su2(rng), random_su2(rng)
            x1 = quantize_transition(basis, g1)
            x2 = quantize_transition(basis, g2)
            x12 = quantize_transition(basis, g1 @ g2)
            assert np.linalg.norm(x12 - x1 @ x2, 2) <= 1e-9

    def test_unitarity(self):
        spec = OrbitSpec(4)
        basis = build_basis(spec)
        rng = np.random.default_rng(25)
        for _ in range(20):
            x = quantize_transition(basis, random_su2(rng))
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
        direct = quantize_transition(basis, g)
        assert np.linalg.norm(direct - oracle, 2) < 1e-10

    def test_non_unimodular_rejected(self):
        spec = OrbitSpec(1)
        basis = build_basis(spec)
        with pytest.raises(InvalidArgument):
            quantize_transition(basis, 1.1 * np.eye(2, dtype=complex))

    def test_unitarity_guard_reads_the_frobenius_norm(self, monkeypatch):
        # a lift off unitarity by 8e-10 in the 2-norm is off by 1.13e-9 in the Frobenius norm
        basis = build_basis(OrbitSpec(2))
        fiberq_module = importlib.import_module("fiberquant.fiberq")
        monkeypatch.setattr(fiberq_module, "spin_lift", lambda basis, g: np.diag([1.0, 1.0 + 4e-10, 1.0 + 4e-10]))
        with pytest.raises(AccuracyFailure, match="Frobenius norm 1.13e-09"):
            quantize_transition(basis, np.eye(2, dtype=complex))

    def test_unitarity_guard_reads_the_frobenius_norm_on_a_stack(self, monkeypatch):
        # the same lift, once in a stack of four: the same message
        basis = build_basis(OrbitSpec(2))
        fiberq_module = importlib.import_module("fiberquant.fiberq")
        off = np.diag([1.0, 1.0 + 4e-10, 1.0 + 4e-10])
        lifts = lambda basis, g: np.stack([np.eye(3), np.eye(3), off, np.eye(3)])
        monkeypatch.setattr(fiberq_module, "spin_lift", lifts)
        with pytest.raises(AccuracyFailure, match="Frobenius norm 1.13e-09"):
            quantize_transition(basis, np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)))

    @pytest.mark.parametrize("g", [np.full((2, 2), np.nan, dtype=complex),
                                   np.array([[np.nan, 0], [0, 1]], dtype=complex)])
    def test_non_finite_group_element_rejected(self, g):
        spec = OrbitSpec(1)
        with pytest.raises(InvalidArgument):
            quantize_transition(build_basis(spec), g)

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
            plus = quantize_transition(basis, su2_exp(h * unit))
            minus = quantize_transition(basis, su2_exp(-h * unit))
            deriv = (plus - minus) / (2 * h)
            assert np.linalg.norm(deriv - expected[axis], 2) < 1e-9


def su2_stack(shape, seed=75):
    return random_su2(np.random.default_rng(seed), shape)


def random_su2_of_one_draw(rng):
    """One Haar element from its own ``standard_normal(4)`` draw: the per-draw loop ``random_su2`` must equal."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b = q[0] + 1.0j * q[3], q[2] + 1.0j * q[1]
    return np.array([[a, b], [-np.conj(b), np.conj(a)]], dtype=complex)


class TestStackedRandomSu2:
    @pytest.mark.parametrize("shape", [(), (5,), (34, 2)])
    @pytest.mark.parametrize("seed", [0, 202, 4711])
    def test_stack_is_its_per_draw_loop(self, shape, seed):
        stacked_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = random_su2(stacked_rng, shape)
        loop = np.array([random_su2_of_one_draw(loop_rng) for _ in range(int(np.prod(shape)))])
        assert stacked.shape == shape + (2, 2) and stacked.dtype == complex
        assert stacked.tobytes() == loop.tobytes()
        # the generator is left where the loop leaves it
        assert stacked_rng.standard_normal(4).tobytes() == loop_rng.standard_normal(4).tobytes()


class TestStackedTransitions:
    """``check_special_unitary`` and ``quantize_transition`` on stacks (..., 2, 2): one implementation,
    a single element being the stack of shape ()."""

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_stacked_equals_single_bit_for_bit(self, shape):
        basis = build_basis(OrbitSpec(4))
        stack = su2_stack(shape)
        lifted, checked = quantize_transition(basis, stack), check_special_unitary(stack)
        assert lifted.shape == shape + (5, 5) and checked.shape == shape + (2, 2)
        for idx in np.ndindex(*shape):
            assert np.array_equal(lifted[idx], quantize_transition(basis, stack[idx]))
            assert np.array_equal(checked[idx], check_special_unitary(stack[idx]))

    @pytest.mark.parametrize("bad", [np.array([[1.0, 1e-6], [0.0, 1.0]]), np.exp(0.1j) * np.eye(2),
                                     np.array([[np.nan, 0.0], [0.0, 1.0]])],
                             ids=["non-unitary", "non-unimodular", "nan"])
    def test_one_bad_element_rejects_the_stack(self, bad):
        basis = build_basis(OrbitSpec(2))
        with pytest.raises(InvalidArgument) as single:
            quantize_transition(basis, bad)
        stack = su2_stack((2, 3))
        stack[1, 2] = bad
        for call in (check_special_unitary, lambda g: quantize_transition(basis, g)):
            with pytest.raises(InvalidArgument) as stacked:
                call(stack)
            assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("shape", [(2, 3), (5, 2, 3), (5, 3, 3), (2,)])
    def test_wrong_trailing_shape_rejected(self, shape):
        with pytest.raises(InvalidArgument, match=re.escape(f"group element must be 2x2, got {shape}")):
            quantize_transition(build_basis(OrbitSpec(1)), np.zeros(shape, dtype=complex))

    def test_empty_stack(self):
        assert quantize_transition(build_basis(OrbitSpec(3)), np.zeros((0, 2, 2), dtype=complex)).shape == (0, 4, 4)


def su2_exp_of_one_vector(c):
    """The closed form of one vector, its angle ``np.linalg.norm(c)``: the formula ``su2_exp`` must round as."""
    angle = np.linalg.norm(c)
    if angle < 1e-300:
        return np.eye(2, dtype=complex)
    sigma_n = np.einsum("a,aij->ij", c / angle, PAULI)
    return np.cos(angle / 2.0) * np.eye(2) - 1.0j * np.sin(angle / 2.0) * sigma_n


class TestStackedSu2Exp:
    """``su2_exp`` on a stack (..., 3) equals its single calls, and the one-vector closed form, bit for bit."""

    @staticmethod
    def assert_stack_is_its_single_calls(c):
        stacked = su2_exp(c)
        for one in (su2_exp, su2_exp_of_one_vector):
            single = np.array([one(v) for v in c.reshape(-1, 3)]).reshape(c.shape[:-1] + (2, 2))
            assert np.array_equal(stacked, single)
            assert stacked.tobytes() == single.tobytes()  # the signs of zero entries too

    def test_general_axes(self):
        rng = np.random.default_rng(76)
        c = rng.standard_normal((10**4, 3)) * rng.choice([1e-3, 1.0, 30.0], size=(10**4, 1))
        self.assert_stack_is_its_single_calls(c)
        self.assert_stack_is_its_single_calls(c[:12].reshape(3, 4, 3))

    @pytest.mark.parametrize("axis", range(3))
    def test_single_axes(self, axis):
        c = np.zeros((200, 3))
        c[:, axis] = np.random.default_rng(77 + axis).uniform(-8.0, 8.0, size=200)
        self.assert_stack_is_its_single_calls(c)

    def test_zero_vector_is_the_identity_inside_a_stack(self):
        c = np.array([[0.3, -0.2, 0.9], [0.0, 0.0, 0.0], [0.0, -0.0, 1e-310], [0.0, 0.0, 2.0]])
        self.assert_stack_is_its_single_calls(c)
        assert np.array_equal(su2_exp(c)[1:3], np.array([np.eye(2, dtype=complex)] * 2))
        assert np.array_equal(su2_exp(np.zeros(3)), np.eye(2, dtype=complex))


def convolution_lift(basis, g):
    """X(g) by one binomial convolution per monomial, entry by entry in scalars."""
    a, b = g[0, 0], g[0, 1]
    two_j, n = basis.spec.two_j, basis.spec.dim
    mono = np.zeros((n, n), dtype=complex)
    for k in range(n):
        p1 = [comb(k, i) * np.conj(a) ** i * (-b) ** (k - i) for i in range(k + 1)]
        p2 = [comb(two_j - k, l) * np.conj(b) ** l * a ** (two_j - k - l) for l in range(two_j - k + 1)]
        mono[:, k] = np.convolve(p1, p2)
    return basis.norms[:, None] * mono / basis.norms[None, :]


@lru_cache(maxsize=None)
def basis_at(two_j):
    return build_basis(OrbitSpec(two_j))


class TestSpinLift:
    """The one lift X(u) of 2x2 quaternions, on single elements and on stacks."""

    @pytest.mark.parametrize("two_j", [40, 80])
    def test_matches_mpmath_lift(self, two_j):
        # the convolution oracle run on 60-digit scalars, where the float convolution has lost 1e-7 at 80
        basis = basis_at(two_j)
        g = random_su2(np.random.default_rng(73 + two_j))
        with mpmath.workdps(60):
            oracle = convolution_lift(basis, np.vectorize(mpmath.mpc, otypes=[object])(g))
        assert np.max(np.abs(spin_lift(basis, g) - oracle)) <= 1e-12

    @pytest.mark.parametrize("two_j", [40, 60, 80])
    def test_quantized_transitions_at_high_spin(self, two_j):
        basis = basis_at(two_j)
        rng = np.random.default_rng(74 + two_j)
        for _ in range(5):
            g1, g2 = random_su2(rng), random_su2(rng)
            x1, x2 = quantize_transition(basis, g1), quantize_transition(basis, g2)
            assert np.linalg.norm(x1.conj().T @ x1 - np.eye(basis.spec.dim), 2) <= 1e-12
            assert np.linalg.norm(quantize_transition(basis, g1 @ g2) - x1 @ x2, 2) <= 1e-12

    @settings(max_examples=25)
    @given(two_j=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
    def test_unitary_representation_at_every_spin(self, two_j, seed):
        basis = basis_at(two_j)
        rng = np.random.default_rng(seed)
        g1, g2 = random_su2(rng), random_su2(rng)
        x1, x2, x12 = spin_lift(basis, np.array([g1, g2, g1 @ g2]))
        assert np.linalg.norm(x1.conj().T @ x1 - np.eye(basis.spec.dim), 2) <= 1e-12
        assert np.linalg.norm(x12 - x1 @ x2, 2) <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 3, 5, 10, 20])
    def test_matches_convolution_oracle(self, two_j):
        basis = build_basis(OrbitSpec(two_j))
        rng = np.random.default_rng(70 + two_j)
        for _ in range(25):
            g = random_su2(rng)
            assert np.max(np.abs(spin_lift(basis, g) - convolution_lift(basis, g))) <= 1e-13

    @pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
    def test_stacked_equals_single_bit_for_bit(self, shape):
        basis = build_basis(OrbitSpec(5))
        stack = random_su2(np.random.default_rng(71), shape)
        lifted = spin_lift(basis, stack)
        assert lifted.shape == shape + (6, 6)
        for idx in np.ndindex(*shape):
            assert np.array_equal(lifted[idx], spin_lift(basis, stack[idx]))

    @pytest.mark.parametrize("two_j", [1, 4])
    def test_scaled_quaternion_lifts_to_power_of_scale(self, two_j):
        # the transport unitarity guard reads a marched quaternion's norm through this
        basis = build_basis(OrbitSpec(two_j))
        g = random_su2(np.random.default_rng(72))
        for r in (0.9, 1.0 + 1e-7, 1.3):
            expected = r ** two_j * quantize_transition(basis, g)
            assert np.max(np.abs(spin_lift(basis, r * g) - expected)) <= 1e-13

    @pytest.mark.parametrize("two_j", [1, 2, 8])
    def test_sign_of_a_zero_b_does_not_reach_the_lift(self, two_j):
        # a diagonal quaternion whose b is +0.0 or -0.0, in either component, lifts bit for bit alike
        basis = build_basis(OrbitSpec(two_j))
        for a in (1.0 + 0.0j, np.exp(0.3j), -1.0 + 0.0j, np.exp(-2.1j)):
            lifts = [spin_lift(basis, np.array([[a, complex(re, im)], [-complex(re, -im), np.conj(a)]]))
                     for re in (0.0, -0.0) for im in (0.0, -0.0)]
            assert all(lift.tobytes() == lifts[0].tobytes() for lift in lifts[1:])


class TestOneFiberHandle:
    """The basis alone carries the spin of the fiber, and its rule follows from the spin."""

    @staticmethod
    def public_functions():
        for info in pkgutil.iter_modules(fiberquant.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"fiberquant.{info.name}")
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == module.__name__:
                    yield f"{module.__name__}.{name}", inspect.signature(fn).parameters

    def test_no_signature_takes_basis_with_spin_or_rule(self):
        signatures = dict(self.public_functions())
        assert "fiberquant.fiberq.prequant_matrix" in signatures
        mixed = [name for name, params in signatures.items()
                 if "basis" in params and {"spec", "geom", "rule"} & set(params)]
        assert mixed == []

    def test_basis_is_its_spin(self):
        # the fiber takes no rule: build_basis reads only the spin, and a basis holds no rule
        signatures = dict(self.public_functions())
        assert list(signatures["fiberquant.fiberq.build_basis"]) == ["spec"]
        assert [field.name for field in dataclasses.fields(FiberBasis)] == ["spec", "norms", "gram"]
