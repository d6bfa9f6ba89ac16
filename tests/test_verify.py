import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fiberquant import fiberq, gauge, su2, verify
from fiberquant.cli import EXIT_ACCURACY, run_command
from fiberquant.errors import FiberquantError
from fiberquant.fiberq import build_basis, prequant_matrix, quantize_transition
from fiberquant.numerics import central_difference
from fiberquant.orbit import (
    Chart,
    ChartPoint,
    OrbitSpec,
    chart_transition,
    embed_point,
    hamiltonian_field,
    kahler_potential_at,
    moment_hamiltonian,
    poisson_bracket,
    symplectic_form_at,
)
from fiberquant.scenario import CHECKS, Fiber, default_scenario
from fiberquant.su2 import random_su2
from fiberquant.verify import run_suite


@pytest.mark.parametrize("suite", ["orbit", "fiber"])
def test_light_suites_pass(suite):
    checks = run_suite(suite, default_scenario(2, "monopole", strength=1))
    failed = [c for c in checks if not c.passed]
    assert not failed, f"failed: {[(c.name, c.value) for c in failed]}"


def test_gauge_suite_passes():
    checks = run_suite("gauge", default_scenario(2, "monopole", strength=1))
    failed = [c for c in checks if not c.passed]
    assert not failed, f"failed: {[(c.name, c.value) for c in failed]}"
    names = {c.name for c in checks}
    assert "gauge.connection_equivalence" in names
    assert "gauge.transformation_law" in names


def test_transport_suite_passes():
    checks = run_suite("transport", default_scenario(2, "monopole", strength=1))
    failed = [c for c in checks if not c.passed]
    assert not failed, f"failed: {[(c.name, c.value) for c in failed]}"


def test_all_aggregates_every_suite():
    scenario = default_scenario(1, "trivial")
    checks = run_suite("all", scenario)
    names = {c.name for c in checks}
    for prefix in ("orbit.", "fiber.", "gauge.", "transport."):
        assert any(name.startswith(prefix) for name in names)
    # Exactly the rows of the check table, in its order, each with its bound.
    assert [c.name for c in checks] == list(CHECKS)
    for c in checks:
        key, bound = CHECKS[c.name]
        assert (c.mode, c.tolerance) == (("min", bound) if key is None else ("max", bound))


def test_unknown_suite_rejected():
    with pytest.raises(FiberquantError):
        run_suite("everything", default_scenario())


def test_min_mode_checks_report_floor():
    checks = run_suite("fiber", default_scenario(1, "trivial"))
    ratio = next(c for c in checks if c.name == "fiber.polarization_counterexample_ratio")
    assert ratio.mode == "min" and ratio.passed


transport_module = importlib.import_module("fiberquant.transport")


class TestMarchOrderFaults:
    """Two one-line faults of the pair product that the transport rows must catch.

    Both routes share ``_ordered_product``, so a fault in its order is not
    seen by ``transport.source_independence``."""

    def test_swapped_operands_fail_source_independence(self, monkeypatch):
        product = transport_module._pair_product
        monkeypatch.setattr(transport_module, "_pair_product", lambda x, y: product(y, x))
        rows = {c.name: c for c in run_suite("transport", default_scenario(2, "monopole", strength=1))}
        assert rows["transport.source_independence"].value > 0.1
        assert not rows["transport.source_independence"].passed

    def test_dropped_conjugate_fails_the_transport_unitarity_guard(self, monkeypatch):
        def product(x, y):  # b1 a2 in place of b1 conj(a2)
            xt, yt = x.T, y.T
            a1, b1, a2, b2 = xt[0], xt[1], yt[0], yt[1]
            return np.array([a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * a2]).T

        monkeypatch.setattr(transport_module, "_pair_product", product)
        code, out = run_command(["verify", "transport", "--spin", "2"])
        assert code == EXIT_ACCURACY
        assert out.startswith("accuracy failure:") and "unitar" in out


def test_a_clean_factor_in_place_of_the_corruption_fails_the_sensitivity_row(monkeypatch):
    # the suite's one residual call fed [1, 1]: the corrupted row is the clean row, and the ratio reads 1
    residual = verify.covariant_residual_total_space
    monkeypatch.setattr(verify, "covariant_residual_total_space",
                        lambda *args, corruption, **kw: residual(*args, corruption=lambda t: np.ones(2), **kw))
    rows = {c.name: c for c in run_suite("transport", default_scenario(2, "monopole", strength=1))}
    assert rows["transport.corruption_sensitivity"].value == 1.0
    assert not rows["transport.corruption_sensitivity"].passed


def test_a_non_finite_matrix_reads_inf_and_fails_its_row(monkeypatch):
    # the rows take their matrix 2-norms through spectral_norm: a nan oracle reads inf and fails the row, exit 3,
    # where the SVD of np.linalg.norm would not converge and raise
    monkeypatch.setattr(verify, "matrix_exp", lambda m: np.full_like(m, np.nan))
    rows = {c.name: c for c in run_suite("transport", default_scenario(2, "monopole", strength=1))}
    assert rows["transport.constant_oracle"].value == np.inf and not rows["transport.constant_oracle"].passed
    assert [name for name, c in rows.items() if not c.passed] == ["transport.constant_oracle"]
    code, _ = run_command(["verify", "transport", "--spin", "2"])
    assert code == EXIT_ACCURACY


class TestVerifyAllCallCounts:
    """The calls one ``verify all`` makes, by function, each deterministic: a change that brings back
    duplicate work fails the row of the function it repeats."""

    CALLS = [  # (the module that defines the function, its name, calls)
        (transport_module, "transport", 10),  # the 10 suite transports; the residual's knot march is not one
        (transport_module, "covariant_residual_total_space", 1),  # the clean and corrupted row of one knot march
        (fiberq, "build_basis", 11),  # each of the 11 fiber spins once; the gauge and transport suites share them
        (su2, "random_su2", 3),  # one (34, 2) block per transition spin
        (fiberq, "spin_lift", 23),  # 9 transition stacks, 9 rep-route transports, 1 knot stack, 4 gauge-law lifts
        (fiberq, "prequant_matrix", 6),  # 5 fiber generator stacks and one quadrature_rep per suite spin
        (gauge, "build_rep", 1),  # one per suite spin: the gauge and transport suites share their fiber
        (gauge, "quadrature_rep", 1),
    ]
    # The gauge suite runs at two_j clamped to 1..4, the transport suite at 1..2: two suite spins at 4.
    AT_SPIN_4 = {"prequant_matrix": 7, "build_rep": 2, "quadrature_rep": 2}

    @pytest.mark.parametrize("argv", [["verify", "all"], ["verify", "all", "--spin", "2"],
                                      ["verify", "all", "--spin", "4"]], ids=["default", "spin2", "spin4"])
    def test_calls(self, monkeypatch, argv):
        counts = Counter()
        modules = [m for name, m in sys.modules.items() if name.startswith("fiberquant.")]
        for home, name, _ in self.CALLS:
            original = getattr(home, name)
            counter = lambda *args, _f=original, _name=name, **kwargs: counts.update([_name]) or _f(*args, **kwargs)
            for module in modules:  # every name a caller looks the function up by
                for attr in [attr for attr, value in vars(module).items() if value is original]:
                    monkeypatch.setattr(module, attr, counter)
        code, _ = run_command(argv)
        assert code == 0
        expected = {name: calls for _, name, calls in self.CALLS}
        assert dict(counts) == {**expected, **(self.AT_SPIN_4 if argv[-1] == "4" else {})}


class TestCheckTable:
    # The bound each acceptance criterion pins, by the verify row that
    # measures the same invariant.  Floors are the min-mode rows.  These are
    # copies of the literals in tests/test_acceptance.py: change a bound there
    # and here together.
    CRITERIA = {
        "fiber.gram_oracle": 1e-10,                      # 1
        "fiber.spectrum_no_half_form": 1e-8,             # 2
        "fiber.dirac_condition": 1e-8,                   # 3
        "gauge.lift_orthogonality": 1e-8,                # 4
        "fiber.polarization_moment": 1e-8,               # 5
        "fiber.polarization_counterexample_ratio": 1e3,  # 5, floor
        "gauge.transformation_law": 1e-6,                # 6
        "gauge.connection_equivalence": 1e-8,            # 7
        "transport.monopole_holonomy": 1e-6,             # 8
        "transport.constant_oracle": 1e-8,               # 9
        "transport.noncommutativity": 0.1,               # 9, floor
        "transport.total_space_residual": 1e-5,          # 10
        "transport.corruption_sensitivity": 10.0,        # 10, floor
        "fiber.transition_homomorphism": 1e-9,           # 12
    }
    FLOORS = {"fiber.polarization_counterexample_ratio", "gauge.constant_model_curvature",
              "transport.noncommutativity", "transport.corruption_sensitivity"}

    def test_each_key_bounds_exactly_one_row(self):
        keys = Counter(key for key, _ in CHECKS.values() if key is not None)
        assert set(keys.values()) == {1}
        assert {row for row, (key, _) in CHECKS.items() if key is None} == self.FLOORS

    @pytest.mark.parametrize("row", sorted(CRITERIA))
    def test_default_equals_acceptance_bound(self, row):
        assert CHECKS[row][1] == self.CRITERIA[row]
        assert (CHECKS[row][0] is None) == (row in self.FLOORS)

    def test_row_missing_from_table_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "suite_orbit", lambda two_j, fiber: {"orbit.unlisted": 0.0})
        with pytest.raises(KeyError):
            run_suite("orbit", default_scenario())

    def test_readme_table_matches(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("### Tolerances", 1)[1].split("\n## ", 1)[0]
        table = {}
        for key, default, users in re.findall(r"^\| `(\w+)` \| ([^|]+) \| (.+) \|$", section, re.M):
            rows = [name for name in re.findall(r"`([\w.]+)`", users) if "." in name]
            table[key] = (float(default), rows)
        expected = {}
        for row, (key, bound) in CHECKS.items():
            if key is not None:
                expected.setdefault(key, (bound, []))[1].append(row)
        assert table == expected
        floors = dict(re.findall(r"`([\w.]+)`\s+>=\s+([\d.e+-]+)", section))
        assert {row: float(v) for row, v in floors.items()} == {
            row: bound for row, (key, bound) in CHECKS.items() if key is None}


def per_sample_fiber_rows() -> dict:
    """The Dirac and transition rows of ``suite_fiber``, one sample at a time, from the suite's seed and draws."""
    rng = np.random.default_rng(202)
    rng.standard_normal((4 * 5, 3))  # the hermiticity rows' 5 directions at each of 4 spins
    worst = 0.0
    for two_j in (1, 2, 3, 4, 5):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        ops = [prequant_matrix(basis, moment_hamiltonian(spec, e)) for e in np.eye(3)]
        for _ in range(20):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            oa = np.einsum("k,kij->ij", a, np.array(ops))
            ob = np.einsum("k,kij->ij", b, np.array(ops))
            oc = np.einsum("k,kij->ij", np.cross(a, b), np.array(ops))
            comm = oa @ ob - ob @ oa
            worst = max(worst, float(np.linalg.norm(comm - (-1j) * oc, 2)))
    rows = {"fiber.dirac_condition": worst}
    worst_hom = 0.0
    worst_uni = 0.0
    for two_j in (1, 2, 3):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        for _ in range(34):
            g1 = random_su2(rng)
            g2 = random_su2(rng)
            x1 = quantize_transition(basis, g1)
            x2 = quantize_transition(basis, g2)
            x12 = quantize_transition(basis, g1 @ g2)
            worst_hom = max(worst_hom, float(np.linalg.norm(x12 - x1 @ x2, 2)))
            worst_uni = max(worst_uni, float(np.linalg.norm(x1.conj().T @ x1 - np.eye(spec.dim), 2)))
    rows["fiber.transition_homomorphism"] = worst_hom
    rows["fiber.transition_unitarity"] = worst_uni
    return rows


class TestStackedFiberRows:
    def test_stacked_rows_equal_the_per_sample_loops(self):
        rows = verify.suite_fiber(2, Fiber)
        expected = per_sample_fiber_rows()
        assert {name: rows[name] for name in expected} == expected

    def test_prequant_calls_in_verify_all(self, monkeypatch):
        # one call on the stack of the 3 moment functions for the fiber suite's generators at each of 5 spins,
        # and one in the quadrature_rep that the gauge and transport suites share; one call per direction made 21
        calls = []
        for module in (verify, gauge):
            monkeypatch.setattr(module, "prequant_matrix", lambda basis, w, original=module.prequant_matrix:
                                calls.append(basis.spec.two_j) or original(basis, w))
        run_suite("all", default_scenario(2, "monopole", strength=1))
        assert Counter(calls) == {1: 1, 2: 2, 3: 1, 4: 1, 5: 1}

    def test_one_quantize_call_per_spin_and_operand(self, monkeypatch):
        # 3 spins x (g1, g2, g1 g2), each a stack of 34; a per-sample loop would make 3 x 34 x 3 = 306 calls
        shapes, lift = [], verify.quantize_transition
        monkeypatch.setattr(verify, "quantize_transition", lambda basis, g: shapes.append(g.shape) or lift(basis, g))
        verify.suite_fiber(2, Fiber)
        assert shapes == [(34, 2, 2)] * 9


def per_sample_orbit_rows() -> dict:
    """The sampled rows of ``suite_orbit``, one sample per kernel call, from the suite's seed and draws.

    Each sample is a stack of length 1: a point a length-1 ``z``, a vector a column (k, 1)."""
    rng = np.random.default_rng(101)
    spec = OrbitSpec(2)

    def point():
        return ChartPoint(Chart.NORTH, np.array([complex(rng.normal(scale=1.2), rng.normal(scale=1.2))]))

    def column(size):
        return rng.standard_normal(size)[:, None]

    def theta_pair(pt, vec):
        return np.sum(vec * kahler_potential_at(spec, pt), axis=0)

    def shift(pt, direction, step):
        return ChartPoint(pt.chart, pt.z + step * (direction[0] + 1j * direction[1]))

    rows = {}
    worst = 0.0
    for _ in range(100):
        w = moment_hamiltonian(spec, column(3))
        pt = point()
        xi = column(2)
        lhs = symplectic_form_at(spec, pt, hamiltonian_field(spec, w, pt), xi)
        worst = max(worst, float(np.abs(lhs + np.sum(w.chart_gradient(pt) * xi, axis=0))[0]))
    rows["orbit.hamiltonian_field_identity"] = worst

    worst = 0.0
    for _ in range(25):
        w = moment_hamiltonian(spec, column(3))
        pt = point()
        xi = column(2)
        field_at = lambda p: hamiltonian_field(spec, w, p)
        hw = field_at(pt)
        d_hw = central_difference(lambda s: theta_pair(shift(pt, hw, s), xi), 0.0, 1e-5)
        d_xi = central_difference(lambda s: theta_pair(shift(pt, xi, s), field_at(shift(pt, xi, s))), 0.0, 1e-5)
        jac_xi = central_difference(lambda s: field_at(shift(pt, xi, s)), 0.0, 1e-5)
        rhs = d_hw - d_xi - theta_pair(pt, -jac_xi)
        worst = max(worst, float(np.abs(symplectic_form_at(spec, pt, hw, xi) - rhs)[0]))
    rows["orbit.potential_lie_chain"] = worst

    worst = 0.0
    for _ in range(50):
        w = moment_hamiltonian(spec, column(3))
        pt = point()
        worst = max(worst, float(np.abs(w.value(pt) - w.value(chart_transition(pt)))[0]))
    rows["orbit.chart_covariance"] = worst

    worst = 0.0
    for two_j in (1, 2, 3, 4):
        spec_j = OrbitSpec(two_j)
        for _ in range(25):
            a = column(3)
            b = column(3)
            pt = point()
            bracket = poisson_bracket(spec_j, moment_hamiltonian(spec_j, a), moment_hamiltonian(spec_j, b), pt)
            expected = moment_hamiltonian(spec_j, np.cross(a, b, axis=0)).value(pt)
            worst = max(worst, float(np.abs(bracket - expected)[0]))
    rows["orbit.poisson_sign_global"] = worst

    worst = 0.0
    for _ in range(100):
        embedded = embed_point(spec, point())
        worst = max(worst, float(np.abs(np.sqrt(np.sum(embedded * embedded, axis=0)) - spec.j)[0]))
    rows["orbit.embed_radius"] = worst

    worst = 0.0
    for _ in range(100):
        pt = point()
        comp = lambda z, k: kahler_potential_at(spec, ChartPoint(pt.chart, z))[k]
        curl = (central_difference(lambda s: comp(pt.z + s, 1), 0.0, 1e-5)
                - central_difference(lambda s: comp(pt.z + 1j * s, 0), 0.0, 1e-5))
        worst = max(worst, float(np.abs(curl - symplectic_form_at(spec, pt, (1.0, 0.0), (0.0, 1.0)))[0]))
    rows["orbit.potential_curvature"] = worst
    return rows


class TestStackedOrbitRows:
    def test_stacked_rows_equal_the_per_sample_loops(self):
        rows = verify.suite_orbit(2, Fiber)
        expected = per_sample_orbit_rows()
        assert {name: rows[name] for name in expected} == expected

    def test_one_stencil_call_per_derivative(self, monkeypatch):
        # 3 derivatives in the Lie chain and 2 in the curl, each over its whole block; the per-sample
        # loops made 3 x 25 + 2 x 100 = 275 calls
        calls = []
        monkeypatch.setattr(verify, "central_difference",
                            lambda f, x, h: calls.append(np.shape(f(x))) or central_difference(f, x, h))
        verify.suite_orbit(2, Fiber)
        assert calls == [(25,), (25,), (2, 25), (100,), (100,)]


class TestStackedGaugeRows:
    def test_su2_exp_calls_in_verify_all(self, monkeypatch):
        # 12 in verify_gauge_data (monopole 2 overlaps x (g, stencil), pure gauge twice that, its transition
        # being two exponentials), 6 in the gauge_residual stacks, 2 at the transport suite's forced switches;
        # the per-sample loops made 512
        calls, su2_exp = [], gauge.su2_exp
        monkeypatch.setattr(gauge, "su2_exp", lambda c: calls.append(np.shape(c)) or su2_exp(c))
        run_suite("all", default_scenario(2, "monopole", strength=1))
        assert len(calls) == 20
        assert Counter(calls) == {(12, 3): 6, (4, 12, 3): 6, (10, 3): 3, (4, 10, 3): 3, (3,): 2}

    def test_one_connection_call_per_model_and_route(self, monkeypatch):
        # 20 samples per model: the quad route at (q, v), the rep route at (q, v), (q, v2) and the combination
        calls, connection = [], verify.connection_rep
        route = lambda rep: "rep" if rep.group_action is not None else "quad"  # build_rep's carries the basis
        monkeypatch.setattr(verify, "connection_rep",
                            lambda model, rep, chart, q, dq: calls.append((model.kind, route(rep), q.shape, dq.shape))
                            or connection(model, rep, chart, q, dq))
        verify.suite_gauge(2, Fiber)
        assert calls == [(kind, name, shape, shape) for kind in ("monopole", "constant")
                         for name, shape in (("quad", (20, 2)), ("rep", (3, 20, 2)))]

    def test_one_lift_orthogonality_call_per_model(self, monkeypatch):
        calls, residual = [], verify.lift_orthogonality_residual
        monkeypatch.setattr(verify, "lift_orthogonality_residual",
                            lambda model, chart, q, p, dq, f, xi: calls.append((model.kind, f.z.shape))
                            or residual(model, chart, q, p, dq, f, xi))
        verify.suite_gauge(2, Fiber)
        assert calls == [("monopole", (10,)), ("constant", (10,))]

    def test_one_gauge_residual_call_per_model(self, monkeypatch):
        shapes, residual = [], verify.gauge_residual
        monkeypatch.setattr(verify, "gauge_residual",
                            lambda model, basis, rep, chart, q, dq: shapes.append(q.shape)
                            or residual(model, basis, rep, chart, q, dq))
        verify.suite_gauge(2, Fiber)
        assert shapes == [(10, 2), (10, 2)]
