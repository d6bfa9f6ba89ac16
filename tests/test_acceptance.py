"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np

from fiberquant import constants
from fiberquant.fiberq import (
    build_basis,
    exact_monomial_norms_sq,
    polarization_residual,
    prequant_matrix,
    quantize_transition,
)
from fiberquant.gauge import (
    BasePoint,
    BaseTangent,
    build_rep,
    connection_rep,
    constant_model,
    gauge_residual,
    lift_orthogonality_residual,
    monopole_model,
    pure_gauge_model,
    quadrature_rep,
)
from fiberquant.numerics import matrix_exp
from fiberquant.orbit import (
    Chart,
    ChartPoint,
    OrbitSpec,
    moment_hamiltonian,
    squared_hamiltonian,
)
from fiberquant.su2 import random_su2
from fiberquant.transport import (
    covariant_residual_total_space,
    latitude_path,
    segment_path,
    transport,
    wilson_loop,
)

_CACHE = {}


def fiber_ctx(two_j: int):
    if two_j not in _CACHE:
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        _CACHE[two_j] = {
            "spec": spec,
            "basis": basis,
            "rep": build_rep(basis),
        }
    return _CACHE[two_j]


def verdict(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {number:2d}] {status} :: {detail}")
    assert passed, f"criterion {number}: {detail}"


def monopole_sample(rng, overlap=False):
    lo, hi = (np.pi / 3, 2 * np.pi / 3) if overlap else (np.pi / 8, 2 * np.pi / 3)
    theta = rng.uniform(lo, hi)
    phi = rng.uniform(0, 2 * np.pi)
    r = np.tan(theta / 2)
    q = np.array([r * np.cos(phi), r * np.sin(phi)])
    return (BasePoint("north", q, rng.standard_normal(2)),
            BaseTangent.of(rng.standard_normal(2), rng.standard_normal(2)))


def plane_sample(rng, chart="main"):
    return (BasePoint(chart, rng.uniform(-1, 1, 2), rng.standard_normal(2)),
            BaseTangent.of(rng.standard_normal(2), rng.standard_normal(2)))


def test_criterion_01_gram_oracle():
    start = time.perf_counter()
    worst = 0.0
    for two_j in range(0, 11):
        spec = OrbitSpec(two_j)
        basis = build_basis(spec)
        exact = exact_monomial_norms_sq(spec)
        worst = max(worst, float(np.max(np.abs(basis.norms**2 - exact) / exact)))
    elapsed = time.perf_counter() - start
    verdict(1, worst <= 1e-10 and elapsed < 1.0,
            f"Gram vs Beta closed form: rel err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)")


def test_criterion_02_spectrum_no_half_form():
    rng = np.random.default_rng(41)
    worst = 0.0
    for two_j in (1, 2, 3, 4):
        ctx = fiber_ctx(two_j)
        for _ in range(10):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            op = prequant_matrix(ctx["basis"], moment_hamiltonian(ctx["spec"], a))
            eig = np.sort(np.linalg.eigvalsh(op))
            worst = max(worst, float(np.max(np.abs(eig - np.arange(-ctx["spec"].j, ctx["spec"].j + 1)))))
    verdict(2, worst <= 1e-8,
            f"spectra of unit moment operators are {{-j..j}}: max dev {worst:.2e} (tol 1e-8)")


def test_criterion_03_dirac_condition():
    rng = np.random.default_rng(42)
    worst = 0.0
    signs = set()
    for two_j in (1, 2, 3, 4, 5):
        ctx = fiber_ctx(two_j)
        ops = np.array([
            prequant_matrix(ctx["basis"], moment_hamiltonian(ctx["spec"], e))
            for e in np.eye(3)
        ])
        for _ in range(20):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            oa = np.einsum("k,kij->ij", a, ops)
            ob = np.einsum("k,kij->ij", b, ops)
            oc = np.einsum("k,kij->ij", np.cross(a, b), ops)
            comm = oa @ ob - ob @ oa
            plus = float(np.linalg.norm(comm - 1j * oc, 2))
            minus = float(np.linalg.norm(comm + 1j * oc, 2))
            signs.add(+1 if plus < minus else -1)
            worst = max(worst, min(plus, minus))
    single = len(signs) == 1 and signs == {constants.S_DIRAC}
    verdict(3, worst <= 1e-8 and single,
            f"commutator law with one global sign {constants.S_DIRAC}: residual {worst:.2e} "
            f"(tol 1e-8), 100 pairs, two_j<=5")


def test_criterion_04_lift_orthogonality():
    rng = np.random.default_rng(43)
    ctx = fiber_ctx(2)
    mono = monopole_model(ctx["spec"])
    const = constant_model(ctx["spec"])
    worst = 0.0
    for model in (mono, const):
        for _ in range(50):
            b, v = monopole_sample(rng) if model.kind == "monopole" else plane_sample(rng)
            f = ChartPoint(Chart.NORTH, complex(rng.normal(), rng.normal()))
            xi = rng.standard_normal(2)
            worst = max(worst, lift_orthogonality_residual(model, b, v, f, xi))
    verdict(4, worst <= 1e-8,
            f"horizontal-lift orthogonality over 100 samples: residual {worst:.2e} (tol 1e-8)")


def test_criterion_05_polarization_preservation():
    rng = np.random.default_rng(44)
    ctx = fiber_ctx(2)
    moment_worst = 0.0
    for _ in range(10):
        w = moment_hamiltonian(ctx["spec"], rng.standard_normal(3))
        moment_worst = max(moment_worst, polarization_residual(ctx["basis"], w))
    for e in np.eye(3):
        moment_worst = max(moment_worst,
                           polarization_residual(ctx["basis"],
                                                 moment_hamiltonian(ctx["spec"], e)))
    quad = polarization_residual(ctx["basis"],
                                 squared_hamiltonian(moment_hamiltonian(ctx["spec"], [0, 0, 1])))
    ok = moment_worst <= 1e-8 and quad >= 1e3 * max(moment_worst, 1e-300) and quad >= 1e3 * 1e-8
    verdict(5, ok,
            f"moment flows preserve the polarization ({moment_worst:.2e} <= 1e-8); "
            f"quadratic counterexample leaks {quad:.2e} (>= 1e3 x)")


def test_criterion_06_gauge_law():
    rng = np.random.default_rng(45)
    ctx = fiber_ctx(2)
    mono = monopole_model(ctx["spec"])
    pure = pure_gauge_model(ctx["spec"])
    quad = quadrature_rep(ctx["basis"])
    worst = 0.0
    for _ in range(25):
        b, v = monopole_sample(rng, overlap=True)
        worst = max(worst, gauge_residual(mono, ctx["basis"], quad, b, v))
    for _ in range(25):
        b, v = plane_sample(rng, chart="flat")
        worst = max(worst, gauge_residual(pure, ctx["basis"], quad, b, v))
    verdict(6, worst <= 1e-6,
            f"gauge transformation law over 50 overlap samples: residual {worst:.2e} (tol 1e-6)")


def test_criterion_07_connection_equivalence():
    rng = np.random.default_rng(46)
    worst = 0.0
    for two_j in (1, 2, 3, 4):
        ctx = fiber_ctx(two_j)
        mono = monopole_model(ctx["spec"])
        const = constant_model(ctx["spec"])
        for model in (mono, const):
            for _ in range(13):
                b, v = monopole_sample(rng) if model.kind == "monopole" else plane_sample(rng)
                a_q = connection_rep(model, quadrature_rep(ctx["basis"]), b, v)
                a_r = connection_rep(model, ctx["rep"], b, v)
                worst = max(worst, float(np.linalg.norm(a_q - a_r, 2)))
    verdict(7, worst <= 1e-8,
            f"quadrature connection equals representation connection: {worst:.2e} "
            f"(tol 1e-8), 104 samples, two_j<=4")


def test_criterion_08_monopole_holonomy():
    start = time.perf_counter()
    worst = 0.0
    for two_j in (1, 2, 4):
        ctx = fiber_ctx(two_j)
        model = monopole_model(ctx["spec"])
        m = np.arange(ctx["spec"].j, -ctx["spec"].j - 1.0, -1.0)
        for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3):
            hol, _ = wilson_loop(model, ctx["basis"], latitude_path(theta),
                                 rep=ctx["rep"], steps=10000)
            solid = 2 * np.pi * (1 - np.cos(theta))
            expected = np.diag(np.exp(1j * constants.MONOPOLE_HOLONOMY_SIGN * m * solid))
            worst = max(worst, float(np.linalg.norm(hol - expected, 2)))
    elapsed = time.perf_counter() - start
    verdict(8, worst <= 1e-6 and elapsed < 10.0,
            f"latitude-loop phases follow the solid-angle law: {worst:.2e} (tol 1e-6), "
            f"{elapsed:.1f}s (< 10s)")


def test_criterion_09_nonabelian_transport_oracle():
    ctx = fiber_ctx(2)
    const = constant_model(ctx["spec"])
    res_x = transport(const, ctx["basis"], segment_path([0, 0], [1, 0]), rep=ctx["rep"], steps=4000)
    res_y = transport(const, ctx["basis"], segment_path([0, 0], [0, 1]), rep=ctx["rep"], steps=4000)
    err_x = float(np.linalg.norm(res_x.unitary - matrix_exp(ctx["rep"].matrices[0]), 2))
    err_y = float(np.linalg.norm(res_y.unitary - matrix_exp(ctx["rep"].matrices[1]), 2))
    order_gap = float(np.linalg.norm(res_y.unitary @ res_x.unitary
                                     - res_x.unitary @ res_y.unitary, 2))
    ok = max(err_x, err_y) <= 1e-8 and order_gap > 0.1
    verdict(9, ok,
            f"segment transport matches matrix exponential ({max(err_x, err_y):.2e} <= 1e-8); "
            f"orderings differ by {order_gap:.2f} (> 0.1)")


def test_criterion_10_total_space_reconstruction():
    ctx = fiber_ctx(2)
    mono = monopole_model(ctx["spec"])
    const = constant_model(ctx["spec"])
    worst = 0.0
    ratios = []
    cases = [
        (mono, latitude_path(np.pi / 3)),
        (const, segment_path([0, 0], [1, 0.5], p_from=[0.3, -0.2], p_to=[0.1, 0.4])),
    ]
    for model, path in cases:
        stored = transport(model, ctx["basis"], path, rep=ctx["rep"], steps=10000, store=True)
        base = covariant_residual_total_space(model, ctx["basis"], path, stored)
        bad = covariant_residual_total_space(
            model, ctx["basis"], path, stored,
            corruption=lambda t: np.exp(1j * 1e-2 * np.sin(2 * np.pi * t)))
        worst = max(worst, base)
        ratios.append(bad / max(base, 1e-300))
    ok = worst <= 1e-5 and min(ratios) >= 10.0
    verdict(10, ok,
            f"lifted-section equation holds along transported paths: residual {worst:.2e} "
            f"(tol 1e-5); corruption raises it {min(ratios):.1f}x (>= 10x)")


def test_criterion_11_rk4_order():
    ctx = fiber_ctx(2)
    mono = monopole_model(ctx["spec"])
    lat = latitude_path(2 * np.pi / 3)
    reference = transport(mono, ctx["basis"], lat, rep=ctx["rep"], steps=1000000)
    err_n = float(np.linalg.norm(
        transport(mono, ctx["basis"], lat, rep=ctx["rep"], steps=1000).unitary
        - reference.unitary, 2))
    err_2n = float(np.linalg.norm(
        transport(mono, ctx["basis"], lat, rep=ctx["rep"], steps=2000).unitary
        - reference.unitary, 2))
    ratio = err_n / err_2n
    verdict(11, 12.0 <= ratio <= 20.0,
            f"transport error drops by {ratio:.1f}x on halving the step "
            f"(expected 12..20, reference 1e6 steps)")


def test_criterion_12_representation_property():
    rng = np.random.default_rng(47)
    worst = 0.0
    for two_j in (1, 2, 3, 5):  # includes half-integer spins
        ctx = fiber_ctx(two_j)
        for _ in range(25):
            g1, g2 = random_su2(rng), random_su2(rng)
            x1 = quantize_transition(ctx["basis"], g1)
            x2 = quantize_transition(ctx["basis"], g2)
            x12 = quantize_transition(ctx["basis"], g1 @ g2)
            worst = max(worst, float(np.linalg.norm(x12 - x1 @ x2, 2)))
    verdict(12, worst <= 1e-9,
            f"quantized transitions form a true representation: {worst:.2e} "
            f"(tol 1e-9), 100 pairs incl. half-integer spins")
