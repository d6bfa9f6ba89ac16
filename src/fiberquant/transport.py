"""Parallel transport of vector wavefunctions along base paths.

A ``BasePath`` is one map per chart, t -> (q, p, dq, dp): the connection
reads q and dq, the canonical-form pairing <alpha_B, v> = p . dq.  The
transported object is a column coefficient vector Psi; the solver
integrates W' = (i <alpha_B, v> I + A(v(t))) W with W(0) = I by fixed-step
RK4, splitting the scalar phase from the unitary factor.  Chart crossings
insert the quantized transition matrix of the registered overlap on the
left.  Holonomy, covariant sections on T*Q with the vertical polarization,
and the total-space reconstruction check live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import constants
from .errors import AccuracyFailure, ChartError, InvalidArgument
from .fiberq import FiberBasis, quantize_transition
from .gauge import (
    BasePoint,
    BaseTangent,
    GaugeModel,
    LieAlgebraRep,
    check_spin,
    connection_rep_batch,
    orbit_function,
)
from .numerics import rk4_step
from .orbit import Chart, ChartPoint, hamiltonian_field_complex, theta_dz

_CHUNK_STEPS = 32768


@dataclass(frozen=True)
class BasePath:
    """Curve t -> (q(t), p(t)) on T*Q with its velocity, as one map per chart.

    ``at(chart, t)`` takes a chart name and an array of parameters and
    returns ``(q, p, dq, dp)``, each shaped t.shape + (2,); it raises
    ChartError in a chart where the path is not defined.
    """

    at: Callable[[str, np.ndarray], tuple]
    start_chart: str


def segment_path(q_from, q_to, p_from=None, p_to=None, chart: str = "main") -> BasePath:
    q0 = np.asarray(q_from, dtype=float)
    p0 = np.zeros(2) if p_from is None else np.asarray(p_from, dtype=float)
    dq = np.asarray(q_to, dtype=float) - q0
    dp = np.zeros(2) if p_to is None else np.asarray(p_to, dtype=float) - p0

    def at(chart_name, t):
        t = np.asarray(t, dtype=float)[..., None]
        ones = np.ones_like(t)
        return q0 + t * dq, p0 + t * dp, ones * dq, ones * dp

    return BasePath(at=at, start_chart=chart)


def _sphere_sign(chart: str, what: str) -> float:
    """+1 in the north chart, -1 in the south chart; ChartError elsewhere."""
    if chart not in ("north", "south"):
        raise ChartError(f"{what} path not defined in chart {chart!r}")
    return 1.0 if chart == "north" else -1.0


def latitude_path(theta: float, winds: int = 1, phi0: float = 0.0) -> BasePath:
    """Latitude loop on the sphere base at colatitude theta, p = 0."""
    if not 0.0 < theta < np.pi:
        raise InvalidArgument(f"latitude requires 0 < theta < pi, got {theta}")
    r_n = np.tan(theta / 2.0)
    rate = 2.0 * np.pi * winds

    def at(chart, t):
        s = _sphere_sign(chart, "latitude")
        r = r_n if s > 0.0 else 1.0 / r_n
        phi = phi0 + rate * np.asarray(t, dtype=float)
        cos, sin = np.cos(phi), np.sin(phi)
        q = np.stack([r * cos, s * r * sin], axis=-1)
        dq = np.stack([-r * sin * rate, s * r * cos * rate], axis=-1)
        return q, np.zeros_like(q), dq, np.zeros_like(dq)

    start = "north" if theta <= 3.0 * np.pi / 4.0 else "south"
    return BasePath(at=at, start_chart=start)


def meridian_path() -> BasePath:
    """Great-circle loop through both poles (down at azimuth 0, up at pi)."""

    def at(chart, t):
        angle = np.pi * np.asarray(t, dtype=float)
        u1 = np.tan(angle)
        if _sphere_sign(chart, "meridian") > 0.0:
            d = np.pi / np.cos(angle) ** 2
        else:
            with np.errstate(divide="ignore"):  # the north pole, t = 0, is at infinity
                u1 = np.where(u1 != 0.0, 1.0 / u1, np.inf)
                d = -np.pi / np.sin(angle) ** 2
        q = np.stack([u1, np.zeros_like(u1)], axis=-1)
        dq = np.stack([d, np.zeros_like(d)], axis=-1)
        return q, np.zeros_like(q), dq, np.zeros_like(dq)

    return BasePath(at=at, start_chart="north")


def phase_circle_path(center_q, radius: float, plane: int = 0, chart: str = "main") -> BasePath:
    """Circle in one (q_k, p_k) phase plane; encloses area pi r^2."""
    c = np.asarray(center_q, dtype=float)

    def at(chart_name, t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        cos, sin = np.cos(ang), np.sin(ang)
        q = np.broadcast_to(c, t.shape + (2,)).copy()
        p, dq, dp = np.zeros((3,) + t.shape + (2,))
        q[..., plane] = c[plane] + radius * cos
        p[..., plane] = -radius * sin
        dq[..., plane] = -2.0 * np.pi * radius * sin
        dp[..., plane] = -2.0 * np.pi * radius * cos
        return q, p, dq, dp

    return BasePath(at=at, start_chart=chart)


def momentum_circle_path(q_fixed, p_center, radius: float, chart: str = "main") -> BasePath:
    """Loop over a fixed configuration point with p tracing a circle."""
    q0 = np.asarray(q_fixed, dtype=float)
    pc = np.asarray(p_center, dtype=float)

    def at(chart_name, t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        cos, sin = np.cos(ang), np.sin(ang)
        q = np.broadcast_to(q0, t.shape + (2,)).copy()
        p = np.stack([pc[0] + radius * cos, pc[1] + radius * sin], axis=-1)
        dp = 2.0 * np.pi * np.stack([-radius * sin, radius * cos], axis=-1)
        return q, p, np.zeros(t.shape + (2,)), dp

    return BasePath(at=at, start_chart=chart)


@dataclass(frozen=True)
class TransportResult:
    """Transport operator exp(i alpha_phase) unitary over [0, 1].  With store=True,
    ``nodes`` holds one (t, W, phase, chart) per RK4 node from (0.0, I, 0.0, start
    chart) to (1.0, unitary, alpha_phase, end chart); at a crossing, W and chart
    are those after the inserted transition."""

    unitary: np.ndarray
    alpha_phase: float
    steps: int
    unitarity_deviation: float
    chart_log: tuple
    nodes: tuple | None = None


@dataclass(frozen=True)
class BundleSection:
    q_grid: np.ndarray
    p_grid: np.ndarray
    values: np.ndarray
    residual: float


def _generator_batch(model, rep, chart, path, ts):
    """Connection values A(v(t)) and canonical-form pairings along the path.

    The scalar i <alpha_B, v> I part of the transport generator commutes
    with everything, so its integral is accumulated separately and the
    matrix ODE integrates the connection part alone; the full transport
    operator is exp(i alpha_phase) times the returned unitary.
    """
    q, p, dq, _ = path.at(chart, ts)
    return connection_rep_batch(model, rep, chart, q, dq), np.einsum("...k,...k->...", p, dq)


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Pairwise-reduced product mats[-1] @ ... @ mats[0]."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2 == 1:
            tail = mats[-1:]
            paired = np.matmul(mats[1:-1:2], mats[0:-1:2])
            mats = np.concatenate([paired, tail], axis=0)
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


def _step_maps(model, rep, path, chart, t0, t1, n_steps):
    """RK4 step maps W(t) -> W(t + h) of n_steps equal steps over [t0, t1] in one chart.

    Yields (step end times, step maps, Simpson phases) a chunk of at most
    _CHUNK_STEPS steps at a time."""
    n_steps = max(int(n_steps), 1)
    h = (t1 - t0) / n_steps
    eye = np.eye(model.spec.dim, dtype=complex)
    for c0 in range(0, n_steps, _CHUNK_STEPS):
        c1 = min(c0 + _CHUNK_STEPS, n_steps)
        ts = t0 + (t1 - t0) * np.arange(2 * c0, 2 * c1 + 1) / (2.0 * n_steps)
        g, alpha = _generator_batch(model, rep, chart, path, ts)
        g0, g1, g2 = g[0:-1:2], g[1::2], g[2::2]
        a2 = g1 + (0.5 * h) * np.matmul(g1, g0)
        a3 = g1 + (0.5 * h) * np.matmul(g1, a2)
        a4 = g2 + h * np.matmul(g2, a3)
        yield (ts[2::2], eye + (h / 6.0) * (g0 + 2.0 * a2 + 2.0 * a3 + a4),
               (h / 6.0) * (alpha[0:-1:2] + 4.0 * alpha[1::2] + alpha[2::2]))


def transport(
    model: GaugeModel,
    basis: FiberBasis,
    path: BasePath,
    *,
    rep: LieAlgebraRep,
    steps: int | None = None,
    forced_switches=None,
    store: bool = False,
) -> TransportResult:
    """Path-ordered transport over [0, 1] with chart-crossing insertions.

    The connection is the potential contracted with ``rep``: the generators
    of ``gauge.build_rep`` or of ``gauge.quadrature_rep``.  The model, the
    basis and the rep must share one spin.
    """
    if steps is None:
        steps = constants.RK4_STEPS_PER_UNIT
    if steps < 1:
        raise InvalidArgument(f"transport needs at least one step per unit, got steps = {steps}")
    check_spin(basis, "model", model.spec.two_j)
    check_spin(basis, "rep", rep.matrices.shape[-1] - 1)

    chart = path.start_chart
    if chart not in model.charts:
        raise ChartError(f"path start chart {chart!r} unknown to the model")

    w = np.eye(model.spec.dim, dtype=complex)
    phase = 0.0
    nodes = [(0.0, w, phase, chart)]
    chart_log = [(0.0, chart)]

    def run_span(t0: float, t1: float, n_steps: int) -> None:
        nonlocal w, phase
        for times, maps, phases in _step_maps(model, rep, path, chart, t0, t1, n_steps):
            if store:
                for t, step_map, step_phase in zip(times, maps, phases):
                    w = step_map @ w
                    phase += float(step_phase)
                    nodes.append((float(t), w, phase, chart))
            else:
                w = _ordered_product(maps) @ w
                phase += float(np.sum(phases))

    def do_insert(t_cross: float, from_chart: str, target: str) -> None:
        nonlocal chart, w
        overlap = model.overlaps.get((from_chart, target))
        if overlap is None:
            raise ChartError(f"no registered transition {from_chart!r} -> {target!r} at t = {t_cross:.6f}")
        q_here = path.at(from_chart, np.array([t_cross]))[0][0]
        w = quantize_transition(basis, overlap.transition(q_here)) @ w
        nodes[-1] = (nodes[-1][0], w, phase, target)
        chart = target
        chart_log.append((t_cross, target))

    t_now = 0.0
    for t_stop, stop_chart in sorted(forced_switches or []) + [(1.0, None)]:
        while t_now < t_stop - 1e-15:
            n_span = max(int(np.ceil(steps * (t_stop - t_now))), 1)
            ts = np.linspace(t_now, t_stop, n_span + 1)
            boundary = model.charts[chart].boundary
            exit_idx = None
            if boundary is not None:
                q_nodes = path.at(chart, ts)[0]
                bvals = np.atleast_1d(boundary(q_nodes))
                outside = np.nonzero(bvals > 0.0)[0]
                if outside.size:
                    exit_idx = int(outside[0])
                    if exit_idx == 0:
                        raise ChartError(f"path starts outside chart {chart!r}")
            if exit_idx is None:
                run_span(t_now, t_stop, n_span)
                t_now = t_stop
            else:
                if exit_idx > 1:
                    run_span(t_now, ts[exit_idx - 1], exit_idx - 1)
                t_in = ts[exit_idx - 1]
                t_cross = _bisect_boundary(path, chart, boundary, t_in, ts[exit_idx])
                if t_cross - t_in > constants.CROSSING_BISECT_TOL:
                    run_span(t_in, t_cross, 1)
                target = model.other_chart(chart)
                if target is None:
                    raise ChartError(f"path leaves chart {chart!r} with no overlap registered")
                do_insert(t_cross, chart, target)
                t_now = t_cross
        if stop_chart is not None and stop_chart != chart:
            do_insert(t_stop, chart, stop_chart)

    dev = float(np.linalg.norm(w.conj().T @ w - np.eye(model.spec.dim), 2))
    if not dev <= 1e-6:
        raise AccuracyFailure(f"transport unitarity deviation {dev:.2e} exceeds 1e-6")
    return TransportResult(w, phase, steps, dev, tuple(chart_log), tuple(nodes) if store else None)


def _bisect_boundary(path, chart, boundary, t_lo, t_hi):
    """Bisect the boundary zero between t_lo (inside) and t_hi (outside)."""
    lo, hi = t_lo, t_hi
    while hi - lo > constants.CROSSING_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        q = path.at(chart, np.array([mid]))[0][0]
        if float(boundary(q[None, :])[0]) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reverse_path(path: BasePath) -> BasePath:
    def at(chart, t):
        q, p, dq, dp = path.at(chart, 1.0 - np.asarray(t, dtype=float))
        return q, p, -dq, -dp

    return BasePath(at=at, start_chart=path.start_chart)


def wilson_loop(
    model: GaugeModel,
    basis: FiberBasis,
    loop: BasePath,
    *,
    rep: LieAlgebraRep,
    steps: int | None = None,
) -> tuple[np.ndarray, complex]:
    """Holonomy matrix and trace around a closed base loop."""
    q0, p0, _, _ = loop.at(loop.start_chart, np.array([0.0]))
    q1, p1, _, _ = loop.at(loop.start_chart, np.array([1.0]))
    gap = float(np.max(np.abs(q1 - q0)) + np.max(np.abs(p1 - p0)))
    if not gap <= 1e-12:
        raise InvalidArgument(f"loop is not closed (endpoint gap {gap:.2e})")
    result = transport(model, basis, loop, rep=rep, steps=steps)
    hol = np.exp(1j * result.alpha_phase) * result.unitary
    return hol, complex(np.trace(hol))


def covariant_section_solve(model: GaugeModel, psi0, q_grid, p_grid) -> BundleSection:
    """Covariant-constant extension along the vertical polarization of T*Q.

    The potential is pulled back from Q, so vertical directions carry no
    connection and no canonical-form pairing: the solution is constant in
    p.  The reported residual is the grid derivative of the extension
    along p, identically zero for this construction.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    n = model.spec.dim
    base_vals = np.array([np.asarray(psi0(q), dtype=complex) for q in q_grid])
    if base_vals.shape[1:] != (n,):
        raise InvalidArgument(f"boundary data must produce vectors of length {n}")
    values = np.broadcast_to(base_vals[:, None, :], (q_grid.shape[0], p_grid.shape[0], n)).copy()
    residual = 0.0
    if p_grid.shape[0] > 1:
        residual = float(np.max(np.abs(np.diff(values, axis=1))))
    return BundleSection(q_grid=q_grid, p_grid=p_grid, values=values, residual=residual)


_FIBER_SAMPLES = (0.3 + 0.2j, -0.5 + 0.1j, 0.8j, 1.2 - 0.7j, -0.2 - 0.4j)


def covariant_residual_total_space(
    model: GaugeModel,
    basis: FiberBasis,
    path: BasePath,
    result: TransportResult,
    corruption: Callable[[float], complex] | None = None,
) -> float:
    """Defect of the lifted-section equation along the transported path.

    Reconstructs psi(t, f) = sum_mu Psi_mu(t) e_mu(f), for the uniform
    initial vector Psi(0), on the horizontal lift of five fixed fiber
    points and compares its parameter derivative (central differences
    along the lift) against i <alpha_total, lift> psi.  Requires a
    transport result computed with store=True.
    """
    nodes = result.nodes
    if nodes is None:
        raise InvalidArgument("transport result must be computed with store=True")
    check_spin(basis, "model", model.spec.two_j)
    spec = basis.spec
    psi0 = np.ones(spec.dim, dtype=complex) / np.sqrt(spec.dim)

    count = len(nodes)
    sample_idx = [int(frac * (count - 1)) for frac in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)]
    worst = 0.0

    def coeffs_at(idx: int) -> np.ndarray:
        t, w, phase, _ = nodes[idx]
        c = np.exp(1j * phase) * (w @ psi0)
        if corruption is not None:
            c = corruption(t) * c
        return c

    z0 = np.asarray(_FIBER_SAMPLES, dtype=complex)
    pt = ChartPoint(Chart.NORTH, z0)
    vals_mid = basis.eval(z0)
    for idx in sample_idx:
        if idx <= 0 or idx >= count - 1:
            continue
        (t_lo, _, _, chart_lo), (t0, _, _, chart), (t_hi, _, _, chart_hi) = nodes[idx - 1:idx + 2]
        h = t_hi - t0
        if not chart_lo == chart == chart_hi or abs(h - (t0 - t_lo)) > 1e-12:
            continue  # the stencil must be even and must not straddle a chart crossing
        q, p, dq, dp = path.at(chart, np.array([t0]))
        w = orbit_function(model, BasePoint(chart, q[0], p[0]), BaseTangent(dq=dq[0], dp=dp[0]))
        alpha_b = float(np.dot(p[0], dq[0]))

        def fiber_velocity(t, zz):
            qq, pp, dqq, dpp = path.at(chart, np.array([t]))
            ww = orbit_function(model, BasePoint(chart, qq[0], pp[0]), BaseTangent(dq=dqq[0], dp=dpp[0]))
            return -hamiltonian_field_complex(spec, ww, ChartPoint(Chart.NORTH, zz))

        # All fiber points march together: one field evaluation per RK4 stage.
        z_plus = rk4_step(fiber_velocity, t0, z0, h)
        z_minus = rk4_step(fiber_velocity, t0, z0, -h)
        psi_mid = coeffs_at(idx) @ vals_mid
        deriv = (coeffs_at(idx + 1) @ basis.eval(z_plus) - coeffs_at(idx - 1) @ basis.eval(z_minus)) / (2.0 * h)
        pairing = alpha_b + w.value(pt) - theta_dz(spec, pt) * hamiltonian_field_complex(spec, w, pt)
        worst = max(worst, float(np.max(np.abs(deriv - 1j * pairing * psi_mid), initial=0.0)))
    return worst
