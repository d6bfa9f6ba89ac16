"""Parallel transport of vector wavefunctions along base paths.

The transported object is a column coefficient vector Psi; the solver
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
from .errors import AccuracyFailure, ChartError, InvalidArgument, UnsupportedPolarization
from .fiberq import FiberBasis, quantize_transition
from .gauge import (
    BasePoint,
    BaseTangent,
    GaugeModel,
    LieAlgebraRep,
    connection_rep_batch,
    orbit_function,
)
from .numerics import rk4_step
from .orbit import (
    Chart,
    ChartPoint,
    OrbitGeometry,
    hamiltonian_field_complex,
    theta_dz,
)

_CHUNK_STEPS = 32768


@dataclass(frozen=True)
class BasePath:
    """Curve t -> (q(t), p(t)) expressible in one or more base charts.

    ``position``/``velocity`` accept a chart name and an array of
    parameters and return a pair of arrays shaped (..., 2).
    """

    charts: tuple
    position: Callable[[str, np.ndarray], tuple]
    velocity: Callable[[str, np.ndarray], tuple]
    start_chart: str
    closed: bool = False
    label: str = ""


def segment_path(q_from, q_to, p_from=None, p_to=None, chart: str = "main") -> BasePath:
    q0 = np.asarray(q_from, dtype=float)
    q1 = np.asarray(q_to, dtype=float)
    p0 = np.zeros(2) if p_from is None else np.asarray(p_from, dtype=float)
    p1 = p0 if p_to is None else np.asarray(p_to, dtype=float)

    def position(chart_name, t):
        t = np.asarray(t, dtype=float)[..., None]
        return q0 + t * (q1 - q0), p0 + t * (p1 - p0)

    def velocity(chart_name, t):
        t = np.asarray(t, dtype=float)
        shape = t.shape + (2,)
        return np.broadcast_to(q1 - q0, shape).copy(), np.broadcast_to(p1 - p0, shape).copy()

    return BasePath(charts=(chart,), position=position, velocity=velocity,
                    start_chart=chart,
                    closed=bool(np.allclose(q0, q1) and np.allclose(p0, p1)),
                    label="segment")


def latitude_path(theta: float, winds: int = 1, phi0: float = 0.0) -> BasePath:
    """Latitude loop on the sphere base at colatitude theta, p = 0."""
    if not 0.0 < theta < np.pi:
        raise InvalidArgument(f"latitude requires 0 < theta < pi, got {theta}")
    r_n = np.tan(theta / 2.0)
    r_s = 1.0 / r_n

    def position(chart, t):
        t = np.asarray(t, dtype=float)
        phi = phi0 + 2.0 * np.pi * winds * t
        if chart == "north":
            q = np.stack([r_n * np.cos(phi), r_n * np.sin(phi)], axis=-1)
        elif chart == "south":
            q = np.stack([r_s * np.cos(phi), -r_s * np.sin(phi)], axis=-1)
        else:
            raise ChartError(f"latitude path not defined in chart {chart!r}")
        return q, np.zeros_like(q)

    def velocity(chart, t):
        t = np.asarray(t, dtype=float)
        phi = phi0 + 2.0 * np.pi * winds * t
        rate = 2.0 * np.pi * winds
        if chart == "north":
            dq = np.stack([-r_n * np.sin(phi) * rate, r_n * np.cos(phi) * rate], axis=-1)
        elif chart == "south":
            dq = np.stack([-r_s * np.sin(phi) * rate, -r_s * np.cos(phi) * rate], axis=-1)
        else:
            raise ChartError(f"latitude path not defined in chart {chart!r}")
        return dq, np.zeros_like(dq)

    start = "north" if theta <= 3.0 * np.pi / 4.0 else "south"
    return BasePath(charts=("north", "south"), position=position, velocity=velocity,
                    start_chart=start, closed=True, label=f"latitude(theta={theta})")


def meridian_path() -> BasePath:
    """Great-circle loop through both poles (down at azimuth 0, up at pi)."""

    def position(chart, t):
        u1 = np.tan(np.pi * np.asarray(t, dtype=float))
        if chart == "north":
            q = np.stack([u1, np.zeros_like(u1)], axis=-1)
        elif chart == "south":
            with np.errstate(divide="ignore"):
                q = np.stack([np.where(u1 != 0.0, 1.0 / u1, np.inf), np.zeros_like(u1)], axis=-1)
        else:
            raise ChartError(f"meridian path not defined in chart {chart!r}")
        return q, np.zeros_like(q)

    def velocity(chart, t):
        t = np.asarray(t, dtype=float)
        if chart == "north":
            d = np.pi / np.cos(np.pi * t) ** 2
        elif chart == "south":
            d = -np.pi / np.sin(np.pi * t) ** 2
        else:
            raise ChartError(f"meridian path not defined in chart {chart!r}")
        dq = np.stack([d, np.zeros_like(d)], axis=-1)
        return dq, np.zeros_like(dq)

    return BasePath(charts=("north", "south"), position=position, velocity=velocity,
                    start_chart="north", closed=True, label="meridian")


def phase_circle_path(center_q, radius: float, plane: int = 0, chart: str = "main") -> BasePath:
    """Circle in one (q_k, p_k) phase plane; encloses area pi r^2."""
    c = np.asarray(center_q, dtype=float)

    def position(chart_name, t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        q = np.broadcast_to(c, t.shape + (2,)).copy()
        p = np.zeros(t.shape + (2,))
        q[..., plane] = c[plane] + radius * np.cos(ang)
        p[..., plane] = -radius * np.sin(ang)
        return q, p

    def velocity(chart_name, t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        dq = np.zeros(t.shape + (2,))
        dp = np.zeros(t.shape + (2,))
        dq[..., plane] = -2.0 * np.pi * radius * np.sin(ang)
        dp[..., plane] = -2.0 * np.pi * radius * np.cos(ang)
        return dq, dp

    return BasePath(charts=(chart,), position=position, velocity=velocity,
                    start_chart=chart, closed=True, label="phase_circle")


def momentum_circle_path(q_fixed, p_center, radius: float, chart: str = "main") -> BasePath:
    """Loop over a fixed configuration point with p tracing a circle."""
    q0 = np.asarray(q_fixed, dtype=float)
    pc = np.asarray(p_center, dtype=float)

    def position(chart_name, t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        q = np.broadcast_to(q0, t.shape + (2,)).copy()
        p = np.stack([pc[0] + radius * np.cos(ang), pc[1] + radius * np.sin(ang)], axis=-1)
        return q, p

    def velocity(chart_name, t):
        t = np.asarray(t, dtype=float)
        ang = 2.0 * np.pi * t
        dq = np.zeros(t.shape + (2,))
        dp = 2.0 * np.pi * np.stack([-radius * np.sin(ang), radius * np.cos(ang)], axis=-1)
        return dq, dp

    return BasePath(charts=(chart,), position=position, velocity=velocity,
                    start_chart=chart, closed=True, label="momentum_circle")


@dataclass(frozen=True)
class TransportResult:
    unitary: np.ndarray
    alpha_phase: float
    steps: int
    unitarity_deviation: float
    chart_log: tuple
    times: np.ndarray | None = None
    unitaries: np.ndarray | None = None
    phases: np.ndarray | None = None
    node_charts: tuple | None = None


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
    q, p = path.position(chart, ts)
    dq, _ = path.velocity(chart, ts)
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


class _Integrator:
    """Stateful RK4 march with optional per-node storage."""

    def __init__(self, model, rep, path, store):
        self.model = model
        self.rep = rep
        self.path = path
        self.store = store
        self.w = np.eye(model.spec.dim, dtype=complex)
        self.phase = 0.0
        self.times = [0.0]
        self.mats = [self.w.copy()]
        self.phases = [0.0]
        self.node_charts = [path.start_chart]

    def run_span(self, t0: float, t1: float, chart: str, n_steps: int) -> None:
        n_steps = max(int(n_steps), 1)
        h = (t1 - t0) / n_steps
        eye = np.eye(self.w.shape[0], dtype=complex)
        for c0 in range(0, n_steps, _CHUNK_STEPS):
            c1 = min(c0 + _CHUNK_STEPS, n_steps)
            ts = t0 + (t1 - t0) * np.arange(2 * c0, 2 * c1 + 1) / (2.0 * n_steps)
            g, alpha = _generator_batch(self.model, self.rep, chart, self.path, ts)
            g0, g1, g2 = g[0:-1:2], g[1::2], g[2::2]
            a1 = g0
            a2 = g1 + (0.5 * h) * np.matmul(g1, a1)
            a3 = g1 + (0.5 * h) * np.matmul(g1, a2)
            a4 = g2 + h * np.matmul(g2, a3)
            step_maps = eye + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            step_phases = (h / 6.0) * (alpha[0:-1:2] + 4.0 * alpha[1::2] + alpha[2::2])
            if self.store:
                for k in range(step_maps.shape[0]):
                    self.w = step_maps[k] @ self.w
                    self.phase += float(step_phases[k])
                    self.times.append(float(ts[2 * k + 2]))
                    self.mats.append(self.w.copy())
                    self.phases.append(self.phase)
                    self.node_charts.append(chart)
            else:
                self.w = _ordered_product(step_maps) @ self.w
                self.phase += float(np.sum(step_phases))

    def insert(self, matrix: np.ndarray, chart: str) -> None:
        self.w = matrix @ self.w
        if self.store:
            self.mats[-1] = self.w.copy()
            self.node_charts[-1] = chart


def transport(
    model: GaugeModel,
    basis: FiberBasis,
    path: BasePath,
    *,
    rep: LieAlgebraRep | None = None,
    steps: int | None = None,
    forced_switches=None,
    store: bool = False,
) -> TransportResult:
    """Path-ordered transport over [0, 1] with chart-crossing insertions.

    The connection is the potential contracted with ``rep``: by default
    ``build_rep``, or the generators of ``gauge.quadrature_rep``.
    """
    if steps is None:
        steps = constants.RK4_STEPS_PER_UNIT
    if steps < 1:
        raise InvalidArgument(f"transport needs at least one step per unit, got steps = {steps}")
    if rep is None:
        from .gauge import build_rep

        rep = build_rep(model.spec, basis)

    chart = path.start_chart
    if chart not in model.charts:
        raise ChartError(f"path start chart {chart!r} unknown to the model")

    integ = _Integrator(model, rep, path, store)
    chart_log = [(0.0, chart)]

    def do_insert(t_cross: float, from_chart: str, to_chart: str) -> None:
        nonlocal chart
        key = (from_chart, to_chart)
        if key not in model.transitions:
            raise ChartError(f"no registered transition {from_chart!r} -> {to_chart!r} at t = {t_cross:.6f}")
        q_here = path.position(from_chart, np.array([t_cross]))[0][0]
        x = quantize_transition(model.spec, basis, model.transitions[key](q_here)).matrix
        integ.insert(x, to_chart)
        chart = to_chart
        chart_log.append((t_cross, to_chart))

    boundary_tol = constants.CROSSING_BISECT_TOL
    stops = sorted(forced_switches) if forced_switches else []
    stops = stops + [(1.0, None)]
    t_now = 0.0
    for t_stop, stop_chart in stops:
        while t_now < t_stop - 1e-15:
            n_span = max(int(np.ceil(steps * (t_stop - t_now))), 1)
            ts = np.linspace(t_now, t_stop, n_span + 1)
            boundary = model.charts[chart].boundary
            exit_idx = None
            if boundary is not None:
                q_nodes = path.position(chart, ts)[0]
                bvals = np.atleast_1d(boundary(q_nodes))
                outside = np.nonzero(bvals > 0.0)[0]
                if outside.size:
                    exit_idx = int(outside[0])
                    if exit_idx == 0:
                        raise ChartError(f"path starts outside chart {chart!r}")
            if exit_idx is None:
                integ.run_span(t_now, t_stop, chart, n_span)
                t_now = t_stop
            else:
                if exit_idx > 1:
                    integ.run_span(t_now, ts[exit_idx - 1], chart, exit_idx - 1)
                t_in = ts[exit_idx - 1]
                t_cross = _bisect_boundary(path, chart, boundary, t_in, ts[exit_idx])
                if t_cross - t_in > boundary_tol:
                    integ.run_span(t_in, t_cross, chart, 1)
                target = model.other_chart(chart)
                if target is None:
                    raise ChartError(f"path leaves chart {chart!r} with no overlap registered")
                do_insert(t_cross, chart, target)
                t_now = t_cross
        if stop_chart is not None and stop_chart != chart:
            do_insert(t_stop, chart, stop_chart)

    n = model.spec.dim
    dev = float(np.linalg.norm(integ.w.conj().T @ integ.w - np.eye(n), 2))
    if not dev <= 1e-6:
        raise AccuracyFailure(f"transport unitarity deviation {dev:.2e} exceeds 1e-6")
    return TransportResult(
        unitary=integ.w,
        alpha_phase=integ.phase,
        steps=steps,
        unitarity_deviation=dev,
        chart_log=tuple(chart_log),
        times=np.array(integ.times) if store else None,
        unitaries=np.array(integ.mats) if store else None,
        phases=np.array(integ.phases) if store else None,
        node_charts=tuple(integ.node_charts) if store else None,
    )


def _bisect_boundary(path, chart, boundary, t_lo, t_hi):
    """Bisect the boundary zero between t_lo (inside) and t_hi (outside)."""
    lo, hi = t_lo, t_hi
    while hi - lo > constants.CROSSING_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        q = path.position(chart, np.array([mid]))[0][0]
        if float(boundary(q[None, :])[0]) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reverse_path(path: BasePath) -> BasePath:
    def position(chart, t):
        return path.position(chart, 1.0 - np.asarray(t, dtype=float))

    def velocity(chart, t):
        dq, dp = path.velocity(chart, 1.0 - np.asarray(t, dtype=float))
        return -dq, -dp

    return BasePath(charts=path.charts, position=position, velocity=velocity,
                    start_chart=path.start_chart, closed=path.closed,
                    label=path.label + ":reversed")


def wilson_loop(
    model: GaugeModel,
    basis: FiberBasis,
    loop: BasePath,
    *,
    rep: LieAlgebraRep | None = None,
    steps: int | None = None,
    forced_switches=None,
) -> tuple[np.ndarray, complex]:
    """Holonomy matrix and trace around a closed base loop."""
    q0, p0 = loop.position(loop.start_chart, np.array([0.0]))
    q1, p1 = loop.position(loop.start_chart, np.array([1.0]))
    gap = float(np.max(np.abs(q1 - q0)) + np.max(np.abs(p1 - p0)))
    if not gap <= 1e-12:
        raise InvalidArgument(f"loop is not closed (endpoint gap {gap:.2e})")
    result = transport(model, basis, loop, rep=rep, steps=steps, forced_switches=forced_switches)
    hol = np.exp(1j * result.alpha_phase) * result.unitary
    return hol, complex(np.trace(hol))


def covariant_section_solve(model: GaugeModel, psi0, q_grid, p_grid) -> BundleSection:
    """Covariant-constant extension along the vertical polarization of T*Q.

    The potential is pulled back from Q, so vertical directions carry no
    connection and no canonical-form pairing: the solution is constant in
    p.  The reported residual is the grid derivative of the extension
    along p, identically zero for this construction.
    """
    if model.momentum_potential:
        raise UnsupportedPolarization("model potential has momentum components")
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


_DEFAULT_FIBER_SAMPLES = (0.3 + 0.2j, -0.5 + 0.1j, 0.8j, 1.2 - 0.7j, -0.2 - 0.4j)


def covariant_residual_total_space(
    model: GaugeModel,
    geom: OrbitGeometry,
    basis: FiberBasis,
    path: BasePath,
    result: TransportResult,
    fiber_points=_DEFAULT_FIBER_SAMPLES,
    psi0: np.ndarray | None = None,
    corruption: Callable[[float], complex] | None = None,
) -> float:
    """Defect of the lifted-section equation along the transported path.

    Reconstructs psi(t, f) = sum_mu Psi_mu(t) e_mu(f) on the horizontal
    lift and compares its parameter derivative (central differences along
    the lift) against i <alpha_total, lift> psi.  Requires a transport
    result computed with store=True.
    """
    if result.times is None:
        raise InvalidArgument("transport result must be computed with store=True")
    n = model.spec.dim
    if psi0 is None:
        psi0 = np.ones(n, dtype=complex) / np.sqrt(n)

    times = result.times
    count = len(times)
    sample_idx = [int(frac * (count - 1)) for frac in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)]
    worst = 0.0

    def coeffs_at(idx: int) -> np.ndarray:
        c = np.exp(1j * result.phases[idx]) * (result.unitaries[idx] @ psi0)
        if corruption is not None:
            c = corruption(float(times[idx])) * c
        return c

    z0 = np.asarray(fiber_points, dtype=complex)
    pt = ChartPoint(Chart.NORTH, z0)
    vals_mid = basis.eval(z0)
    for idx in sample_idx:
        if idx <= 0 or idx >= count - 1:
            continue
        chart = result.node_charts[idx]
        if result.node_charts[idx - 1] != chart or result.node_charts[idx + 1] != chart:
            continue  # stencil must not straddle a chart crossing
        t0 = float(times[idx])
        h_minus = t0 - float(times[idx - 1])
        h_plus = float(times[idx + 1]) - t0
        if abs(h_plus - h_minus) > 1e-12:
            continue
        h = h_plus
        q, p = path.position(chart, np.array([t0]))
        dq, dp = path.velocity(chart, np.array([t0]))
        w = orbit_function(model, BasePoint(chart, q[0], p[0]), BaseTangent(dq=dq[0], dp=dp[0]))
        alpha_b = float(np.dot(p[0], dq[0]))

        def fiber_velocity(t, zz):
            qq, pp = path.position(chart, np.array([t]))
            dqq, dpp = path.velocity(chart, np.array([t]))
            ww = orbit_function(model, BasePoint(chart, qq[0], pp[0]), BaseTangent(dq=dqq[0], dp=dpp[0]))
            return -hamiltonian_field_complex(geom, ww, ChartPoint(Chart.NORTH, zz))

        # All fiber points march together: one field evaluation per RK4 stage.
        z_plus = rk4_step(fiber_velocity, t0, z0, h)
        z_minus = rk4_step(fiber_velocity, t0, z0, -h)
        psi_mid = coeffs_at(idx) @ vals_mid
        deriv = (coeffs_at(idx + 1) @ basis.eval(z_plus) - coeffs_at(idx - 1) @ basis.eval(z_minus)) / (2.0 * h)
        pairing = alpha_b + w.value(pt) - theta_dz(geom, pt) * hamiltonian_field_complex(geom, w, pt)
        worst = max(worst, float(np.max(np.abs(deriv - 1j * pairing * psi_mid), initial=0.0)))
    return worst
