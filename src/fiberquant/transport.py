"""Parallel transport of vector wavefunctions along base paths.

A ``BasePath`` is one map per chart, t -> (q, p, dq): the connection
reads q and dq, the canonical-form pairing <alpha_B, v> = p . dq; the
minimal-coupling form p dq + <mu, A(dq)> + theta has no dp term, so a
path carries no momentum velocity, and a loop in p alone over a fixed q
has transport I and phase 0 on every model.  The transported object is
a column coefficient vector Psi; the solver integrates
W' = (i <alpha_B, v> I + A(v(t))) W with W(0) = I by fixed-step RK4,
splitting the scalar phase from the unitary factor.
A rep with a group action (``build_rep``) is the spin-j image of su(2),
so W is the lift X(U) of the 2x2 solution of U' = A_tau(v(t)) U.  U and
every RK4 stage, step map and product of that route are quaternions
[[a, b], [-conj(b), conj(a)]], so the route marches the pair (a, b) with
elementwise products, inserts the SU(2) transition g on the left at each
chart crossing and lifts once at the end.  A rep without one
(``quadrature_rep``) marches W in n x n with matmul and inserts X(g).  Step
maps and their products are carried in offset form, M - I, so that
near-identity factors do not round against I.  Either route is one march
in chunks that evaluate each node once and stop at the first step endpoint
outside the chart; it keeps one chunk and its running product, so its
memory does not grow with the step count.  A chunk reads its nodes as one
``BasePath.nodes`` grid, on which a curved path multiplies two tables of unit
phases: no sin or cos per node.
Holonomy and the total-space reconstruction check live here too; the check
reads Psi at its own stencil knots from one march that records each knot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import constants
from .errors import AccuracyFailure, ChartError, InvalidArgument
from .fiberq import FiberBasis, quantize_transition, spin_lift
from .gauge import (
    GaugeModel,
    LieAlgebraRep,
    check_spin,
    connection_rep_batch,
    orbit_function,
)
from .numerics import rk4_step, spectral_norm
from .orbit import Chart, ChartPoint, hamiltonian_field_complex, theta_dz
from .su2 import TAU, check_special_unitary

_CHUNK_STEPS = 8192
_UNIT_BLOCK = 128  # the block of _unit_grid's tables
# The march of a rep with a group action: the first rows (a, b) of the tau generators,
# so that connection values come out as quaternion pairs; contiguous for their float view.
_TAU_PAIRS = LieAlgebraRep(np.ascontiguousarray(TAU[:, 0, :]))


def _pair_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quaternion product on pairs (..., 2): (a1, b1)(a2, b2) = (a1 a2 - b1 conj(b2), a1 b2 + b1 conj(a2)),
    the first row of [[a1, b1], [-conj(b1), conj(a1)]] @ [[a2, b2], [-conj(b2), conj(a2)]].

    x and y are stacks of one shape, or one of them is a single pair.  The
    components are read through the transpose, so that a single pair, as in
    the crossing inserts and each chunk's apply, costs scalar arithmetic.
    A stack comes out component-major: (2, N) viewed as (N, 2)."""
    xt, yt = x.T, y.T
    a1, b1, a2, b2 = xt[0], xt[1], yt[0], yt[1]
    return np.array([a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)]).T


@dataclass(frozen=True)
class BasePath:
    """Curve t -> (q(t), p(t)) on T*Q with its base velocity, as one map per chart.

    ``at(chart, t)`` takes a chart name and an array of parameters and
    returns ``(q, p, dq)``, each shaped t.shape + (2,); it raises
    ChartError in a chart where the path is not defined.  The optional
    ``grid(chart, t0, dt, start, stop)`` returns them at the times t0 + j dt,
    start <= j < stop, equal to ``at`` there up to rounding, with bits that
    depend on j alone, so a march reads the same bits whatever its chunks.
    """

    at: Callable[[str, np.ndarray], tuple]
    start_chart: str
    grid: Callable[[str, float, float, int, int], tuple] | None = None

    def nodes(self, chart: str, t0: float, dt: float, start: int, stop: int) -> tuple:
        """The maps at the node times t0 + j dt, start <= j < stop: the grid's, or ``at``'s for a path without one."""
        if self.grid is None:
            return self.at(chart, t0 + dt * np.arange(start, stop))
        return self.grid(chart, t0, dt, start, stop)


def segment_path(q_from, q_to, p_from=None, p_to=None, chart: str = "main") -> BasePath:
    q0 = np.asarray(q_from, dtype=float)
    p0 = np.zeros(2) if p_from is None else np.asarray(p_from, dtype=float)
    dq = np.asarray(q_to, dtype=float) - q0
    dp = np.zeros(2) if p_to is None else np.asarray(p_to, dtype=float) - p0

    def at(chart_name, t):
        t = np.asarray(t, dtype=float)
        q, p, dqs = np.empty((3,) + t.shape + (2,))
        for i in (0, 1):  # one full-length product per column: a broadcast over the length-2 axis loops per node
            q[..., i], p[..., i], dqs[..., i] = q0[i] + t * dq[i], p0[i] + t * dp[i], dq[i]
        return q, p, dqs

    return BasePath(at=at, start_chart=chart)


def _unit_grid(a0: float, delta: float, start: int, stop: int) -> tuple:
    """(cos, sin) of a0 + j delta, start <= j < stop, with no per-node trig: exp(i (a0 + B m delta)) exp(i r delta)
    for j = B m + r, B = _UNIT_BLOCK, from two np.exp tables; each value is two unit factors and depends on j alone."""
    m0, r0 = divmod(start, _UNIT_BLOCK)
    blocks = np.exp(1j * (a0 + (_UNIT_BLOCK * delta) * np.arange(m0, -(-stop // _UNIT_BLOCK))))
    e = np.multiply.outer(blocks, np.exp(1j * delta * np.arange(_UNIT_BLOCK))).ravel()[r0:r0 + stop - start]
    return e.real, e.imag


def _phase_path(body, a: float, b: float, start_chart: str) -> BasePath:
    """The path body(chart, cos, sin) of the angle a + b t: ``at`` by np.cos and np.sin, ``grid`` by ``_unit_grid``."""

    def at(chart, t):
        angle = a + b * np.asarray(t, dtype=float)
        return body(chart, np.cos(angle), np.sin(angle))

    def grid(chart, t0, dt, start, stop):
        return body(chart, *_unit_grid(a + b * t0, b * dt, start, stop))

    return BasePath(at=at, start_chart=start_chart, grid=grid)


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

    def body(chart, cos, sin):
        s = _sphere_sign(chart, "latitude")
        r = r_n if s > 0.0 else 1.0 / r_n
        q, p, dq = np.zeros((3,) + cos.shape + (2,))
        q[..., 0], q[..., 1] = r * cos, (s * r) * sin
        dq[..., 0], dq[..., 1] = (-r * rate) * sin, (s * r * rate) * cos
        return q, p, dq

    return _phase_path(body, phi0, rate, "north" if theta <= 3.0 * np.pi / 4.0 else "south")


def meridian_path() -> BasePath:
    """Great-circle loop through both poles (down at azimuth 0, up at pi), at the angle pi t."""

    def body(chart, cos, sin):
        q, p, dq = np.zeros((3,) + cos.shape + (2,))
        if _sphere_sign(chart, "meridian") > 0.0:
            q[..., 0], dq[..., 0] = sin / cos, np.pi / cos**2
        else:
            with np.errstate(divide="ignore"):  # the north pole, t = 0, is at infinity
                q[..., 0], dq[..., 0] = np.where(sin != 0.0, cos / sin, np.inf), -np.pi / sin**2
        return q, p, dq

    return _phase_path(body, 0.0, np.pi, "north")


def phase_circle_path(center_q, radius: float, plane: int = 0, chart: str = "main") -> BasePath:
    """Circle in one (q_k, p_k) phase plane; encloses area pi r^2."""
    c = np.asarray(center_q, dtype=float)

    def body(chart_name, cos, sin):
        q, p, dq = np.zeros((3,) + cos.shape + (2,))
        q[...] = c
        q[..., plane] = c[plane] + radius * cos
        p[..., plane] = -radius * sin
        dq[..., plane] = -2.0 * np.pi * radius * sin
        return q, p, dq

    return _phase_path(body, 0.0, 2.0 * np.pi, chart)


@dataclass(frozen=True)
class TransportResult:
    """Transport operator exp(i alpha_phase) unitary over [0, 1].  ``chart_log``
    holds (0.0, start chart) and one (t, chart) per inserted transition, so its
    last chart is the chart the path ends in."""

    unitary: np.ndarray
    alpha_phase: float
    steps: int
    unitarity_deviation: float
    chart_log: tuple


def _ordered_product(offsets: np.ndarray, product) -> np.ndarray:
    """The offset D of I + D = (I + offsets[-1]) ... (I + offsets[0]), reduced pairwise.

    A pair reduces as (I + a)(I + b) = I + (a + b + product(a, b))."""
    while offsets.shape[0] > 1:
        odd = offsets.shape[0] % 2
        later, earlier = offsets[1::2], offsets[0:offsets.shape[0] - odd:2]
        paired = later + earlier + product(later, earlier)
        offsets = np.concatenate([paired, offsets[-1:]], axis=0) if odd else paired
    return offsets[0]


def _step_maps(model, rep, path, chart, t0, t1, n_steps, product, boundary=None):
    """RK4 step maps W(t) -> W(t + h) of n_steps equal steps over [t0, t1] in one chart.

    Yields (step-map offsets M - I, Simpson phases of the commuting
    i <alpha_B, v> I part p . dq) a chunk of at most _CHUNK_STEPS steps at a
    time, each from one ``connection_rep_batch`` call.
    A chunk of k steps from step c evaluates its 2k + 1 nodes t0 + j h / 2,
    2c <= j <= 2(c + k), once, as one ``path.nodes`` grid, step endpoints at
    even j.  With a ``boundary``, a chunk reads it on its endpoints first and
    stops the march before the first endpoint outside the chart.  The
    connection values are reordered [endpoints; midpoints], so the stages
    read contiguous blocks.  The maps have the shape of one of
    ``rep.matrices``, pairs stored component-major as ``_pair_product``
    returns them; ``product`` multiplies two stacks."""
    n_steps = max(int(n_steps), 1)
    h = (t1 - t0) / n_steps
    for c0 in range(0, n_steps, _CHUNK_STEPS):
        k = min(_CHUNK_STEPS, n_steps - c0)
        q, p, dq = path.nodes(chart, t0, 0.5 * h, 2 * c0, 2 * (c0 + k) + 1)
        marched = k
        if boundary is not None:
            outside = np.flatnonzero(boundary(q[::2]) > 0.0)
            if outside.size:
                if outside[0] == 0:
                    raise ChartError(f"path starts outside chart {chart!r}")
                marched = int(outside[0]) - 1
                if marched == 0:
                    return
                q, p, dq = q[:2 * marched + 1], p[:2 * marched + 1], dq[:2 * marched + 1]
        g = connection_rep_batch(model, rep, chart, q, dq)
        if g.ndim == 2:  # pairs component-major, as _pair_product reads them
            g = np.concatenate([g[::2].T, g[1::2].T], axis=1, out=np.empty(g.shape[::-1], dtype=complex)).T
        else:
            g = np.concatenate([g[::2], g[1::2]])
        alpha = p[:, 0] * dq[:, 0] + p[:, 1] * dq[:, 1]
        g0, g1, g2 = g[:marched], g[marched + 1:], g[1:marched + 1]
        a2 = g1 + (0.5 * h) * product(g1, g0)
        a3 = g1 + (0.5 * h) * product(g1, a2)
        a4 = g2 + h * product(g2, a3)
        yield ((h / 6.0) * (g0 + 2.0 * a2 + 2.0 * a3 + a4),
               (h / 6.0) * (alpha[:-1:2] + 4.0 * alpha[1::2] + alpha[2::2]))
        if marched < k:
            return


def _march(model, basis, path, rep, steps, switches=(), knots=()):
    """Transport's march: (W, phase, unitarity deviation, chart log) at t = 1, W lifted once on a rep with a group
    action, its deviation at most 1e-6 and its phase finite.  Spans run between forced switches and chart crossings,
    each in one chart, and apply their chunks' ordered products: W <- W + (M - I) W.  Given ``knots`` (and no switches),
    increasing steps k of the grid t = k / steps, it records W after each knot step, splitting a chunk's product there,
    W_k = (I + O(D[k_prev:k])) W_k_prev, stops at the last knot and returns the stacked W, phases and deviations and
    each knot's chart.  A span that starts at a crossing ends at the next knot, so every later knot is a step end."""
    if steps < 1:
        raise InvalidArgument(f"transport needs at least one step per unit, got steps = {steps}")
    check_spin(basis, "model", model.spec.two_j)
    check_spin(basis, "rep", rep.matrices.shape[-1] - 1)
    switches = sorted(switches)
    for t_switch, _ in switches:
        if not 0.0 <= t_switch <= 1.0:
            raise InvalidArgument(f"forced switch time {t_switch} outside [0, 1]")
    chart = path.start_chart
    if chart not in model.charts:
        raise ChartError(f"path start chart {chart!r} unknown to the model")

    group = rep.group_action
    if group is None:
        march_rep, product, w = rep, np.matmul, np.eye(rep.matrices.shape[-1], dtype=complex)
    else:
        march_rep, product, w = _TAU_PAIRS, _pair_product, np.array([1.0, 0.0], dtype=complex)
    phase = 0.0
    chart_log = [(0.0, chart)]
    records = [(chart, w, phase)] if knots and knots[0] == 0 else []

    def run_span(t0: float, t1: float, n_steps: int, boundary=None, ends=()) -> int:
        """March n_steps steps over [t0, t1], recording after each step in ``ends``; the steps marched in the chart."""
        nonlocal w, phase
        marched = 0
        for offsets, phases in _step_maps(model, march_rep, path, chart, t0, t1, n_steps, product, boundary):
            k, start = phases.shape[0], 0
            for stop in [end - marched for end in ends if marched < end < marched + k] + [k]:
                w = w + product(_ordered_product(offsets[start:stop], product), w)
                phase += float(np.sum(phases[start:stop]))
                start = stop
                if marched + stop in ends:
                    records.append((chart, w, phase))
            marched += k
        return marched

    def do_insert(t_cross: float, from_chart: str, target: str) -> None:
        nonlocal chart, w
        overlap = model.overlaps.get((from_chart, target))
        if overlap is None:
            raise ChartError(f"no registered transition {from_chart!r} -> {target!r} at t = {t_cross:.6f}")
        q_here = path.at(from_chart, np.array([t_cross]))[0][0]
        g = overlap.transition(q_here)
        w = product(quantize_transition(basis, g) if group is None else check_special_unitary(g)[0], w)
        chart = target
        chart_log.append((t_cross, target))

    t_now, k_now = 0.0, 0 if knots else None  # k_now: the knot step the march is on, None off the knot grid
    for t_stop, stop_chart in switches + [(knots[-1] / steps if knots else 1.0, None)]:
        while t_now < t_stop - 1e-15:
            # on the knot grid to the last knot; off it to t_stop, or from a crossing to the next knot
            k_to = knots[-1] if k_now is not None else knots[len(records)] if knots else None
            t1 = t_stop if k_to is None else k_to / steps
            n_span = k_to - k_now if k_now is not None else max(int(np.ceil(steps * (t1 - t_now))), 1)
            ends = [n_span - k_to + k for k in knots[len(records):] if k <= k_to]
            boundary = model.charts[chart].boundary
            marched = run_span(t_now, t1, n_span, boundary, ends)
            if marched == n_span:
                t_now, k_now = t1, k_to
                continue
            # the march's last endpoint and the first one outside, at its node times
            t_in, t_out = t_now + (t1 - t_now) / n_span * np.array([marched, marched + 1])
            t_cross = _bisect_boundary(path, chart, boundary, t_in, t_out)
            if t_cross - t_in > constants.CROSSING_BISECT_TOL:
                run_span(t_in, t_cross, 1)
            target = model.other_chart(chart)
            if target is None:
                raise ChartError(f"path leaves chart {chart!r} with no overlap registered")
            do_insert(t_cross, chart, target)
            t_now, k_now = t_cross, None
        if stop_chart is not None and stop_chart != chart:
            do_insert(t_stop, chart, stop_chart)
    if knots:
        chart_log, w, phase = zip(*records)
        w, phase = np.array(w), np.array(phase)
    if group is not None:
        w = spin_lift(group, w[..., None, :])
    dev = spectral_norm(w.conj().swapaxes(-1, -2) @ w - np.eye(w.shape[-1]))
    if not np.all(dev <= 1e-6):
        raise AccuracyFailure(f"transport unitarity deviation {np.max(dev):.2e} exceeds 1e-6")
    if not np.all(np.isfinite(phase)):
        raise AccuracyFailure(f"transport alpha phase {phase} is not finite")
    return w, phase, dev, tuple(chart_log)


def transport(
    model: GaugeModel,
    basis: FiberBasis,
    path: BasePath,
    *,
    rep: LieAlgebraRep,
    steps: int | None = None,
    forced_switches=None,
) -> TransportResult:
    """Path-ordered transport over [0, 1] with chart-crossing insertions.

    The connection is the potential contracted with ``rep``: the generators
    of ``gauge.build_rep`` or of ``gauge.quadrature_rep``.  The model, the
    basis and the rep must share one spin.  A rep with a group action
    (``build_rep``) marches the 2x2 transport U of the tau generators as
    its quaternion pair (a, b), inserts each transition g in SU(2) and
    returns the lift X(U), lifted once; a rep without one marches n x n
    and inserts X(g).  ``forced_switches`` lists (t, chart) chart changes at times t in [0, 1].
    """
    if steps is None:
        steps = constants.RK4_STEPS_PER_UNIT
    w, phase, dev, chart_log = _march(model, basis, path, rep, steps, forced_switches or [])
    return TransportResult(w, phase, steps, dev, chart_log)


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


def sub_path(path: BasePath, t0: float, t1: float, chart: str) -> BasePath:
    """The piece of ``path`` from t0 to t1, reparametrized over [0, 1] and started in ``chart``.

    Only the base velocity dq scales with the reparametrization, in ``at`` and in the forwarded ``grid``.
    sub_path(path, 1.0, 0.0, path.start_chart) is the reversed path."""

    def at(chart_name, s):
        q, p, dq = path.at(chart_name, t0 + (t1 - t0) * np.asarray(s, dtype=float))
        return q, p, (t1 - t0) * dq

    def grid(chart_name, s0, ds, start, stop):
        q, p, dq = path.grid(chart_name, t0 + (t1 - t0) * s0, (t1 - t0) * ds, start, stop)
        return q, p, (t1 - t0) * dq

    return BasePath(at=at, start_chart=chart, grid=None if path.grid is None else grid)


def wilson_loop(
    model: GaugeModel,
    basis: FiberBasis,
    loop: BasePath,
    *,
    rep: LieAlgebraRep,
    steps: int | None = None,
) -> tuple[np.ndarray, complex]:
    """Holonomy matrix and trace around a closed base loop."""
    q0, p0, _ = loop.at(loop.start_chart, np.array([0.0]))
    q1, p1, _ = loop.at(loop.start_chart, np.array([1.0]))
    gap = float(np.max(np.abs(q1 - q0)) + np.max(np.abs(p1 - p0)))
    if not gap <= 1e-12:
        raise InvalidArgument(f"loop is not closed (endpoint gap {gap:.2e})")
    result = transport(model, basis, loop, rep=rep, steps=steps)
    hol = np.exp(1j * result.alpha_phase) * result.unitary
    return hol, complex(np.trace(hol))


_FIBER_SAMPLES = (0.3 + 0.2j, -0.5 + 0.1j, 0.8j, 1.2 - 0.7j, -0.2 - 0.4j)


def covariant_residual_total_space(
    model: GaugeModel,
    basis: FiberBasis,
    path: BasePath,
    *,
    rep: LieAlgebraRep,
    steps: int,
    corruption: Callable[[float], complex | np.ndarray] | None = None,
) -> float | np.ndarray:
    """Defect of the lifted-section equation along the transported path.

    Reconstructs psi(t, f) = sum_mu Psi_mu(t) e_mu(f), for the uniform
    initial vector Psi(0), on the horizontal lift of five fixed fiber
    points and compares its parameter derivative (central differences
    along the lift) against i <alpha_total, lift> psi.  Psi is read at its
    own stencil knots t = k / steps, k = int(frac steps) + (-1, 0, 1) for six
    fractions frac, from one ``_march`` at ``steps`` steps per unit of t that
    records its state at each knot, lifted as one stack.  A stencil whose
    three knots are not all in one chart is skipped.  The fiber points of
    the kept centres of each chart march as one stack, forwards and
    backwards: one ``rk4_step`` and one pairing evaluation per chart.
    ``corruption(t)`` scales the knot coefficients: a scalar gives one float,
    a 1-D stack of k factors the k residuals of one knot and fiber march, and
    a factor of exactly 1 the clean residual.  Below 7 steps the six centres
    are not distinct; that, or no stencil kept, raises InvalidArgument.
    """
    if steps < 7:
        raise InvalidArgument(f"the total-space residual needs steps >= 7 for six distinct stencils, got {steps}")
    spec = basis.spec
    centers = [int(frac * steps) for frac in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)]
    marks = sorted({k + d for k in centers for d in (-1, 0, 1)})
    w, phases, _, charts = _march(model, basis, path, rep, steps, knots=marks)
    psi0 = np.ones(spec.dim, dtype=complex) / np.sqrt(spec.dim)
    # knot step -> (chart, coefficients Psi(k / steps) = e^{i phase} W Psi(0), times each factor)
    knots = {k: (chart, c if corruption is None else np.multiply.outer(corruption(k / steps), c))
             for k, chart, c in zip(marks, charts, np.exp(1j * phases)[:, None] * (w @ psi0))}

    h, z0 = 1.0 / steps, np.asarray(_FIBER_SAMPLES, dtype=complex)
    pt = ChartPoint(Chart.NORTH, z0)
    kept = {}  # chart -> its centres, none of whose stencils straddles a chart crossing
    for k in (k for k in centers if knots[k - 1][0] == knots[k][0] == knots[k + 1][0]):
        kept.setdefault(knots[k][0], []).append(k)
    if not kept:
        raise InvalidArgument(f"every stencil of the total-space residual straddles a chart crossing at steps={steps}")
    worst = []
    for chart, ks in kept.items():
        # coefficient rows (..., m, 1, n), factors leading: each centre is its own vector-matrix product
        c_lo, c_mid, c_hi = (np.stack([knots[k + d][1] for k in ks], axis=-2)[..., None, :] for d in (-1, 0, 1))
        t0 = np.array(ks * 2)[:, None] / steps  # each centre twice, marched forwards, then backwards

        def fiber_velocity(t, zz):
            q, _, dq = path.at(chart, t)
            return -hamiltonian_field_complex(spec, orbit_function(model, chart, q, dq), ChartPoint(Chart.NORTH, zz))

        z_end = rk4_step(fiber_velocity, t0, np.broadcast_to(z0, (t0.size, z0.size)),
                         np.repeat([h, -h], len(ks))[:, None])
        plus, minus = np.split(basis.eval(z_end.ravel()).reshape(spec.dim, t0.size, z0.size).swapaxes(0, 1), 2)
        deriv = (np.matmul(c_hi, plus) - np.matmul(c_lo, minus))[..., 0, :] / (2.0 * h)
        q, p, dq = path.at(chart, t0[:len(ks)])
        w = orbit_function(model, chart, q, dq)
        alpha_b = np.matmul(p, dq.swapaxes(-1, -2))[..., 0]
        pairing = alpha_b + w.value(pt) - theta_dz(spec, pt) * hamiltonian_field_complex(spec, w, pt)
        worst.append(np.max(np.abs(deriv - 1j * pairing * np.matmul(c_mid, basis.eval(z0))[..., 0, :]), axis=(-2, -1)))
    return np.max(worst, axis=0)
