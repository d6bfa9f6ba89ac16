"""Classical geometry of the fiber: the weight-j sphere in stereographic charts.

The fiber is the sphere of radius j realized with two charts (NORTH and
SOUTH, overlap map z -> 1/z).  The symplectic form, the chart-local
holomorphic-frame potential, Hamiltonian vector fields, the Poisson
bracket and the linear moment functions all live here; each kernel takes
the ``OrbitSpec``, whose weight j fixes the sphere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import constants
from .errors import InvalidArgument, PoleNotInOverlap


class Chart(enum.Enum):
    NORTH = "north"
    SOUTH = "south"


# Per-chart signs of the embedding formula
#   embed = j * (2 sx x, 2 sy y, sz (1 - |z|^2)) / (1 + |z|^2).
_EMBED_SIGNS = {
    Chart.NORTH: (1.0, 1.0, 1.0),
    Chart.SOUTH: (1.0, -1.0, -1.0),
}


@dataclass(frozen=True)
class OrbitSpec:
    """Integral weight of the orbit; two_j is twice the spin."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 0:
            raise InvalidArgument(f"two_j must be non-negative, got {self.two_j}")

    @property
    def j(self) -> float:
        return 0.5 * self.two_j

    @property
    def dim(self) -> int:
        """Dimension of the quantum fiber Hilbert space."""
        return self.two_j + 1


@dataclass(frozen=True)
class ChartPoint:
    """A point, or with an array ``z`` a block of points, of one chart."""

    chart: Chart
    z: complex | np.ndarray


@dataclass(frozen=True)
class FiberHamiltonian:
    """Real function on the fiber with a chart gradient (d/dx, d/dy).

    Both callables take a ``ChartPoint``; given an array ``z`` they work
    elementwise, the gradient with shape (2,) + the value's shape.
    """

    value: Callable[[ChartPoint], float]
    chart_gradient: Callable[[ChartPoint], np.ndarray]


def _rho(z):
    """1 + |z|^2, bit-equal for scalar and array z: hypot, as abs(complex) uses."""
    r = np.hypot(np.real(z), np.imag(z))
    return 1.0 + r * r


def embed_point(spec: OrbitSpec, pt: ChartPoint) -> np.ndarray:
    """Embed a chart point on the radius-j sphere in R^3; shape (3,) + z.shape."""
    sx, sy, sz = _EMBED_SIGNS[pt.chart]
    x, y = np.real(pt.z), np.imag(pt.z)
    rho = 1.0 + x * x + y * y
    j = spec.j
    return np.array([2 * j * sx * x / rho, 2 * j * sy * y / rho, j * sz * (2.0 / rho - 1.0)])


def embed_gradient(spec: OrbitSpec, pt: ChartPoint) -> np.ndarray:
    """d(embed)/d(x, y): array of shape (2, 3) + z.shape."""
    sx, sy, sz = _EMBED_SIGNS[pt.chart]
    x, y = np.real(pt.z), np.imag(pt.z)
    rho = 1.0 + x * x + y * y
    j = spec.j
    dx = np.array([2 * j * sx * (rho - 2 * x * x), -4 * j * sy * x * y, -4 * j * sz * x])
    dy = np.array([-4 * j * sx * x * y, 2 * j * sy * (rho - 2 * y * y), -4 * j * sz * y])
    return np.stack([dx, dy]) / (rho * rho)


def chart_transition(pt: ChartPoint) -> ChartPoint:
    """Switch chart via z -> 1/z, for a point or a block of points; the embedded points are unchanged.
    PoleNotInOverlap if any z is 0."""
    if np.any(pt.z == 0):
        raise PoleNotInOverlap("z = 0 is not in the chart overlap")
    other = Chart.SOUTH if pt.chart is Chart.NORTH else Chart.NORTH
    return ChartPoint(other, 1.0 / pt.z)


def omega_coefficient(spec: OrbitSpec, pt: ChartPoint) -> float:
    """Coefficient c(z) with Omega = c(z) dx ^ dy in the active chart; its sign is ``constants.S_OMEGA``."""
    rho = _rho(pt.z)
    return constants.S_OMEGA * 4.0 * spec.j / (rho * rho)


def symplectic_form_at(spec: OrbitSpec, pt: ChartPoint, u1, u2) -> float:
    """Omega evaluated on two chart tangents (real 2-vectors)."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    return omega_coefficient(spec, pt) * (u1[0] * u2[1] - u1[1] * u2[0])


def symplectic_area(spec: OrbitSpec, rule) -> float:
    """Total integral of Omega over the sphere via a (t, phi) rule.

    The chart area element dA = dt dphi / (1+t)^2 combines with the form
    coefficient to the constant integrand j.
    """
    t = rule.t
    rho = 2.0 / (1.0 + t)           # 1 + |z|^2 at the node
    integrand = constants.S_OMEGA * 4.0 * spec.j / rho**2 / (1.0 + t) ** 2
    return float(np.dot(rule.weights, integrand))


def kahler_potential_at(spec: OrbitSpec, pt: ChartPoint) -> np.ndarray:
    """Holomorphic-frame potential as chart covector components (dx, dy).

    theta = -2ij conj(z) dz / (1 + |z|^2); its (0,1) part vanishes, so
    polarized sections are annihilated by plain d/d(conj z).
    """
    coeff = theta_dz(spec, pt)
    return np.array([coeff, 1j * coeff])


def theta_dz(spec: OrbitSpec, pt: ChartPoint) -> complex:
    """dz-coefficient of the chart potential."""
    return -2.0j * spec.j * np.conj(pt.z) / _rho(pt.z)


def hamiltonian_field(spec: OrbitSpec, w: FiberHamiltonian, pt: ChartPoint) -> np.ndarray:
    """The chart tangent H_w defined through Omega(H_w, .) = -dw; shape (2,) + z.shape."""
    if spec.two_j == 0:
        # point orbit: every function is constant, every field vanishes
        return np.zeros((2,) + np.shape(pt.z))
    gx, gy = w.chart_gradient(pt)
    c = omega_coefficient(spec, pt)
    return np.array([-gy / c, gx / c])


def hamiltonian_field_complex(spec: OrbitSpec, w: FiberHamiltonian, pt: ChartPoint) -> complex | np.ndarray:
    """dz-component of H_w (the full real field is h d/dz + conj)."""
    hx, hy = hamiltonian_field(spec, w, pt)
    h = hx + 1j * hy
    return h if np.ndim(pt.z) else complex(h)


def _dot3(a: np.ndarray, v: np.ndarray):
    """a . v over the leading length-3 axis of v, elementwise in the rest."""
    return a[0] * v[0] + a[1] * v[1] + a[2] * v[2]


def moment_hamiltonian(spec: OrbitSpec, a) -> FiberHamiltonian:
    """Linear moment function H_a(f) = a . embed(f), with analytic gradient; a stack a (3, ...) broadcasts
    against the points, its gradient (2,) in front, each element bit-equal to its single direction's."""
    a = np.asarray(a, dtype=float)

    def value(pt: ChartPoint) -> float | np.ndarray:
        h = _dot3(a, embed_point(spec, pt))
        return h if np.ndim(pt.z) else float(h)

    def gradient(pt: ChartPoint) -> np.ndarray:
        return np.moveaxis(_dot3(a[..., None], np.moveaxis(embed_gradient(spec, pt), 0, -1)), -1, 0)

    return FiberHamiltonian(value=value, chart_gradient=gradient)


def _moment_functions(spec: OrbitSpec) -> FiberHamiltonian:
    """The three moment functions mu_a = e_a . embed as one stack: values (3, N) on N points z (N,)."""
    return moment_hamiltonian(spec, np.eye(3)[..., None])


def squared_hamiltonian(w: FiberHamiltonian) -> FiberHamiltonian:
    """w^2 with chain-rule gradient; the standard polarization-breaking probe."""

    def value(pt: ChartPoint) -> float | np.ndarray:
        return w.value(pt) ** 2

    def gradient(pt: ChartPoint) -> np.ndarray:
        return 2.0 * w.value(pt) * w.chart_gradient(pt)

    return FiberHamiltonian(value=value, chart_gradient=gradient)


def poisson_bracket(spec: OrbitSpec, w1: FiberHamiltonian, w2: FiberHamiltonian, pt: ChartPoint) -> float:
    """{w1, w2} = Omega(H_w1, H_w2) under the frozen conventions."""
    h1 = hamiltonian_field(spec, w1, pt)
    h2 = hamiltonian_field(spec, w2, pt)
    return symplectic_form_at(spec, pt, h1, h2)
