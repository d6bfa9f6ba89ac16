"""Numerical engine for quantization on symplectic fiber bundles.

The fiber is an SU(2) weight sphere; its polarized quantization, the
induced connection on the associated vector bundle over a gauge-equipped
base, and parallel transport of the resulting vector wavefunctions are
realized concretely and cross-checked by independent oracles.
"""

from .constants import VERSION as __version__
from .constants import conventions_record
from .errors import (
    AccuracyFailure,
    ChartError,
    ConfigurationError,
    FiberquantError,
    InvalidArgument,
    ParseError,
    PoleNotInOverlap,
    ValidationError,
)
from .fiberq import (
    FiberBasis,
    build_basis,
    polarization_residual,
    prequant_matrix,
    quantize_transition,
)
from .gauge import (
    BasePoint,
    BaseTangent,
    GaugeModel,
    LieAlgebraRep,
    build_rep,
    check_model,
    connection_rep,
    constant_model,
    curvature,
    gauge_residual,
    horizontal_lift,
    monopole_model,
    orbit_function,
    pure_gauge_model,
    quadrature_rep,
    trivial_model,
)
from .numerics import (
    QuadratureRule,
    central_difference,
    gauss_legendre,
    matrix_exp,
    sphere_rule,
)
from .orbit import (
    Chart,
    ChartPoint,
    FiberHamiltonian,
    OrbitSpec,
    chart_transition,
    embed_point,
    hamiltonian_field,
    kahler_potential_at,
    moment_hamiltonian,
    poisson_bracket,
    symplectic_form_at,
)
from .scenario import Scenario, default_scenario, load_scenario
from .transport import (
    BasePath,
    BundleSection,
    TransportResult,
    covariant_residual_total_space,
    covariant_section_solve,
    latitude_path,
    meridian_path,
    momentum_circle_path,
    phase_circle_path,
    segment_path,
    transport,
    wilson_loop,
)
