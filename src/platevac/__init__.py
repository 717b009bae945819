"""Vacuum-induced Brownian motion of a charge between conducting plates.

Reduced velocity and position dispersions from exact image sums, their
asymptotic expansions, an independent quadrature oracle, and the physical
scales (effective temperature, fall times) they imply.
"""

from .asymptotics import (
    approx_large_a,
    approx_large_a_far,
    approx_large_t,
    image_sum_quartic,
    midpoint_extremal,
    recommend_regime,
)
from .correlators import (
    correlator_term_normal,
    correlator_term_parallel,
    efield_correlator_normal,
    efield_correlator_parallel,
    empty_space_efield,
    minkowski_two_point,
    renormalized_photon_two_point,
)
from .dispersions import dispersion_exact, single_plate_reference
from .errors import (
    ConvergenceError,
    GeometryError,
    PlatevacError,
    RegimeError,
    SingularWindowError,
)
from .kernels import (
    SINGULAR_WINDOW,
    SingularityReport,
    position_kernel_normal,
    position_kernel_parallel,
    singularity_report,
    velocity_kernel_normal,
    velocity_kernel_parallel,
)
from .oracle import (
    QuadratureSpec,
    certification_report,
    dispersion_via_quadrature,
    image_position_integral,
    image_velocity_integral,
    write_adjudication,
)
from .physics import (
    ALPHA,
    ELECTRON,
    PARTICLES,
    PROTON,
    Particle,
    amplification_ratio,
    displacement_bound,
    effective_temperature,
    falling_time,
    length_to_natural,
    natural_to_meters,
    physicalize,
    separation_threshold,
    time_to_natural,
    validity_check,
)
from .quantities import ALL_KINDS, DispersionKind, EvalPoint, Geometry, ReducedValue

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS",
    "ALPHA",
    "ELECTRON",
    "PARTICLES",
    "PROTON",
    "ConvergenceError",
    "DispersionKind",
    "EvalPoint",
    "Geometry",
    "GeometryError",
    "Particle",
    "PlatevacError",
    "QuadratureSpec",
    "ReducedValue",
    "RegimeError",
    "SINGULAR_WINDOW",
    "SingularWindowError",
    "SingularityReport",
    "amplification_ratio",
    "approx_large_a",
    "approx_large_a_far",
    "approx_large_t",
    "certification_report",
    "correlator_term_normal",
    "correlator_term_parallel",
    "dispersion_exact",
    "dispersion_via_quadrature",
    "displacement_bound",
    "efield_correlator_normal",
    "efield_correlator_parallel",
    "effective_temperature",
    "empty_space_efield",
    "falling_time",
    "image_position_integral",
    "image_sum_quartic",
    "image_velocity_integral",
    "length_to_natural",
    "midpoint_extremal",
    "minkowski_two_point",
    "natural_to_meters",
    "physicalize",
    "position_kernel_normal",
    "position_kernel_parallel",
    "recommend_regime",
    "renormalized_photon_two_point",
    "separation_threshold",
    "single_plate_reference",
    "singularity_report",
    "time_to_natural",
    "validity_check",
    "velocity_kernel_normal",
    "velocity_kernel_parallel",
]
