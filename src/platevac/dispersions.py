"""Exact reduced dispersions of a charged particle between two plates.

Each dispersion is an image sum of one closed-form kernel over the offset
families n a (entering twice for n >= 1) and n a +/- z (entering with the
axis sign): minus for motion along the plates, plus for motion along the
normal. The n = 0 member of the shifted family is the single-plate term.

Values are reduced: multiply by the universal charge/mass prefactor via
:func:`platevac.physics.physicalize` to get physical dispersions.
"""

from .correlators import _grouped_image_sum
from .errors import GeometryError
from .kernels import (
    SINGULAR_WINDOW,
    _SCALED,  # unused here; bench/tracing.py wraps the kernels through this name
    _kernel_at,
    checked_report,
    horizon,
    offset_kernel,
    singularity_report,
)
from .quantities import DispersionKind, EvalPoint, ReducedValue


def dispersion_exact(kind, point, *, window=SINGULAR_WINDOW):
    """Exact reduced dispersion by image summation.

    The image shells up to twice the horizon are summed one by one, in one
    array, up to 4,096 of them; past that, only those next to x = 0 and the
    light cone are, and the smooth stretches between are integrated with
    Gregory end corrections. The rest is a Hurwitz zeta series.

    Parameters
    ----------
    kind : DispersionKind
        Axis and observable to compute.
    point : EvalPoint
        Geometry and elapsed time.
    window : float, optional
        Relative singular-window half-width passed to the cone scan.

    Returns
    -------
    ReducedValue
        Reduced dispersion with its tail estimate (the zeta series' and the
        integration rule's bounds), the shells covered before the zeta
        series, and the singularity report for the point.

    Raises
    ------
    SingularWindowError
        If ``t`` is within ``window`` (relative) of any image cone, or on one.
    ConvergenceError
        Before summing, if twice the horizon exceeds 2,000,000 image pairs.
    """
    kind = DispersionKind.coerce(kind)
    if not isinstance(point, EvalPoint):
        raise GeometryError(f"expected EvalPoint, got {type(point).__name__}")
    geom, t = point.geometry, point.t
    if t == 0.0:
        return ReducedValue(0.0)
    report = checked_report(singularity_report(geom.z, geom.a, t, threshold=window), t)
    fvec, series = offset_kernel(kind, t)
    value, tail, n_used = _grouped_image_sum(
        fvec, kind.image_sign, geom.a, geom.z, series, horizon(geom.a, geom.z, t)
    )
    return ReducedValue(value, tail, n_used, report)


def single_plate_reference(kind, z, t, *, window=SINGULAR_WINDOW):
    """Reduced dispersion near a single plate at distance z.

    This is the n = 0 shifted-image term alone: the a -> infinity limit
    of :func:`dispersion_exact` at fixed z.
    """
    kind = DispersionKind.coerce(kind)
    if not (z > 0.0):
        raise GeometryError(f"plate distance must be positive, got z={z}")
    return kind.image_sign * _kernel_at((kind.axis, kind.observable), z, t, window)
