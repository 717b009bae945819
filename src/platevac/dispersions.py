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
    _SERIES,
    _image_values,
    _kernel_at,
    checked_report,
    horizon,
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
    return ReducedValue(*_lattice(kind, geom, t, kind.image_sign), report)


def _lattice(kind, geom, t, sign):
    """(value, tail, n_used) of the image lattice of ``kind`` at time t, its shifted families
    entering with ``sign``. Each image is :func:`_image_values`, so the n = 0 image is
    :func:`_kernel_at`'s value; past h = t/2 the images sum by their _SERIES entry."""
    key = (kind.axis, kind.observable)
    return _grouped_image_sum(lambda x: _image_values(key, x, t), sign, geom.a, geom.z,
                              (*_SERIES[key], 0.5 * t), horizon(geom.a, geom.z, t))


def single_plate_reference(kind, z, t, *, window=SINGULAR_WINDOW):
    """Reduced dispersion near a single plate at distance z.

    This is the n = 0 shifted-image term alone: the a -> infinity limit
    of :func:`dispersion_exact` at fixed z.
    """
    kind = DispersionKind.coerce(kind)
    if not (z > 0.0):
        raise GeometryError(f"plate distance must be positive, got z={z}")
    return kind.image_sign * _kernel_at((kind.axis, kind.observable), z, t, window)
