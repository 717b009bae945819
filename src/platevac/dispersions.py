"""Exact reduced dispersions of a charged particle between two plates.

Each dispersion is an image sum of one closed-form kernel over the offset
families n a (entering twice for n >= 1) and n a +/- z (entering with the
axis sign): minus for motion along the plates, plus for motion along the
normal. The n = 0 member of the shifted family is the single-plate term.

Values are reduced: multiply by the universal charge/mass prefactor via
:func:`platevac.physics.physicalize` to get physical dispersions.
"""

from .correlators import _N_WALK, _grouped_image_sum, _late_lattice
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

    Up to 64 image shells, twice the horizon, are summed one by one, in one
    array, and the rest by their large-offset series, each power of the
    offset by Euler-Maclaurin in closed form. Past 64 shells, from t = 62 a,
    the lattice is its late-time expansion, to the lowest order of 2a/t whose
    next order's bound lies below 1e-3 eps (13 at 62 a, 3 from 1e5 a), whose
    terms take the cone scan's exact phases: no kernel is evaluated there,
    and there is no cap on t/a.

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
        Reduced dispersion with its tail estimate, the shells summed one
        by one (0 past 64) and the singularity report for the point. Up to
        64 shells the tail estimate bounds the series tail and the
        explicit sum's rounding; past them, the first omitted order of the
        expansion, twice its modulus bound, and the rounding of its terms.

    Raises
    ------
    SingularWindowError
        If ``t`` is within ``window`` (relative) of any image cone, or on one.
    """
    kind = DispersionKind.coerce(kind)
    geom, t = EvalPoint.checked(point).geometry, point.t
    if t == 0.0:
        return ReducedValue(0.0)
    report = checked_report(singularity_report(geom.z, geom.a, t, threshold=window), t)
    return ReducedValue(*_lattice(kind, geom, t, kind.image_sign, report.phases), report)


def _lattice(kind, geom, t, sign, phases):
    """(value, tail, n_used) of the image lattice of ``kind`` at time t, its shifted families
    entering with ``sign``, and ``phases`` those of the cone scan at t. Up to _N_WALK shells
    each image is :func:`_image_values`, so the n = 0 image is :func:`_kernel_at`'s value,
    and past h = t/2 the images sum by their _SERIES entry; past them the lattice is
    :func:`_late_lattice`."""
    key = (kind.axis, kind.observable)
    horizon_n = horizon(geom.a, geom.z, t)
    if 2 * horizon_n > _N_WALK:
        return (*_late_lattice(key, sign, geom.a, geom.z, t, phases), 0)
    return _grouped_image_sum(lambda x: _image_values(key, x, t), sign, geom.a, geom.z,
                              (*_SERIES[key], 0.5 * t), horizon_n)


def single_plate_reference(kind, z, t, *, window=SINGULAR_WINDOW):
    """Reduced dispersion near a single plate at distance z.

    This is the n = 0 shifted-image term alone: the a -> infinity limit
    of :func:`dispersion_exact` at fixed z.
    """
    kind = DispersionKind.coerce(kind)
    if not (z > 0.0):
        raise GeometryError(f"plate distance must be positive, got z={z}")
    return kind.image_sign * _kernel_at((kind.axis, kind.observable), z, t, window)
