"""Exception hierarchy shared by all platevac modules.

Each error maps to a stable CLI exit code; see :mod:`platevac.cli`.
"""

import math


class PlatevacError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class GeometryError(PlatevacError):
    """Invalid geometry or domain input (z outside (0, a), x = 0, ...)."""

    exit_code = 2


class SingularWindowError(PlatevacError):
    """Evaluation point too close to a light-cone singularity t = 2|offset|.

    Carries the :class:`platevac.kernels.SingularityReport` that triggered
    the rejection, when available.
    """

    exit_code = 3

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceError(PlatevacError):
    """The quadrature oracle needs over 2,000,000 image shells, or the series past an explicit
    ``n_images`` does not settle."""

    exit_code = 4


class RegimeError(PlatevacError):
    """An asymptotic formula was requested outside its regime of validity."""

    exit_code = 5


def in_float_range(value, what):
    """``value`` if it is finite, else GeometryError: ``what`` is beyond the float range."""
    if not math.isfinite(value):
        raise GeometryError(f"{what} is beyond the float range")
    return value
