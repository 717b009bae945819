"""Typed containers for geometry, evaluation points and computed values.

Everything downstream works in natural units (c = hbar = 1) and in
*reduced* form: dispersions are reported without the universal charge and
mass prefactor, which is applied exactly once by
:func:`platevac.physics.physicalize`.
"""

import math
from dataclasses import dataclass, field

from .errors import GeometryError

_AXES = ("parallel", "normal")
_OBSERVABLES = ("velocity", "position")

# CLI-facing tokens, e.g. "dv2-normal" for the normal velocity dispersion.
_TOKEN_MAP = {
    ("parallel", "velocity"): "dv2-parallel",
    ("normal", "velocity"): "dv2-normal",
    ("parallel", "position"): "dx2-parallel",
    ("normal", "position"): "dx2-normal",
}
_TOKEN_INVERSE = {v: k for k, v in _TOKEN_MAP.items()}


@dataclass(frozen=True)
class Geometry:
    """Two parallel conducting plates separated by ``a``, particle at ``z``.

    Parameters
    ----------
    a : float
        Plate separation, must be positive and finite; the a -> infinity
        limit is :func:`platevac.dispersions.single_plate_reference`.
    z : float
        Distance from the lower plate, must satisfy 0 < z < a.
    """

    a: float
    z: float

    def __post_init__(self):
        if not (0.0 < self.a < math.inf):
            raise GeometryError(f"plate separation must be positive and finite, got a={self.a}")
        if not (0.0 < self.z < self.a):
            raise GeometryError(
                f"particle position must satisfy 0 < z < a, got z={self.z}, a={self.a}"
            )

    @property
    def zbar(self):
        """Distance from the upper plate."""
        return self.a - self.z

    def reflected(self):
        """Geometry with the particle mirrored through the midplane."""
        return Geometry(self.a, self.a - self.z)


@dataclass(frozen=True)
class EvalPoint:
    """A geometry plus an elapsed time since the wave packet was released."""

    geometry: Geometry
    t: float

    def __post_init__(self):
        if not (0.0 <= self.t < math.inf):
            raise GeometryError(f"elapsed time must be finite and nonnegative, got t={self.t}")

    @property
    def gamma(self):
        """Number of cavity crossings t / (2a)."""
        return self.t / (2.0 * self.geometry.a)


@dataclass(frozen=True)
class DispersionKind:
    """Which dispersion component: motion axis and observable.

    ``axis`` is "parallel" (motion along the plates) or "normal"
    (motion along the plate normal); ``observable`` is "velocity" or
    "position".
    """

    axis: str
    observable: str

    def __post_init__(self):
        if self.axis not in _AXES:
            raise GeometryError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if self.observable not in _OBSERVABLES:
            raise GeometryError(
                f"observable must be one of {_OBSERVABLES}, got {self.observable!r}"
            )

    @property
    def token(self):
        return _TOKEN_MAP[(self.axis, self.observable)]

    @classmethod
    def from_token(cls, token):
        try:
            axis, observable = _TOKEN_INVERSE[token]
        except KeyError:
            raise GeometryError(
                f"unknown quantity {token!r}; expected one of {sorted(_TOKEN_INVERSE)}"
            ) from None
        return cls(axis, observable)

    @classmethod
    def coerce(cls, kind):
        """Accept a DispersionKind, a token string, or an (axis, observable) pair."""
        if isinstance(kind, cls):
            return kind
        if isinstance(kind, str):
            return cls.from_token(kind)
        return cls(*kind)

    @property
    def image_sign(self):
        """Sign of the shifted image sum relative to the plain one.

        Parallel components subtract the z-shifted images, normal
        components add them.
        """
        return -1.0 if self.axis == "parallel" else 1.0


ALL_KINDS = tuple(DispersionKind(axis, obs) for obs in _OBSERVABLES for axis in _AXES)


@dataclass(frozen=True)
class ReducedValue:
    """A reduced (prefactor-free) number with truncation metadata.

    Attributes
    ----------
    value : float
        The reduced dispersion or correlator value.
    tail_estimate : float
        Bound on the truncated image tail, same units as ``value``; past
        4,096 shells it includes the bound of the integration rule for
        the smooth stretches. For the closed-form E-field correlators and
        photon function, the bound on their own rounding; for the wide-gap
        routes, the bound on the series terms they leave out; zero for the
        other closed forms.
    n_used : int
        Number of image shells the sum covers before its zeta tail, each
        summed one by one up to 4,096. Zero for closed-form results.
    singularity : object or None
        The :class:`platevac.kernels.SingularityReport` for the point,
        when one was computed.
    """

    value: float
    tail_estimate: float = 0.0
    n_used: int = 0
    singularity: object = field(default=None, compare=False)

    def __float__(self):
        return float(self.value)
