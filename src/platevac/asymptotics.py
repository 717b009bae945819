"""Asymptotic expansions of the reduced dispersions.

Two regimes have closed expansions:

* large separation (times short compared with the nearest image round
  trip): the two nearest images keep their exact kernels and every
  distant image is replaced by its leading power law, which resums into
  trigonometric lattice constants;
* late times (many cavity crossings): each image family is a lattice sum
  with spacing 2a/t of one scaled kernel, expanded by Euler-Maclaurin
  with the singular terms at the origin and at the light cone; the
  light-cone terms give the oscillation in t mod 2a.

Every function returns the same reduced normalization as
:func:`platevac.dispersions.dispersion_exact`. A point outside a
formula's regime raises :class:`platevac.errors.RegimeError`.
"""

import math

import numpy as np
from scipy.special import spence

from .errors import GeometryError, RegimeError
from .kernels import (
    SINGULAR_WINDOW,
    checked_report,
    position_kernel_normal,
    position_kernel_parallel,
    singularity_report,
    velocity_kernel_normal,
    velocity_kernel_parallel,
)
from .quantities import DispersionKind, EvalPoint, Geometry, ReducedValue

# Regime margin: large-a wants t at most 1/REGIME_MARGIN of the nearest
# image round trip, large-t wants at least REGIME_MARGIN cavity crossings.
REGIME_MARGIN = 5.0


def _as_kind(kind):
    return DispersionKind.coerce(kind)


def image_sum_quartic(z, a):
    """Closed form of sum over all integers n of 1 / (n a + z)**4.

    Equals pi**4 (2 + cos(2 pi z / a)) / (3 a**4 sin(pi z / a)**4).
    """
    if not (0.0 < z < a):
        raise GeometryError(f"need 0 < z < a, got z={z}, a={a}")
    s = math.sin(math.pi * z / a)
    c = math.cos(2.0 * math.pi * z / a)
    return math.pi**4 * (2.0 + c) / (3.0 * a**4 * s**4)


def approx_large_a(kind, point):
    """Wide-gap expansion: exact nearest images plus lattice power laws.

    Valid while t is small compared with the round trips 2z and
    2(a - z); enforced as t <= min(2z, 2(a-z)) / REGIME_MARGIN.
    """
    kind = _as_kind(kind)
    geom, t = point.geometry, point.t
    a, z, zbar = geom.a, geom.z, geom.zbar
    if t > min(2.0 * z, 2.0 * zbar) / REGIME_MARGIN:
        raise RegimeError(
            f"large-separation form needs t <= min(2z, 2(a-z))/{REGIME_MARGIN}, got t={t}"
        )
    lattice = image_sum_quartic(z, a) - z**-4 - zbar**-4
    zeta4_sum = 2.0 * math.pi**4 / 90.0  # sum over n != 0 of n**-4

    if kind.observable == "velocity":
        coeff = t * t / 16.0
        kern = velocity_kernel_parallel if kind.axis == "parallel" else velocity_kernel_normal
    else:
        coeff = t**4 / 64.0
        kern = position_kernel_parallel if kind.axis == "parallel" else position_kernel_normal

    near = kind.image_sign * (kern(z, t) + kern(zbar, t))
    # Distant shifted images contribute +coeff * lattice for both axes:
    # the axis sign and the kernel's leading sign cancel. Distant plain
    # images keep the kernel's own sign.
    plain = kind.image_sign * coeff * zeta4_sum / a**4
    return ReducedValue(near + coeff * lattice + plain)


def approx_large_a_far(kind, point):
    """Single-plate-dominated limit z << t << a (velocity: z, t << a).

    Keeps the nearest plate's contribution and the leading correction in
    t/a. Position components also replace the nearest-plate kernel by its
    own late-time law, so they additionally require t >= 2z * REGIME_MARGIN.
    The far plate counts as far at a >= 20 * REGIME_MARGIN * z, and the
    time as short at t <= 2a / REGIME_MARGIN.
    """
    kind = _as_kind(kind)
    geom, t = point.geometry, point.t
    a, z = geom.a, geom.z
    if a < 20.0 * REGIME_MARGIN * z:
        raise RegimeError(f"far-plate form needs a >> z, got a/z={a / z}")
    if t > 2.0 * a / REGIME_MARGIN:
        raise RegimeError(f"far-plate form needs t << 2a, got t={t}, a={a}")
    ta4 = (t / a) ** 4

    if kind.observable == "velocity":
        if kind.axis == "parallel":
            value = -velocity_kernel_parallel(z, t) + 0.125 * ta4 * (z / a) ** 8 / (t * t)
        else:
            value = velocity_kernel_normal(z, t) + math.pi**4 * t * t / (360.0 * a**4)
        return ReducedValue(value)

    if t < 2.0 * z * REGIME_MARGIN:
        raise RegimeError(f"far-plate position form needs t >> 2z, got t={t}, z={z}")
    if kind.axis == "parallel":
        value = -math.log(t / (2.0 * z)) / 3.0 + ta4 * (z / a) ** 8 / 32.0
    else:
        value = (
            t * t / (8.0 * z * z)
            + math.log(t / (2.0 * z)) / 3.0
            + math.pi**4 * ta4 / 1440.0
        )
    return ReducedValue(value)


def _cone_contrast(f, tau, theta):
    """Plain-family light-cone term minus the shifted family's.

    The plain images n a cross their light cones at integer tau = t/(2a),
    the shifted images n a -/+ z at tau = n +/- theta; ``f`` has period pi
    and is evaluated at pi times the phase. Reducing the phase mod 1 first
    keeps it exact when tau is large, where pi * tau would lose digits.
    """

    def at(x):
        return f(math.pi * math.fmod(x, 1.0))

    return 2.0 * at(tau) - at(tau - theta) - at(tau + theta)


def _cot(x):
    return math.cos(x) / math.sin(x)


def _log_2sin(x):
    return math.log(2.0 * abs(math.sin(x)))


def _clausen2(x):
    """Clausen function Cl_2(2x) = Im Li_2(exp(2ix)), period pi in x."""
    return float(np.imag(spence(1.0 - np.exp(2j * x))))


def approx_large_t(kind, point, *, window=SINGULAR_WINDOW):
    """Late-time laws after many cavity crossings, t >= REGIME_MARGIN * 2a.

    Each law is the leading term of the exact image sum at late times and
    every correction down to relative order a/t, so that the error left
    is O((a/t)**2) relative to the leading term. With theta = z/a,
    tau = t/(2a), and the contrast
    Delta[f] = 2 f(pi tau) - f(pi (tau - theta)) - f(pi (tau + theta)):

    dv2-normal
        (pi**2 / 4a**2) (1/3 + csc(pi theta)**2). There is no 1/t term;
        the remainder is -1/(3 t**2) - (1/2t**2) Sigma + O(a/t**3), with
        Sigma = 2 L(pi tau) + L(pi (tau - theta)) + L(pi (tau + theta))
        and L(x) = ln|2 sin x|. At the midplane with t/a a half-odd
        integer it is -(1/3 + ln 2)/t**2 = -1.0265/t**2.
    dv2-parallel
        (pi / 8at) Delta[cot] - 1/(3 t**2) + (1/4t**2) Delta[L],
        error O(a/t**3). The first term is the light-cone oscillation;
        at the midplane it is pi / (2 a t sin(pi t/a)).
    dx2-parallel
        -(1/3) ln(pi t / (2a sin(pi theta))) + 1/18 + (1/4) Delta[L]
        - (a / 4 pi t) Delta[Cl_2(2x)], error O((a/t)**2).
        At the midplane this is -(1/3) ln(t/a) - 0.09497
        + (1/2) ln|tan(pi t/2a)| -/+ 0.2916 a/t when t/a = 2k + 1/2,
        2k + 3/2.
    dx2-normal
        (pi**2 t**2 / 8a**2) (1/3 + csc(pi theta)**2). There is no term of
        order t; the remainder is -(1/3) ln(2 pi t sin(pi theta) / a) - 1/9
        + O(a/t), which is -(1/3) ln(t/a) - 0.72374 at the midplane.

    Derivation: in y = 2|x|/t each image term is a fixed function g(y)
    (times 4/t**2 for velocities), so each image family is a lattice sum
    of g with spacing h = 2a/t, and the dispersion is the plain family
    (offsets n a, n != 0) plus the image sign times the shifted family
    (offsets n a + z). The generalized Euler-Maclaurin expansion (Navot)
    turns h sum_n g(h |n + theta|) into the finite-part integral of g plus
    Hurwitz-zeta terms from each singularity of g. The origin, where
    g = A/y**2 + B ln y + c0 + O(y**2), gives A pi**2 csc(pi theta)**2 / h
    + B h ln(2 sin pi theta), and A pi**2/(3h) + B h ln(2 pi/h) - c0 h for
    the plain family, whose n = 0 term is absent. The light cone y = 1,
    where g = p/e + (c + c1 e) ln|e| + analytic in e = y - 1, gives
    -p pi cot(x) + c h ln|2 sin x| + c1 h**2 Cl_2(2x)/(2 pi) at each of the
    phases x = pi (tau -/+ theta). The integral vanishes for both normal
    kernels and cancels between the families for the parallel ones. The
    local coefficients (A, B, c0, p, c, c1) are
    (0, 0, 1/12, -1/16, 1/16, -3/16) for dv2-parallel, (1/4, 0, 1/12, 0, -1/8, 3/8) for dv2-normal,
    (0, -1/3, -1/18, 0, 1/4, -1/4) for dx2-parallel and
    (1/2, -1/3, 1/9, 0, 0, 1/2) for dx2-normal.

    The oscillating terms diverge on the image light cones, so a point
    within ``window`` of one is rejected by the same rule as
    :func:`platevac.dispersions.dispersion_exact`.

    Raises
    ------
    RegimeError
        If t < REGIME_MARGIN * 2a, that is, before five cavity crossings.
    SingularWindowError
        If ``t`` is within ``window`` (relative) of any image cone.
    """
    kind = _as_kind(kind)
    geom, t = point.geometry, point.t
    a, theta, tau = geom.a, geom.z / geom.a, point.gamma
    if tau < REGIME_MARGIN:
        raise RegimeError(f"late-time form needs t/(2a) >= {REGIME_MARGIN}, got {tau}")
    checked_report(singularity_report(geom.z, a, t, threshold=window), t)
    if kind.axis == "normal":
        plateau = math.pi**2 / (4.0 * a * a) * (1.0 / 3.0 + math.sin(math.pi * theta) ** -2)
        value = plateau if kind.observable == "velocity" else plateau * t * t / 2.0
    elif kind.observable == "velocity":
        value = (
            math.pi / (8.0 * a * t) * _cone_contrast(_cot, tau, theta)
            - 1.0 / (3.0 * t * t)
            + _cone_contrast(_log_2sin, tau, theta) / (4.0 * t * t)
        )
    else:
        value = (
            -math.log(math.pi * t / (2.0 * a * math.sin(math.pi * theta))) / 3.0
            + 1.0 / 18.0
            + _cone_contrast(_log_2sin, tau, theta) / 4.0
            - a / (4.0 * math.pi * t) * _cone_contrast(_clausen2, tau, theta)
        )
    return ReducedValue(value)


def midpoint_extremal(kind, a, t):
    """Late-time laws at the midplane z = a/2, where the normal motion is extremal.

    This is :func:`approx_large_t` at ``Geometry(a, a/2)``, with the same
    regime, t >= REGIME_MARGIN * 2a, and error orders. There, with
    x = pi t/a, the laws are

    * dv2-normal = pi**2/(3 a**2), remainder
      -(1/3 + ln|2 sin x|)/t**2 + O(a/t**3)
    * dv2-parallel = pi/(2 a t sin x) - 1/(3 t**2)
      + ln|tan(x/2)|/(2 t**2), error O(a/t**3)
    * dx2-parallel = -(1/3) ln(pi t/2a) + 1/18 + (1/2) ln|tan(x/2)|
      - (a/(2 pi t)) (Cl_2(x) + Cl_2(pi - x)), error O((a/t)**2); the
      last term is -G a/(pi t) at t/a = 2k + 1/2, with G Catalan's
      constant
    * dx2-normal = pi**2 t**2/(6 a**2), remainder
      -(1/3) ln(2 pi t/a) - 1/9 + O(a/t)

    For the record, the published midplane forms are

    * dv2-normal  = 17/(6 a**2) - 1/t**2
    * dv2-parallel = -1/(3 t**2) + 26 a**2/(15 t**4)
    * dx2-parallel = -(2/3) ln(t**2/(2 a**2)) + ln(t/(3a))
    * dx2-normal  = 17 t**2/(12 a**2) + (2/3) ln 2 - ln(t/(3a))

    Against the exact image sums at a = 1, t = 1000.5 they are off by a
    relative 1.39e-1 (the plateau 17/6 against pi**2/3 = 3.2899),
    1.00 (no light-cone oscillation), 2.26e-1 and 1.39e-1, and those
    errors shrink by at most x1.5 from t = 100.5.
    """
    point = EvalPoint(Geometry(a, 0.5 * a), t)
    return approx_large_t(kind, point)


def recommend_regime(point):
    """Name the asymptotic regime for a point: large_a, intermediate, large_t."""
    geom, t = point.geometry, point.t
    if t <= min(2.0 * geom.z, 2.0 * geom.zbar) / REGIME_MARGIN:
        return "large_a"
    if point.gamma >= REGIME_MARGIN:
        return "large_t"
    return "intermediate"
