"""Asymptotic expansions of the reduced dispersions.

Two regimes have closed expansions:

* large separation (times short compared with the round trip to the
  images replaced): the nearest images keep their exact kernels and every
  other image is replaced by its leading power law, which resums into
  Hurwitz zeta values;
* late times (many cavity crossings): each image family is a lattice sum
  with spacing 2a/t of one scaled kernel, expanded by Euler-Maclaurin
  with the singular terms at the origin and at the light cone; the
  light-cone terms give the oscillation in t mod 2a. The expansion is
  :func:`platevac.correlators._late_terms`, which the exact route takes
  past 64 shells (t = 62 a) to the order its bound asks for.

Every function returns the same reduced normalization as
:func:`platevac.dispersions.dispersion_exact`. A point outside a
formula's regime raises :class:`platevac.errors.RegimeError`.
"""

from .correlators import _ZETA_2K, _closed_lattice, _eps_terms, _late_terms, _zeta
from .dispersions import single_plate_reference
from .errors import GeometryError, RegimeError, in_float_range
from .kernels import _LATE, _SERIES, SINGULAR_WINDOW, _phase, checked_report
from .kernels import singularity_report
from .quantities import DispersionKind, EvalPoint, Geometry, ReducedValue

# Regime margin: large-a wants t at most 1/REGIME_MARGIN of the nearest
# image round trip, large-t wants at least REGIME_MARGIN cavity crossings.
REGIME_MARGIN = 5.0


def image_sum_quartic(z, a):
    """Closed form of sum over all integers n of 1 / (n a + z)**4.

    The E-field's lattice sum of 1/(x**2 - h**2)**2 at h = 0, (pi/a)**4
    (cos(p)**2 + sin(p)**2 / 3) / sin(p)**4 at p = pi z/a from the exactly
    reduced phase of z: it keeps its digits next to either plate, and is 0
    or subnormal below the float range; above it, GeometryError.
    """
    if not (0.0 < z < a):
        raise GeometryError(f"need 0 < z < a, got z={z}, a={a}")
    value = _closed_lattice(*[_phase(z, a)] * 3, a, 1.0, _eps_terms((1.0, 0.0), 0.0, a))[0]
    return in_float_range(value, f"lattice sum at z={z}, a={a}")


def _wide_gap(kind, geom, t, k):
    """Images z and (k = 2) a - z exact, every other one its leading law c0 (t/2)**m / x**4.

    The plain images n a (n != 0) sum to 2 zeta(4) / a**4 and the other
    shifted ones, with the axis sign, to (zeta(4, 1 + z/a) + zeta(4, k - z/a)) / a**4.
    The tail estimate bounds the _SERIES terms left out: in a family of images
    (q + n) a, n >= 0, each is at most rho = (t/2qa)**2 times the one before,
    so all after the leading law are at most its modulus times rho/(1 - rho).
    """
    c, m = _SERIES[(kind.axis, kind.observable)]
    theta = geom.z / geom.a
    zetas = (_ZETA_2K[1], *_zeta(4, [1.0 + theta, k - theta]).tolist())
    lattice = 2.0 * zetas[0] + kind.image_sign * (zetas[1] + zetas[2])
    near = sum(single_plate_reference(kind, x, t) for x in (geom.z, geom.zbar)[:k])
    # (t/2)**m / a**4 is the square of (t/2a)**(m/2) / a**(2 - m/2), where t/2a <= 1/5
    root = (0.5 * t / geom.a) ** (m // 2) / geom.a ** (2 - m // 2)
    value = near + float(c[0] * lattice) * root * root
    rho = [(0.5 * t / geom.a / q) ** 2 for q in (1.0, 1.0 + theta, k - theta)]
    omitted = sum(w * zq * r / (1.0 - r) for w, zq, r in zip((2.0, 1.0, 1.0), zetas, rho))
    bound = float(abs(c[0]) * omitted) * root * root
    return ReducedValue(in_float_range(value, "wide-gap value"),
                        in_float_range(bound, "wide-gap bound"))


def approx_large_a(kind, point):
    """Wide-gap expansion: the images at z and a - z exact, the others by power laws.

    Valid while t is small compared with the round trips 2z and 2(a - z);
    enforced as t <= min(2z, 2(a-z)) / REGIME_MARGIN.
    """
    kind = DispersionKind.coerce(kind)
    geom, t = EvalPoint.checked(point).geometry, point.t
    if t > min(2.0 * geom.z, 2.0 * geom.zbar) / REGIME_MARGIN:
        raise RegimeError(
            f"large-separation form needs t <= min(2z, 2(a-z))/{REGIME_MARGIN}, got t={t}"
        )
    return _wide_gap(kind, geom, t, 2)


def approx_large_a_far(kind, point):
    """Far-plate limit z, t << a: the nearest plate exact plus the second plate's leading law.

    What it leaves out is smaller than that correction by (t/2a)**2. The
    far plate counts as far at a >= 20 * REGIME_MARGIN * z, and the time
    as short at t <= 2a / REGIME_MARGIN.
    """
    kind = DispersionKind.coerce(kind)
    geom, t = EvalPoint.checked(point).geometry, point.t
    if geom.a < 20.0 * REGIME_MARGIN * geom.z:
        raise RegimeError(f"far-plate form needs a >> z, got a/z={geom.a / geom.z}")
    if t > 2.0 * geom.a / REGIME_MARGIN:
        raise RegimeError(f"far-plate form needs t << 2a, got t={t}, a={geom.a}")
    return _wide_gap(kind, geom, t, 1)


# Each late law takes one order of 2a/t past its leading one, (2a/t)**-2 where A != 0,
# else (2a/t)**-1 where p != 0, else (2a/t)**0.
_LAW_ORDER = {key: (-2 if A else -1 if p else 0) + 1 for key, (A, _, _, p, _, _) in _LATE.items()}


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
    where g = p/e + sum_j c_j e**j ln|e| + analytic in e = y - 1, gives
    -p pi cot(x) + c_0 h ln|2 sin x| + c_1 h**2 Cl_2(2x)/(2 pi) + O(h**3)
    at each of the phases x = pi (tau -/+ theta). The integral vanishes for
    both normal kernels and cancels between the families for the parallel
    ones. The local coefficients (A, B, c0, p, c_0, c_1) are
    (0, 0, 1/12, -1/16, 1/16, -3/16) for dv2-parallel, (1/4, 0, 1/12, 0, -1/8, 3/8) for dv2-normal,
    (0, -1/3, -1/18, 0, 1/4, -1/4) for dx2-parallel and
    (1/2, -1/3, 1/9, 0, 0, 1/2) for dx2-normal. Each law is
    :func:`platevac.correlators._late_terms` taken to one order of 2a/t
    past its leading one.

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
    kind = DispersionKind.coerce(kind)
    geom, t = EvalPoint.checked(point).geometry, point.t
    a, tau = geom.a, point.gamma
    if tau < REGIME_MARGIN:
        raise RegimeError(f"late-time form needs t/(2a) >= {REGIME_MARGIN}, got {tau}")
    phases = checked_report(singularity_report(geom.z, a, t, threshold=window), t).phases
    key = (kind.axis, kind.observable)
    terms = _late_terms(key, kind.image_sign, a, geom.z, t, phases, _LAW_ORDER[key])
    return ReducedValue(in_float_range(sum(terms), "late-time law"))


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
    geom, t = EvalPoint.checked(point).geometry, point.t
    if t <= min(2.0 * geom.z, 2.0 * geom.zbar) / REGIME_MARGIN:
        return "large_a"
    if point.gamma >= REGIME_MARGIN:
        return "large_t"
    return "intermediate"
