"""Closed-form time-integrated kernels for a single image at distance x.

Velocity kernels carry the double time integral of the electric-field
correlator of one image charge; position kernels carry the quadruple
integral. Both depend on x and t only through u = t / (2|x|), so each is
implemented as a scaled function of u:

    velocity_kernel(x, t) = F(u) / x**2      (dimension 1/length**2)
    position_kernel(x, t) = G(u)             (dimensionless)

with Lam(u) = artanh(min(u, 1/u)) = (1/2) ln|(1+u)/(1-u)| and

    F_par(u)  = u**2 / (8 (u**2 - 1)) - (u/8) Lam(u)
    F_norm(u) = (u/4) Lam(u)
    G_par(u)  = (1/6) (u**2 -   u**3 Lam(u) + ln|1 - u**2|)
    G_norm(u) = (1/6) (u**2 + 2 u**3 Lam(u) + ln|1 - u**2|)

All logarithms take the modulus of their argument, so every kernel is real
and finite on both sides of the light cone u = 1. Lam is evaluated from the
gap |1 - u|, exact next to the cone, as (1/2) log1p(2 min(u, 1) / |1 - u|), and
ln|1 - u**2| as 2 log1p(u) - 2 Lam(u), so no kernel cancels two logarithms of
the gap: at a float u next to the cone each is within a few eps. The cone is a
genuine logarithmic/power singularity: public entry points reject points
with |t - 2|x|| < window * t, or on the cone, as image lattices do.

The kernels are reduced: the universal charge/mass prefactor is applied
once, downstream, by :func:`platevac.physics.physicalize`.

Below u = 4 each kernel is its closed form, or its small-u series where the
position forms cancel. From u = 4 on it is its series at the origin, where
y = 1/u = 0, formed from x and t, so no intermediate leaves the float range
before the value does.

This module also tables each kernel's expansions, its large-offset series
(_SERIES), its origin and light-cone terms (_LATE) and its origin series
(_ORIGIN), and owns the image lattice every two-plate sum runs over: the
offset families n a and n a +/- z, the horizon past which a sum may stop,
the light-cone window rule and the nearest cone with its exact phases.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import GeometryError, SingularWindowError, in_float_range

# Default relative half-width of the excluded window around each light cone.
SINGULAR_WINDOW = 1e-6

# Branch switch points. Below _G_SERIES_CUT the closed position forms lose
# ~u**-2 digits to cancellation (up to 35 eps at u = 0.35..0.5), so a power
# series takes over; from _U_LARGE up the parallel forms cancel from the other
# side, and every kernel takes its origin series (_ORIGIN), within 2 eps there.
_G_SERIES_CUT = 0.6
_U_LARGE = 4.0

# Large-offset series (c_k, m) of each scaled kernel, keyed like _SCALED: at u = t/2x < 1
# an image is sum_k c_k (t/2)**(2k+m) x**-(2k+4), with |c_{k+1}/c_k| < 1. The position
# kernels' small-u branches sum it as G(u) = sum_k c_k u**(2k+4). 40 terms reach below
# double precision up to u = _G_SERIES_CUT.
_K = np.arange(40.0)
_SERIES = {
    ("parallel", "velocity"): (-(_K + 1.0) / (4.0 * (2.0 * _K + 1.0)), 2),
    ("normal", "velocity"): (1.0 / (4.0 * (2.0 * _K + 1.0)), 2),
    ("parallel", "position"): (-(_K + 1.0) / (2.0 * (2.0 * _K + 1.0) * (_K + 2.0)), 4),
    ("normal", "position"): (1.0 / (2.0 * (2.0 * _K + 1.0) * (_K + 2.0)), 4),
}

# Origin and cone terms (A, B, c0, p, alpha, beta) of each scaled kernel, keyed like _SCALED.
# With y = 2x/t = 1/u an image is (2/t)**2 g(y) for a velocity and g(y) for a position.
# At y = 0, g = A/y**2 + B ln y + c0 + even powers of y; at the cone, e = y - 1,
# g = p/e + (alpha + beta/y**3) ln|e| + a function analytic in e. The late-time expansion
# of platevac.correlators takes the whole row; _ORIGIN continues its origin terms.
_LATE = {
    ("parallel", "velocity"): (0.0, 0.0, 1 / 12, -1 / 16, 0.0, 1 / 16),
    ("normal", "velocity"): (0.25, 0.0, 1 / 12, 0.0, 0.0, -1 / 8),
    ("parallel", "position"): (0.0, -1 / 3, -1 / 18, 0.0, 1 / 6, 1 / 12),
    ("normal", "position"): (0.5, -1 / 3, 1 / 9, 0.0, 1 / 6, -1 / 6),
}

# Origin series of each scaled kernel, keyed like _SCALED: the coefficients d_j of y**(2j),
# j = 0..15, in g(y) = A/y**2 + B ln y + sum_j d_j y**(2j), d_0 being _LATE's c0. From
# u = _U_LARGE (y**2 = 1/16) on the omitted terms are below 1e-19 of the sum.
_J = np.arange(16.0)
_ORIGIN = {
    key: np.concatenate(([_LATE[key][2]], d(_J[1:])))
    for key, d in (
        (("parallel", "velocity"), lambda j: (j + 1.0) / (4.0 * (2.0 * j + 3.0))),
        (("normal", "velocity"), lambda j: 1.0 / (4.0 * (2.0 * j + 3.0))),
        (("parallel", "position"), lambda j: -(1.0 / (2.0 * j + 3.0) + 1.0 / j) / 6.0),
        (("normal", "position"), lambda j: (2.0 / (2.0 * j + 3.0) - 1.0 / j) / 6.0),
    )
}


def _lam(u):
    """artanh(min(u, 1/u)) = (1/2) log1p(2 min(u, 1) / |1 - u|) elementwise, u a nonnegative
    ndarray: the gap |1 - u| is exact next to the cone (Sterbenz), so Lam keeps its digits
    there, and it is inf on the cone."""
    return 0.5 * np.log1p(2.0 * np.minimum(u, 1.0) / np.abs(1.0 - u))


def _small_u_series(coef, u):
    """sum_k coef[k] u**(2k+4) over all of coef: Horner in u**8 over blocks of four terms, each
    by Horner in u**2, elementwise (an array gives each element the bits it gets alone)."""
    w = u * u
    c = coef.reshape(-1, 4, *(1,) * w.ndim)
    blocks = ((c[:, 3] * w + c[:, 2]) * w + c[:, 1]) * w + c[:, 0]
    return np.polyval(blocks[::-1], (w * w) ** 2) * w * w


def _piecewise(u, *pieces):
    """Each (mask, f) of ``pieces`` gives f(u[mask]) where its mask holds; the masks
    partition u. A piece no element takes costs nothing, and one every element
    takes is evaluated on u itself, so an array in one branch is not copied.
    """
    out = np.empty_like(u)
    for mask, f in pieces:
        count = np.count_nonzero(mask)
        if count == u.size:
            return f(u)
        if count:
            out[mask] = f(u[mask])
    return out


def _vel_parallel_scaled(u):
    """F_par(u) below _U_LARGE; ndarray in, ndarray out."""
    u = np.asarray(u, dtype=float)
    return u * u / (8.0 * (u - 1.0) * (u + 1.0)) - u * _lam(u) / 8.0


def _vel_normal_scaled(u):
    """F_norm(u); stable at all u, no branch needed."""
    u = np.asarray(u, dtype=float)
    return u * _lam(u) / 4.0


def _pos_parallel_closed(u):
    lam = _lam(u)  # log1p(u) - lam = ln|1 - u**2| / 2, a difference exact where it cancels
    return (u * u + 2.0 * (np.log1p(u) - lam) - u * u * u * lam) / 6.0


def _pos_parallel_scaled(u):
    """G_par(u) below _U_LARGE; series below the cut, closed form above it."""
    u = np.asarray(u, dtype=float)
    small = u < _G_SERIES_CUT
    return _piecewise(
        u,
        (~small, _pos_parallel_closed),
        (small, lambda u: _small_u_series(_SERIES[("parallel", "position")][0], u)),
    )


def _pos_normal_closed(u):
    return (u * u + 2.0 * ((u - 1.0) * (u * u + u + 1.0) * _lam(u) + np.log1p(u))) / 6.0


def _pos_normal_scaled(u):
    """G_norm(u); series below the cut, stable closed form everywhere else."""
    u = np.asarray(u, dtype=float)
    small = u < _G_SERIES_CUT
    return _piecewise(
        u,
        (~small, _pos_normal_closed),
        (small, lambda u: _small_u_series(_SERIES[("normal", "position")][0], u)),
    )


def _check_t(t):
    if t < 0.0 or not math.isfinite(t):
        raise GeometryError(f"elapsed time must be finite and nonnegative, got t={t}")


def _image_report(x, t, window):
    """The window rule for one image at distance x: None at t = 0, else its checked report.

    A zero or non-finite x and a negative or non-finite t raise GeometryError.
    """
    if x == 0.0 or not math.isfinite(x):
        raise GeometryError(f"image distance must be finite and nonzero, got x={x}")
    _check_t(t)
    if t == 0.0:
        return None
    offset = float(abs(x))
    report = SingularityReport(abs(t - 2.0 * offset) / t, offset, 2.0 * offset, None, None, window)
    return checked_report(report, t)


# (scaled kernel of u below _U_LARGE, carries 1/x**2) per (axis, observable);
# _image_values gives every kernel at every u. Every closed kernel is looked up
# here at call time, so replacing an entry reaches all of them.
_SCALED = {
    ("parallel", "velocity"): (_vel_parallel_scaled, True),
    ("normal", "velocity"): (_vel_normal_scaled, True),
    ("parallel", "position"): (_pos_parallel_scaled, False),
    ("normal", "position"): (_pos_normal_scaled, False),
}


def _image_values(key, x, t):
    """The kernel ``key`` at the offsets x > 0 (an ndarray) and the time t, one for all
    offsets or one per offset, inf beyond the float range: _SCALED[key] below u = _U_LARGE,
    and from there on, in one pass formed from x and t with y = 2x/t, the origin series
    A/x**2 + (2/t)**2 sum_j d_j y**(2j) of a velocity or A u**2 - B ln u + sum_j d_j y**(2j)
    of a position, ln u = ln(t/2) - ln x where u is inf and the A term left out where A = 0."""
    scaled, per_x2 = _SCALED[key]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = t / x * 0.5
        big = u >= _U_LARGE
        n_big = np.count_nonzero(big)  # one count in place of any() and all(), each slower
        if not n_big:
            return scaled(u) / x / x if per_x2 else scaled(u)
        v = np.empty_like(u)
        if n_big < u.size:
            near = ~big
            x_near = x[near]
            v[near] = scaled(u[near]) / x_near / x_near if per_x2 else scaled(u[near])
        x, u = x[big], u[big]
        if np.ndim(t):
            t = t[big]
        y = x / (0.5 * t)
        series = ((y * y)[:, None] ** _J) @ _ORIGIN[key]
        A, B = _LATE[key][:2]
        if per_x2:  # B = 0
            s = 2.0 / t
            v[big] = (A / x / x if A else 0.0) + s * (s * series)
        else:
            ln_u = np.log(u)
            inf = u == np.inf
            if np.count_nonzero(inf):
                ln_u = np.where(inf, np.log(0.5 * t) - np.log(x), ln_u)
            v[big] = (u * (A * u) if A else 0.0) - B * ln_u + series
    return v


def _kernel_at(key, x, t, window):
    """The kernel ``key`` at one image x and time t, under the window rule."""
    if _image_report(x, t, window) is None:
        return 0.0
    v = _image_values(key, np.array([abs(float(x))]), t)[0]
    return in_float_range(float(v), "kernel value")


def velocity_kernel_parallel(x, t, *, window=SINGULAR_WINDOW):
    """Reduced velocity-dispersion kernel for motion along the plates.

    Parameters
    ----------
    x : float
        Signed distance to the image charge; only |x| enters.
    t : float
        Elapsed time. ``t = 0`` returns exactly 0.
    window : float, optional
        Relative half-width of the rejected region around t = 2|x|.

    Returns
    -------
    float
        F_par(t / 2|x|) / x**2.

    Raises
    ------
    GeometryError
        If ``x == 0``, ``t < 0`` or an input is not finite.
    SingularWindowError
        If ``t`` is within ``window * t`` of the light cone, or on it; the
        error carries the :class:`SingularityReport`.
    """
    return _kernel_at(("parallel", "velocity"), x, t, window)


def velocity_kernel_normal(x, t, *, window=SINGULAR_WINDOW):
    """Reduced velocity-dispersion kernel for motion along the plate normal.

    Same contract as :func:`velocity_kernel_parallel`; returns
    F_norm(t / 2|x|) / x**2, which is strictly positive for t > 0.
    """
    return _kernel_at(("normal", "velocity"), x, t, window)


def position_kernel_parallel(x, t, *, window=SINGULAR_WINDOW):
    """Reduced position-dispersion kernel for motion along the plates.

    Same contract as :func:`velocity_kernel_parallel`; returns the
    dimensionless G_par(t / 2|x|).
    """
    return _kernel_at(("parallel", "position"), x, t, window)


def position_kernel_normal(x, t, *, window=SINGULAR_WINDOW):
    """Reduced position-dispersion kernel for motion along the plate normal.

    Same contract as :func:`velocity_kernel_parallel`; returns the
    dimensionless G_norm(t / 2|x|).
    """
    return _kernel_at(("normal", "position"), x, t, window)


def horizon(a, z, t):
    """Image index beyond which every offset family lies past the light front t/2.

    Image terms decay like offset**-4 only beyond it, so no image sum may
    stop before it. GeometryError when that index is beyond the float range.
    """
    return math.ceil(in_float_range((0.5 * t + z) / a, "image index")) + 1


def _fold(x, a):
    """(sign, y) with sin(pi x/a) = sign sin(pi y/a) and |y| <= a/2, for |x| <= a.

    Taking a off x is exact there (Sterbenz), and its odd multiple of a gives the
    sign, which reducing modulo pi alone would lose.
    """
    if x > 0.5 * a:
        return -1.0, x - a
    if x < -0.5 * a:
        return -1.0, x + a
    return 1.0, x


def _phase(x, a):
    """The phase pi x/a as (sign, y) of _fold, exactly: math.remainder modulo 2a is exact.

    Where 2a overflows, |x| <= a already and math.remainder returns x.
    """
    return _fold(math.remainder(x, 2.0 * a), a)


def _phase_sum(p, q, a):
    """(sign, r) with sign sin(pi r/a) the sine of the sum of the phases p and q and
    |r| <= a/2 up to rounding. The sum is kept as an exact pair (two-sum) and folded
    by the exact _fold, so r is the reduced phase rounded once: a phase next to a
    multiple of pi keeps its digits however many half-periods it spans."""
    u, v = p[1], q[1]
    hi = u + v
    v_part = hi - u
    lo = (u - (hi - v_part)) + (v - v_part)
    sign, hi = _fold(hi, a)
    return p[0] * q[0] * sign, hi + lo


class SingularityReport:
    """Distance from an evaluation time to the nearest image light cone.

    Attributes
    ----------
    distance : float
        min |t - 2 X| / t over all image offsets X; inf when t = 0.
    nearest_offset : float
        The offset X achieving the minimum.
    nearest_time : float
        The singular time 2 X for that offset.
    family : str or None
        "plain" for offsets n a, "shifted" for n a +/- z (photon: n a +/- d,
        n a +/- c); None for a single image, which belongs to no lattice.
    n : int or None
        Image index of the nearest offset; None for a single image.
    threshold : float
        The window the distance was compared against.
    is_near : bool
        True when ``distance < threshold`` or t lies on a cone.
    phases : tuple or None
        Per offset family, the phase (sign, y) of t/2 - shift = m a + y, |y| <= a/2,
        sign = (-1)**m, y rounded once; None for a single image.
    """

    __slots__ = ("distance", "nearest_offset", "nearest_time", "family", "n", "threshold",
                 "is_near", "phases")

    def __init__(self, distance, nearest_offset, nearest_time, family, n, threshold, phases=None):
        if not 0.0 <= threshold < math.inf:
            raise GeometryError(f"singular window must be finite and nonnegative, got {threshold}")
        self.distance = distance
        self.nearest_offset = nearest_offset
        self.nearest_time = nearest_time
        self.family = family
        self.n = n
        self.threshold = threshold
        self.is_near = distance < threshold or distance == 0.0
        self.phases = phases

    def __repr__(self):
        return (
            f"SingularityReport(distance={self.distance:.3e}, "
            f"offset={self.nearest_offset}, family={self.family!r}, n={self.n}, "
            f"near={self.is_near})"
        )


def singularity_report(z, a, t, threshold=SINGULAR_WINDOW):
    """Locate the image light cone nearest to time ``t``.

    The image offsets of the two-plate geometry are n a (n >= 1) and
    |n a +/- z| (n >= 0); each contributes a singular time 2 X. The report
    carries the minimum relative distance |t - 2 X| / t, read off the exact
    reductions of t/2, t/2 - z and t/2 + z modulo a, its phases: exactly 0
    on a cone and not 0 off it, at any t/a.

    Parameters
    ----------
    z, a : float
        Particle position and plate separation, 0 < z < a.
    t : float
        Elapsed time.
    threshold : float, optional
        Window used to set the report's ``is_near`` flag; a negative or
        non-finite one raises GeometryError.
    """
    if not (0.0 < z < a):
        raise GeometryError(f"need 0 < z < a, got z={z}, a={a}")
    _check_t(t)
    families = (("plain", 0.0, 1), ("shifted", z, 0), ("shifted", -z, 1))
    return _nearest_cone(families, a, t, threshold)


def _nearest_cone(families, a, t, threshold):
    """Report on the cones of the offsets n a + shift > 0, n >= n_low, of each family
    (name, shift, n_low), every |shift| below a.

    With t/2 = n_h a + y_h exactly, the phase y of t/2 - shift places the family's
    nearest cone n, or n_low below it, at distance 2|y|/t; the gap, a sum of a few
    floats, decides equal finite distances and |y| = a/2 exactly. Ties go to the
    first family listed, then to the lowest n. All is exact at any t/a: from 2**49 up
    n_h is the exact rational quotient (t/2 - y_h)/a, an integer that the float one
    may miss past 2**51. t/2 is 0.5 t, as the closed forms take it.
    """
    half = 0.5 * t
    p_h = _phase(half, a)
    y_h = p_h[1]
    q = in_float_range((half - y_h) / a, "image index")
    n_h = round(q if abs(q) < 2**49 else (Fraction(half) - Fraction(y_h)) / Fraction(a))

    def terms(shift, n):  # t/2 - shift - n a as a sum of a few floats
        return [y_h, -shift, *[math.copysign(a, n_h - n)] * abs(n - n_h)]

    def gap(shift, n):  # |t/2 - shift - n a| as (rounded, rounding error)
        parts = terms(shift, n)
        y = math.fsum(parts)
        return abs(y), math.fsum([*parts, -y]) * (1.0 if y > 0.0 else -1.0)

    phases, best = [], None
    for family, shift, n_low in families:
        phases.append(_phase_sum(p_h, _phase(-shift, a), a) if shift else p_h)
        y = phases[-1][1]
        n = n_h + round((y_h - y) / a - shift / a)
        if n < n_low:
            n, y = n_low, y - (n_low - n) * a
        elif abs(y) == 0.5 * a:  # as rounded: the next cone may be as near, or nearer
            pair = sorted({n, max(n + (1 if y > 0.0 else -1), n_low)})
            n = min(pair, key=lambda m: gap(shift, m))
            y = gap(shift, n)[0]
        dist = abs(y) / t * 2.0 if t else math.inf
        if best is None or dist < best[0] or dist == best[0] < math.inf and (
                gap(shift, n) < gap(*best[2:])):
            best = (dist, family, shift, n)
    dist, family, shift, n = best
    offset = -math.fsum([-half, *terms(shift, n)])  # t/2 less the gap's terms, rounded once
    return SingularityReport(dist, offset, 2.0 * offset, family, n, threshold, tuple(phases))


def checked_report(report, t):
    """Return ``report``, or raise SingularWindowError carrying it when t is near a cone."""
    if report.is_near:
        raise SingularWindowError(
            f"t={t} within {report.threshold} (relative) of image cone at t={report.nearest_time}",
            report=report,
        )
    return report
