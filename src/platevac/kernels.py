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
and finite on both sides of the light cone u = 1. The cone itself is a
genuine logarithmic/power singularity: public entry points reject points
with |t - 2|x|| < window * t, or on the cone, as image lattices do.

The kernels are reduced: the universal charge/mass prefactor is applied
once, downstream, by :func:`platevac.physics.physicalize`.

This module also owns the image lattice every two-plate sum runs over:
the offset families n a and n a +/- z, the horizon past which a sum may
stop, the light-cone window rule and the nearest cone with its exact phases.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import GeometryError, SingularWindowError, in_float_range

# Default relative half-width of the excluded window around each light cone.
SINGULAR_WINDOW = 1e-6

# Branch switch points. Below _G_SERIES_CUT the closed position forms lose
# ~u**-2 digits to cancellation, so a power series takes over; above
# _U_LARGE the parallel forms cancel from the other side and an inverse
# power series, within 2 eps from u = 4, takes over.
_G_SERIES_CUT = 0.35
_U_LARGE = 4.0

_G_SERIES_TERMS = 24
_INV_SERIES_TERMS = 16

# Inverse-series coefficients of the parallel kernels in w = u**-2, highest
# power first for np.polyval: k / (4 (2k+1)) and 1/(2k+3) + 1/k, k = 16..1.
_K_INV = np.arange(_INV_SERIES_TERMS, 0, -1.0)
_VEL_PAR_INV = _K_INV / (4.0 * (2.0 * _K_INV + 1.0))
_POS_PAR_INV = 1.0 / (2.0 * _K_INV + 3.0) + 1.0 / _K_INV

# Large-offset series (c_k, m, s0, p) of each scaled kernel, keyed like _SCALED:
# at u = t/2x < 1 an image is sum_k c_k (t/2)**(2k+m) x**-(2k+s0), s0 = 4, with
# |c_{k+1}/c_k| < ((k+2)/(k+1))**p = 1. The position kernels' small-u branches sum
# it as G(u) = sum_k c_k u**(2k+4). 40 terms reach below double precision at u = 1/2.
_K = np.arange(40.0)
_SERIES = {
    ("parallel", "velocity"): (-(_K + 1.0) / (4.0 * (2.0 * _K + 1.0)), 2, 4, 0),
    ("normal", "velocity"): (1.0 / (4.0 * (2.0 * _K + 1.0)), 2, 4, 0),
    ("parallel", "position"): (-(_K + 1.0) / (2.0 * (2.0 * _K + 1.0) * (_K + 2.0)), 4, 4, 0),
    ("normal", "position"): (1.0 / (2.0 * (2.0 * _K + 1.0) * (_K + 2.0)), 4, 4, 0),
}


def _lam(u):
    """artanh(min(u, 1/u)) elementwise; u is a nonnegative ndarray."""
    safe = np.maximum(u, np.finfo(float).tiny)
    arg = np.minimum(u, 1.0 / safe)
    with np.errstate(divide="ignore"):
        return np.arctanh(arg)


def _log_abs_one_minus_u2(u):
    # (1-u)(1+u) keeps precision near the cone, where 1-u**2 would not.
    return np.log(np.abs((1.0 - u) * (1.0 + u)))


def _small_u_series(coef, u):
    """sum_k coef[k] u**(2k+4) to k < _G_SERIES_TERMS, by Horner in u**2."""
    w = u * u
    return np.polyval(coef[_G_SERIES_TERMS - 1 :: -1], w) * w * w


def _piecewise(u, *pieces):
    """Each (mask, f) of ``pieces`` gives f(u[mask]) where its mask holds; the masks
    partition u. A piece no element takes costs nothing, and one every element
    takes is evaluated on u itself, so an array in one branch is not copied.
    """
    out = np.empty_like(u)
    for mask, f in pieces:
        if mask.all():
            return f(u)
        if mask.any():
            out[mask] = f(u[mask])
    return out


def _vel_parallel_closed(u):
    with np.errstate(divide="ignore", invalid="ignore"):
        rational = u * u / (8.0 * (u * u - 1.0))
    return rational - u * _lam(u) / 8.0


def _vel_parallel_inverse(u):
    # Large u: the two pieces cancel to O(u**-2); sum the difference series
    # F_par = sum_{k>=1} k / (4 (2k+1)) u**(-2k) instead.
    w = 1.0 / (u * u)
    return np.polyval(_VEL_PAR_INV, w) * w


def _vel_parallel_scaled(u):
    """F_par(u); ndarray in, ndarray out."""
    u = np.asarray(u, dtype=float)
    big = u >= _U_LARGE
    return _piecewise(u, (~big, _vel_parallel_closed), (big, _vel_parallel_inverse))


def _vel_normal_scaled(u):
    """F_norm(u); stable at all u, no branch needed."""
    u = np.asarray(u, dtype=float)
    return u * _lam(u) / 4.0


def _pos_parallel_closed(u):
    return (u * u - u * u * u * _lam(u) + _log_abs_one_minus_u2(u)) / 6.0


def _pos_parallel_inverse(u):
    # Large u: u**2 - u**3 artanh(1/u) = -1/3 - sum_{k>=1} u**(-2k)/(2k+3)
    # and ln(u**2-1) = 2 ln u - sum_{k>=1} u**(-2k)/k.
    w = 1.0 / (u * u)
    return (2.0 * np.log(u) - 1.0 / 3.0 - np.polyval(_POS_PAR_INV, w) * w) / 6.0


def _pos_parallel_scaled(u):
    """G_par(u); series below the cut, closed form between, inverse series above."""
    u = np.asarray(u, dtype=float)
    small = u < _G_SERIES_CUT
    big = u >= _U_LARGE
    return _piecewise(
        u,
        (~(small | big), _pos_parallel_closed),
        (small, lambda u: _small_u_series(_SERIES[("parallel", "position")][0], u)),
        (big, _pos_parallel_inverse),
    )


def _pos_normal_closed(u):
    return (u * u + 2.0 * u * u * u * _lam(u) + _log_abs_one_minus_u2(u)) / 6.0


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


# (scaled kernel of u, carries 1/x**2) per (axis, observable). Every closed kernel
# is looked up here at call time, so replacing an entry reaches all of them.
_SCALED = {
    ("parallel", "velocity"): (_vel_parallel_scaled, True),
    ("normal", "velocity"): (_vel_normal_scaled, True),
    ("parallel", "position"): (_pos_parallel_scaled, False),
    ("normal", "position"): (_pos_normal_scaled, False),
}


# From u = t/2x = _U_FAR on, w = (2x/t)**2 <= 1e-200 is nil against 1 and each kernel
# is the first term of its inverse series in w, formed from x and t without u**2 or
# u**3, which leave the float range (or take w below it) long before the value does:
# F_par/x**2 = w/12/x**2 = 1/(3 t**2), F_norm/x**2 = 1/(4 x**2), G_par = (ln u - 1/6)/3
# and G_norm = u**2/2 + ln(u)/3 + 1/9, with ln u = ln t - ln 2x.
_U_FAR = 1e100


def _ln_u(x, t):
    return math.log(t) - math.log(2.0 * x)


_FAR = {
    ("parallel", "velocity"): lambda x, t: 1.0 / 3.0 / t / t,
    ("normal", "velocity"): lambda x, t: 0.25 / x / x,
    ("parallel", "position"): lambda x, t: (_ln_u(x, t) - 1.0 / 6.0) / 3.0,
    ("normal", "position"): lambda x, t: t / x * (t / x) / 8.0 + _ln_u(x, t) / 3.0 + 1.0 / 9.0,
}


def _image_values(key, x, t):
    """The kernel _SCALED[key] at the offsets x > 0 (an ndarray) and the time t, one for
    all offsets or one per offset, inf beyond the float range. Past u = _U_FAR, where the
    scaled forms overflow, each image takes _FAR's form at its own time."""
    scaled, per_x2 = _SCALED[key]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = t / x * 0.5
        v = scaled(u) / x / x if per_x2 else scaled(u)
    far = u >= _U_FAR
    if far.any():
        t_far = np.broadcast_to(t, x.shape)[far]
        v[far] = [_FAR[key](float(xi), float(ti)) for xi, ti in zip(x[far], t_far)]
    return v


def _kernel_at(key, x, t, window):
    """The kernel _SCALED[key] at one image x and time t, under the window rule."""
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

    def gap(shift, n):  # |t/2 - shift - n a| as (rounded, rounding error), and its terms
        terms = [y_h, -shift, *[math.copysign(a, n_h - n)] * abs(n - n_h)]
        y = math.fsum(terms)
        return (abs(y), math.fsum([*terms, -y]) * (1.0 if y > 0.0 else -1.0)), terms

    phases, best = [], None
    for family, shift, n_low in families:
        phases.append(_phase_sum(p_h, _phase(-shift, a), a) if shift else p_h)
        y = phases[-1][1]
        n = n_h + round((y_h - y) / a - shift / a)
        if n < n_low:
            n, y = n_low, y - (n_low - n) * a
        elif abs(y) == 0.5 * a:  # as rounded: the next cone may be as near, or nearer
            pair = sorted({n, max(n + (1 if y > 0.0 else -1), n_low)})
            n = min(pair, key=lambda m: gap(shift, m)[0])
            y = gap(shift, n)[0][0]
        dist = abs(y) / t * 2.0 if t else math.inf
        if best is None or dist < best[0] or dist == best[0] < math.inf and (
                gap(shift, n)[0] < gap(*best[2:])[0]):
            best = (dist, family, shift, n)
    dist, family, shift, n = best
    offset = math.fsum([half, *(-v for v in gap(shift, n)[1])])
    return SingularityReport(dist, offset, 2.0 * offset, family, n, threshold, tuple(phases))


def checked_report(report, t):
    """Return ``report``, or raise SingularWindowError carrying it when t is near a cone."""
    if report.is_near:
        raise SingularWindowError(
            f"t={t} within {report.threshold} (relative) of image cone at t={report.nearest_time}",
            report=report,
        )
    return report
