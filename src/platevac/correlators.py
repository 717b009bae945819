"""Electric-field correlators between two plates via image sums.

The renormalized photon two-point function between conducting plates at
z = 0 and z = a is a lattice of image terms: offsets z + z' + 2na summed
over all integers n with a reflected tensor factor, plus offsets
z - z' + 2na summed over n != 0 with the flat tensor factor; halved, they
are the families n a +/- (z+z')/2 and n a +/- (z-z')/2. Double time
derivatives of it give the equal-position electric-field correlators that
drive the Brownian motion; those reduce to image sums of the two raw
kernels

    K_par(x, dt)  = (dt**2 + 4 x**2) / (dt**2 - 4 x**2)**3
    K_norm(x, dt) = 1 / (dt**2 - 4 x**2)**2

over the same offset families n a and n a +/- z used everywhere else.

Every image sum is explicit up to a range fixed by the geometry, past
which each offset family's remainder is a series of Hurwitz zeta values.
"""

import math

import numpy as np
from scipy.special import zeta

from .errors import ConvergenceError, GeometryError, SingularWindowError, in_float_range
from .kernels import _K, SINGULAR_WINDOW, _image_report, _nearest_cone, checked_report, horizon
from .kernels import singularity_report
from .quantities import Geometry, ReducedValue

# Metric signature (+,-,-,-); the plate-reflected tensor flips the zz entry.
_ETA_DIAG = (1.0, -1.0, -1.0, -1.0)
_REFLECTED_DIAG = (1.0, -1.0, -1.0, 1.0)


# Every image sum takes at least _N_MIN pairs explicitly; one whose geometry
# needs more than _N_MAX raises ConvergenceError before summing. _TAIL_TARGET
# is the bound on tail_estimate / |value| that picks the tail bound reported.
# The photon function's relative light-cone window is _PHOTON_CONE_WINDOW.
_N_MIN = 8
_N_MAX = 2_000_000
_TAIL_TARGET = 1e-10
_PHOTON_CONE_WINDOW = 1e-10

# Explicit shells are summed _BLOCK at a time, so an image sum holds a few
# (families x _BLOCK) arrays at any t/a: 96 KB each for three families, below
# glibc's 128 KB mmap threshold. 2,048 and 8,192 measured slower.
_BLOCK = 4096


# The raw kernels take x2 = (2x)**2, so a caller can square its offsets once.
def _k_parallel(x2, dt):
    d = dt * dt - x2
    return (dt * dt + x2) / (d * d * d)


def _k_normal(x2, dt):
    d = dt * dt - x2
    return 1.0 / (d * d)


# Large-offset series (c_k, m, s0, p) of the raw kernels: for x > dt/2,
# K = sum_k c_k (dt/2)**(2k+m) x**-(2k+s0) with m = 0 and s0 = 4, and
# |c_{k+1} / c_k| = ((k+2)/(k+1))**p.
_K_PARALLEL_SERIES = (-((_K + 1.0) ** 2) / 16.0, 0, 4, 2)
_K_NORMAL_SERIES = ((_K + 1.0) / 16.0, 0, 4, 1)


def _correlator_term(kvec, x, dt):
    _image_report(x, abs(dt), SINGULAR_WINDOW)
    x, dt = abs(x), abs(dt)
    h = max(x, 0.5 * dt)  # K has degree -4, so K(4 x**2, dt) = K(4 (x/h)**2, dt/h) / h**4
    xh = x / h
    return in_float_range(kvec(4.0 * xh * xh, dt / h) / h / h / h / h, "image term")


def correlator_term_parallel(x, dt):
    """Single-image raw integrand for the tangential E-field correlator.

    Even in ``dt``; defined at dt = 0 where it equals -1/(16 x**4).
    """
    return _correlator_term(_k_parallel, x, dt)


def correlator_term_normal(x, dt):
    """Single-image raw integrand for the normal E-field correlator.

    Even in ``dt``; defined at dt = 0 where it equals +1/(16 x**4).
    """
    return _correlator_term(_k_normal, x, dt)


def _hurwitz_tail(total, series, step, q, weights):
    """Add to ``total`` the images x = (q[f] + n) step, n >= 0, of each family f.

    Each is weights[f] sum_k c_k h**(2k+m) x**-(2k+s0) with (c, m, s0, p, h) =
    ``series``, so the family's k-th term is weights[f] c_k (h/step)**(2k+m)
    zeta(2k+s0, q[f]) / step**(s0-m) (DLMF 25.11). Only the ratio h/step and
    the power s0 - m of step, which is the dimension of the value, enter, so
    a scale-free value stays in range at any a. With every x above 2h and
    |c_{k+1}/c_k| <= ((k+2)/(k+1))**p, each term is at most rho_k =
    ((k+2)/(k+1))**p (h/(q[f] step))**2 < 1 times the one before, so what
    follows term k is at most |term k| rho_k/(1 - rho_k). The value carries
    every term; the tail estimate is that bound at the first k where it is at
    most _TAIL_TARGET |value|.
    """
    c, m, s0, p, h = series
    k = _K[:, None]
    u = h / (step * q)
    zq = zeta(2.0 * k + s0, q)
    # zeta underflows to 0 for large k and q, where q**k may overflow.
    qk = q ** np.where(zq > 0.0, k, 0.0)
    scale = np.float64(h / step) ** m / np.float64(step) ** (s0 - m)
    terms = (c[:, None] * weights * scale) * u ** (2.0 * k) * (qk * zq * qk)
    rho = ((k + 2.0) / (k + 1.0)) ** p * u * u
    bounds = np.sum(np.abs(terms) * rho / (1.0 - rho), axis=1)
    value = total + float(np.sum(terms))
    met = np.flatnonzero(bounds <= _TAIL_TARGET * abs(value))
    return value, float(bounds[met[0] if met.size else -1])


def _grouped_image_sum(fvec, sign, a, z, series, horizon_n, d=0.0):
    """Sum sign f(z) + sum_{n>=1} [f(n a + d) + f(n a - d) + sign (f(n a + z) + f(n a - z))].

    ``fvec`` maps an array of positive offsets, of any shape, elementwise to
    image values and ``series`` is its large-offset series (see
    :func:`_hurwitz_tail`). Pairs up to max(_N_MIN, 2 horizon_n) are explicit,
    so every later offset exceeds t; they are summed _BLOCK shells at a time,
    with one fvec call on each (families x block) array of offsets. Callers
    reject a point on a light cone, so a non-finite sum is beyond the float
    range, which numpy need not warn of. Returns (value, tail_estimate, n_used).
    """
    N = max(_N_MIN, 2 * horizon_n)
    if N > _N_MAX:
        raise ConvergenceError(f"image sum needs {N} explicit pairs, above the cap of {_N_MAX}")
    # (shift, weight) per offset family; at d = 0 the plain pair is one family of weight 2.
    plain = [(0.0, 2.0)] if d == 0.0 else [(d, 1.0), (-d, 1.0)]
    shifts, weights = np.array([*plain, (z, sign), (-z, sign)]).T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total = sign * float(fvec(np.array([z]))[0])
        for n in range(1, N + 1, _BLOCK):
            base = np.arange(n, min(n + _BLOCK, N + 1), dtype=float) * a
            total += float(weights @ fvec(base + shifts[:, None]).sum(axis=1))
        value, tail = _hurwitz_tail(total, series, a, N + 1.0 + shifts / a, weights)
    return in_float_range(value, "image sum"), tail, N


def _efield(kvec, series, sign, z, a, dt, window):
    Geometry(a, z)  # rejects a placement the dispersions reject
    dt = abs(dt)
    report = checked_report(singularity_report(z, a, dt, threshold=window), dt)
    value, tail, n_used = _grouped_image_sum(
        lambda x: kvec(4.0 * x * x, dt), sign, a, z, (*series, 0.5 * dt), horizon(a, z, dt)
    )
    pi2 = math.pi * math.pi
    return ReducedValue(value / pi2, tail / pi2, n_used, report)


def efield_correlator_parallel(z, a, dt, *, window=SINGULAR_WINDOW):
    """Renormalized tangential E-field correlator at fixed position.

    Image sum of the parallel raw kernel: the plain offsets n a enter
    twice, the shifted offsets n a +/- z enter with a minus sign, all
    divided by pi**2. ``dt = 0`` is allowed (coincidence limit).
    """
    return _efield(_k_parallel, _K_PARALLEL_SERIES, -1.0, z, a, dt, window)


def efield_correlator_normal(z, a, dt, *, window=SINGULAR_WINDOW):
    """Renormalized normal E-field correlator at fixed position.

    Same structure as :func:`efield_correlator_parallel` but with the
    normal raw kernel and the shifted offsets entering with a plus sign.
    """
    return _efield(_k_normal, _K_NORMAL_SERIES, 1.0, z, a, dt, window)


def empty_space_efield(dt):
    """Equal-position E-field correlator component with no plates, 1/(pi**2 dt**4).

    Isotropic: holds for any one diagonal component. Adding it to the
    renormalized tangential correlator recovers the full correlator that
    vanishes on the plates. A non-finite ``dt``, or one so small that the
    value is beyond the float range, raises GeometryError.
    """
    if not math.isfinite(dt):
        raise GeometryError(f"time difference must be finite, got dt={dt}")
    if dt == 0.0:
        raise SingularWindowError("empty-space correlator diverges at dt = 0")
    value = 1.0 / (math.pi * math.pi) / dt / dt / dt / dt
    return in_float_range(value, f"empty-space correlator at dt={dt}")


def minkowski_two_point(mu, nu, dt, dx, dy, dz):
    """Free-space photon two-point function, metric diag(+,-,-,-).

    eta_{mu nu} / (4 pi**2 s2) with s2 the squared interval; zero off the
    diagonal. Points on the light cone are rejected; non-finite ones, and
    a value beyond the float range, raise GeometryError.
    """
    _check_indices(mu, nu)
    if mu != nu:
        return 0.0
    parts = (dt, dx, dy, dz)
    if not all(map(math.isfinite, parts)):
        raise GeometryError(f"interval must be finite, got dt={dt}, dx={dx}, dy={dy}, dz={dz}")
    # Scaled by a power of two, exactly, so the squares below stay in range.
    e = math.frexp(max(map(abs, parts)))[1]
    st, sx, sy, sz = (math.ldexp(p, -e) for p in parts)
    s2 = st * st - sx * sx - sy * sy - sz * sz
    if abs(s2) <= 1e-12 * (st * st + sx * sx + sy * sy + sz * sz):
        raise SingularWindowError("points are light-like separated")
    try:
        return math.ldexp(_ETA_DIAG[mu] / (4.0 * math.pi * math.pi * s2), -2 * e)
    except OverflowError:
        raise GeometryError(f"two-point function at dt={dt} is beyond the float range") from None


def _check_indices(mu, nu):
    if mu not in (0, 1, 2, 3) or nu not in (0, 1, 2, 3):
        raise GeometryError(f"tensor indices must be 0..3, got ({mu}, {nu})")


def _lattice_scalar(A, sign, a, c, d):
    """Grouped image sum of f(x) = 1/(A - 4 x**2), shifted by c and plain by d.

    With t = sqrt|A| it has the explicit range of a dispersion at (a, c, t);
    past it f(x) = -sum_k sign(A)**k (t/2)**2k x**-(2k+2) / 4. For A > 0 an
    image within _PHOTON_CONE_WINDOW of its cone 2x = t raises
    SingularWindowError. Returns (value, tail, N, nearest-cone report or None).
    """
    t = math.sqrt(abs(A))
    n_top = horizon(a, c, t)
    report = None
    if A > 0.0:
        families = (("plain", d, 1), ("plain", -d, 1), ("shifted", c, 0), ("shifted", -c, 1))
        report = checked_report(_nearest_cone(families, a, t, _PHOTON_CONE_WINDOW), t)
    series = (-(np.sign(A) ** _K) / 4.0, 0, 2, 0, 0.5 * t)
    value, tail, n_used = _grouped_image_sum(
        lambda x: 1.0 / (A - 4.0 * x * x), sign, a, c, series, n_top, d
    )
    return value, tail, n_used, report


def renormalized_photon_two_point(mu, nu, dt, dx, dy, z, zp, a):
    """Plate-induced part of the photon two-point function, Feynman gauge.

    Diagonal tensor: the z + z' + 2na lattice carries minus the reflected
    metric factor diag(1,-1,-1,1), the z - z' + 2na lattice (n != 0)
    carries plus the flat metric, both over 4 pi**2. Off-diagonal
    components vanish identically.

    Returns a :class:`ReducedValue`; its tail estimate bounds the
    truncation of the Hurwitz-zeta tail, ``n_used`` counts its shells and
    ``singularity`` reports the nearest cone of a time-like interval.
    """
    _check_indices(mu, nu)
    Geometry(a, z)
    Geometry(a, zp)
    A = dt * dt - dx * dx - dy * dy
    if not math.isfinite(A):
        raise GeometryError(f"interval must be finite, got dt={dt}, dx={dx}, dy={dy}")
    if mu != nu:
        return ReducedValue(0.0)
    sign = -_REFLECTED_DIAG[mu] / _ETA_DIAG[mu]  # z + z' lattice relative to z - z'
    value, tail, n_used, report = _lattice_scalar(A, sign, a, 0.5 * (z + zp), 0.5 * (z - zp))
    four_pi2 = 4.0 * math.pi * math.pi
    return ReducedValue(_ETA_DIAG[mu] * value / four_pi2, tail / four_pi2, n_used, report)
