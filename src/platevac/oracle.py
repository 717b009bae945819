"""Independent route to the dispersions from the raw image integrands.

The closed-form kernels in :mod:`platevac.kernels` are time integrals of
the two raw rational integrands of :mod:`platevac.correlators`. This module
recomputes those integrals from the raw integrands, without touching the
closed forms, so the two routes certify each other:

    velocity(x, t) = 2 * integral_0^t (t - tau) K(x, tau) dtau
    position(x, t) = 2 * integral_0^t (t**3/3 - tau t**2/2 + tau**3/6)
                     K(x, tau) dtau

with K the raw parallel or normal integrand, which has poles of order 2
or 3 at tau = +-tau0, tau0 = 2x. A dispersion is a weighted sum of these
integrals over the image lattice. Every image whose pole lies below 2t
(offset below t, where the exact route sums its images explicitly) is
integrated in closed form: K is exactly the sum of its principal parts at
+tau0 and -tau0 and the weight is a polynomial, so w * K expands into
powers of (tau -+ tau0) with polynomial antiderivatives. Past the light
cone (tau0 < t) the +tau0 powers take the Hadamard finite part, with
divergent boundary terms dropped and the 1/(tau - tau0) piece a principal
value; before it, and at -tau0, they are ordinary integrals. This uses
only K's Laurent coefficients, never the kernels' F(u), G(u) or branches,
so it is as independent of them as a quadrature of the same parts. The
raw integrands of the farther images, whose poles lie at least t beyond
[0, t], are summed into one integrand and take a single adaptive
quadrature. The images past the summed count are added in closed form:
K's large-offset series in tau**2/4x**2, integrated against the weight,
leaves one Hurwitz zeta value per family and power, and the tail estimate
bounds the series' remainder geometrically from its raw coefficients,
and the closed-form parts' rounding from the moduli of their terms.
"""

import hashlib
import json
import math
import sys
import warnings

import numpy as np
from scipy.special import zeta

from . import dispersions  # dispersion_exact by its module, where bench/tracing.py wraps it
from .correlators import _EPS, _N_MAX, _ROUNDING, _k_normal, _k_parallel
from .correlators import _grouped_image_sum  # unused here; bench/tracing.py wraps it by this name
from .dispersions import _lattice
from .errors import ConvergenceError, GeometryError, in_float_range
from .kernels import (
    SINGULAR_WINDOW,
    _K,
    _SCALED,
    _check_t,
    _image_report,
    _image_values,
    checked_report,
    horizon,
    singularity_report,
)
from .quantities import DispersionKind, EvalPoint, Geometry, ReducedValue


class QuadratureSpec:
    """The oracle's fixed adaptive-quadrature tolerances.

    Attributes
    ----------
    abs_tol, rel_tol : float
        Tolerances handed to the adaptive integrator.
    max_subdivisions : int
        Subdivision cap per quadrature.
    """

    abs_tol = 1e-13
    rel_tol = 1e-11
    max_subdivisions = 200


# Pinned image shells summed before the large-offset series takes the rest
# (see _remainder), one count for either axis. Past them the series ratio
# (t/2x)**2 is below 1e-3 for t up to 3a, so a few terms carry the rest to
# double precision; later times sum to twice the horizon.
N_IMAGES_PARALLEL = N_IMAGES_NORMAL = 50


# The raw correlator integrand K of each axis, shared with the E-field correlators.
_RAW = {"parallel": _k_parallel, "normal": _k_normal}


def _laurent(axis, tau0):
    """Laurent coefficients of the raw integrand at its poles +-tau0.

    Returns (a, b): a[k-1] multiplies (tau - tau0)**-k, b[k-1] multiplies
    (tau + tau0)**-k, with b_k = (-1)**k a_k by evenness. K is exactly the
    sum of both principal parts.
    """
    if axis == "parallel":
        a = (1.0 / (8.0 * tau0**3), -1.0 / (8.0 * tau0**2), 1.0 / (4.0 * tau0))
    else:
        a = (-1.0 / (4.0 * tau0**3), 1.0 / (4.0 * tau0**2))
    b = tuple((-1.0) ** k * a[k - 1] for k in range(1, len(a) + 1))
    return a, b


def _weight(observable, t):
    """Weight polynomial w(tau) and its Taylor coefficients at a point."""
    if observable == "velocity":

        def w(tau):
            return 2.0 * (t - tau)

        def taylor(tau0):
            return (2.0 * (t - tau0), -2.0)

    else:
        # numpy cubes: inf beyond the float range rather than OverflowError
        t3 = np.float64(t) ** 3

        def w(tau):
            return 2.0 * t3 / 3.0 - tau * t * t + np.float64(tau) ** 3 / 3.0

        def taylor(tau0):
            return (
                2.0 * t3 / 3.0 - tau0 * t * t + tau0**3 / 3.0,
                tau0 * tau0 - t * t,
                tau0,
                1.0 / 3.0,
            )

    return w, taylor


def _quad(f, lo, hi):
    if hi <= lo:
        return 0.0
    import scipy.integrate  # deferred: most processes never integrate

    spec = QuadratureSpec
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, err = scipy.integrate.quad(
            f, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=spec.max_subdivisions
        )
    if err > 100.0 * (spec.abs_tol + spec.rel_tol * abs(val)):
        raise ConvergenceError(
            f"quadrature error {err:.2e} on [{lo}, {hi}] exceeds tolerance",
            value=val,
            error_estimate=err,
        )
    return val


def _finite_part_image(axis, observable, x, t):
    """Closed-form integral_0^t w(tau) K(x, tau) dtau of each image at distance x < t.

    K is exactly its principal parts at +-tau0, tau0 = 2x, and w * K expands
    exactly into a_k w_j (tau -+ tau0)**(j - k), with a_k the Laurent
    coefficients and w_j the Taylor coefficients of w at the pole. Each
    power integrates by its antiderivative, (tau -+ tau0)**(p + 1) / (p + 1)
    or log|tau -+ tau0|, differenced over [0, t]: with +tau0 inside (0, t)
    that is the Hadamard finite part, p = -1 being the principal value.
    One numpy pass over (terms x images), t one time for all images or one
    per image; the terms are added as they are, since combining the
    coefficients of each power first loses digits to cancellation near a
    plate (numpy adds one image's terms in another order than several
    images', which moves a value by up to 0.2 eps of its terms' moduli).
    Returns (values, moduli), moduli being each image's sum of the moduli
    of its terms, the scale of the value's rounding.
    """
    tau0 = 2.0 * np.asarray(x, dtype=float)
    _, taylor = _weight(observable, t)
    pole = np.stack((tau0, -tau0))
    laurent = np.array(_laurent(axis, tau0))  # (pole, k, image)
    wj = np.stack(np.broadcast_arrays(*taylor(pole)), axis=1)  # (pole, j, image)
    q = np.arange(wj.shape[1]) - np.arange(laurent.shape[1])[:, None]  # p + 1 = j - k + 1
    q = q[None, :, :, None]
    end, start = t - pole[:, None, None, :], -pole[:, None, None, :]
    fp = np.where(
        q == 0,
        np.log(np.abs(end) / np.abs(start)),
        (end**q - start**q) / np.where(q == 0, 1, q),
    )
    terms = laurent[:, :, None, :] * wj[:, None, :, :] * fp
    return terms.sum(axis=(0, 1, 2)), np.abs(terms).sum(axis=(0, 1, 2))


def _image_sum(axis, observable, x, c, t):
    """sum_i c_i integral_0^t w(tau) K(x_i, tau) dtau over images at distances x_i > 0.

    Images with x_i < t are integrated in closed form by
    :func:`_finite_part_image`; the raw integrands of the others are
    summed into one integrand, smooth on [0, t], which a single adaptive
    quadrature integrates. With no image at x_i >= t there is no
    quadrature, and with none below t no closed-form pass. Callers reject
    a t near a cone. Returns (sum, tolerance): the tolerance is the one
    the quadrature is held to, max(abs_tol, rel_tol |its value|), plus
    _ROUNDING eps sum_i |c_i| S_i over the closed-form images, S_i the
    sum of the moduli of image i's terms, which bounds their rounding.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    near = x < t
    total, tol = 0.0, 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if near.any():
            c_near = c[near]
            values, moduli = _finite_part_image(axis, observable, x[near], t)
            total = float(np.dot(c_near, values))
            tol = _ROUNDING * _EPS * float(np.dot(np.abs(c_near), moduli))
        if not near.all():
            w, _ = _weight(observable, t)
            c_far = c[~near]
            x2_far = 4.0 * x[~near] ** 2
            far = _quad(lambda tau: w(tau) * np.dot(c_far, _RAW[axis](x2_far, tau)), 0.0, t)
            total += far
            tol += max(QuadratureSpec.abs_tol, QuadratureSpec.rel_tol * abs(far))
        return in_float_range(total, "image integral"), tol


def _remainder(axis, observable, t, q, weights):
    """sum_f weights[f] sum_{n>=0} integral_0^t w(tau) K(q[f] + n, tau) dtau: (value, bound).

    With y = tau**2/4x**2 the raw integrands are the series
    K_normal = (1/16x**4) sum_k (k+1) y**k and
    K_parallel = -(1/16x**4) sum_k (k+1)**2 y**k, and the weight's moments
    are W_2k = integral_0^t w tau**2k dtau = 2 t**(2k+2)/((2k+1)(2k+2))
    for the velocity and that times t**2/(2k+4) for the position. Each
    image's integral is therefore sum_k c_k W_2k/(16 4**k x**(4+2k)), and
    a family's sum over n is zeta(4+2k, q[f]) (DLMF 25.11). Term k is
    formed scale-free as t**m/8 u**2k (q**2k zeta(4+2k, q)) over the
    moment's denominator, with u = t/2q and m = 2 or 4, so nothing
    overflows. Every x is at least q[f] > t/2, and c_{k+1}/c_k is at most
    ((k+2)/(k+1))**p, p = 1 normal and 2 parallel, while W_{2k+2} <=
    t**2 W_2k since w >= 0; so each term is at most rho_k =
    ((k+2)/(k+1))**p u**2 times the one before, and what follows the last
    term taken, k, is at most |term k| rho_k/(1 - rho_k). Terms are taken
    while u**2k is above the double epsilon, at most len(_K) of them, and
    while zeta(4+2k, q) is a normal float. A series that does not settle
    (rho_k >= 1 at its last term) raises ConvergenceError.
    """
    p = 2.0 if axis == "parallel" else 1.0
    u = 0.5 * t / q
    # Terms fall like u**2k (u < 1 past the horizon): take them until that is below epsilon.
    u_max = max(float(u.max()), sys.float_info.min)
    k = _K[: 1 + int(math.log(sys.float_info.epsilon) / (2.0 * math.log(u_max))), None]
    zq = zeta(2.0 * k + 4.0, q)
    taken = zq >= sys.float_info.min  # a prefix of k: zeta falls with its order
    qk = q ** np.where(taken, k, 0.0)
    coef = (k + 1.0) ** p / ((2.0 * k + 1.0) * (2.0 * k + 2.0))
    if observable == "position":
        coef = coef * (t * t / (2.0 * k + 4.0))
    scale = (-0.125 if axis == "parallel" else 0.125) * t * t * weights
    terms = np.where(taken, coef * scale * u ** (2.0 * k) * (qk * zq * qk), 0.0)
    last = np.count_nonzero(taken, axis=0) - 1
    rho = ((last + 2.0) / (last + 1.0)) ** p * u * u
    if np.any(rho >= 1.0):
        raise ConvergenceError("the image series past n_images does not settle: raise n_images")
    bound = float(np.abs(terms[last, np.arange(q.size)]) @ (rho / (1.0 - rho)))
    return float(np.sum(terms)), bound


def _image_integral(axis, observable, x, t, *, window=SINGULAR_WINDOW):
    if axis not in _RAW:
        raise GeometryError(f"axis must be parallel or normal, got {axis!r}")
    if _image_report(x, t, window) is None:
        return 0.0
    x, t = np.float64(abs(x)), np.float64(t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if x < t:
            value = _finite_part_image(axis, observable, np.array([x]), t)[0][0]
        else:  # the integrand is regular on [0, t]: one quadrature of it, in numpy scalars
            w, _ = _weight(observable, t)
            raw, x2 = _RAW[axis], 4.0 * x**2
            value = _quad(lambda tau: w(tau) * raw(x2, tau), 0.0, t)
    return in_float_range(float(value), "image integral")


def _weighted_integral(observable, kernel, t):
    _check_t(t)
    with np.errstate(over="ignore", invalid="ignore"):
        w, _ = _weight(observable, t)
        return in_float_range(_quad(lambda tau: w(tau) * kernel(tau), 0.0, t), "weighted integral")


def velocity_integral(kernel, t):
    """2 * integral_0^t (t - tau) kernel(tau) dtau by adaptive quadrature.

    For black-box integrands that are regular on [0, t]. Image integrands
    with an interior light-cone pole go through
    :func:`image_velocity_integral` instead. A negative or non-finite t
    raises GeometryError.
    """
    return _weighted_integral("velocity", kernel, t)


def position_integral(kernel, t):
    """2 * integral_0^t (t**3/3 - tau t**2/2 + tau**3/6) kernel(tau) dtau.

    Same contract as :func:`velocity_integral`. With kernel = 1 the
    result is exactly t**4 / 4, a useful smoke test for the weight.
    """
    return _weighted_integral("position", kernel, t)


def image_velocity_integral(axis, x, t, *, window=SINGULAR_WINDOW):
    """One image's velocity kernel from its raw integrand: closed form if x < t, else quadrature."""
    return _image_integral(axis, "velocity", x, t, window=window)


def image_position_integral(axis, x, t, *, window=SINGULAR_WINDOW):
    """One image's position kernel from its raw integrand: closed form if x < t, else quadrature."""
    return _image_integral(axis, "position", x, t, window=window)


def dispersion_via_quadrature(kind, point, n_images=None, *, window=SINGULAR_WINDOW):
    """Reduced dispersion from the summed raw image integrands.

    Independent of the closed-form kernels: images with offset below t
    are integrated in closed form from their Laurent parts, the others up
    to shell ``n_images`` by one quadrature of their summed raw
    integrands, and the shells past it by the raw integrands'
    large-offset series, which leaves Hurwitz zeta values (see
    :func:`_remainder`). The default image count is the pinned count
    N_IMAGES_NORMAL or twice the horizon, whichever is larger: past twice the
    horizon every offset exceeds t, so the series ratio (t/2x)**2 is
    below 1/4. An explicit ``n_images`` below the horizon raises
    GeometryError, and one so close to it that the series does not
    settle raises ConvergenceError; a count above 2,000,000, the image
    sums' cap, raises ConvergenceError before any array is built.
    Lengths are taken in units of a, so the value scales as a**-2
    (velocity) or not at all (position) at any a. The returned tail
    estimate is the series' geometric bound on what follows its last
    term taken, plus the tolerance the quadrature is held to, plus the
    rounding bound of the closed-form images, _ROUNDING eps times their
    weighted sums of term moduli (near a plate the parts at +tau0 and
    -tau0 cancel, and that rounding is most of the error). That makes
    at most one adaptive quadrature per call, whatever the image count:
    none when no image lies at or beyond t.
    """
    kind = DispersionKind.coerce(kind)
    if not isinstance(point, EvalPoint):
        raise GeometryError(f"expected EvalPoint, got {type(point).__name__}")
    geom, t = point.geometry, point.t
    a, z = geom.a, geom.z
    if t == 0.0:
        return ReducedValue(0.0)
    report = checked_report(singularity_report(z, a, t, threshold=window), t)
    n_horizon = horizon(a, z, t)
    if n_images is None:
        n_images = max(N_IMAGES_NORMAL, 2 * n_horizon)
    if n_images < n_horizon:
        raise GeometryError(
            f"n_images={n_images} does not reach past the horizon (need >= {n_horizon})"
        )
    if n_images > _N_MAX:
        raise ConvergenceError(f"{n_images} image shells exceed the cap of {_N_MAX}")

    sign = kind.image_sign
    axis, obs = kind.axis, kind.observable
    za, ta = z / a, t / a
    n = np.arange(1.0, n_images + 1)
    offsets = np.concatenate(([za], n, n + za, n - za))
    weights = np.concatenate(([sign], np.full(n.size, 2.0), np.full(2 * n.size, sign)))
    total, tol = _image_sum(axis, obs, offsets, weights, ta)
    shifts = np.array([0.0, za, -za])
    rest, bound = _remainder(axis, obs, ta, n_images + 1.0 + shifts, np.array([2.0, sign, sign]))
    value, tail = total + rest, bound + tol
    if obs == "velocity":
        value, tail = value / a / a, tail / a / a
    value = in_float_range(value, "dispersion")
    return ReducedValue(value, in_float_range(tail, "tail estimate"), n_images, report)


_GRID_X = (0.5, 1.0, 2.0)
_GRID_T_OVER_X = (0.1, 0.5, 1.5, 3.0)
_GRID_TOL = 1e-8


def certification_report():
    """Cross-check closed-form kernels against the quadrature route.

    Runs the full x and t/|x| grid for all four kernels (the t/|x| = 3
    column exercises the finite-part machinery), one pass per kernel: one
    closed-kernel evaluation of all its rows, one finite-part pass over
    its rows with x < t and one quadrature for each other row. It then
    records the convention adjudications the two routes settle: the
    modulus-log position forms past the cone, and the sign with which the
    shifted image family enters the normal components.

    Returns a JSON-serializable dict with a top-level "certified" flag.
    """
    rows = [(x, ratio * x, ratio) for x in _GRID_X for ratio in _GRID_T_OVER_X]
    x, t = np.array([row[:2] for row in rows]).T
    near = x < t  # _image_integral applies the window rule to the other rows itself
    for x_near, t_near in zip(x[near], t[near]):
        _image_report(x_near, t_near, SINGULAR_WINDOW)
    grid = []
    for axis, obs in _SCALED:
        closed = _image_values((axis, obs), x, t)
        quad = np.empty_like(x)
        quad[near] = _finite_part_image(axis, obs, x[near], t[near])[0]
        quad[~near] = [_image_integral(axis, obs, *row) for row in zip(x[~near], t[~near])]
        for (x_row, t_row, ratio), closed_val, quad_val in zip(rows, closed, quad):
            closed_val = in_float_range(float(closed_val), "kernel value")
            quad_val = in_float_range(float(quad_val), "image integral")
            diff = abs(quad_val - closed_val)
            grid.append(
                {
                    "axis": axis,
                    "observable": obs,
                    "x": x_row,
                    "t": t_row,
                    "closed": closed_val,
                    "quadrature": quad_val,
                    "abs_diff": diff,
                    "finite_part": ratio > 2.0,
                    "ok": diff <= _GRID_TOL,
                }
            )
    worst = max(g["abs_diff"] for g in grid)

    # Sign adjudication for the shifted family in the normal components:
    # compare the quadrature image sum against both candidate signs of
    # the closed-form route at a pre-cone point.
    point = EvalPoint(Geometry(1.0, 0.5), 0.3)
    sign_checks = []
    for obs in ("velocity", "position"):
        kind = DispersionKind("normal", obs)
        quad_val = dispersion_via_quadrature(kind, point).value
        plus = dispersions.dispersion_exact(kind, point).value
        minus = _flipped_normal_sum(kind, point)
        sign_checks.append(
            {
                "observable": obs,
                "quadrature": quad_val,
                "closed_plus": plus,
                "closed_minus": minus,
                "plus_diff": abs(quad_val - plus),
                "minus_diff": abs(quad_val - minus),
                "ok": abs(quad_val - plus) < 1e-7 < abs(quad_val - minus),
            }
        )

    certified = all(g["ok"] for g in grid) and all(s["ok"] for s in sign_checks)
    return {
        "quadrature_spec": {
            "abs_tol": QuadratureSpec.abs_tol,
            "rel_tol": QuadratureSpec.rel_tol,
            "max_subdivisions": QuadratureSpec.max_subdivisions,
        },
        "grid_tolerance": _GRID_TOL,
        "worst_grid_diff": worst,
        "grid": grid,
        "conventions": {
            "log_modulus": {
                "statement": "position kernels take log modulus past the cone",
                "evidence": "finite-part grid rows at t/|x| = 3 agree with closed forms",
                "ok": all(g["ok"] for g in grid if g["finite_part"]),
            },
            "normal_shifted_sign": {
                "statement": "shifted image family enters normal components with +",
                "checks": sign_checks,
                "ok": all(s["ok"] for s in sign_checks),
            },
        },
        "certified": certified,
    }


def _flipped_normal_sum(kind, point):
    """Closed-form image sum with the (wrong) minus shifted-family sign."""
    return _lattice(kind, point.geometry, point.t, -1.0)[0]


def write_adjudication(path):
    """Write the certification report as JSON; returns (path, sha256).

    The digest covers the file bytes exactly, so rehashing the file
    later reproduces it.
    """
    report = certification_report()
    data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return path, hashlib.sha256(data).hexdigest()
