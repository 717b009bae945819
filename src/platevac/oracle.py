"""Independent quadrature route to the dispersions.

The closed-form kernels in :mod:`platevac.kernels` are time integrals of
the two raw rational integrands of :mod:`platevac.correlators`. This module
recomputes those integrals by adaptive quadrature, without touching the
closed forms, so the two routes certify each other:

    velocity(x, t) = 2 * integral_0^t (t - tau) K(x, tau) dtau
    position(x, t) = 2 * integral_0^t (t**3/3 - tau t**2/2 + tau**3/6)
                     K(x, tau) dtau

with K the raw parallel or normal integrand, which has poles of order 2
or 3 at tau = +-tau0, tau0 = 2x. A dispersion is a weighted sum of these
integrals over the image lattice, and the whole sum is integrated at
once. Every image whose pole lies below 2t (offset below t, where the
exact route sums its images explicitly) is split exactly into its
Laurent part S at +tau0 plus the mirror-pole remainder R. S times the
polynomial weight integrates in closed form: past the light cone
(tau0 < t) that is the Hadamard finite part, with divergent boundary
terms dropped and the 1/(tau - tau0) piece a principal value; before it
(t < tau0 < 2t) it is an ordinary integral. Every R and the raw
integrands of the farther images are smooth on [0, t]; summed into one
integrand, they take a single adaptive quadrature; a second one, of the
last image group alone, gives the tail estimate.
"""

import hashlib
import json
import warnings

import numpy as np
import scipy.integrate

from .correlators import _N_MAX, _grouped_image_sum, _k_normal, _k_parallel
from .errors import ConvergenceError, GeometryError, in_float_range
from .kernels import (
    SINGULAR_WINDOW,
    _SCALED,
    _check_t,
    _image_report,
    _kernel_at,
    checked_report,
    horizon,
    offset_kernel,
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


# Pinned image counts giving quadrature-route truncation below 1e-8
# relative at the certification point: the parallel families cancel
# pairwise (offset**-6 group decay), the normal families do not
# (offset**-4, so the truncated tail shrinks only like the count cubed).
N_IMAGES_PARALLEL = 50
N_IMAGES_NORMAL = 300


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


def _fp_power(p, t, tau0):
    """Integral_0^t (tau - tau0)**p dtau, as a finite part if tau0 lies in (0, t).

    Endpoint antiderivative differences. With the pole inside, the
    divergent boundary terms at tau0 cancel (odd p) or are dropped (even
    p) by the Hadamard prescription, and p = -1 is the principal-value
    logarithm; with the pole beyond t the same differences are the
    ordinary integral.
    """
    if p == -1:
        return np.log(np.abs(t - tau0) / tau0)
    return ((t - tau0) ** (p + 1) - (-tau0) ** (p + 1)) / (p + 1)


def _finite_part_image(axis, observable, x, t):
    """Closed-form weighted integral over [0, t] of each image's Laurent part at +2x.

    The weight is a polynomial, so w * S expands exactly into powers of
    (tau - tau0), each integrated by :func:`_fp_power`. Vectorised over
    the image distances x.
    """
    tau0 = 2.0 * x
    _, taylor = _weight(observable, t)
    a, _ = _laurent(axis, tau0)
    wj = taylor(tau0)
    total = 0.0
    for k, ak in enumerate(a, start=1):
        for j, wcoef in enumerate(wj):
            total = total + ak * wcoef * _fp_power(j - k, t, tau0)
    return total


def _image_sum(axis, observable, x, c, t):
    """sum_i c_i integral_0^t w(tau) K(x_i, tau) dtau over images at distances x_i > 0.

    Images with x_i < t contribute their Laurent part at +2 x_i in closed
    form; their mirror-pole remainders and the raw integrands of the
    other images are summed into one integrand, smooth on [0, t], which a
    single adaptive quadrature integrates. Callers reject a t near a cone.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w, _ = _weight(observable, t)
        split = x < t
        tau0 = 2.0 * x[split]
        closed = float(np.dot(c[split], _finite_part_image(axis, observable, x[split], t)))
        # Mirror-pole coefficients with the image weights folded in, highest order first.
        mirror = [c[split] * bk for bk in reversed(_laurent(axis, tau0)[1])]
        c_raw = c[~split]
        x2_raw = 4.0 * x[~split] ** 2

        def smooth(tau):
            r = 1.0 / (tau + tau0)
            acc = mirror[0]
            for bk in mirror[1:]:
                acc = acc * r + bk
            return w(tau) * (np.dot(acc, r) + np.dot(c_raw, _RAW[axis](x2_raw, tau)))

        return in_float_range(closed + _quad(smooth, 0.0, t), "image integral")


def _image_integral(axis, observable, x, t, *, window=SINGULAR_WINDOW):
    if axis not in _RAW:
        raise GeometryError(f"axis must be parallel or normal, got {axis!r}")
    if _image_report(x, t, window) is None:
        return 0.0
    return _image_sum(axis, observable, [abs(x)], [1.0], t)


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
    """Quadrature route to the closed-form velocity kernel of one image."""
    return _image_integral(axis, "velocity", x, t, window=window)


def image_position_integral(axis, x, t, *, window=SINGULAR_WINDOW):
    """Quadrature route to the closed-form position kernel of one image."""
    return _image_integral(axis, "position", x, t, window=window)


def dispersion_via_quadrature(kind, point, n_images=None, *, window=SINGULAR_WINDOW):
    """Reduced dispersion from a quadrature of the summed raw image integrands.

    Independent of the closed-form kernels. The default image count is
    the per-axis pinned count or twice the horizon, whichever is larger:
    up to twice the horizon the images still have t/2x above 1/2 and
    decay slowly, so a sum stopped at the horizon is off by its tail,
    and twice the horizon is where the exact route's explicit shells
    stop too. An explicit ``n_images`` below the horizon raises
    GeometryError; a count above 2,000,000, the image sums' cap, raises
    ConvergenceError before any array is built. Every image group is
    integrated as one sum (see the module docstring). The returned tail
    estimate bounds what the truncation leaves out by integral comparison
    of the offset**-4 group decay, scaled from the last group's 2|plain|
    + |up| + |down|: past t/2 each of its raw integrands keeps one sign
    on [0, t], so a second quadrature of their unsigned sum is that
    magnitude. That makes two adaptive quadratures per call, whatever
    the image count.
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
        pinned = N_IMAGES_PARALLEL if kind.axis == "parallel" else N_IMAGES_NORMAL
        n_images = max(pinned, 2 * n_horizon)
    if n_images < n_horizon:
        raise GeometryError(
            f"n_images={n_images} does not reach past the horizon (need >= {n_horizon})"
        )
    if n_images > _N_MAX:
        raise ConvergenceError(f"{n_images} image shells exceed the cap of {_N_MAX}")

    sign = kind.image_sign
    axis, obs = kind.axis, kind.observable
    with np.errstate(over="ignore"):
        na = np.arange(1.0, n_images + 1) * a
        offsets = np.concatenate(([z], na, na + z, na - z))
    weights = np.concatenate(([sign], np.full(na.size, 2.0), np.full(2 * na.size, sign)))
    total = _image_sum(axis, obs, offsets, weights, t)
    last = n_images * a + np.array([0.0, z, -z])
    tail = abs(_image_sum(axis, obs, last, [2.0, 1.0, 1.0], t)) * n_images / 3.0
    return ReducedValue(total, tail, n_images, report)


_GRID_X = (0.5, 1.0, 2.0)
_GRID_T_OVER_X = (0.1, 0.5, 1.5, 3.0)
_GRID_TOL = 1e-8


def certification_report():
    """Cross-check closed-form kernels against the quadrature route.

    Runs the full x and t/|x| grid for all four kernels (the t/|x| = 3
    column exercises the finite-part
    machinery), then records the convention adjudications the two routes
    settle: the modulus-log position forms past the cone, and the sign
    with which the shifted image family enters the normal components.

    Returns a JSON-serializable dict with a top-level "certified" flag.
    """
    grid = []
    worst = 0.0
    for axis, obs in _SCALED:
        for x in _GRID_X:
            for ratio in _GRID_T_OVER_X:
                t = ratio * x
                quad_val = _image_integral(axis, obs, x, t)
                closed_val = _kernel_at((axis, obs), x, t, SINGULAR_WINDOW)
                diff = abs(quad_val - closed_val)
                worst = max(worst, diff)
                grid.append(
                    {
                        "axis": axis,
                        "observable": obs,
                        "x": x,
                        "t": t,
                        "closed": closed_val,
                        "quadrature": quad_val,
                        "abs_diff": diff,
                        "finite_part": ratio > 2.0,
                        "ok": diff <= _GRID_TOL,
                    }
                )

    # Sign adjudication for the shifted family in the normal components:
    # compare the quadrature image sum against both candidate signs of
    # the closed-form route at a pre-cone point.
    from .dispersions import dispersion_exact  # deferred: dispersions imports nothing back

    point = EvalPoint(Geometry(1.0, 0.5), 0.3)
    sign_checks = []
    for obs in ("velocity", "position"):
        kind = DispersionKind("normal", obs)
        quad_val = dispersion_via_quadrature(kind, point).value
        plus = dispersion_exact(kind, point).value
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
    geom, t = point.geometry, point.t
    fvec, series = offset_kernel(kind, t)
    n_horizon = horizon(geom.a, geom.z, t)
    value, _, _ = _grouped_image_sum(fvec, -1.0, geom.a, geom.z, series, n_horizon)
    return value


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
