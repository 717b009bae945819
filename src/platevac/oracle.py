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
value; before it, and at -tau0, they are ordinary integrals. Every farther
image, and every image past the summed count, is K's large-offset series in
tau**2/4x**2 integrated term by term against the weight's moments, which a
family's shells sum to platevac's own Hurwitz zeta values. Both use only K's
Laurent and Taylor coefficients, never the kernels' F(u), G(u), branches or
tables. The tail estimate bounds the series' remainders and every term's
rounding. No integral takes a quadrature: every image's is in closed form
or a bounded series.
"""

import hashlib
import json
import math
import operator

import numpy as np

from . import dispersions  # dispersion_exact by its module, where bench/tracing.py wraps it
from .correlators import _EPS, _ROUNDING, _k_normal, _k_parallel, _zeta_scaled
from .correlators import _grouped_image_sum  # unused here; bench/tracing.py wraps it by this name
from .dispersions import _lattice
from .errors import ConvergenceError, GeometryError, in_float_range
from .kernels import (
    SINGULAR_WINDOW,
    _K,
    _SCALED,
    _image_report,
    _image_values,
    checked_report,
    horizon,
    singularity_report,
)
from .quantities import DispersionKind, EvalPoint, Geometry, ReducedValue

# Above _MAX_IMAGES shells the oracle raises before it sums any. It sums its shells in
# blocks of _SHELLS, so the cap bounds its time (about 2 us a shell, a few seconds at the
# cap), not its memory.
_MAX_IMAGES = 2_000_000
_SHELLS = 1365  # shells per _raw_values pass: 3 images each, 4,096 with the n = 0 image


class QuadratureSpec:
    """Tolerances read only by the benchmark's oracle check (``bench/checks.py``), which
    adds them to its allowance although no integral takes a quadrature; the class goes
    when that check takes the oracle's own tail (ROADMAP item 1)."""

    abs_tol = 1e-13
    rel_tol = 1e-11


# Pinned image shells summed before the large-offset series takes the rest
# (see dispersion_via_quadrature), one count for either axis. Past them the
# series ratio (t/2x)**2 is below 1e-3 for t up to 3a, so a few terms carry
# the rest to double precision; later times sum to twice the horizon.
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


def _taylor(observable, t, pole):
    """Taylor coefficients of the weight polynomial w(tau) at the points ``pole``."""
    if observable == "velocity":
        return (2.0 * (t - pole), -2.0)
    # w = (t - tau)**2 (2t + tau)/3: at s = |pole|, w and w' from d = t - s keep their
    # digits next to the cone, tau = t; at -s, w adds its odd part and w' is even, so
    # both poles share their rounding, which cancels between them near a plate
    s = np.abs(pole)
    d = t - s
    w0 = d * d * (2.0 * t + s) / 3.0 + (s - pole) * (t * t - s * s / 3.0)
    return (w0, -d * (t + s), pole, 1.0 / 3.0)


def _finite_part_image(axis, observable, x, t):
    """Closed-form integral_0^t w(tau) K(x, tau) dtau of each image at distance x < t.

    K is exactly its principal parts at +-tau0, tau0 = 2x, and w * K expands
    exactly into a_k w_j (tau -+ tau0)**(j - k), with a_k the Laurent
    coefficients and w_j the Taylor coefficients of w at the pole. Each
    power integrates by its antiderivative, (tau -+ tau0)**(p + 1) / (p + 1)
    or log|tau -+ tau0|, differenced over [0, t]: with +tau0 inside (0, t)
    that is the Hadamard finite part, p = -1 being the principal value.
    One numpy pass over (terms x images), 24 doubles per image, t one time
    for all images or one per image; the terms are added as they are, since
    combining the coefficients of each power first loses digits to
    cancellation near a plate, by :func:`_column_sums`, so an image gets the
    same bits alone as in any batch. Returns (values, moduli), moduli being
    each image's sum of the moduli of its terms, the scale of its rounding.
    """
    x = np.asarray(x, dtype=float)
    tau0 = 2.0 * x
    pole = np.stack((tau0, -tau0))
    laurent = np.array(_laurent(axis, tau0))  # (pole, k, image)
    wj = np.stack(np.broadcast_arrays(*_taylor(observable, t, pole)), axis=1)  # (pole, j, image)
    # p + 1 = j - k + 1, as floats: numpy raises to integer powers several times slower
    q = np.arange(wj.shape[1], dtype=float) - np.arange(laurent.shape[1])[:, None]
    q = q[None, :, :, None]
    end, start = t - pole[:, None, None, :], -pole[:, None, None, :]
    fp = np.where(
        q == 0,
        np.log(np.abs(end) / np.abs(start)),
        (end**q - start**q) / np.where(q == 0, 1, q),
    )
    terms = (laurent[:, :, None, :] * wj[:, None, :, :] * fp).reshape(-1, x.size)
    return _column_sums(terms), _column_sums(np.abs(terms))


def _column_sums(terms):
    """Each column of a (term, image) array added row after row, as numpy adds several columns;
    a lone column, which numpy adds pairwise, takes the running sum: the same bits in any batch."""
    return terms.sum(axis=0) if terms.shape[1] > 1 else terms.cumsum(axis=0)[-1]


def _raw_series(axis, observable):
    """(coef, power, p): term k of one image's series is coef[-1-k] u**power[-1-k] (see
    _series): the arrays run from k = 39 down, so the first n terms are their last n entries."""
    p, sign = (2.0, -1.0) if axis == "parallel" else (1.0, 1.0)
    k = _K[::-1]
    c = sign * (k + 1.0) ** p / ((2.0 * k + 1.0) * (2.0 * k + 2.0))
    if observable == "velocity":
        return 0.5 * c, 2.0 * k + 2.0, p
    return 2.0 * c / (2.0 * k + 4.0), 2.0 * k + 4.0, p


_RAW_SERIES = {(ax, obs): _raw_series(ax, obs) for ax in _RAW for obs in ("velocity", "position")}


def _series(axis, observable, t, x, family=False):
    """Each integral_0^t w(tau) K(x[j], tau) dtau by K's series: (values, bounds).

    With y = tau**2/4x**2, K_normal = (1/16x**4) sum_k (k+1) y**k and
    K_parallel = -(1/16x**4) sum_k (k+1)**2 y**k; the weight's moments are
    W_2k = integral_0^t w tau**2k dtau = 2 t**(2k+2)/((2k+1)(2k+2)) for the
    velocity and that times t**2/(2k+4) for the position. One image's
    integral is therefore sum_k c_k W_2k/(16 4**k x**(4+2k)), formed
    scale-free from u = t/2x (_RAW_SERIES) as u**(2k+2)/2x**2 (velocity)
    or 2 u**(2k+4)/(2k+4) (position) times c_k/((2k+1)(2k+2)). Entry j is
    the image at x[j] alone (n = 0), or with ``family`` the images x[j] + n,
    n >= 0, whose sum turns x**-(4+2k) into zeta(4+2k, x[j]) (DLMF 25.11),
    so term k takes the factor x**(4+2k) zeta(4+2k, x) of _zeta_scaled.
    t is one time for all x or one per x.

    Every x is above t/2 and c_{k+1}/c_k <= ((k+2)/(k+1))**p, p = 2
    parallel and 1 normal, while W_{2k+2} <= t**2 W_2k as w >= 0 (and that
    factor falls with k); so term k + 1 is at most rho_k = ((k+2)/(k+1))**p
    u**2 times term k, and what follows the last term is at most |term k|
    rho_k/(1 - rho_k). Terms are taken while u**2k is above eps, at most 40;
    single images take the 27 of u = 1/2, their largest u, so each takes
    the same bits alone as in any batch. Each bound is that remainder plus
    _ROUNDING eps times the modulus of the sum, as its terms share one
    sign. A series that does not settle (rho_k >= 1) raises ConvergenceError.
    """
    # At t = 0 every integral is 0; an offset that underflowed to 0 would make u = 0/0. Only a
    # single time can be 0: no caller passes a zero time per image.
    if isinstance(t, float) and t == 0.0:
        return np.zeros_like(x), np.zeros_like(x)
    coef, power, p = _RAW_SERIES[axis, observable]
    u = 0.5 * t / x
    u_max = max(u.max(), 1e-300) if family else 0.5
    n = min(_K.size, 1 + int(math.log(_EPS) / (2.0 * math.log(u_max))))
    terms = u ** power[-n:, None]  # (term, image), last term first, so added from the smallest
    terms *= coef[-n:, None]
    if family:
        terms *= _zeta_scaled(2.0 * _K[n - 1 :: -1, None] + 4.0, x)
    rho = ((n + 1.0) / n) ** p * u * u
    if np.any(rho >= 1.0):
        raise ConvergenceError("the image series past n_images does not settle: raise n_images")
    sums = _column_sums(terms)
    bounds = np.abs(terms[0]) * rho / (1.0 - rho) + _ROUNDING * _EPS * np.abs(sums)
    x2 = x * x if observable == "velocity" else 1.0
    return sums / x2, bounds / x2


def _raw_values(axis, observable, x, t):
    """Each integral_0^t w(tau) K(x, tau) dtau at the distances x > 0 (an ndarray), t one time
    for all or one per image: (values, bounds). Images with x < t are integrated in closed form
    (:func:`_finite_part_image`, bound _ROUNDING eps times their terms' moduli), the others by
    their series (:func:`_series`, ratio (t/2x)**2 <= 1/4). Callers reject a t near a cone."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        near = x < t
        n_near = np.count_nonzero(near)  # one count in place of any() and all(), each slower
        if not n_near:
            return _series(axis, observable, t, x)
        if n_near == x.size:
            values, moduli = _finite_part_image(axis, observable, x, t)
            return values, _ROUNDING * _EPS * moduli
        far = ~near
        t_near, t_far = (t[near], t[far]) if np.ndim(t) else (t, t)
        values, bounds = np.empty_like(x), np.empty_like(x)
        values[near], moduli = _finite_part_image(axis, observable, x[near], t_near)
        bounds[near] = _ROUNDING * _EPS * moduli
        values[far], bounds[far] = _series(axis, observable, t_far, x[far])
        return values, bounds


def _image_integral(axis, observable, x, t, *, window=SINGULAR_WINDOW):
    if axis not in _RAW:
        raise GeometryError(f"axis must be parallel or normal, got {axis!r}")
    if _image_report(x, t, window) is None:
        return 0.0
    value = _raw_values(axis, observable, np.array([abs(float(x))]), float(t))[0][0]
    return in_float_range(float(value), "image integral")


def image_velocity_integral(axis, x, t, *, window=SINGULAR_WINDOW):
    """One image's velocity kernel from its raw integrand: closed form if x < t, else its series."""
    return _image_integral(axis, "velocity", x, t, window=window)


def image_position_integral(axis, x, t, *, window=SINGULAR_WINDOW):
    """One image's position kernel from its raw integrand: closed form if x < t, else its series."""
    return _image_integral(axis, "position", x, t, window=window)


def dispersion_via_quadrature(kind, point, n_images=None, *, window=SINGULAR_WINDOW):
    """Reduced dispersion from the summed raw image integrands.

    Independent of the closed-form kernels: the images up to shell
    ``n_images``, 1,365 shells at a time so that memory stays bounded, go
    through :func:`_raw_values` (closed form from their Laurent parts below
    offset t, the raw integrands' large-offset series above) and the
    shells past it through the same series summed to Hurwitz zeta values
    (see :func:`_series`); no call takes a quadrature. The default image
    count is the pinned count N_IMAGES_NORMAL or twice the horizon,
    whichever is larger: past twice the horizon every offset exceeds t, so
    the series ratio (t/2x)**2 is below 1/4. An ``n_images`` that is not an
    integer, or is below the horizon, raises GeometryError; one so close to
    the horizon that the series does not settle raises ConvergenceError,
    and so does one above 2,000,000, the oracle's time cap, before any
    shell is summed.
    Lengths are taken in units of a, so the value scales as a**-2
    (velocity) or not at all (position) at any a. The returned tail
    estimate is the series' geometric bounds past their last terms taken
    plus _ROUNDING eps times the weighted sums of all terms' moduli (near
    a plate the closed-form parts at +-tau0 cancel, and that rounding is
    most of the error).
    """
    kind = DispersionKind.coerce(kind)
    geom, t = EvalPoint.checked(point).geometry, point.t
    a, z = geom.a, geom.z
    if t == 0.0:
        return ReducedValue(0.0)
    report = checked_report(singularity_report(z, a, t, threshold=window), t)
    n_horizon = horizon(a, z, t)
    if n_images is None:
        n_images = max(N_IMAGES_NORMAL, 2 * n_horizon)
    try:
        n_images = operator.index(n_images)
    except TypeError:
        raise GeometryError(f"n_images must be an integer, got {n_images!r}") from None
    if n_images < n_horizon:
        raise GeometryError(
            f"n_images={n_images} does not reach past the horizon (need >= {n_horizon})"
        )
    if n_images > _MAX_IMAGES:
        raise ConvergenceError(f"{n_images} image shells exceed the cap of {_MAX_IMAGES}")

    sign = kind.image_sign
    axis, obs = kind.axis, kind.observable
    za, ta = z / a, t / a
    total = tol = 0.0
    for low in range(0, n_images, _SHELLS):
        n = np.arange(low + 1.0, min(low + _SHELLS, n_images) + 1)
        head = [] if low else [za]  # the n = 0 image opens the first block
        offsets = np.concatenate((head, n, n + za, n - za))
        weights = np.repeat([sign, 2.0, sign], [len(head), n.size, 2 * n.size])
        values, bounds = _raw_values(axis, obs, offsets, ta)
        total += float(weights @ values)
        tol += float(np.abs(weights) @ bounds)
    # The shells past n_images: the family series' zeta shares _EM_TABLE with the walk's series
    # tail, 43-7,600 times this remainder at the tested t <= 9.5 a, so its defect parts the routes.
    weights = np.array([2.0, sign, sign])
    values, bounds = _series(axis, obs, ta, n_images + 1.0 + np.array([0.0, za, -za]), family=True)
    value, tail = total + float(weights @ values), tol + float(np.abs(weights) @ bounds)
    if obs == "velocity":
        value, tail = value / a / a, tail / a / a
    value = in_float_range(value, "dispersion")
    return ReducedValue(value, in_float_range(tail, "tail estimate"), n_images, report)


_GRID_X = (0.5, 1.0, 2.0)
_GRID_T_OVER_X = (0.1, 0.5, 1.5, 3.0)
_GRID_TOL = 1e-8


def certification_report():
    """Cross-check closed-form kernels against the raw-integrand route.

    Runs the full x and t/|x| grid for all four kernels (the t/|x| = 3
    column exercises the finite-part machinery, and no t/|x| comes near the
    cone at 2) in one closed-kernel and one :func:`_raw_values` call per
    kernel (no quadrature: the key "quadrature" names the raw-integrand route).
    It then records the convention adjudications the two routes settle:
    the modulus-log position forms past the cone, and the sign with which
    the shifted image family enters the normal components.

    Returns a JSON-serializable dict with a top-level "certified" flag.
    """
    rows = [(x, ratio * x, ratio) for x in _GRID_X for ratio in _GRID_T_OVER_X]
    x, t = np.array([row[:2] for row in rows]).T
    grid = []
    for axis, obs in _SCALED:
        closed = _image_values((axis, obs), x, t)
        quad = _raw_values(axis, obs, x, t)[0]
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
    # compare the raw-integrand image sum against both candidate signs of
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
    geom = point.geometry
    phases = singularity_report(geom.z, geom.a, point.t).phases
    return _lattice(kind, geom, point.t, -1.0, phases)[0]


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
