"""Electric-field correlators between two plates via image sums.

The renormalized photon two-point function between conducting plates at
z = 0 and z = a is a lattice of image terms: offsets z + z' + 2na summed
over all integers n with a reflected tensor factor, plus offsets
z - z' + 2na summed over n != 0 with the flat tensor factor. Double time
derivatives of it give the equal-position electric-field correlators that
drive the Brownian motion; those reduce to image sums of the two raw
kernels

    K_par(x, dt)  = (dt**2 + 4 x**2) / (dt**2 - 4 x**2)**3
    K_norm(x, dt) = 1 / (dt**2 - 4 x**2)**2

over the same offset families n a and n a +/- z used everywhere else.

Image terms decay like 1/n**4 (raw kernels) or 1/n**2 (photon two-point),
so the slow 1/n**2 sums get an analytic midpoint-rule tail while the fast
ones are truncated with an integral-comparison bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GeometryError, SingularWindowError
from .kernels import SINGULAR_WINDOW, check_cone, checked_report, horizon, singularity_report
from .quantities import ReducedValue

# Metric signature (+,-,-,-); the plate-reflected tensor flips the zz entry.
_ETA_DIAG = (1.0, -1.0, -1.0, -1.0)
_REFLECTED_DIAG = (1.0, -1.0, -1.0, 1.0)

# Cap on one vectorized block of image indices (memory bound, not physics).
_BLOCK_CAP = 1 << 18


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for image sums.

    Attributes
    ----------
    rel_tol : float
        Target bound on tail_estimate / |value|.
    n_min : int
        Minimum number of image pairs before the stopping test applies;
        also the size of the first summation block.
    n_max : int
        Hard cap on image pairs; exceeding it raises ConvergenceError.
    block : int
        Geometric growth factor for successive block sizes.
    """

    rel_tol: float = 1e-10
    n_min: int = 8
    n_max: int = 2_000_000
    block: int = 2

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.n_min < 1 or self.block < 2:
            raise GeometryError(f"invalid series control {self}")
        if self.n_max < self.n_min:
            raise GeometryError("n_max must be at least n_min")


DEFAULT_CONTROL = SeriesControl()


def _k_parallel_vec(x, dt):
    x2 = 4.0 * x * x
    d = dt * dt - x2
    return (dt * dt + x2) / (d * d * d)


def _k_normal_vec(x, dt):
    d = dt * dt - 4.0 * x * x
    return 1.0 / (d * d)


def _correlator_term(kvec, x, dt):
    if x == 0.0:
        raise GeometryError("image distance x must be nonzero")
    if dt != 0.0:
        check_cone(x, abs(dt), SINGULAR_WINDOW)
    return float(kvec(np.float64(abs(x)), abs(dt)))


def correlator_term_parallel(x, dt):
    """Single-image raw integrand for the tangential E-field correlator.

    Even in ``dt``; defined at dt = 0 where it equals -1/(16 x**4).
    """
    return _correlator_term(_k_parallel_vec, x, dt)


def correlator_term_normal(x, dt):
    """Single-image raw integrand for the normal E-field correlator.

    Even in ``dt``; defined at dt = 0 where it equals +1/(16 x**4).
    """
    return _correlator_term(_k_normal_vec, x, dt)


def _grouped_image_sum(fvec, sign, a, z, ctrl, horizon_n):
    """Sum sign*f(z) + sum_{n>=1} [2 f(n a) + sign (f(n a + z) + f(n a - z))].

    ``fvec`` maps an ndarray of positive offsets to per-image values that
    decay at least like offset**-4 beyond ``horizon_n`` plate spacings.
    Returns (value, tail_estimate, n_used).
    """
    total = sign * float(fvec(np.array([z]))[0])
    n_next = 1
    size = ctrl.n_min
    last_mag = math.inf
    while n_next <= ctrl.n_max:
        size = min(size, _BLOCK_CAP, ctrl.n_max - n_next + 1)
        n = np.arange(n_next, n_next + size, dtype=float)
        base = n * a
        vals = 2.0 * fvec(base) + sign * (fvec(base + z) + fvec(base - z))
        total += float(np.sum(vals))
        n_used = n_next + size - 1
        # Integral comparison on the grouped terms: beyond the horizon they
        # are monotone power laws decaying at least like n**-4, so
        # sum_{n>N} |group| <= |group(N)| N / 3. Two trailing terms guard
        # the region where the asymptote has not settled yet.
        last_mag = float(np.max(np.abs(vals[-2:])))
        tail = last_mag * n_used / 3.0
        scale = max(abs(total), last_mag, 1e-300)
        if n_used >= max(ctrl.n_min, horizon_n) and tail <= ctrl.rel_tol * scale:
            return total, tail, n_used
        n_next += size
        size *= ctrl.block
    raise ConvergenceError(
        f"image sum not converged after {ctrl.n_max} pairs",
        value=total,
        error_estimate=last_mag * ctrl.n_max / 3.0,
    )


def _efield(kvec, sign, z, a, dt, ctrl, window):
    if not (0.0 < z < a):
        raise GeometryError(f"need 0 < z < a, got z={z}, a={a}")
    dt = abs(dt)
    report = checked_report(singularity_report(z, a, dt, threshold=window), dt)
    value, tail, n_used = _grouped_image_sum(
        lambda x: kvec(x, dt), sign, a, z, ctrl or DEFAULT_CONTROL, horizon(a, z, dt)
    )
    pi2 = math.pi * math.pi
    return ReducedValue(value / pi2, tail / pi2, n_used, report)


def efield_correlator_parallel(z, a, dt, ctrl=None, *, window=SINGULAR_WINDOW):
    """Renormalized tangential E-field correlator at fixed position.

    Image sum of the parallel raw kernel: the plain offsets n a enter
    twice, the shifted offsets n a +/- z enter with a minus sign, all
    divided by pi**2. ``dt = 0`` is allowed (coincidence limit).
    """
    return _efield(_k_parallel_vec, -1.0, z, a, dt, ctrl, window)


def efield_correlator_normal(z, a, dt, ctrl=None, *, window=SINGULAR_WINDOW):
    """Renormalized normal E-field correlator at fixed position.

    Same structure as :func:`efield_correlator_parallel` but with the
    normal raw kernel and the shifted offsets entering with a plus sign.
    """
    return _efield(_k_normal_vec, 1.0, z, a, dt, ctrl, window)


def empty_space_efield(dt):
    """Equal-position E-field correlator component with no plates, 1/(pi**2 dt**4).

    Isotropic: holds for any one diagonal component. Adding it to the
    renormalized tangential correlator recovers the full correlator that
    vanishes on the plates.
    """
    if dt == 0.0:
        raise SingularWindowError("empty-space correlator diverges at dt = 0")
    return 1.0 / (math.pi * math.pi * dt**4)


def minkowski_two_point(mu, nu, dt, dx, dy, dz):
    """Free-space photon two-point function, metric diag(+,-,-,-).

    eta_{mu nu} / (4 pi**2 s2) with s2 the squared interval; zero off the
    diagonal. Points on the light cone are rejected.
    """
    _check_indices(mu, nu)
    if mu != nu:
        return 0.0
    s2 = dt * dt - dx * dx - dy * dy - dz * dz
    scale = dt * dt + dx * dx + dy * dy + dz * dz
    if abs(s2) <= 1e-12 * max(scale, 1e-300):
        raise SingularWindowError("points are light-like separated")
    return _ETA_DIAG[mu] / (4.0 * math.pi * math.pi * s2)


def _check_indices(mu, nu):
    if mu not in (0, 1, 2, 3) or nu not in (0, 1, 2, 3):
        raise GeometryError(f"tensor indices must be 0..3, got ({mu}, {nu})")


def _tail_integral(y0, A, a):
    """integral_{y0}^{inf} dy / (A - y**2) / (2a) for y0 > sqrt(max(A, 0))."""
    if A > 0.0:
        r = math.sqrt(A)
        return -math.atanh(r / y0) / (2.0 * a * r)
    if A < 0.0:
        r = math.sqrt(-A)
        return -math.atan(r / y0) / (2.0 * a * r)
    return -1.0 / (2.0 * a * y0)


def _lattice_scalar(A, s, a, include_zero, ctrl):
    """sum_n 1/(A - (s + 2 n a)**2), integer n (optionally excluding 0).

    Explicit terms to |n| <= N plus midpoint-rule tail integrals in both
    directions; the leftover midpoint error, bounded by |f'|/24 at the
    split points, is the returned tail estimate.
    """
    # First N must put both split points well past any cone and the offset.
    n0 = int(math.ceil((abs(s) + math.sqrt(max(A, 0.0))) / (2.0 * a))) + 5
    N = max(ctrl.n_min, n0, 64)
    while True:
        if N > ctrl.n_max:
            raise ConvergenceError(f"lattice sum not converged by n_max={ctrl.n_max}")
        n = np.arange(-N, N + 1, dtype=float)
        if not include_zero:
            n = n[n != 0.0]
        y = s + 2.0 * a * n
        denom = A - y * y
        scale = np.abs(A) + y * y + a * a
        if np.any(np.abs(denom) <= 1e-10 * scale):
            raise SingularWindowError("an image offset is light-like separated")
        total = float(np.sum(1.0 / denom))

        yr = s + 2.0 * a * (N + 0.5)
        yl = -(s - 2.0 * a * (N + 0.5))
        total_tail = _tail_integral(yr, A, a) + _tail_integral(yl, A, a)
        # Midpoint rule error bound: |f'(split)| / 24 per side, f in the
        # image-index variable.
        fp = 0.0
        for yy in (yr, yl):
            fp += abs(4.0 * a * yy / (A - yy * yy) ** 2) / 24.0
        value = total + total_tail
        if fp <= ctrl.rel_tol * max(abs(value), 1e-300):
            return value, fp, N
        N *= 4


def renormalized_photon_two_point(mu, nu, dt, dx, dy, z, zp, a, ctrl=None):
    """Plate-induced part of the photon two-point function, Feynman gauge.

    Diagonal tensor: the z + z' + 2na lattice carries minus the reflected
    metric factor diag(1,-1,-1,1), the z - z' + 2na lattice (n != 0)
    carries plus the flat metric, both over 4 pi**2. Off-diagonal
    components vanish identically.

    Returns a :class:`ReducedValue`; its tail estimate bounds the
    midpoint-rule truncation of the slowly converging 1/n**2 lattice.
    """
    _check_indices(mu, nu)
    if not (0.0 < z < a) or not (0.0 < zp < a):
        raise GeometryError(f"need 0 < z, z' < a, got z={z}, z'={zp}, a={a}")
    if mu != nu:
        return ReducedValue(0.0)
    ctrl = ctrl or DEFAULT_CONTROL
    A = dt * dt - dx * dx - dy * dy
    four_pi2 = 4.0 * math.pi * math.pi

    s_plus, tail_plus, n_plus = _lattice_scalar(A, z + zp, a, True, ctrl)
    s_minus, tail_minus, n_minus = _lattice_scalar(A, z - zp, a, False, ctrl)

    c_plus = -_REFLECTED_DIAG[mu] / four_pi2
    c_minus = _ETA_DIAG[mu] / four_pi2
    value = c_plus * s_plus + c_minus * s_minus
    tail = (abs(tail_plus) + abs(tail_minus)) / four_pi2
    return ReducedValue(value, tail, max(n_plus, n_minus))
