"""Electric-field correlators and the photon two-point function between two plates.

The renormalized photon two-point function between conducting plates at
z = 0 and z = a is a lattice of image terms: offsets z + z' + 2na summed
over all integers n with a reflected tensor factor, plus offsets
z - z' + 2na summed over n != 0 with the flat tensor factor; halved, they
are the lattices m a + (z+z')/2 and m a + (z-z')/2. Each is a first-order
Mittag-Leffler sum of 1/(A - 4 x**2): a product of sines of exact phases
(DLMF 4.22) for a time-like interval, its hyperbolic form (DLMF 4.36) for
a space-like one, so it costs the same at any interval.

Double time derivatives of it give the equal-position electric-field
correlators that drive the Brownian motion: image sums of the two raw
kernels

    K_par(x, dt)  = (dt**2 + 4 x**2) / (dt**2 - 4 x**2)**3
    K_norm(x, dt) = 1 / (dt**2 - 4 x**2)**2

over the offset families n a and n a +/- z used everywhere else. Each
family is a whole lattice m a + delta, whose sum of either kernel is an
h-derivative (h = dt/2) of sum_m 1/(x**2 - h**2), a difference of two
cotangents (DLMF 4.22), so the correlators are in closed form and cost
the same at any dt/a. The grouped image sum here serves the dispersions'
image lattice.
"""

import math

import numpy as np
from scipy.special import zeta

from .errors import ConvergenceError, GeometryError, SingularWindowError, in_float_range
from .kernels import _K, SINGULAR_WINDOW, _image_report, _nearest_cone, _phase, _phase_sum
from .kernels import checked_report, singularity_report
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

# Up to _N_RULE shells an image sum is a walk: one fvec call on a (families x N)
# array. Past it, the sum takes explicitly only the shells where its kernel is
# not smooth on the scale of a: the first _W and the _W either side of the light
# cone. Each stretch between is its integral plus Gregory end corrections of
# order _GREGORY (DLMF 2.10); the integral takes _NODES-node Gauss-Legendre panels
# graded by ratio 2 toward x = 0 and the cone, and its bound is _RULE_FACTOR
# times the first omitted Gregory term plus the panels' difference from the
# _NODES_LOW-node rule. _N_RULE = 4,096: three families of 4,096 doubles are
# 96 KB, below glibc's 128 KB mmap threshold (one array of 6,000 to 12,000 shells
# measured up to twice as slow as it taken 4,096 at a time), and for the
# dispersions the rule overtakes the walk between 2,500 and 4,500 shells.
_N_RULE = 4096
_W = 48
_GREGORY = 10
_NODES, _NODES_LOW = 16, 10
_RULE_FACTOR = 2.0


def _gregory_weights(q):
    """Gregory end weights of order q, and the weights of the first omitted term.

    For every polynomial f of degree < q, sum_{n=0}^{M} f(n) = int_0^M f +
    sum_{j<q} omega_j (f(j) + f(M-j)): at each end the correction is
    sum_{k=1}^{q} G_k Delta^{k-1} f(0), with G_k the Taylor coefficients of
    x / log(1 + x), and the first omitted term is G_{q+1} Delta^q f(0). Both
    are returned as weights on f(0), ..., f(q).
    """
    g = [1.0]
    for n in range(1, q + 2):
        g.append(-sum((-1) ** m * g[n - m] / (m + 1) for m in range(1, n + 1)))

    def delta(k):  # Delta^k f(0) = sum_j (-1)**(k-j) C(k, j) f(j)
        return np.array([(-1) ** (k - j) * math.comb(k, j) for j in range(q + 1)], dtype=float)

    return sum(g[k] * delta(k - 1) for k in range(1, q + 1)), g[q + 1] * delta(q)


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by Newton's method
    on the Legendre recurrence (no eigensolver, so no LAPACK is loaded for it)."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_OMEGA, _OMITTED = _gregory_weights(_GREGORY)
_GAUSS = _gauss_legendre(_NODES)
_GAUSS_LOW = _gauss_legendre(_NODES_LOW)


# The raw kernels take x2 = (2x)**2, so a caller can square its offsets once.
def _k_parallel(x2, dt):
    d = dt * dt - x2
    return (dt * dt + x2) / (d * d * d)


def _k_normal(x2, dt):
    d = dt * dt - x2
    return 1.0 / (d * d)


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


def _hurwitz_tail(total, series, step, q, weights, bound=0.0):
    """Add to ``total`` the images x = (q[f] + n) step, n >= 0, of each family f.

    Each is weights[f] sum_k c_k h**(2k+m) x**-(2k+s0) with (c, m, s0, p, h) =
    ``series``, so the family's k-th term is weights[f] c_k (h/step)**(2k+m)
    zeta(2k+s0, q[f]) / step**(s0-m) (DLMF 25.11). Only the ratio h/step and
    the power s0 - m of step, which is the dimension of the value, enter, so
    a scale-free value stays in range at any a. With every x above 2h and
    |c_{k+1}/c_k| <= ((k+2)/(k+1))**p, each term is at most rho_k =
    ((k+2)/(k+1))**p (h/(q[f] step))**2 < 1 times the one before, so what
    follows term k is at most |term k| rho_k/(1 - rho_k). The value carries
    every term; the tail estimate is that bound plus ``bound``, the error
    bound ``total`` carries, at the first k where it is at most _TAIL_TARGET
    |value|.
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
    bounds = np.sum(np.abs(terms) * rho / (1.0 - rho), axis=1) + bound
    value = total + float(np.sum(terms))
    met = np.flatnonzero(bounds <= _TAIL_TARGET * abs(value))
    return value, float(bounds[met[0] if met.size else -1])


def _grouped_image_sum(fvec, sign, a, z, series, horizon_n):
    """Sum sign f(z) + sum_{n>=1} [2 f(n a) + sign (f(n a + z) + f(n a - z))].

    ``fvec`` maps an array of positive offsets, of any shape, elementwise to
    image values and ``series`` is its large-offset series (see
    :func:`_hurwitz_tail`), whose last entry h = t/2 places the light cone.
    With 0 < z < a, horizon_n is the one of :func:`platevac.kernels.horizon`
    for h and z. Shells 1..N, N = max(_N_MIN, 2 horizon_n), are summed
    directly, so every later offset exceeds t and is left to the zeta tail.
    Up to N = _N_RULE they and the n = 0 image are summed by one fvec call
    on the offsets; past it by :func:`_rule_sum`, also in one fvec call, and
    the tail estimate adds that rule's bound. Callers reject a point on a
    light cone, so a non-finite sum is beyond the float range, which numpy
    need not warn of. Returns (value, tail_estimate, n_used = N).
    """
    N = max(_N_MIN, 2 * horizon_n)
    if N > _N_MAX:
        raise ConvergenceError(f"image sum needs {N} explicit pairs, above the cap of {_N_MAX}")
    # (shift, weight) per offset family: the plain one, then the two shifted ones.
    shifts, weights = np.array([(0.0, 2.0), (z, sign), (-z, sign)]).T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if N > _N_RULE:
            total, bound = _rule_sum(fvec, sign, a, z, series[-1], N, shifts, weights)
        else:
            offsets = np.arange(1, N + 1, dtype=float) * a + shifts[:, None]
            v = fvec(np.concatenate(([z], offsets.ravel())))
            walk = float(weights @ v[1:].reshape(offsets.shape).sum(axis=1))
            total, bound = sign * float(v[0]) + walk, 0.0
        value, tail = _hurwitz_tail(total, series, a, N + 1.0 + shifts / a, weights, bound)
    return in_float_range(value, "image sum"), tail, N


def _graded(sigma, near, far):
    """Panel edges from ``near`` to ``far``, graded away from the singular point ``sigma``:
    sigma + (near - sigma) r**j, j = 0..k, with the fewest panels whose ratio r is at most 2,
    so that no panel is longer than its distance from sigma."""
    ratio = (far - sigma) / (near - sigma)
    k = math.ceil(math.log2(ratio))
    edges = sigma + (near - sigma) * ratio ** (np.arange(k + 1) / k)
    edges[0], edges[-1] = near, far
    return edges


def _rule_sum(fvec, sign, a, z, h, N, shifts, weights):
    """sign f(z) + the families' shells 1..N by the quadrature rule: (sum, bound).

    Shell n of the family (s, w) of ``shifts`` and ``weights`` is w f(n a + s).
    With c the shell next to the cone x = h, shells 1.._W and c-_W..c+_W are
    explicit: every family's cone lies within 1.5 shells of c, and x = 0 within
    one of shell 0. Over the stretches between, n0..n1 = _W+1..c-_W-1 and
    c+_W+1..N, f is smooth on the scale of the distance to x = 0 and x = h, so

        sum_{n=n0}^{n1} f(n a + s) = (1/a) int_{n0 a + s}^{n1 a + s} f + Gregory end terms.

    Each such integral is the one over n0 a..n1 a, common to all families, plus
    the end pieces n1 a..n1 a + s and minus n0 a..n0 a + s. The common integral
    therefore enters once, times the families' total weight, which is 0 for the
    alternating lattices. It takes _NODES-node Gauss-Legendre panels graded by
    ratio 2 toward x = 0 and x = h and split halfway; each end piece is one
    panel. Every point goes through one fvec call, and the sum is one dot
    product. The bound is _RULE_FACTOR times the sum of the weighted families'
    first omitted Gregory term at each stretch end and of each panel's
    difference from the _NODES_LOW-node rule.
    """
    c = round(h / a)
    explicit = np.r_[1 : _W + 1, c - _W : c + _W + 1]
    # The stretch ends, the direction from each into its stretch, and its Gregory samples.
    ends = np.array([_W + 1.0, c - _W - 1.0, c + _W + 1.0, float(N)])
    inward = np.array([1.0, -1.0, 1.0, -1.0])
    samples = ends[:, None] + inward[:, None] * np.arange(_GREGORY + 1.0)
    # Panels (lo, hi, weight): the common integral's unless its weight is 0, then one
    # end piece from n a to n a + s per stretch end and shifted family.
    common = float(np.sum(weights))
    edges = [_graded(0.0, ends[0] * a, 0.5 * h), _graded(h, ends[1] * a, 0.5 * h)[::-1],
             _graded(h, ends[2] * a, N * a)] if common else []
    s, w = shifts[shifts != 0.0], weights[shifts != 0.0]
    lo = np.concatenate([*(e[:-1] for e in edges), np.repeat(ends * a, s.size)])
    hi = np.concatenate([*(e[1:] for e in edges), (ends[:, None] * a + s).ravel()])
    pieces = (-inward[:, None] * w).ravel()
    panel_weight = np.concatenate([np.full(lo.size - pieces.size, common), pieces]) / a
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes, w_high = _GAUSS
    nodes_low, w_low = _GAUSS_LOW
    x = np.concatenate([[z], (explicit * a + shifts[:, None]).ravel(),
                        (samples * a + shifts[:, None, None]).ravel(),
                        (mid[:, None] + half[:, None] * nodes).ravel(),
                        (mid[:, None] + half[:, None] * nodes_low).ravel()])
    coef = np.concatenate([[sign], np.repeat(weights, explicit.size),
                           np.outer(weights, np.tile(_OMEGA, 4)).ravel(),
                           np.outer(panel_weight * half, w_high).ravel()])
    v = fvec(x)
    total = float(coef @ v[: coef.size])
    start = 1 + weights.size * explicit.size
    v_samples = v[start : start + weights.size * samples.size].reshape(-1, *samples.shape)
    v_high = v[start + weights.size * samples.size : coef.size].reshape(-1, _NODES)
    v_low = v[coef.size :].reshape(-1, _NODES_LOW)
    gregory = np.abs(weights @ (v_samples @ _OMITTED)).sum()
    panels = np.abs(panel_weight * half * (v_high @ w_high - v_low @ w_low)).sum()
    return total, _RULE_FACTOR * float(gregory + panels)


# The E-field correlators sum the raw kernels in closed form. With h = dt/2, an offset x
# enters as K_norm = 1/(16 (x**2 - h**2)**2) or K_par = -(x**2 + h**2)/(16 (x**2 - h**2)**3),
# and the sums of both over x = m a + delta, all integers m, are h-derivatives of the
# Mittag-Leffler sum (DLMF 4.22)
#
#     sum_m 1/(x**2 - h**2) = (pi/a)**2 sinc(2 eps) / P,   P = sin(A) sin(B),
#
# with sinc(y) = sin(y)/y, eps = pi h/a, theta = pi delta/a and A, B = theta -/+ eps.
# Below h = _PLAIN_CUT a the plain family (delta = 0 without its m = 0 term, which
# cancels against it) is instead the even series (2/a**4) sum_k c_k (h/a)**2k zeta(2k+4),
# c_k = k + 1 (normal) or (k + 1)**2 (parallel), whose _PLAIN_TERMS terms reach eps.
_PLAIN_CUT = 1.0 / math.pi
_PLAIN_TERMS = 24
_KP = np.arange(_PLAIN_TERMS, dtype=float)
# Keyed by the shifted family's sign, highest power first for _horner.
_PLAIN_SERIES = {
    1.0: [float(c) for c in ((_KP + 1.0) * zeta(2.0 * _KP + 4.0))[::-1]],
    -1.0: [float(c) for c in ((_KP + 1.0) ** 2 * zeta(2.0 * _KP + 4.0))[::-1]],
}
# g(y) = (1 - sinc y)/y**2 = sum_k (-1)**k y**2k/(2k+3)!, summed below y = 2 in 12 terms.
_G_SERIES = [(-1.0) ** k / math.factorial(2 * k + 3) for k in range(11, -1, -1)]
# A closed-form value's tail estimate bounds its own rounding: _ROUNDING eps times the sum
# of the moduli of its terms. Against a 60-digit reference the error reached 8.4 eps
# times that sum over 36,000 evaluations, t/a up to 1e13 and cone distances to 1e-15.
_ROUNDING = 16.0
_EPS = 2.0**-52


# On one float, numpy's polyval and sinc cost microseconds each, 28 to 38 times these.
def _horner(coef, w):
    value = 0.0
    for c in coef:
        value = value * w + c
    return value


def _sinc_pi(x):
    """sin(pi x) / (pi x)."""
    return math.sin(math.pi * x) / (math.pi * x) if x else 1.0


def _sine(phase, a):
    """a sin(pi y/a)/pi with the sign of the phase (sign, y): a length, of either sign."""
    return phase[0] * phase[1] * _sinc_pi(phase[1] / a)


def _eps_terms(p_e, h, a):
    """Terms of eps = pi h/a from its phase p_e = _phase(h, a), which both lattices of one
    correlator share: (a sin(eps)/pi, sinc(eps), sinc(2 eps), g, 2 eps) with
    g = (1 - sinc(2 eps))/(2 eps)**2."""
    sin_e = _sine(p_e, a)
    if not h:
        return sin_e, 1.0, 1.0, _G_SERIES[-1], 0.0
    sinc_2e = _sine(_phase_sum(p_e, p_e, a), a) / (2.0 * h)
    y = 2.0 * math.pi * (h / a)
    g = _horner(_G_SERIES, y * y) if y < 2.0 else (1.0 - sinc_2e) / y / y
    return sin_e, sin_e / h, sinc_2e, g, y


def _closed_lattice(p_t, p_a, p_b, a, sign, eps_terms):
    """(sum, sum of moduli of its terms) over x = m a + delta, all integers m, of
    1/(x**2 - h**2)**2 (sign = 1) or (x**2 + h**2)/(x**2 - h**2)**3 (sign = -1),
    with ``eps_terms`` = _eps_terms of h and p_t, p_a, p_b the phases (sign, y) of
    delta, delta - h and delta + h.

    With N = sinc(2 eps), S = sinc(eps) and g = (1 - N)/(2 eps)**2 they are

        (pi/a)**4 [cos(theta)**2 S**2 + 2 g P] / P**2,
        (pi/a)**4 {N [cos(theta)**2 (sin(theta)**2 + sin(eps)**2) / P + 2 g eps**2] / P**2
                   + (S**2/2 - g) / P},

    which do not cancel as h -> 0 (g -> 1/6 is summed as its series). Both are formed
    from q = (pi/a)**2 / P and the lengths a sin(phase)/pi, so that a value leaves the
    float range where it does, not before. Every phase, cos(theta) = sin(theta + pi/2)
    included, is a reduced sum of the exact phases of delta and h.
    """
    sin_e, sinc_e, sinc_2e, g, y = eps_terms
    q_a, q_b = 1.0 / _sine(p_a, a), 1.0 / _sine(p_b, a)  # pi/(a sin A), pi/(a sin B)
    q = q_a * q_b
    cos2 = (math.pi / a * _sine(_phase_sum(p_t, (1.0, 0.5 * a), a), a)) ** 2
    pi_a2 = (math.pi / a) * (math.pi / a)
    if sign > 0.0:
        terms = (cos2 * sinc_e * sinc_e * q * q, 2.0 * g * pi_a2 * q)
    else:
        sin_t = _sine(p_t, a)  # a sin(theta) / pi
        # (sin(theta)**2 + sin(eps)**2) / P
        ratio = (sin_t * q_a) * (sin_t * q_b) + (sin_e * q_a) * (sin_e * q_b)
        terms = (sinc_2e * q * q * (cos2 * ratio + 0.5 * g * y * y),
                 pi_a2 * (0.5 * sinc_e * sinc_e - g) * q)
    return terms[0] + terms[1], abs(terms[0]) + abs(terms[1])


def _efield(sign, z, a, dt, window):
    """The E-field correlator whose shifted family enters with ``sign``, in closed form.

    16 pi**2 times it is the shifted lattice plus sign times the plain family, which
    is the full lattice at delta = 0 less its m = 0 term, sign/h**4, or below
    h = _PLAIN_CUT a its series.
    """
    Geometry(a, z)  # rejects a placement the dispersions reject
    dt = abs(dt)
    report = checked_report(singularity_report(z, a, dt, threshold=window), dt)
    p_e, (s_m, r_m), p_plus = report.phases  # of h, h - z and h + z
    h = 0.5 * dt
    eps_terms = _eps_terms(p_e, h, a)
    total, moduli = _closed_lattice(_phase(z, a), (s_m, -r_m), p_plus, a, sign, eps_terms)
    if h < _PLAIN_CUT * a:
        inv_a2 = 1.0 / a / a
        plain = 2.0 * _horner(_PLAIN_SERIES[sign], (h / a) * (h / a)) * inv_a2 * inv_a2
        total += sign * plain
        moduli += plain
    else:
        full, full_moduli = _closed_lattice((1.0, 0.0), (p_e[0], -p_e[1]), p_e, a, sign, eps_terms)
        inv_h2 = 1.0 / h / h
        total += sign * full - inv_h2 * inv_h2
        moduli += full_moduli + inv_h2 * inv_h2
    scale = 16.0 * math.pi * math.pi
    value = in_float_range(total / scale, "E-field correlator")
    tail = in_float_range(_ROUNDING * _EPS * (moduli / scale), "E-field rounding bound")
    return ReducedValue(value, tail, 0, report)


def efield_correlator_parallel(z, a, dt, *, window=SINGULAR_WINDOW):
    """Renormalized tangential E-field correlator at fixed position.

    Image sum of the parallel raw kernel: the plain offsets n a enter
    twice, the shifted offsets n a +/- z enter with a minus sign, all
    divided by pi**2. ``dt = 0`` is allowed (coincidence limit). The sum
    is in closed form, so ``n_used`` is 0 and ``tail_estimate`` bounds
    the closed form's rounding.
    """
    return _efield(-1.0, z, a, dt, window)


def efield_correlator_normal(z, a, dt, *, window=SINGULAR_WINDOW):
    """Renormalized normal E-field correlator at fixed position.

    Same structure as :func:`efield_correlator_parallel` but with the
    normal raw kernel and the shifted offsets entering with a plus sign.
    """
    return _efield(1.0, z, a, dt, window)


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


# The photon function's two lattices are first-order sums. With H = A/4, an offset x enters
# as 1/(A - 4 x**2) = -1/(4 (x**2 - H)), and over x = m a + delta, all integers m,
#
#     sum_m 1/(x**2 - h**2)   = -sinc(2 eps) / (s(h - delta) s(h + delta))        (DLMF 4.22)
#     sum_m 1/(x**2 + kappa**2) = (pi/(a kappa)) (1 - q**2) / ((1 - q)**2 + 4 q sin(theta)**2)
#
# for H = h**2 > 0 and H = -kappa**2 <= 0 (DLMF 4.36), with s(y) = a sin(pi y/a)/pi,
# eps = pi h/a, theta = pi delta/a and q = exp(-2 pi kappa/a); at kappa = 0 the second is
# 1/s(delta)**2. The plain family d leaves out m = 0, and three forms keep it from cancelling.
# Below |d| + sqrt|H| = _PLAIN_CUT a it is (2/a**2) sum_k zeta(2k) E_k with E_k =
# sum_j C(2k-1, 2j+1) (H/a**2)**j (d/a)**(2k-2-2j), whose terms are positive for H >= 0. Next
# to its removed cone, h within _PLAIN_CUT a of |d| and |d| <= 3h, it is
# [g(|d| - h) - g(|d| + h)]/(2h) with g(y) = (pi/a) cot(pi y/a) - 1/y, smooth at y = 0, where
# g(|d| - h) is its series -2 sum_k zeta(2k) y**(2k-1)/a**2k. Elsewhere it is the whole
# lattice less 1/(d**2 - H).
_ZETA_EVEN = [float(c) for c in zeta(2.0 * _KP + 2.0)[::-1]]  # zeta(2k), highest k first


def _coth_lattice(p_t, kappa, a):
    """sum_m 1/((m a + delta)**2 + kappa**2) for kappa >= 0, p_t the phase of delta.

    With x = 2 pi kappa/a, up to x = 1 it is e2/((kappa e1)**2 + q s(delta)**2), e1 =
    (1 - q)/x and e2 = (1 - q**2)/(2x), whose lengths leave the float range only where the
    value does, and which nothing cancels in as kappa or delta -> 0.
    """
    x = 2.0 * math.pi * (kappa / a)
    q = math.exp(-x)
    if x > 1.0:
        sin_t = math.sin(math.pi * (p_t[1] / a))
        den = math.expm1(-x) ** 2 + 4.0 * q * sin_t * sin_t
        return math.pi / a / kappa * -math.expm1(-2.0 * x) / den
    e1 = -math.expm1(-x) / x if x else 1.0
    e2 = -math.expm1(-2.0 * x) / (2.0 * x) if x else 1.0
    s = _sine(p_t, a)
    den = (kappa * e1) ** 2 + q * s * s
    return e2 / den if den else math.inf


def _plain_series(d, hh, a):
    """(sum, sum of moduli of its terms) of the plain family's series at hh = H/a**2:
    (2/a**2) sum_k zeta(2k) E_k, by E_{k+1} = 2 (dd + hh) E_k - (dd - hh)**2 E_{k-1}
    from E_1 = 1 and E_2 = 3 dd + hh, dd = (d/a)**2."""
    dd = (d / a) * (d / a)
    s, p = 2.0 * (dd + hh), (dd - hh) * (dd - hh)
    e_k, e_next = 1.0, 3.0 * dd + hh
    value = moduli = 0.0
    for zeta_2k in reversed(_ZETA_EVEN):
        value += zeta_2k * e_k
        moduli += zeta_2k * abs(e_k)
        e_k, e_next = e_next, s * e_next - p * e_k
    return 2.0 * value / a / a, 2.0 * moduli / a / a


def _lattice_scalar(A, sign, a, c, d):
    """Sum of f(x) = 1/(A - 4 x**2) over the shifted lattice m a + c, times sign, and the
    plain lattice m a + d, m != 0, in closed form at h = sqrt(A)/2 as rounded.

    For A > 0 an image within _PHOTON_CONE_WINDOW of its cone 2x = sqrt(A) raises
    SingularWindowError, and every sine is taken from the exact phases of the cone scan.
    Returns (value, tail, 0, nearest-cone report or None), the tail bounding the closed
    form's rounding: _ROUNDING eps times the sum of the moduli of its terms.
    """
    t = math.sqrt(abs(A))
    e, cut = abs(d), _PLAIN_CUT * a
    report = None
    if A > 0.0:
        families = (("plain", d, 1), ("plain", -d, 1), ("shifted", c, 0), ("shifted", -c, 1))
        report = checked_report(_nearest_cone(families, a, t, _PHOTON_CONE_WINDOW), t)
        p_dm, p_dp, p_cm, p_cp = report.phases  # of h - d, h + d, h - c and h + c
        if d < 0.0:
            p_dm, p_dp = p_dp, p_dm  # of h - |d| and h + |d|
        h = 0.5 * t
        sinc_2e = _eps_terms(_phase(h, a), h, a)[2]
        shifted = -sinc_2e / _sine(p_cm, a) / _sine(p_cp, a)
        if e + h <= cut:
            plain, moduli = _plain_series(e, (h / a) * (h / a), a)
        elif abs(e - h) < cut and e <= 3.0 * h:
            y = (e - h) / a
            cot = math.pi / a * _sine(_phase_sum(p_dp, (1.0, 0.5 * a), a), a) / _sine(p_dp, a)
            terms = (-2.0 * y / a * _horner(_ZETA_EVEN, y * y), -cot, 1.0 / (e + h))
            plain = sum(terms) / (2.0 * h)
            moduli = sum(map(abs, terms)) / (2.0 * h)
        else:
            full = -sinc_2e / _sine(p_dm, a) / _sine(p_dp, a)
            image = 1.0 / (e - h) / (e + h)
            plain, moduli = full - image, abs(full) + abs(image)
    else:
        kappa = 0.5 * t
        shifted = _coth_lattice(_phase(c, a), kappa, a)
        if e + kappa <= cut:
            plain, moduli = _plain_series(e, -(kappa / a) * (kappa / a), a)
        else:
            full = _coth_lattice(_phase(d, a), kappa, a)
            image = 1.0 / math.hypot(e, kappa)
            image *= image
            plain, moduli = full - image, full + image
    value = in_float_range(-0.25 * (sign * shifted + plain), "photon two-point function")
    tail = _ROUNDING * _EPS * 0.25 * (abs(shifted) + moduli)
    return value, in_float_range(tail, "photon rounding bound"), 0, report


def renormalized_photon_two_point(mu, nu, dt, dx, dy, z, zp, a):
    """Plate-induced part of the photon two-point function, Feynman gauge.

    Diagonal tensor: the z + z' + 2na lattice carries minus the reflected
    metric factor diag(1,-1,-1,1), the z - z' + 2na lattice (n != 0)
    carries plus the flat metric, both over 4 pi**2. Off-diagonal
    components vanish identically.

    Returns a :class:`ReducedValue`. Both lattices are in closed form, so
    ``n_used`` is 0 and the tail estimate bounds the closed form's rounding
    at sqrt(A) as rounded; ``singularity`` reports the nearest cone of a
    time-like interval.
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
