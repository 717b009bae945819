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

from .errors import GeometryError, SingularWindowError, in_float_range
from .kernels import _K, SINGULAR_WINDOW, _fold, _image_report, _nearest_cone, _phase, _phase_sum
from .kernels import _LATE, checked_report, singularity_report
from .quantities import Geometry, ReducedValue

# Metric signature (+,-,-,-); the plate-reflected tensor flips the zz entry.
_ETA_DIAG = (1.0, -1.0, -1.0, -1.0)
_REFLECTED_DIAG = (1.0, -1.0, -1.0, 1.0)


# Every image sum takes at least _N_MIN pairs explicitly. The photon function's relative
# light-cone window is _PHOTON_CONE_WINDOW.
_N_MIN = 8
_PHOTON_CONE_WINDOW = 1e-10

# Up to _N_WALK shells the dispersions' lattice is a walk: one fvec call on a (families x N)
# array; past it, from t = 62 a (60 a to 62 a as z/a falls from 1 to 0), it is its late-time
# expansion (see _late_lattice), which costs less there and takes exact phases where the
# walk rounds its offsets. _N_WALK = 64 stays below 95 shells, so that t = 100 a and later
# take the expansion.
_N_WALK = 64


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


# Row i, P = i + 2: the weights of q**_Q_POWERS in q**P sum_{n>=0} (q + n)**-P by one-end
# Euler-Maclaurin (DLMF 2.10.1), 1/(P-1), 1/2 and b_j (P)_{2j-1}, b_j = B_2j/(2j)! and (P)_i
# rising, j <= 8; last the term j = 9, which bounds the rest as x**-P is completely monotone.
_P = np.arange(2.0, 102.0)[:, None]
_B2J = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
        7 / 523069747200, -3617 / 10670622842880000, 43867 / 5109094217170944000)
_EM_TABLE = np.hstack([1.0 / (_P - 1.0), np.full_like(_P, 0.5),
                       np.cumprod(_P + np.arange(17.0), axis=1)[:, ::2] * _B2J])
_Q_POWERS = np.r_[1.0, 0.0, -1.0:-18.0:-2.0][:, None]


def _image_tail(series, step, q, weights):
    """The images x = (q[f] + n) step, n >= 0, of each family f summed: (sum, bound).

    Each is weights[f] sum_k c_k h**(2k+m) x**-(2k+4) with (c, m) a _SERIES entry and
    (c, m, h) = ``series``, and each power of 1/x sums over n by _EM_TABLE. Term k is
    formed scale-free from r = (h/(q step))**2 and the power 4 - m of step, the value's
    dimension, so it stays in range at any a. The bound adds the _EM_TABLE remainders, the
    series' truncation (with every x above 2h and |c_{k+1}/c_k| <= 1, what follows term k
    is at most its modulus times r/(1 - r)) and the terms' rounding, _ROUNDING eps times
    their moduli.
    """
    c, m, h = series
    table, powers = _EM_TABLE[2::2][: _K.size], q**_Q_POWERS
    r = (h / step / q) ** 2
    scale = np.float64(h / step) ** m / np.float64(step) ** (4 - m)
    lead = c[:, None] * r ** _K[:, None] * (weights * scale * q**-4)
    terms = lead * (table[:, :-1] @ powers[:-1])
    bound = (np.abs(table[:, -1]) @ np.abs(lead) @ powers[-1]  # the _EM_TABLE remainders
             + np.abs(terms[-1]) @ (r / (1.0 - r)) + _ROUNDING * _EPS * np.sum(np.abs(terms)))
    return float(np.sum(terms)), float(bound)


def _grouped_image_sum(fvec, sign, a, z, series, horizon_n):
    """Sum sign f(z) + sum_{n>=1} [2 f(n a) + sign (f(n a + z) + f(n a - z))].

    ``fvec`` maps an array of positive offsets, of any shape, elementwise to
    image values and ``series`` = (c, m, h) is its _SERIES entry (c, m) and
    h = t/2, which places the light cone (see :func:`_image_tail`).
    With 0 < z < a, horizon_n is the one of :func:`platevac.kernels.horizon`
    for h and z. Shells 1..N, N = max(_N_MIN, 2 horizon_n), are summed
    directly, in one fvec call with the n = 0 image, so every later offset
    exceeds t and is left to the series tail; the tail estimate adds their
    rounding, _ROUNDING eps times their moduli. Callers keep N to _N_WALK,
    past which the lattice is its late-time expansion. Callers reject a
    point on a light cone, so a non-finite sum is beyond the float range,
    which numpy need not warn of. Returns (value, tail_estimate, n_used = N).
    """
    N = max(_N_MIN, 2 * horizon_n)
    # (shift, weight) per offset family: the plain one, then the two shifted ones.
    shifts, weights = np.array([(0.0, 2.0), (z, sign), (-z, sign)]).T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        offsets = np.arange(1, N + 1, dtype=float) * a + shifts[:, None]
        v = fvec(np.concatenate(([z], offsets.ravel())))
        shells = v[1:].reshape(offsets.shape)
        total = sign * float(v[0]) + float(weights @ shells.sum(axis=1))
        np.abs(v, out=v)  # in place: the moduli, for the rounding bound
        bound = _ROUNDING * _EPS * float(v[0] + np.abs(weights) @ shells.sum(axis=1))
        rest, rest_bound = _image_tail(series, a, N + 1.0 + shifts / a, weights)
    return in_float_range(total + rest, "image sum"), bound + rest_bound, N


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


def _zeta_scaled(s, q):
    """q**s zeta(s, q), Hurwitz (DLMF 25.11), for integer 2 <= s <= 101 and q > 0 broadcast:
    1 + sum_{n=1..15} (q/(q+n))**s + (q/x)**s x**s zeta(s, x), the last by the _EM_TABLE row at
    x = q + 16. Scale-free, so in range at any q; each ratio is exp(-s log1p(n/q)), which keeps
    its digits at large q, and the 1 comes last, so zeta(s) at q = 1 rounds correctly."""
    s, q = np.asarray(s, dtype=float), np.asarray(q, dtype=float)
    n = np.arange(16.0, 0.0, -1.0).reshape((-1,) + (1,) * max(s.ndim, q.ndim))  # smallest first
    ratios = np.exp(-s * np.log1p(n / q))
    tail = (_EM_TABLE[s.astype(int) - 2, :-1] * (q[..., None] + 16.0) ** _Q_POWERS[:-1, 0]).sum(-1)
    return (ratios[1:].sum(0) + ratios[0] * tail) + 1.0


def _zeta(s, q=1.0):
    """Hurwitz zeta(s, q) = q**-s _zeta_scaled(s, q), while q**-s is in range."""
    return np.asarray(q, dtype=float) ** -np.asarray(s, dtype=float) * _zeta_scaled(s, q)


_ZETA_N = _zeta(np.arange(2, 2 * _PLAIN_TERMS + 3)).tolist()  # zeta(s) = _ZETA_N[s - 2], s <= 50
_ZETA_2K = _ZETA_N[::2]  # zeta(2), zeta(4), ...
# Keyed by the shifted family's sign, highest power first for _horner.
_PLAIN_SERIES = {sign: [(k + 1.0) ** power * _ZETA_2K[k + 1] for k in range(_PLAIN_TERMS)][::-1]
                 for sign, power in ((1.0, 1), (-1.0, 2))}
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


def _sine(phase, a):
    """a sin(pi y/a)/pi with the sign of the phase (sign, y): a length, of either sign, formed
    as sign y sinc(pi y/a)."""
    sign, y = phase
    x = math.pi * (y / a)
    return sign * y * (math.sin(x) / x) if x else sign * y


# Past _N_WALK shells the dispersions' lattice is its late-time expansion (Navot 1961, the
# generalized Euler-Maclaurin expansion). With delta = 2a/t, tau = t/2a and theta = z/a, an
# image at offset x is u g(y), y = 2|x|/t, u = (2/t)**2 for a velocity and 1 for a position,
# so a dispersion is u S with S = sum_{n != 0} g(delta |n|) + sign sum_n g(delta |n + theta|).
# At y = 0, g = A/y**2 + B ln y + c0 + even powers of y, and at the cone, e = y - 1,
# g = p/e + sum_j c_j e**j ln|e| + a function analytic in e, with c_j = alpha [j = 0]
# + beta (-1)**j (j+1)(j+2)/2 from the log's coefficient alpha + beta/y**3. The even powers
# and the analytic part contribute nothing, so that
#
#     S = A pi**2/(3 delta**2) + B ln(2 pi/delta) - c0
#         + sign [A pi**2 csc(pi theta)**2/delta**2 + B ln(2 sin(pi theta))]
#         + sum_x w_x [-(pi p/delta) cot(x) - sum_j j! c_j (delta/2 pi)**j C_j(2x)]
#
# over the scan's phases x = pi tau (w = 2) and pi (tau -/+ theta) (w = sign), where
# C_j(y) = Re[i**j Li_{j+1}(exp(i y))]: C_0(2x) = -ln|2 sin x| and C_1 = -Cl_2. The rows
# (A, B, c0, p, alpha, beta) are platevac.kernels._LATE, next to the kernels' closed forms.
# The exact route takes the cone terms j = 1, 2, ... to the lowest order whose next order's
# modulus bound, j! |c_j| (delta/2 pi)**j zeta(j+1) (|C_j| <= zeta(j+1)) over the four
# families, in units of u, lies below _LATE_CUT = 1e-3 eps: order 13 at the switch, t = 60 a
# to 62 a, 11 at t = 100 a, 5 at 3e3 a, 3 from 1e5 a to 1e6 a. Its tail is _LATE_FACTOR times
# that bound: the expansion is asymptotic, and each order's bound is at most (j + 3) delta/2 pi
# times the one before, below 1/2 up to j = 90 at the switch, while the remainder past them
# shrinks like exp(-2 pi/delta).
_LATE_CUT = 1e-3 * _EPS
_LATE_FACTOR = 2.0


def _late_order(beta, step, top):
    """(order, bound): the lowest order 1 <= j <= ``top`` whose next order's modulus bound,
    beta _BOUNDS[j+1] step**(j+1), lies below _LATE_CUT, or else ``top``, and that bound."""
    j = 1
    while j < top and beta * _BOUNDS[j + 1] * step ** (j + 1) >= _LATE_CUT:
        j += 1
    return j, beta * _BOUNDS[j + 1] * step ** (j + 1)


# _BOUNDS[j] = 4 j! (j+1)(j+2)/2 zeta(j+1), order j's modulus bound over the four families
# per |beta| (delta/2 pi)**j, to j = 31, past any order the switch needs. _LATE_MAX is the
# order the rule asks for at the switch's earliest t, (_N_WALK - 4) a, with the largest |beta|.
_BOUNDS = [0.0] + [2.0 * math.factorial(j + 2) * _ZETA_N[j - 1] for j in range(1, 32)]
_LATE_MAX = _late_order(max(abs(row[5]) for row in _LATE.values()),
                        1.0 / (math.pi * (_N_WALK - 4)), len(_BOUNDS) - 2)[0]


def _clausen_table(j):
    """((-1)**j/j!, H_j, Q_j highest power first) with C_j(y) = (-1)**j y**j (H_j - ln|y|)/j!
    + y**(j mod 2) Q_j((y/2 pi)**2) for |y| <= pi (DLMF 25.12.12 at s = j + 1, H_j harmonic).

    Q_j holds the terms zeta(j+1-k) i**(j+k) y**k/k!, k = j-2, j-4, ... >= 0, none at k = j,
    the terms 2 zeta(2l) (2l-1)!/(j+2l)! (-1)**j y**j w**l, w = (y/2 pi)**2 <= 1/4, while
    they exceed eps/2 at w = 1/4 and |y| = pi."""
    two_pi = 2.0 * math.pi
    q = [_ZETA_N[j - 1 - k] * (-1) ** ((j + k) // 2) * two_pi ** (k - j % 2) / math.factorial(k)
         for k in range(j % 2, j - 1, 2)] + [0.0]  # k = j is the log term
    for l, zeta_2l in enumerate(_ZETA_2K, start=1):
        e = 2.0 * zeta_2l * math.factorial(2 * l - 1) / math.factorial(j + 2 * l)
        if e * 0.25**l * math.pi**j < _EPS / 2.0:
            break
        q.append((-1) ** j * two_pi ** (j - j % 2) * e)
    return (-1) ** j / math.factorial(j), sum(1.0 / i for i in range(1, j + 1)), q[::-1]


_CLAUSEN = [_clausen_table(j) for j in range(_LATE_MAX + 1)]
# -j! c_j / beta for j >= 1, the cone coefficients of C_j(2x) (delta/2 pi)**j.
_CONE = [-math.factorial(j) * (-1) ** j * (j + 1) * (j + 2) / 2.0 for j in range(_LATE_MAX + 1)]


def _clausen_type(j, y):
    """C_j(y) = Re[i**j Li_{j+1}(exp(i y))] for |y| <= pi, y != 0 when j = 0; C_0(y) =
    -ln|2 sin(y/2)|, C_1 = -Cl_2, and |C_j| <= zeta(j+1) for j >= 1."""
    lead, h_j, q = _CLAUSEN[j]
    w = y / (2.0 * math.pi)
    series = _horner(q, w * w)
    if j % 2:
        series *= y
    return lead * y**j * (h_j - math.log(abs(y))) + series if y else series


def _late_terms(key, sign, a, z, t, phases, order):
    """The terms of u S for the dispersion lattice of the kernel ``key``, its shifted families
    entering with ``sign``, from the expansion above: those of order delta**-2 (A),
    delta**-1 (p), delta**0 (B, c0, j = 0) and delta**j for 1 <= j <= ``order``, -1 or more.
    ``phases`` are those of the cone scan at t, which keep every phase exact. It holds
    where the families' finite-part integrals cancel: for sign -1, and for the normal
    kernels, whose integral vanishes.

    The cot and log sums over the phases are sign times their contrasts with the plain
    phase, in product form, plus (2 + 2 sign) times its own term, so that next to a plate
    they keep their digits.
    """
    A, B, c0, p, alpha, beta = _LATE[key]
    velocity = key[1] == "velocity"
    half = 1.0 if velocity else 0.5 * t  # (a/delta) sqrt(u)
    length = _sine(_fold(z, a), a)  # a sin(pi theta)/pi; 0 < z < a needs no reduction
    if A:
        q_plain, q_shifted = math.pi * half / a, half / length
        terms = [A * q_plain * q_plain / 3.0, sign * A * q_shifted * q_shifted]
    else:
        terms = []
    if order < 0 and not p:
        return terms
    root = 2.0 / t if velocity else 1.0  # sqrt(u)
    unit = root * root
    p_x, p_m, p_p = phases
    s_x, s_m, s_p = _sine(p_x, a), _sine(p_m, a), _sine(p_p, a)
    both = 2.0 + 2.0 * sign  # the plain phase's weight less twice sign
    if p:
        cot = _sine(_phase_sum(p_x, (1.0, 0.5 * a), a), a) / s_x
        # cot(x - theta) + cot(x + theta) - 2 cot(x)
        contrast = 2.0 * cot * (length / s_m) * (length / s_p)
        coef = -math.pi * p * half * root / a
        terms.append(coef * sign * contrast)
        if both:
            terms.append(coef * both * cot)
    if order < 0:
        return terms
    # sum_x w_x ln|2 sin x| = -sign (ln|sin x/sin(x - theta)| + ln|sin x/sin(x + theta)|)
    # + (2 + 2 sign) ln|2 sin x|, and -C_0(2x) = ln|2 sin x|
    coef = -sign * (alpha + beta) * unit
    terms += [-c0 * unit, coef * math.log(abs(s_x / s_m)), coef * math.log(abs(s_x / s_p))]
    if both:
        terms.append(both * (alpha + beta) * unit * math.log(abs(2.0 * math.pi * (s_x / a))))
    if B:  # (2 pi/delta) (2 sin(pi theta))**sign
        arg = math.pi * t / a * (2.0 * math.pi * (length / a)) if sign > 0 else 0.5 * t / length
        terms.append(B * unit * math.log(arg))
    if order > 0:
        step = a / (math.pi * t)  # delta/2 pi
        y_x, y_m, y_p = (2.0 * math.pi * (phase[1] / a) for phase in phases)
        for j in range(1, order + 1):
            coef = beta * _CONE[j] * step**j * unit
            terms += [2.0 * coef * _clausen_type(j, y_x), sign * coef * _clausen_type(j, y_m),
                      sign * coef * _clausen_type(j, y_p)]
    return terms


def _late_lattice(key, sign, a, z, t, phases):
    """(value, tail) of :func:`_late_terms` to the order of :func:`_late_order`, at most
    _LATE_MAX. The tail is _LATE_FACTOR times the modulus bound of the first omitted order,
    |C_j| <= zeta(j+1) over the four families, plus _ROUNDING eps times the moduli of the
    terms."""
    unit = (2.0 / t) ** 2 if key[1] == "velocity" else 1.0
    step = a / (math.pi * t)  # delta/2 pi
    order, omitted = _late_order(abs(_LATE[key][5]), step, _LATE_MAX)
    terms = _late_terms(key, sign, a, z, t, phases, order)
    tail = _LATE_FACTOR * omitted * unit + _ROUNDING * _EPS * sum(map(abs, terms))
    return in_float_range(sum(terms), "late-time expansion"), in_float_range(tail, "late-time bound")


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
_ZETA_EVEN = _ZETA_2K[-2::-1]  # zeta(2k), k <= _PLAIN_TERMS, highest k first


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
