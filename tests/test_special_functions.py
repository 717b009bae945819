"""platevac's own zeta values, image-sum tail, Clausen-type functions and light-cone
contrast against mpmath."""

import math

import mpmath
import numpy as np
import pytest

from platevac.correlators import _CLAUSEN, _LATE_MAX, _PLAIN_SERIES, _ZETA_2K, _ZETA_EVEN
from platevac.correlators import _clausen_type
from platevac.correlators import _image_tail, _zeta, _zeta_scaled
from platevac.kernels import _SERIES, singularity_report

EPS = 2.0**-52


def test_even_zeta_tables_match_mpmath():
    with mpmath.workdps(40):
        for k, value in enumerate(_ZETA_2K, start=1):
            assert abs(value - mpmath.zeta(2 * k)) <= 2.0 * EPS * value, k
        # Highest power first: zeta(2k) for k = 24..1, and (k+1)**(1 or 2) zeta(2k+4) for k = 23..0.
        for value, k in zip(_ZETA_EVEN, range(24, 0, -1)):
            assert abs(value - mpmath.zeta(2 * k)) <= 2.0 * EPS * value, k
        for sign, power in ((1.0, 1), (-1.0, 2)):
            for value, k in zip(_PLAIN_SERIES[sign], range(23, -1, -1)):
                ref = (k + 1) ** power * mpmath.zeta(2 * k + 4)
                assert abs(value - ref) <= 2.0 * EPS * value, (sign, k)


def test_hurwitz_zeta_of_order_four_matches_mpmath():
    with mpmath.workdps(40):
        for q in [*np.linspace(1.0, 2.0, 41)[1:], 1.0 + 1e-9, 1.5 + 2.0**-40]:
            ref = mpmath.zeta(4, mpmath.mpf(q))
            assert abs(_zeta(4, q) - ref) <= 2.0 * EPS * ref, q


def _scaled_hurwitz(s, q):
    """q**s zeta(s, q) to 60 digits: 40 terms, then Euler-Maclaurin at q + 40 to B_60.

    mpmath.zeta itself is no reference here: zeta(40, 1000.3) is 4.9e-10 off at 40 digits.
    """
    with mpmath.workdps(60):
        q = mpmath.mpf(q)
        x = q + 40
        tail = x ** (1 - s) / (s - 1) + x**-s / 2 + mpmath.fsum(
            mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * mpmath.rf(s, 2 * j - 1)
            * x ** (1 - s - 2 * j) for j in range(1, 31))
        return mpmath.fsum((q / (q + n)) ** s for n in range(40)) + q**s * tail


def test_hurwitz_zeta_keeps_its_digits_where_the_oracle_takes_it():
    # The oracle's remainder takes q**s zeta(s, q) for s = 4 + 2k and q up to its 2,000,000-shell
    # cap; within s/2 eps (at most 0.2 s eps and 1.4 eps here).
    s = np.arange(4, 84, 2)
    q = np.array([1.0, 1.3, 2.7, 51.7, 203.3, 1e3 + 0.3, 1e4 + 0.7, 1e5 + 0.7, 2e6 + 0.3])
    got = _zeta_scaled(s[:, None], q)
    for row, order in zip(got, s):
        for value, shift in zip(row, q):
            ref = _scaled_hurwitz(int(order), shift)
            assert abs(value - ref) <= order / 2.0 * EPS * ref, (order, shift)


@pytest.mark.parametrize("key", list(_SERIES))
def test_series_tail_matches_hurwitz_zeta_sums_within_its_bound(key):
    # The images (q + n) a, n >= 0, of a family sum to sum_k c_k (h/a)**(2k+m) zeta(2k+4, q)
    # / a**(4-m); q = N + 1 - z/a from N = 8 on, and h is given here in units of a.
    c, m = _SERIES[key]
    for a, h, first in ((1.0, 0.15, 9), (1e-3, 4.0, 12), (2.0, 22.0, 46), (1.0, 2000.0, 4003)):
        for sign in (1.0, -1.0):
            q, weights = first + np.array([0.0, 0.677, -0.677]), np.array([2.0, sign, sign])
            value, tail = _image_tail((c, m, h * a), a, q, weights)
            with mpmath.workdps(30):
                ref = sum(w * c[k] * mpmath.mpf(h) ** (2 * k + m) * mpmath.zeta(2 * k + 4, qf)
                          for w, qf in zip(weights, map(mpmath.mpf, q)) for k in range(c.size))
                ref /= mpmath.mpf(a) ** (4 - m)
            assert abs(value - ref) <= tail, (a, h, sign)


def test_odd_zeta_values_match_mpmath():
    with mpmath.workdps(40):
        for s in (3, 5, 7, 9):
            assert abs(_zeta(s) - mpmath.zeta(s)) <= 2.0 * EPS * _zeta(s), s


_NEAR_ZERO = [s * d for s in (1.0, -1.0) for d in (1e-8, 3e-9, 1e-12)]
_NEAR_PI = [s * (math.pi - d) for s in (1.0, -1.0) for d in (1e-8, 3e-9, 1e-12, 0.0)]


def test_clausen_matches_mpmath_over_a_period():
    # Absolute error: Cl_2 = -C_1 vanishes at 0 and pi, where its series cancels.
    with mpmath.workdps(40):
        for x in [*np.linspace(-math.pi, math.pi, 401), 1e-300, 0.0, -0.0, *_NEAR_ZERO, *_NEAR_PI]:
            assert abs(-_clausen_type(1, x) - mpmath.clsin(2, mpmath.mpf(x))) <= 4.0 * EPS, x


@pytest.mark.parametrize("j", range(_LATE_MAX + 1))
def test_clausen_type_functions_match_mpmath_polylog(j):
    # Every order the late-time expansion can take, up to 13 at its switch.
    # C_j(y) = Re[i**j Li_{j+1}(exp(i y))] over |y| <= pi: absolute error where |C_j| <= 1, as
    # the series cancels (up to 12 eps at j = 4 next to pi, 5.3 eps from j = 6 on), relative
    # above.
    assert len(_CLAUSEN) == _LATE_MAX + 1 and _LATE_MAX == 13
    ys = [*np.linspace(-math.pi, math.pi, 201), 1e-300, *_NEAR_ZERO, *_NEAR_PI]
    with mpmath.workdps(40):
        for y in ys:
            if not y:
                continue
            phase = mpmath.expjpi(mpmath.mpf(y) / mpmath.pi)
            ref = mpmath.re(mpmath.j**j * mpmath.polylog(j + 1, phase))
            assert abs(_clausen_type(j, y) - ref) <= 16.0 * EPS * max(1.0, abs(ref)), y
            if j:
                assert abs(_clausen_type(j, y)) <= mpmath.zeta(j + 1) * (1.0 + 4.0 * EPS)
    if j:  # C_j(0) = Re[i**j zeta(j+1)]
        assert _clausen_type(j, 0.0) == pytest.approx(
            float(mpmath.re(mpmath.j**j) * mpmath.zeta(j + 1)), rel=4.0 * EPS, abs=4.0 * EPS)


@pytest.mark.parametrize("z", [1e-9, 1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9])
@pytest.mark.parametrize("t", [10.37, 2017.6, 123456.9])
def test_cone_contrast_matches_an_mpmath_second_difference(z, t):
    # 2 Cl_2(2x) - Cl_2(2(x - theta)) - Cl_2(2(x + theta)) at x = pi t/2a, theta = pi z/a: it
    # cancels as theta -> 0 or pi, so what counts is the absolute error.
    # The late-time expansion takes Cl_2 = -C_1 at 2x = 2 pi y/a for each scan phase y.
    a = 1.0
    plain, minus, plus = (-_clausen_type(1, 2.0 * math.pi * (y / a))
                          for _, y in singularity_report(z, a, t).phases)
    got = 2.0 * plain - minus - plus
    with mpmath.workdps(40):
        x, theta = mpmath.pi * mpmath.mpf(t) / (2 * a), mpmath.pi * mpmath.mpf(z) / a
        ref = (2 * mpmath.clsin(2, 2 * x) - mpmath.clsin(2, 2 * (x - theta))
               - mpmath.clsin(2, 2 * (x + theta)))
        assert abs(got - ref) <= 8.0 * EPS
