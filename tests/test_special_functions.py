"""platevac's own zeta values, image-sum tail, Clausen function and light-cone contrast
against mpmath."""

import math

import mpmath
import numpy as np
import pytest

from platevac.asymptotics import _clausen, _cone_contrast
from platevac.correlators import _PLAIN_SERIES, _ZETA_2K, _ZETA_EVEN, _image_tail, _zeta
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


@pytest.mark.parametrize("key", list(_SERIES))
def test_series_tail_matches_hurwitz_zeta_sums_within_its_bound(key):
    # The images (q + n) a, n >= 0, of a family sum to sum_k c_k (h/a)**(2k+m) zeta(2k+s0, q)
    # / a**(s0-m); q = N + 1 - z/a from N = 8 on, and h is given here in units of a.
    c, m, s0, p = _SERIES[key]
    for a, h, first in ((1.0, 0.15, 9), (1e-3, 4.0, 12), (2.0, 22.0, 46), (1.0, 2000.0, 4003)):
        for sign in (1.0, -1.0):
            q, weights = first + np.array([0.0, 0.677, -0.677]), np.array([2.0, sign, sign])
            value, tail = _image_tail((c, m, s0, p, h * a), a, q, weights)
            with mpmath.workdps(30):
                ref = sum(w * c[k] * mpmath.mpf(h) ** (2 * k + m) * mpmath.zeta(2 * k + s0, qf)
                          for w, qf in zip(weights, map(mpmath.mpf, q)) for k in range(c.size))
                ref /= mpmath.mpf(a) ** (s0 - m)
            assert abs(value - ref) <= tail, (a, h, sign)


def test_clausen_matches_mpmath_over_a_period():
    # Absolute error: Cl_2 vanishes at 0 and pi, where its series cancels.
    near_zero = [s * d for s in (1.0, -1.0) for d in (1e-8, 3e-9, 1e-12, 0.0)]
    near_pi = [s * (math.pi - d) for s in (1.0, -1.0) for d in (1e-8, 3e-9, 1e-12, 0.0)]
    with mpmath.workdps(40):
        for x in [*np.linspace(-math.pi, math.pi, 401), 1e-300, *near_zero, *near_pi]:
            assert abs(_clausen(x) - mpmath.clsin(2, mpmath.mpf(x))) <= 4.0 * EPS, x


@pytest.mark.parametrize("z", [1e-9, 1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9])
@pytest.mark.parametrize("t", [10.37, 2017.6, 123456.9])
def test_cone_contrast_matches_an_mpmath_second_difference(z, t):
    # 2 Cl_2(2x) - Cl_2(2(x - theta)) - Cl_2(2(x + theta)) at x = pi t/2a, theta = pi z/a: it
    # cancels as theta -> 0 or pi, so what counts is the absolute error.
    a = 1.0
    got = _cone_contrast(singularity_report(z, a, t).phases, a)
    with mpmath.workdps(40):
        x, theta = mpmath.pi * mpmath.mpf(t) / (2 * a), mpmath.pi * mpmath.mpf(z) / a
        ref = (2 * mpmath.clsin(2, 2 * x) - mpmath.clsin(2, 2 * (x - theta))
               - mpmath.clsin(2, 2 * (x + theta)))
        assert abs(got - ref) <= 8.0 * EPS
