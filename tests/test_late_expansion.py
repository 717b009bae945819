"""The late-time expansion of the dispersions' image lattice, checked independently of itself.

* Its table (A, B, c0, p, alpha, beta) is derived again from the closed kernels of
  ``platevac.kernels``, by mpmath series at the origin and at the light cone.
* Past 64 shells (t = 62 a) ``dispersion_exact`` is compared with the image lattice summed
  at exact offsets in 128-bit fixed point, its far tail as Hurwitz zeta values with the
  30-digit series coefficients of ``tests/test_image_tails.py``, at the late points of the
  acceptance criteria and of ``tests/test_paper_claims.py`` among others, which compare
  ``approx_large_t`` with it.
* From 64 shells to 4e3 a the expansion is compared with the walk, both called directly.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_log, to_fixed
from test_correlators import _sensitivity
from test_image_tails import DPS, ORDER, _taylor

from platevac import ALL_KINDS, EvalPoint, Geometry, dispersion_exact, singularity_report
from platevac import correlators
from platevac.correlators import _LATE, _LATE_MAX, _N_WALK, _grouped_image_sum, _late_lattice
from platevac.kernels import _ORIGIN, _SERIES, _image_values, horizon
from platevac.quantities import DispersionKind

EPS = 2.0**-52
# Kernel keys in the order of test_image_tails.PHI, whose first four are the dispersions.
KEYS = (("parallel", "velocity"), ("normal", "velocity"), ("parallel", "position"),
        ("normal", "position"))
SIGN = (-1, 1, -1, 1)


# Each closed kernel of platevac.kernels is g(y) = F(1/y)/y**2 or G(1/y), u = 1/y: a rational
# part R plus lam u**3 Lam(u) plus mu ln|1 - u**2|, (R, lam, 3, mu) below. About a singular point y0
# it splits into P(y) + Q(y) ln|y - y0|, P meromorphic and Q analytic there, from
# Lam = (1/2) ln|(y+1)/(y-1)| and ln|1 - u**2| = ln|y - 1| + ln|y + 1| - 2 ln|y|.
_PARTS = {
    ("parallel", "velocity"): (lambda u: u**4 / (8 * (u * u - 1)), Fraction(-1, 8), 3, 0),
    ("normal", "velocity"): (lambda u: 0, Fraction(1, 4), 3, 0),
    ("parallel", "position"): (lambda u: u * u / 6, Fraction(-1, 6), 3, Fraction(1, 6)),
    ("normal", "position"): (lambda u: u * u / 6, Fraction(1, 3), 3, Fraction(1, 6)),
}
# Per singular point: (the analytic part of Lam, its ln|y - y0| coefficient, the same two of
# ln|1 - u**2|), as functions of y.
_LOGS = {
    0: (mpmath.atanh, lambda y: 0, lambda y: mpmath.log(1 - y * y), lambda y: -2),
    1: (lambda y: mpmath.log(y + 1) / 2, lambda y: mpmath.mpf(-1) / 2,
        lambda y: mpmath.log(y + 1) - 2 * mpmath.log(y), lambda y: 1),
}


def _split(key, y0):
    """(P, Q) of the kernel ``key`` about y0 = 0 or 1."""
    lam_a, lam_q, log_a, log_q = _LOGS[y0]

    rational, lam, power, mu = _PARTS[key]  # lam is lam u**power
    lam, mu = (mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator for c in (lam, mu))

    def P(y):
        return rational(1 / y) + lam / y**power * lam_a(y) + mu * log_a(y)

    def Q(y):
        return lam / y**power * lam_q(y) + mu * log_q(y)

    return P, Q


def _closed(key, y):
    """g(y) from the closed forms of the kernels' docstring, at a real y > 0."""
    u = 1 / mpmath.mpf(y)
    lam = mpmath.log(abs((1 + u) / (1 - u))) / 2
    log = mpmath.log(abs(1 - u * u))
    axis, observable = key
    if observable == "velocity":
        f = u * u / (8 * (u * u - 1)) - u * lam / 8 if axis == "parallel" else u * lam / 4
        return f * u * u
    return (u * u + (-1 if axis == "parallel" else 2) * u**3 * lam + log) / 6


def _series(f, y0, n):
    """Taylor coefficients of f at y0 by Cauchy integrals, so that f is not evaluated at y0."""
    return mpmath.taylor(f, y0, n, method="quad", radius=mpmath.mpf(1) / 4)


@pytest.mark.parametrize("key", KEYS)
def test_the_table_follows_from_the_closed_kernels(key):
    A, B, c0, p, alpha, beta = _LATE[key]
    with mpmath.workdps(30):
        for y0, points in ((0, (0.1, 0.3)), (1, (0.9, 1.2))):
            P, Q = _split(key, y0)
            for y in points:  # the split is the closed kernel
                value = P(mpmath.mpf(y)) + Q(mpmath.mpf(y)) * mpmath.log(abs(y - y0))
                assert abs(value - _closed(key, y)) < mpmath.mpf(10) ** -25
        # At y = 0: g = A/y**2 + B ln y + c0 + even powers, and no y**2k ln y.
        P, Q = _split(key, 0)
        laurent = _series(lambda y: y * y * P(y), 0, 8)
        assert [float(c) for c in laurent[:3]] == pytest.approx([A, 0.0, c0], abs=1e-20)
        assert all(abs(c) < 1e-20 for c in laurent[1::2])
        # The origin series of the far images continues the same even powers: y**0 .. y**6.
        assert [float(c) for c in laurent[2::2]] == pytest.approx(_ORIGIN[key][:4], rel=4 * EPS)
        logs = _series(Q, 0, 6)
        assert float(logs[0]) == pytest.approx(B, abs=1e-20)
        assert all(abs(c) < 1e-20 for c in logs[1:])
        # At y = 1, e = y - 1: g = p/e + (alpha + beta/y**3) ln|e| + analytic, so that the
        # coefficient of e**j ln|e| is c_j = alpha [j = 0] + beta (-1)**j (j+1)(j+2)/2.
        P, Q = _split(key, 1)
        pole = _series(lambda y: (y - 1) ** 2 * P(y), 1, 2)
        assert abs(pole[0]) < 1e-20 and float(pole[1]) == pytest.approx(p, abs=1e-20)
        for y in (0.8, 1.0, 1.3):  # to the rounding of the table's floats
            assert abs(Q(mpmath.mpf(y)) - (alpha + beta / y**3)) < 4 * EPS * (abs(alpha) + abs(beta) / y**3)
        cone = _series(Q, 1, _LATE_MAX + 1)
        for j, c in enumerate(cone):
            expected = (alpha if j == 0 else 0.0) + beta * (-1) ** j * (j + 1) * (j + 2) / 2
            assert float(c) == pytest.approx(expected, rel=4 * EPS, abs=1e-20), j


def test_the_expansion_order_is_the_lowest_whose_next_lies_below_rounding(monkeypatch):
    # Per call, from the earliest t past the switch (60 a next to the far plate) on, the
    # first omitted order's modulus bound j! |beta| (j+1)(j+2)/2 (delta/2 pi)**j zeta(j+1)
    # over the four families lies below 1e-3 eps, and not below it at the order taken.
    orders = []
    late_terms = correlators._late_terms
    monkeypatch.setattr(correlators, "_late_terms",
                        lambda *args: orders.append(args[-1]) or late_terms(*args))
    a = 1.0
    for z, t in ((0.999, 60.1), (0.3123, 61.5), (0.3123, 100.37), (0.3123, 1000.37),
                 (0.3123, 1e4 + 0.37), (0.3123, 1e5 + 0.37), (0.3123, 1e6 + 0.37)):
        assert 2 * horizon(a, z, t) > _N_WALK
        step = a / t / math.pi  # delta/2 pi
        for key in KEYS:

            def bound(j):
                beta = abs(_LATE[key][5])
                return (math.factorial(j) * beta * (j + 1) * (j + 2) / 2 * step**j
                        * float(mpmath.zeta(j + 1)) * 4)

            orders.clear()
            got = dispersion_exact(DispersionKind(*key), EvalPoint(Geometry(a, z), t), window=1e-10)
            assert got.n_used == 0
            (order,) = orders
            assert 1 <= order <= _LATE_MAX, (key, t)
            assert bound(order + 1) < 1e-3 * EPS, (key, t)
            assert order == 1 or bound(order) >= 1e-3 * EPS, (key, t)
            if t < 62.0:  # the highest order the route takes, at its earliest t
                assert order == _LATE_MAX == 13, (key, t)


_BITS = 128


def _fixed_lattice(a, z, t):
    """The four dispersions at (a, z, t): every image at its exact offset n a, n a +/- z out
    to 4 t/2 + z, in fixed point with _BITS fraction bits; past it, the Hurwitz zeta tail
    of the 30-digit series coefficients of test_image_tails."""
    one = 1 << _BITS

    def fixed(v):
        return int(Fraction(v) * one)

    def ln(v):
        return to_fixed(mpf_log(from_man_exp(v, -_BITS), _BITS + 8), _BITS)

    a_f, z_f, h_f = fixed(a), fixed(z), fixed(t) // 2
    sums = [0] * 4

    def add(x, weights):  # the closed kernels at u = t/2x, each as u**2 F(u) or G(u)
        u = (h_f << _BITS) // x
        ln_plus, ln_minus = ln(one + u), ln(abs(one - u))
        lam, log, u2 = (ln_plus - ln_minus) >> 1, ln_plus + ln_minus, (u * u) >> _BITS
        u3_lam = (((u2 * u) >> _BITS) * lam) >> _BITS
        values = ((((u2 << _BITS) // (8 * (u2 - one)) - ((u * lam) >> _BITS) // 8) * u2) >> _BITS,
                  u3_lam // 4, (u2 - u3_lam + log) // 6, (u2 + 2 * u3_lam + log) // 6)
        for i in range(4):
            sums[i] += weights[i] * values[i]

    add(z_f, SIGN)
    n_last = math.ceil((2.0 * t + z) / a) + 8
    for n in range(1, n_last + 1):
        add(n * a_f, (2, 2, 2, 2))
        add(n * a_f + z_f, SIGN)
        add(n * a_f - z_f, SIGN)
    with mpmath.workdps(DPS):
        h, q, r = mpmath.mpf(t) / 2, n_last + 1, mpmath.mpf(z) / mpmath.mpf(a)
        values = []
        for i in range(4):
            total = mpmath.mpf(sums[i]) / one
            for j in range(4, ORDER + 1, 2):
                families = 2 * mpmath.zeta(j, q) + SIGN[i] * (mpmath.zeta(j, q + r)
                                                              + mpmath.zeta(j, q - r))
                total += _taylor()[i][j] * (h / mpmath.mpf(a)) ** j * families
            values.append(float(total / (h * h) if KEYS[i][1] == "velocity" else total))
        return values


def _sample_points(count, rng, decades=(math.log10(62.0), 4.3), every=2):
    """(a, z, t) with t/a = 10**U(*decades) and z/a in U(0.01, 0.99); every ``every``-th
    point is moved to a relative distance 10**U(-9, -6) from its nearest cone."""
    points = []
    for i in range(count):
        a = rng.choice((0.5, 1.0, 2.0))
        z, t = a * rng.uniform(0.01, 0.99), a * 10.0 ** rng.uniform(*decades)
        if (i + 1) % every == 0:
            cone = singularity_report(z, a, t, 0.0).nearest_time
            t = cone * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -6.0))
        points.append((a, z, t))
    return points


# Criterion 6 of tests/test_acceptance.py and the late points of tests/test_paper_claims.py
# compare approx_large_t with dispersion_exact, which takes the same expansion there.
_CLAIM_POINTS = [(1.0, 0.5, 100.5), (1.0, 0.5, 1000.5), (1.0, 0.1, 1000.37), (1.0, 0.3, 1000.37),
                 (1.0, 0.5, 1000.37)]


@pytest.mark.parametrize("a, z, t", _CLAIM_POINTS + _sample_points(8, random.Random(2701)))
def test_the_late_route_matches_the_exact_offset_lattice_within_its_tail(a, z, t):
    # No allowance beyond the tail: past the walk every phase is exact and no offset is
    # rounded, so the tail bounds the whole error.
    point = EvalPoint(Geometry(a, z), t)
    assert 2 * horizon(a, z, t) > _N_WALK
    for key, ref in zip(KEYS, _fixed_lattice(a, z, t)):
        got = dispersion_exact(DispersionKind(*key), point, window=1e-10)
        assert got.n_used == 0
        assert abs(got.value - ref) <= got.tail_estimate, key


@pytest.mark.parametrize("a, z, t", _sample_points(40, random.Random(30), (0.0, math.log10(62.0))))
def test_the_walk_next_to_a_cone_is_within_its_tail(a, z, t):
    # The closed kernels take the exact gap |1 - u| at every image, so next to a cone the
    # walk's dx2-normal, whose terms stay finite at a cone and whose slopes grow only like
    # ln|1 - u|, is within its tail. The other kinds may be off by the rounding of the offsets
    # n a +/- z themselves, which their terms amplify there by up to eps |x f'(x)| each
    # (ROADMAP item 4): 4 eps S beyond the tail.
    point = EvalPoint(Geometry(a, z), t)
    for key, sign, ref in zip(KEYS, SIGN, _fixed_lattice(a, z, t)):
        got = dispersion_exact(DispersionKind(*key), point, window=1e-10)
        fvec = lambda x: _image_values(key, x, t)  # noqa: E731
        slack = 0.0 if key == ("normal", "position") else 4.0 * EPS * _sensitivity(
            fvec, sign, a, z, got.n_used, 0.5 * t)
        assert abs(got.value - ref) <= got.tail_estimate + slack, key


def _expansion_against_walk(kind, flipped, a, z, t):
    """Check the late-time expansion against the walk at (a, z, t) past the switch."""
    sign = -1.0 if kind.axis == "parallel" or flipped else 1.0
    report = singularity_report(z, a, t, 0.0)
    key = (kind.axis, kind.observable)
    horizon_n = horizon(a, z, t)
    walk, walk_tail, n_used = _grouped_image_sum(lambda x: _image_values(key, x, t), sign, a, z,
                                                 (*_SERIES[key], 0.5 * t), horizon_n)
    assert n_used == 2 * horizon_n > _N_WALK
    value, tail = _late_lattice(key, sign, a, z, t, report.phases)
    sensitivity = _sensitivity(lambda x: _image_values(key, x, t), sign, a, z, n_used, 0.5 * t)
    assert abs(value - walk) <= tail + walk_tail + 4.0 * EPS * sensitivity, (kind, flipped)


@seed(20041203)
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), flipped=st.booleans(), a=st.sampled_from((0.5, 1.0, 2.0)),
       t_over_a=st.floats(math.log10(62.0), math.log10(4e3)).map(lambda p: 10.0**p),
       z_over_a=st.floats(0.01, 0.99))
def test_the_expansion_matches_the_walk_below_the_switch(kind, flipped, a, t_over_a, z_over_a):
    # The oracle's flipped normal sum takes the shifted families with sign -1 as well. The
    # walk rounds each offset n a + z, which moves its value by up to eps S (S the sum of
    # |f| + |x f'(x)| over its images) beyond its tail: 1.5e-12 of dv2-parallel at
    # (a, z, t) = (0.5, 0.25, 1581.1), where the expansion is within 1.7e-16 of the
    # exact-offset lattice. Past the switch dispersion_exact takes the expansion, so the walk
    # is called directly. On a cone neither has a value.
    z, t = a * z_over_a, a * t_over_a
    assume(singularity_report(z, a, t, 0.0).distance > 0.0)
    _expansion_against_walk(kind, flipped, a, z, t)


@pytest.mark.parametrize("a, z, t", _sample_points(30, random.Random(31),
                                                   (math.log10(62.0), math.log10(4e3)), every=1))
def test_the_expansion_matches_the_walk_next_to_a_cone(a, z, t):
    # 1e-9 to 1e-6 (relative) on either side of a cone, every kind, both signs of the
    # normal kinds' shifted families: the bound above holds there too.
    for kind in ALL_KINDS:
        for flipped in (False, True) if kind.axis == "normal" else (False,):
            _expansion_against_walk(kind, flipped, a, z, t)
