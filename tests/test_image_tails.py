"""Tail estimates of the image sums against an independent high-precision reference.

The reference sums the images explicitly at 30 digits out to twice as far
as platevac does, so that every later offset is at least 2t away, and adds
the rest as Hurwitz zeta values. Its series coefficients come from
``mpmath.taylor`` of the closed kernels below, not from platevac's own
tables.
"""

import decimal
import functools
import math
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platevac import (
    EvalPoint,
    Geometry,
    SingularWindowError,
    dispersion_exact,
    efield_correlator_normal,
    efield_correlator_parallel,
    renormalized_photon_two_point,
    singularity_report,
)
from platevac.correlators import _TAIL_TARGET

DPS = 30
EPS = 2.0**-52
ORDER = 36  # powers of h/x kept in the reference tail, where h/x <= 1/4
STEP = mpmath.mpf("1e-15")  # relative step of the forward difference for x f'(x)
NAMES = ("dv2-parallel", "dv2-normal", "dx2-parallel", "dx2-normal", "efield-parallel",
         "efield-normal")
# Shifted-family sign: minus along the plates, plus along the normal.
SIGN = {name: -1 if name.endswith("parallel") else 1 for name in NAMES}
# Each image is h**-D phi(h / x), h = t/2, with D the kernel's inverse length
# dimension; the correlators carry a further 1/pi**2.
DIMENSION = {"dv2-parallel": 2, "dv2-normal": 2, "dx2-parallel": 0, "dx2-normal": 0,
             "efield-parallel": 4, "efield-normal": 4}


def _lam(u):
    return mpmath.atanh(u) if u < 1 else mpmath.atanh(1 / u)


def _log(u):
    return mpmath.log(abs(1 - u * u))


# Image values at x = 1/u for h = 1, in NAMES order, from the closed
# kernels; the last two are (dt**2 + 4x**2) / (dt**2 - 4x**2)**3 and
# 1 / (dt**2 - 4x**2)**2 at dt = 2.
PHI = (
    lambda u: (u * u / (8 * (u * u - 1)) - u * _lam(u) / 8) * u * u,
    lambda u: u**3 * _lam(u) / 4,
    lambda u: (u * u - u**3 * _lam(u) + _log(u)) / 6,
    lambda u: (u * u + 2 * u**3 * _lam(u) + _log(u)) / 6,
    lambda u: u**4 * (1 + u * u) / (16 * (u * u - 1) ** 3),
    lambda u: u**4 / (16 * (u * u - 1) ** 2),
)


@functools.lru_cache(maxsize=None)
def _taylor():
    with mpmath.workdps(DPS):
        return [mpmath.taylor(phi, 0, ORDER) for phi in PHI]


def _reference(a, z, t):
    """{name: (value, sensitivity)}: the image sum at 30 digits, and the sum
    over its explicit images of |x f'(x)| + |f(x)|."""
    with mpmath.workdps(DPS):
        a, z, h = mpmath.mpf(a), mpmath.mpf(z), mpmath.mpf(t) / 2
        scales = [h ** -DIMENSION[name] / (mpmath.pi**2 if name.startswith("efield") else 1)
                  for name in NAMES]
        values, sensitivity = [0] * len(NAMES), [0] * len(NAMES)

        def add(x, shifted):
            for i, name in enumerate(NAMES):
                f = scales[i] * PHI[i](h / x)
                x_df = (scales[i] * PHI[i](h / (x * (1 + STEP))) - f) / STEP
                weight = SIGN[name] if shifted else 2
                values[i] += weight * f
                sensitivity[i] += abs(weight) * (abs(x_df) + abs(f))

        add(z, True)
        n_last = int(mpmath.ceil((4 * h + z) / a)) + 8
        for n in range(1, n_last + 1):
            add(n * a, False)
            add(n * a + z, True)
            add(n * a - z, True)
        q = n_last + 1
        for j in range(4, ORDER + 1, 2):
            plain = 2 * mpmath.zeta(j, q)
            shifted = mpmath.zeta(j, q + z / a) + mpmath.zeta(j, q - z / a)
            for i, name in enumerate(NAMES):
                zsum = plain + SIGN[name] * shifted
                values[i] += scales[i] * _taylor()[i][j] * (h / a) ** j * zsum
        return {name: (float(v), float(s)) for name, v, s in zip(NAMES, values, sensitivity)}


def _platevac(name, a, z, t):
    if name == "efield-parallel":
        return efield_correlator_parallel(z, a, t)
    if name == "efield-normal":
        return efield_correlator_normal(z, a, t)
    return dispersion_exact(name, EvalPoint(Geometry(a, z), t))


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(0.1, 10.0),
    z_over_a=st.floats(0.01, 0.99),
    t_over_a=st.floats(-2.0, 2.3).map(lambda p: 10.0**p),
)
@example(a=1.0, z_over_a=0.3, t_over_a=30.3)
@example(a=2.0, z_over_a=0.5, t_over_a=100.2)
@example(a=1.0, z_over_a=0.5, t_over_a=30.5)
@example(a=1.0, z_over_a=0.37, t_over_a=0.21)
def test_tail_estimate_bounds_the_error(a, z_over_a, t_over_a):
    z, t = a * z_over_a, a * t_over_a
    assume(0.0 < z < a and singularity_report(z, a, t).distance >= 1e-3)
    for name, (ref, sensitivity) in _reference(a, z, t).items():
        got = _platevac(name, a, z, t)
        assert abs(got.value - ref) <= got.tail_estimate + 4.0 * EPS * sensitivity, name
        assert got.tail_estimate <= _TAIL_TARGET * abs(got.value), name


# The photon two-point function: 1/(A - y**2) summed over y = z + z' + 2na
# (all n, weight -REFLECTED[mu]) and y = z - z' + 2na (n != 0, weight
# ETA[mu]), over 4 pi**2.
ETA = (1, -1, -1, -1)
REFLECTED = (1, -1, -1, 1)


def _photon_reference(mu, A, z, zp, a):
    """(value, sensitivity, cone distance) of the photon function at interval A.

    Each lattice is explicit while |n| <= M, past which every |y| is at
    least 4 sqrt|A| (twice as far as platevac sums explicitly), in 30-digit
    decimal arithmetic; the rest is Hurwitz zeta values with the
    coefficients of ``mpmath.taylor`` of 1/(A - y**2) = psi(2a/|y|)/(2a)**2.
    The sensitivity sums |y f'(y)| + |f(y)| over the explicit terms; the
    cone distance is min ||y| - sqrt A| / sqrt A over them (inf if A <= 0).
    """
    root = math.sqrt(abs(A))
    M = math.ceil((4.0 * root + z + zp) / (2.0 * a)) + 8
    with mpmath.workdps(DPS):
        Ap = mpmath.mpf(A) / (2 * mpmath.mpf(a)) ** 2
        coef = mpmath.taylor(lambda u: u * u / (Ap * u * u - 1), 0, ORDER)
    value, sensitivity, cone = mpmath.mpf(0), 0.0, math.inf
    with decimal.localcontext(decimal.Context(prec=DPS)):
        Ad, ad = Decimal(A), Decimal(a)
        for s, weight, skip_zero in ((Decimal(z) + Decimal(zp), -REFLECTED[mu], False),
                                     (Decimal(z) - Decimal(zp), ETA[mu], True)):
            total = Decimal(0)
            for n in range(-M, M + 1):
                if n or not skip_zero:
                    y = s + 2 * n * ad
                    total += 1 / (Ad - y * y)
            n = np.arange(-M, M + 1)
            y = np.abs(float(s) + 2.0 * a * n[n != 0] if skip_zero else float(s) + 2.0 * a * n)
            f = np.abs(1.0 / (A - y * y))
            sensitivity += float(np.sum(f * (1.0 + 2.0 * y * y * f)))
            if A > 0.0:
                cone = min(cone, float(np.min(np.abs(y - root))) / root)
            with mpmath.workdps(DPS):
                r = mpmath.mpf(float(s)) / (2 * mpmath.mpf(a))
                tail = sum(coef[j] * (mpmath.zeta(j, M + 1 + r) + mpmath.zeta(j, M + 1 - r))
                           for j in range(2, ORDER + 1, 2))
                value += weight * (mpmath.mpf(str(total)) + tail / (2 * mpmath.mpf(a)) ** 2)
    four_pi2 = 4.0 * math.pi**2
    return float(value / (4 * mpmath.pi**2)), sensitivity / four_pi2, cone


@settings(max_examples=15, deadline=None)
@given(
    mu=st.integers(0, 3),
    a=st.floats(0.1, 10.0),
    z_over_a=st.floats(0.01, 0.99),
    zp_over_a=st.floats(0.01, 0.99),
    dt_over_a=st.floats(-2.0, 2.3).map(lambda p: 10.0**p),
    dx_over_dt=st.floats(0.0, 1.5),
    dy_over_a=st.floats(0.0, 0.5),
)
@example(mu=0, a=1.0, z_over_a=0.3, zp_over_a=0.6, dt_over_a=0.4, dx_over_dt=0.25, dy_over_a=0.2)
@example(mu=3, a=1.0, z_over_a=0.3, zp_over_a=0.6, dt_over_a=0.4, dx_over_dt=1.3, dy_over_a=0.0)
@example(mu=1, a=2.0, z_over_a=0.2, zp_over_a=0.7, dt_over_a=3.1, dx_over_dt=1.0, dy_over_a=0.0)
@example(mu=3, a=1.0, z_over_a=0.5, zp_over_a=0.5, dt_over_a=7.3, dx_over_dt=0.0, dy_over_a=0.0)
@example(mu=2, a=1.0, z_over_a=0.3, zp_over_a=0.4, dt_over_a=98000.37, dx_over_dt=0.1 / 98000.37,
         dy_over_a=0.2)
def test_photon_tail_estimate_bounds_the_error(mu, a, z_over_a, zp_over_a, dt_over_a, dx_over_dt,
                                               dy_over_a):
    z, zp, dt, dy = a * z_over_a, a * zp_over_a, a * dt_over_a, a * dy_over_a
    dx = dt * dx_over_dt
    A = dt * dt - dx * dx - dy * dy  # rounded once, as platevac rounds it
    assume(0.0 < z < a and 0.0 < zp < a)
    ref, sensitivity, cone = _photon_reference(mu, A, z, zp, a)
    assume(cone >= 1e-3)
    got = renormalized_photon_two_point(mu, mu, dt, dx, dy, z, zp, a)
    assert abs(got.value - ref) <= got.tail_estimate + 4.0 * EPS * sensitivity
    assert got.tail_estimate <= _TAIL_TARGET * abs(got.value)


def test_photon_cone_window_is_1e_10_relative():
    # z + z' = 0.9: the n = 0 image of the reflected lattice has its cone at dt = 0.9.
    with pytest.raises(SingularWindowError) as info:
        renormalized_photon_two_point(0, 0, 0.9 * (1.0 + 1e-12), 0.0, 0.0, 0.4, 0.5, 1.0)
    report = info.value.report
    assert report.nearest_time == 0.9
    assert (report.family, report.n) == ("shifted", 0)
    got = renormalized_photon_two_point(0, 0, 0.9 * (1.0 + 1e-9), 0.0, 0.0, 0.4, 0.5, 1.0)
    assert math.isfinite(got.value) and math.isfinite(got.tail_estimate)
