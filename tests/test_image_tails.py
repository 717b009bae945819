"""Tail estimates of the image sums against an independent mpmath reference.

The reference sums the images explicitly in mpmath at 30 digits out to
twice as far as platevac does, so that every later offset is at least
2t away, and adds the rest as Hurwitz zeta values. Its series
coefficients come from ``mpmath.taylor`` of the closed kernels below,
not from platevac's own tables.
"""

import functools

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platevac import (
    EvalPoint,
    Geometry,
    dispersion_exact,
    efield_correlator_normal,
    efield_correlator_parallel,
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
