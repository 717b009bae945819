"""The photon two-point function in closed form, against an independent mpmath reference.

The reference sums each lattice m a + delta of 1/(A - 4 x**2) in the cotangent
(A > 0), hyperbolic (A < 0) or cosecant (A = 0) form at 90 digits, and takes
the plain family's m = 0 image off at that precision. It is evaluated at the
offsets c = (z + z')/2, d = (z - z')/2 and the root h = sqrt|A|/2 as platevac
rounds them, so that what is left is the closed form's own rounding, which
``tail_estimate`` bounds.
"""

import math
import random

import mpmath
import pytest

from platevac import GeometryError, SingularWindowError, correlators, renormalized_photon_two_point

ETA = (1, -1, -1, -1)
REFLECTED = (1, -1, -1, 1)


def _lattice(A, a, delta, skip_zero):
    """sum over m of 1/((m a + delta)**2 - A/4), m != 0 if ``skip_zero``, at sqrt|A| as
    rounded."""
    h = mpmath.mpf(0.5 * math.sqrt(abs(A)))
    a, delta = mpmath.mpf(a), mpmath.mpf(delta)
    k = mpmath.pi / a
    if skip_zero and delta == 0 and h == 0:
        return 2 * mpmath.zeta(2) / (a * a)
    if A > 0.0:
        total = k / (2 * h) * (mpmath.cot(k * (delta - h)) - mpmath.cot(k * (delta + h)))
    elif A < 0.0:
        x = 2 * k * h
        total = k / h * mpmath.sinh(x) / (mpmath.cosh(x) - mpmath.cos(2 * k * delta))
    else:
        total = k * k / mpmath.sin(k * delta) ** 2
    h2 = h * h if A > 0.0 else -h * h
    return total - 1 / (delta * delta - h2) if skip_zero else total


def _reference(mu, dt, dx, dy, z, zp, a):
    A = dt * dt - dx * dx - dy * dy  # rounded as platevac rounds it
    # Taking the m = 0 image off loses up to the digits of a**2/|d**2 - A/4|.
    scale = max(abs(z - zp), math.sqrt(abs(A)), 1e-300 * a)
    with mpmath.workdps(90 + max(0, round(2.0 * math.log10(a / scale)))):
        value = (-REFLECTED[mu] * _lattice(A, a, 0.5 * (z + zp), False)
                 + ETA[mu] * _lattice(A, a, 0.5 * (z - zp), True)) / (16 * mpmath.pi**2)
        return -value


def _sample(seed, count):
    """(mu, dt, dx, dy, z, zp, a) over every regime of the closed form."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        a = 10.0 ** rng.uniform(-1.0, 1.0)
        z, zp = a * rng.uniform(0.01, 0.99), a * rng.uniform(0.01, 0.99)
        mode = rng.choice(("time", "space", "light", "removed-cone", "small", "near-cone",
                           "plate", "tilted"))
        if mode == "plate":  # within 1e-9 a of either plate
            gap = a * 1e-9 * rng.uniform(0.001, 1.0)
            z = rng.choice((gap, a - gap))
        d = 0.5 * (z - zp)
        dx = dy = 0.0
        if mode in ("time", "plate"):
            dt = a * 10.0 ** rng.uniform(-3.0, 9.0)
        elif mode == "space":  # t/a up to 1e13
            dt, dx = a * rng.uniform(0.0, 0.5), a * 10.0 ** rng.uniform(-3.0, 13.0)
        elif mode == "light":  # A = 0 exactly
            dt = dx = a * rng.uniform(0.0, 3.0)
        elif mode == "removed-cone":  # h within 1e-6 a of |d|
            dt = 2.0 * (abs(d) + a * rng.uniform(-1e-6, 1e-6))
        elif mode == "small":  # h < a/pi
            dt = 2.0 * a / math.pi * rng.uniform(0.0, 1.0)
        elif mode == "near-cone":  # down to just outside the 1e-10 window of an image cone
            offset = rng.randrange(0, 10**6) * a + rng.choice((z + zp, -(z + zp), z - zp, zp - z))
            dt = abs(offset) * (1.0 + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-9.9, -3.0))
        else:  # dx and dy both nonzero, either sign of A
            dt = a * 10.0 ** rng.uniform(-2.0, 4.0)
            dx, dy = dt * rng.uniform(0.0, 1.2), a * rng.uniform(0.0, 0.5)
        points.append((rng.randrange(4), dt, dx, dy, z, zp, a))
    return points


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_is_within_its_rounding_bound(seed):
    evaluated = 0
    for mu, dt, dx, dy, z, zp, a in _sample(seed, 300):
        try:
            got = renormalized_photon_two_point(mu, mu, dt, dx, dy, z, zp, a)
        except SingularWindowError:
            continue
        evaluated += 1
        ref = float(_reference(mu, dt, dx, dy, z, zp, a))
        assert abs(got.value - ref) <= got.tail_estimate, (mu, dt, dx, dy, z, zp, a)
        assert got.n_used == 0
    assert evaluated >= 250


@pytest.mark.parametrize("z, zp", [(0.375, 0.8125), (0.0625, 0.5), (0.25, 0.25 + 2.0**-30),
                                   (2.0**-30, 1.0 - 2.0**-30)])
@pytest.mark.parametrize("dt, dx", [(0.0, 0.0), (0.125, 0.0), (0.4375, 0.0), (1.8125, 0.5),
                                    (0.25, 3.0), (1000.375, 0.0), (0.0, 1e6)])
def test_closed_form_is_mirror_symmetric(z, zp, dt, dx):
    # z <-> z' turns d into -d; c and every value are exact in binary here.
    for mu in range(4):
        got = renormalized_photon_two_point(mu, mu, dt, dx, 0.0, z, zp, 1.0)
        assert renormalized_photon_two_point(mu, mu, dt, dx, 0.0, zp, z, 1.0).value == got.value


def test_the_photon_never_reaches_the_image_engine(monkeypatch):
    def engine(*args):
        raise AssertionError("the photon function called _grouped_image_sum")

    monkeypatch.setattr(correlators, "_grouped_image_sum", engine)
    for dt, dx in [(0.4, 0.1), (0.0, 0.0), (0.3, 0.5), (1e4 + 0.37, 0.0), (0.0, 1e12)]:
        got = renormalized_photon_two_point(1, 1, dt, dx, 0.2, 0.3, 0.6, 1.0)
        assert got.n_used == 0 and math.isfinite(got.value)


@pytest.mark.parametrize("z, zp, a, dt, dx", [
    (5e152, 5e152, 1e153, 0.3, 0.0),
    (5e299, 5e299, 1e300, 0.3, 0.0),
    (0.5, 0.5, 1e300, 0.3, 0.0),
    (0.5, 0.5, 1e300, 0.0, 0.3),
    (8e307, 8e307, 1.7e308, 1.3e154, 0.0),  # A = 1.69e308
    (0.3, 0.3, 1.0, 0.0, 1.3e154),  # A = -1.69e308
    (0.3e-160, 0.7e-160, 1e-160, 0.0, 1.3e154),  # 2 pi kappa/a = inf
])
def test_photon_at_a_huge_gap(z, zp, a, dt, dx):
    # Every phase and 2 pi kappa/a are formed without leaving the float range; next to
    # z = a/2 the value, about a**-2, underflows to 0 at a = 1e300.
    for mu in range(4):
        ref = float(_reference(mu, dt, dx, 0.0, z, zp, a))
        try:
            got = renormalized_photon_two_point(mu, mu, dt, dx, 0.0, z, zp, a)
        except GeometryError:
            assert not math.isfinite(ref) or abs(ref) > 1e300
            continue
        assert abs(got.value - ref) <= got.tail_estimate
        assert (got.value == 0.0) == (ref == 0.0)


def test_photon_past_the_float_range_is_a_typed_error():
    # 1/(A - 4 x**2) with a = 1e-200 and A = 0: the whole lattice is about a**-2.
    with pytest.raises(GeometryError):
        renormalized_photon_two_point(0, 0, 0.0, 0.0, 0.0, 0.5e-200, 0.5e-200, 1e-200)
