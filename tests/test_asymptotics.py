"""Asymptotic expansions against the exact sums and against each other."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from platevac import (
    GeometryError,
    PlatevacError,
    RegimeError,
    SingularWindowError,
    approx_large_a,
    approx_large_a_far,
    approx_large_t,
    dispersion_exact,
    image_sum_quartic,
    midpoint_extremal,
    recommend_regime,
    single_plate_reference,
)
from platevac.quantities import ALL_KINDS, DispersionKind, EvalPoint, Geometry

VX = DispersionKind("parallel", "velocity")


def _brute_quartic(z, a, n_terms=3000):
    n = np.arange(-n_terms, n_terms + 1, dtype=float)
    return float(np.sum(1.0 / (n * a + z) ** 4))


def test_quartic_lattice_identity():
    assert image_sum_quartic(0.5, 1.0) == pytest.approx(math.pi**4 / 3.0, rel=1e-14)
    assert image_sum_quartic(0.25, 1.0) == pytest.approx(8.0 * math.pi**4 / 3.0, rel=1e-14)
    for z, a in [(0.3, 1.0), (1.7, 2.5), (0.05, 0.4)]:
        assert image_sum_quartic(z, a) == pytest.approx(_brute_quartic(z, a), rel=1e-10)
    with pytest.raises(GeometryError):
        image_sum_quartic(1.0, 1.0)


@pytest.mark.filterwarnings("error")
def test_quartic_lattice_at_extreme_scale():
    # scale-free: in range it is z**-4 times a function of z/a, below the
    # float range 0 or a subnormal, above it a GeometryError
    for lam in (1e-60, 1e60, 2.0**-200, 2.0**200):
        assert image_sum_quartic(0.3 * lam, lam) == pytest.approx(
            lam**-4 * image_sum_quartic(0.3, 1.0), rel=1e-14
        )
    assert image_sum_quartic(1e-20, 1e304) == pytest.approx(1e80, rel=1e-15)
    assert 0.0 <= image_sum_quartic(5e99, 1e100) < 1e-300
    for z, a in [(5e-101, 1e-100), (1e-300, 1.0), (1e-80, 1e-79)]:
        with pytest.raises(GeometryError):
            image_sum_quartic(z, a)


@pytest.mark.parametrize("z", [0.5, 0.37])
def test_wide_gap_expansion(z):
    # error is O((t / 2z)**6) relative; tightening t by 10 gains ~100x
    a = 1.0
    t1 = 1e-2 * min(2 * z, 2 * (a - z))
    for kind in ALL_KINDS:
        exact1 = dispersion_exact(kind, EvalPoint(Geometry(a, z), t1)).value
        approx1 = approx_large_a(kind, EvalPoint(Geometry(a, z), t1)).value
        rel1 = abs(approx1 - exact1) / abs(exact1)
        assert rel1 < 3e-6
        exact2 = dispersion_exact(kind, EvalPoint(Geometry(a, z), t1 / 10.0)).value
        approx2 = approx_large_a(kind, EvalPoint(Geometry(a, z), t1 / 10.0)).value
        rel2 = abs(approx2 - exact2) / abs(exact2)
        assert rel1 / max(rel2, 1e-300) > 50.0


def test_wide_gap_regime_guard():
    with pytest.raises(RegimeError):
        approx_large_a(VX, EvalPoint(Geometry(1.0, 0.5), 0.5))


def test_far_plate_forms():
    # z << t << a: nearest plate exact, second plate by its leading power law
    pt = EvalPoint(Geometry(1000.0, 1.0), 100.0)
    for kind in ALL_KINDS:
        exact = dispersion_exact(kind, pt).value
        far = approx_large_a_far(kind, pt).value
        assert abs(far - exact) / abs(exact) < 1e-10, kind.token


def test_far_plate_guards():
    with pytest.raises(RegimeError):
        approx_large_a_far(VX, EvalPoint(Geometry(50.0, 1.0), 10.0))  # a too small
    with pytest.raises(RegimeError):
        approx_large_a_far(VX, EvalPoint(Geometry(1000.0, 1.0), 900.0))  # t too large
    with pytest.raises(GeometryError):  # an unknown kind before any regime check
        approx_large_a_far(("sideways", "velocity"), EvalPoint(Geometry(50.0, 1.0), 10.0))
    approx_large_a_far(VX, EvalPoint(Geometry(1000.0, 1.0), 5.0))


def test_far_plate_accuracy_over_its_regime():
    # every kind answers every point of z, t << a, the position kinds before t = 2z too
    rng = np.random.default_rng(20261018)
    worst = dict.fromkeys(ALL_KINDS, 0.0)
    n_points = 0
    while n_points < 200:
        z = 10.0 ** rng.uniform(-2.0, 1.0)
        a = z * 10.0 ** rng.uniform(2.0, 5.0)
        t = 10.0 ** rng.uniform(math.log10(z) - 2.0, math.log10(0.4 * a))
        pt = EvalPoint(Geometry(a, z), t)
        try:
            exact = {kind: dispersion_exact(kind, pt, window=1e-9).value for kind in ALL_KINDS}
        except SingularWindowError:
            continue
        n_points += 1
        for kind in ALL_KINDS:
            rel = abs(approx_large_a_far(kind, pt).value - exact[kind]) / abs(exact[kind])
            worst[kind] = max(worst[kind], rel)
    for kind in ALL_KINDS:
        assert worst[kind] <= 1e-6, (kind.token, worst[kind])


@pytest.mark.parametrize("a, z", [(1000.0, 1.0), (200.0, 2.0), (500.0, 0.3)])
def test_far_plate_error_shrinks_at_order(a, z):
    # what the second plate's leading law leaves out is O((t/a)**4) for the
    # velocities and O((t/a)**6) for the positions: 1e4x and 1e6x per decade of t
    for kind in ALL_KINDS:
        errs = []
        for t in (0.4 * a, 0.04 * a):
            pt = EvalPoint(Geometry(a, z), t)
            exact = dispersion_exact(kind, pt).value
            errs.append((abs(approx_large_a_far(kind, pt).value - exact), abs(exact)))
        (e1, _), (e2, s2) = errs
        assert e2 <= 1e-14 * s2 or e1 / e2 >= 1e3, (kind.token, e1, e2)


def test_far_plate_correction_is_the_second_plates():
    # the second plate reinforces the normal motion and lifts the negative
    # parallel dispersions: the route's correction is positive and exact's
    pt = EvalPoint(Geometry(1000.0, 1.0), 100.0)
    for kind in ALL_KINDS:
        single = single_plate_reference(kind, 1.0, 100.0)
        far = approx_large_a_far(kind, pt).value - single
        exact = dispersion_exact(kind, pt).value - single
        assert far > 0.0 and exact > 0.0, kind.token
        assert far == pytest.approx(exact, rel=1e-2), kind.token


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(far=st.booleans(), kind=st.sampled_from(ALL_KINDS), p=st.floats(-1.0, 1.0),
       r=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0))
def test_wide_gap_tail_bounds_what_the_route_leaves_out(far, kind, p, r, s):
    # the omitted series terms, bounded per far family by its leading law times
    # rho/(1 - rho), cover the route's distance to the exact sum up to rounding
    # (0.52 of the allowance at worst over 12,000 seeded points)
    if far:
        z = 10.0**p
        a = 100.0 * z * 10.0 ** (3.0 * r)
        t, route = 2.0 * a / 5.0 * 10.0 ** (-4.0 * s), approx_large_a_far
    else:
        a = 10.0**p
        z = a * (0.01 + 0.98 * r)
        t, route = min(2.0 * z, 2.0 * (a - z)) / 5.0 * 10.0 ** (-3.0 * s), approx_large_a
    pt = EvalPoint(Geometry(a, z), t)
    try:
        exact = dispersion_exact(kind, pt)
    except SingularWindowError:
        assume(False)
    got = route(kind, pt)
    eps = np.finfo(float).eps
    allowed = (got.tail_estimate + exact.tail_estimate
               + 8.0 * eps * (abs(got.value) + abs(exact.value)))
    assert abs(got.value - exact.value) <= allowed


def test_wide_gap_lattice_matches_the_trigonometric_sum():
    # the Hurwitz-zeta lattice of approx_large_a against the closed form
    # of the full shifted lattice less its two exact images
    rng = np.random.default_rng(7)
    zeta4_pair = math.pi**4 / 45.0  # sum over n != 0 of n**-4
    for _ in range(1000):
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        z = a * rng.uniform(0.01, 0.99)
        t = min(z, a - z) * 0.4 * 10.0 ** rng.uniform(-3.0, 0.0)
        pt = EvalPoint(Geometry(a, z), t)
        shifted = image_sum_quartic(z, a) - z**-4 - (a - z) ** -4
        for kind in ALL_KINDS:
            coeff = 0.25 * (0.5 * t) ** (2 if kind.observable == "velocity" else 4)
            near = single_plate_reference(kind, z, t) + single_plate_reference(kind, a - z, t)
            lattice = coeff * (shifted + kind.image_sign * zeta4_pair / a**4)
            assert approx_large_a(kind, pt).value == pytest.approx(near + lattice, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route, a, z, t", [
    (approx_large_a, 1.0, 0.3, 0.01),
    (approx_large_a_far, 1000.0, 1.0, 100.0),
])
def test_wide_gap_routes_are_scale_covariant(route, a, z, t):
    # velocities scale as length**-2, positions not at all, at any float scale
    for kind in ALL_KINDS:
        base = route(kind, EvalPoint(Geometry(a, z), t)).value
        assert route(kind, EvalPoint(Geometry(a, z), 0.0)).value == 0.0
        power = -2 if kind.observable == "velocity" else 0
        for lam in (1e-100, 1e100, 2.0**-300, 2.0**300):
            scaled = route(kind, EvalPoint(Geometry(lam * a, lam * z), lam * t)).value
            assert scaled == pytest.approx(lam**power * base, rel=1e-14), (kind.token, lam)


def test_late_time_form_reduces_to_midpoint_form():
    a, t = 1.0, 1000.5
    pt = EvalPoint(Geometry(a, 0.5), t)
    for kind in ALL_KINDS:
        general = approx_large_t(kind, pt).value
        midpoint = midpoint_extremal(kind, a, t).value
        assert general == pytest.approx(midpoint, rel=1e-12)


def test_late_time_guards():
    with pytest.raises(RegimeError):
        approx_large_t(VX, EvalPoint(Geometry(1.0, 0.5), 3.0))
    with pytest.raises(RegimeError):
        midpoint_extremal(VX, 1.0, 3.0)
    with pytest.raises(GeometryError):
        midpoint_extremal(VX, -1.0, 30.0)


@pytest.mark.parametrize("z_over_a", [0.3, 0.5])
def test_late_time_error_is_second_order(z_over_a):
    # same lattice phase t/(2a) = N + 0.2 at N = 50 and 500, clear of every
    # cone: an O((a/t)**2) error shrinks ~100x (~70x for the log-corrected
    # position remainder); a first-order one would shrink only 10x
    a = 2.0
    geom = Geometry(a, z_over_a * a)
    for kind in ALL_KINDS:
        rels = []
        for n_cross in (50, 500):
            pt = EvalPoint(geom, 2.0 * a * (n_cross + 0.2))
            exact = dispersion_exact(kind, pt).value
            rels.append(abs(approx_large_t(kind, pt).value - exact) / abs(exact))
        assert rels[1] < 1e-5, kind.token
        assert rels[0] / rels[1] > 50.0, kind.token


@pytest.mark.parametrize("z, t", [(0.5, 1000.5), (0.3, 1000.4)])
def test_late_time_normal_remainders(z, t):
    # the next-order terms stated in the approx_large_t docstring
    a, theta, tau = 1.0, z, t / 2.0
    pt = EvalPoint(Geometry(a, z), t)

    def log_2sin(x):
        return math.log(2.0 * abs(math.sin(math.pi * x)))

    sigma = 2.0 * log_2sin(tau) + log_2sin(tau - theta) + log_2sin(tau + theta)
    rem = {
        token: dispersion_exact(token, pt).value - approx_large_t(token, pt).value
        for token in ("dv2-normal", "dx2-normal")
    }
    assert t * t * rem["dv2-normal"] == pytest.approx(-1.0 / 3.0 - sigma / 2.0, abs=1e-2)
    expect = -math.log(2.0 * math.pi * t * math.sin(math.pi * theta) / a) / 3.0 - 1.0 / 9.0
    assert rem["dx2-normal"] == pytest.approx(expect, abs=1e-2)


def test_late_time_rejects_light_cones():
    on_cone = EvalPoint(Geometry(1.0, 0.3), 2.0 * 500.3)  # shifted image n a + z
    for kind in ALL_KINDS:
        with pytest.raises(SingularWindowError):
            approx_large_t(kind, on_cone)
        with pytest.raises(SingularWindowError):
            midpoint_extremal(kind, 1.0, 1000.0)
    near = EvalPoint(Geometry(1.0, 0.5), 1000.0 + 1e-4)
    with pytest.raises(SingularWindowError):
        approx_large_t(VX, near)
    assert math.isfinite(approx_large_t(VX, near, window=1e-9).value)


def test_late_time_one_ulp_off_a_cone_is_a_value_or_a_typed_error():
    # With window=0 the point t = nextafter(2na) is admitted. There t/(2a) often rounds to
    # the integer n, where cot(pi tau) and ln|2 sin(pi tau)| would be undefined; the cone
    # terms take their phase from the cone distance instead.
    rng = np.random.default_rng(15)
    rounded = 0
    for _ in range(2000):
        a, n = rng.uniform(0.5, 10.0), int(rng.integers(100, 1000))
        point = EvalPoint(Geometry(a, 0.3 * a), math.nextafter(2.0 * n * a, math.inf))
        rounded += math.fmod(point.gamma, 1.0) == 0.0
        for kind in ALL_KINDS:
            try:
                assert math.isfinite(approx_large_t(kind, point, window=0.0).value)
            except PlatevacError:
                pass
    assert rounded > 0


@pytest.mark.parametrize("t", [100.5, 333.5, 1000.5])
def test_parallel_velocity_light_cone_oscillation(t):
    # late parallel velocity rings at the cavity crossing frequency:
    # pi / (2 a t sin(pi t / a)) plus an O(1/t**2) drift
    a, z = 1.0, 0.5
    vx = dispersion_exact(VX, EvalPoint(Geometry(a, z), t)).value
    osc = math.pi / (2.0 * a * t * math.sin(math.pi * t / a))
    assert abs(vx - osc) < 10.0 / t**2


def test_recommend_regime():
    assert recommend_regime(EvalPoint(Geometry(1.0, 0.5), 0.05)) == "large_a"
    assert recommend_regime(EvalPoint(Geometry(1.0, 0.5), 30.0)) == "large_t"
    assert recommend_regime(EvalPoint(Geometry(1.0, 0.5), 0.8)) == "intermediate"
