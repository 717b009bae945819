"""Closed-form kernels against frozen spot values and an mpmath reference."""

import functools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platevac import (
    GeometryError,
    SingularWindowError,
    approx_large_t,
    dispersion_exact,
    dispersion_via_quadrature,
    efield_correlator_normal,
    efield_correlator_parallel,
    image_position_integral,
    image_velocity_integral,
    position_kernel_normal,
    position_kernel_parallel,
    single_plate_reference,
    singularity_report,
    velocity_kernel_normal,
    velocity_kernel_parallel,
)
from platevac import kernels
from platevac.quantities import EvalPoint, Geometry

# Exact closed-form values at x = 1, t = 1 (u = 1/2).
F_PAR_11 = -1.0 / 24.0 - math.log(9.0) / 64.0
F_NORM_11 = math.log(9.0) / 32.0
G_PAR_11 = -math.log(9.0) / 192.0 + 1.0 / 24.0 + math.log(0.75) / 6.0
G_NORM_11 = 1.0 / 24.0 + math.log(9.0) / 96.0 + math.log(0.75) / 6.0


def test_frozen_spot_values():
    assert velocity_kernel_parallel(1.0, 1.0) == pytest.approx(F_PAR_11, rel=1e-14)
    assert velocity_kernel_normal(1.0, 1.0) == pytest.approx(F_NORM_11, rel=1e-14)
    assert position_kernel_parallel(1.0, 1.0) == pytest.approx(G_PAR_11, rel=1e-14)
    assert position_kernel_normal(1.0, 1.0) == pytest.approx(G_NORM_11, rel=1e-14)


def _mp_reference(u):
    """High-precision scaled kernels as functions of u = t / (2x)."""
    u = mpmath.mpf(u)
    lam = mpmath.atanh(min(u, 1.0 / u))
    logm = mpmath.log(abs(1.0 - u * u))
    f_par = u * u / (8.0 * (u * u - 1.0)) - u / 8.0 * lam
    f_norm = u * lam / 4.0
    g_par = (u * u - u**3 * lam + logm) / 6.0
    g_norm = (u * u + 2.0 * u**3 * lam + logm) / 6.0
    return f_par, f_norm, g_par, g_norm


# Grid straddles both series cutovers (small-u and large-u branches).
@pytest.mark.parametrize(
    "u", [1e-4, 1e-2, 0.2, 0.34, 0.36, 0.9, 1.1, 3.0, 19.9, 20.1, 300.0]
)
def test_kernels_match_mpmath(u):
    mpmath.mp.dps = 40
    x = 0.7
    t = 2.0 * x * u
    f_par, f_norm, g_par, g_norm = _mp_reference(u)
    assert velocity_kernel_parallel(x, t) == pytest.approx(float(f_par) / x**2, rel=1e-13)
    assert velocity_kernel_normal(x, t) == pytest.approx(float(f_norm) / x**2, rel=1e-13)
    assert position_kernel_parallel(x, t) == pytest.approx(float(g_par), rel=1e-13)
    assert position_kernel_normal(x, t) == pytest.approx(float(g_norm), rel=1e-13)


def test_position_kernels_keep_their_digits_across_the_series_cut():
    # u**2 + ln|1 - u**2| cancels to O(u**4): the closed position forms were 29 and 35 eps
    # off at u in [0.35, 0.5], beyond the 16 eps each image term is allowed
    u = np.linspace(0.2, 0.8, 601)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        refs = [_mp_reference(ui) for ui in u]
    for index, key in ((2, ("parallel", "position")), (3, ("normal", "position"))):
        got = kernels._SCALED[key][0](u)
        for ui, gi, ref in zip(u, got, refs):
            assert abs(gi - float(ref[index])) <= 16.0 * eps * abs(float(ref[index])), (key, ui)


@pytest.mark.parametrize("index, key", enumerate(kernels._SCALED),
                         ids=["-".join(key) for key in kernels._SCALED])
def test_closed_kernels_keep_their_digits_at_the_cone(index, key):
    # At a float u within 1e-2 of the cone, each closed kernel is within a few eps of its
    # value at that same u: Lam takes the exact gap |1 - u|, and no two logarithms of the
    # gap cancel.
    rng = random.Random(1009)
    u = np.array([1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -2.0)
                  for _ in range(200)])
    assert np.all(u != 1.0)
    scaled, _ = kernels._SCALED[key]
    with np.errstate(all="ignore"):
        got = scaled(u)
    with mpmath.workdps(50):
        for ui, gi in zip(u, got):
            ref = _mp_reference(ui)[index]
            assert abs((gi - ref) / ref) <= 4.0 * np.finfo(float).eps, (key, ui)


def test_small_time_leading_order():
    # velocity kernels start at -+ t**2 / (16 x**4)
    t = 1e-3
    lead = t * t / 16.0
    assert velocity_kernel_parallel(1.0, t) == pytest.approx(-lead, rel=1e-5)
    assert velocity_kernel_normal(1.0, t) == pytest.approx(lead, rel=1e-5)


def test_zero_time_and_sign_symmetry():
    for kern in (
        velocity_kernel_parallel,
        velocity_kernel_normal,
        position_kernel_parallel,
        position_kernel_normal,
    ):
        assert kern(0.7, 0.0) == 0.0
        assert kern(-0.7, 0.5) == kern(0.7, 0.5)


def test_domain_validation():
    with pytest.raises(GeometryError):
        velocity_kernel_parallel(0.0, 0.5)
    with pytest.raises(GeometryError):
        velocity_kernel_parallel(1.0, -0.5)


def test_light_cone_window():
    for kern in (velocity_kernel_parallel, position_kernel_normal):
        with pytest.raises(SingularWindowError):
            kern(1.0, 2.0)
        with pytest.raises(SingularWindowError):
            kern(1.0, 2.0 * (1.0 + 1e-9))
        # just outside the default relative window
        kern(1.0, 2.0 * (1.0 + 1e-3))
        kern(1.0, 2.0 * (1.0 - 1e-3))


def test_window_width_is_adjustable():
    t = 2.0 * (1.0 + 5e-7)
    with pytest.raises(SingularWindowError):
        velocity_kernel_parallel(1.0, t)
    velocity_kernel_parallel(1.0, t, window=1e-9)


@pytest.mark.parametrize("window", [-1.0, math.nan, math.inf, -math.inf])
def test_a_malformed_window_is_a_geometry_error(window):
    # a negative window would accept every point, a non-finite one compare wrongly
    pt = EvalPoint(Geometry(1.0, 0.5), 0.3)
    late = EvalPoint(Geometry(1.0, 0.5), 30.3)
    calls = [
        lambda: singularity_report(0.5, 1.0, 0.3, threshold=window),
        lambda: dispersion_exact("dv2-normal", pt, window=window),
        lambda: dispersion_via_quadrature("dv2-normal", pt, window=window),
        lambda: single_plate_reference("dv2-normal", 0.5, 0.3, window=window),
        lambda: approx_large_t("dv2-normal", late, window=window),
        lambda: efield_correlator_parallel(0.5, 1.0, 0.3, window=window),
        lambda: efield_correlator_normal(0.5, 1.0, 0.3, window=window),
        lambda: image_velocity_integral("normal", 0.5, 0.3, window=window),
        lambda: image_position_integral("parallel", 0.5, 0.3, window=window),
    ]
    calls += [
        functools.partial(kern, 0.5, 0.3, window=window)
        for kern in (
            velocity_kernel_parallel,
            velocity_kernel_normal,
            position_kernel_parallel,
            position_kernel_normal,
        )
    ]
    for call in calls:
        with pytest.raises(GeometryError, match="singular window"):
            call()


def test_singularity_report_guards_and_repr():
    with pytest.raises(GeometryError):
        singularity_report(1.5, 1.0, 0.3)
    text = repr(singularity_report(0.3, 1.0, 0.61))
    assert "distance=1.639e-02" in text and "family='shifted'" in text


def test_singularity_report_at_the_edges_of_the_float_range():
    # At the smallest subnormal t every relative distance is inf; the scan still reports one.
    report = singularity_report(0.3, 1.0, 5e-324)
    assert report.distance == math.inf and not report.is_near
    assert (report.family, report.n, report.nearest_offset) == ("plain", 1, 1.0)
    # (t/2) / a overflows: the image index has no float value
    with pytest.raises(GeometryError, match="float range"):
        singularity_report(1e-300, 1e-200, 1e300)


def _nearest_cone(z, a, t, n_scan=2000):
    best = (math.inf, None)
    offsets = [n * a for n in range(1, n_scan)]
    offsets += [n * a + z for n in range(0, n_scan)]
    offsets += [abs(n * a - z) for n in range(1, n_scan)]
    for off in offsets:
        d = abs(t - 2.0 * off) / t
        if d < best[0]:
            best = (d, 2.0 * off)
    return best


@pytest.mark.parametrize("z,a,t", [(0.5, 1.0, 7.3), (0.3, 1.0, 1000.0), (0.8, 2.5, 12.1)])
def test_singularity_report_scans_all_families(z, a, t):
    rep = singularity_report(z, a, t)
    d, tc = _nearest_cone(z, a, t)
    assert rep.distance == pytest.approx(d, abs=1e-15)
    assert rep.nearest_time == pytest.approx(tc, rel=1e-12)


def test_singularity_report_flags_pinned_times():
    # t = 1000 at a = 1 sits exactly on the n = 500 plain-image cone
    rep = singularity_report(0.5, 1.0, 1000.0)
    assert rep.distance == 0.0
    assert rep.is_near
    assert rep.family == "plain"
    rep = singularity_report(0.5, 1.0, 1.0)
    assert rep.distance == 0.0
    assert rep.family == "shifted"
    rep = singularity_report(0.5, 1.0, 0.3)
    assert not rep.is_near
    assert rep.distance > 0.5


def _exact_nearest_cone(z, a, t):
    """The nearest cone in exact rational arithmetic: (distance, offset, family, n).

    Each family's offsets n a + shift are scanned from n_low over the indices
    next to (t/2 - shift)/a, where its nearest cone lies; the first minimum is
    kept, so ties go to n a, then n a + z, then n a - z, lowest n first.
    """
    a, z, t = Fraction(a), Fraction(z), Fraction(t)
    best = None
    for family, shift, n_low in (("plain", 0, 1), ("shifted", z, 0), ("shifted", -z, 1)):
        m = math.floor((t / 2 - shift) / a)
        for n in range(max(n_low, m - 1), max(n_low, m + 2) + 1):
            offset = n * a + shift
            dist = abs(t - 2 * offset) / t
            if best is None or dist < best[0]:
                best = (dist, offset, family, n)
    return best


def _assert_matches_exact_scan(z, a, t):
    """distance within 2 ulps of the exact one correctly rounded; the rest exactly."""
    rep = singularity_report(z, a, t)
    dist, offset, family, n = _exact_nearest_cone(z, a, t)
    assert (rep.family, rep.n, rep.nearest_offset) == (family, n, float(offset))
    assert rep.nearest_time == 2.0 * float(offset)
    assert abs(rep.distance - float(dist)) <= 2.0 * math.ulp(float(dist))
    assert (rep.distance == 0.0) == (dist == 0)
    return rep, dist


_A = st.floats(1e-3, 1e3)
_Z_FRAC = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(a=_A, z_frac=_Z_FRAC, t_over_a=st.floats(1e-6, 1e6))
# z = a/2: n a + z and (n + 1) a - z coincide, here on a cone
@example(a=1.0, z_frac=0.5, t_over_a=1.0)
@example(a=1.0, z_frac=0.5, t_over_a=1000.5)
@example(a=2.5, z_frac=0.5, t_over_a=7.3)
@example(a=1.0, z_frac=0.3, t_over_a=1e6)
# z below the rounding of n a: the three families coincide, and t/2 lies
# halfway between two cones, where round() picks the higher n
@example(a=1.0, z_frac=1e-13, t_over_a=200003.0)
def test_singularity_report_matches_full_scan(a, z_frac, t_over_a):
    z, t = z_frac * a, t_over_a * a
    assume(0.0 < z < a and t > 0.0)
    _assert_matches_exact_scan(z, a, t)


@settings(max_examples=300, deadline=None)
@given(a=_A, z_frac=_Z_FRAC, n=st.integers(0, 10**5), shift=st.sampled_from((0, 1, -1)))
@example(a=1.0, z_frac=0.5, n=0, shift=1)
@example(a=1.0, z_frac=0.5, n=1, shift=-1)
@example(a=1.0, z_frac=0.5, n=500, shift=0)
@example(a=3.0, z_frac=0.5, n=7, shift=-1)
def test_singularity_report_on_a_cone_matches_full_scan(a, z_frac, n, shift):
    z = z_frac * a
    assume(0.0 < z < a and (n >= 1 or shift == 1))
    t = 2.0 * abs(n * a + shift * z)
    # t is that cone's time rounded, so it lies on the cone or a rounding off it
    rep, dist = _assert_matches_exact_scan(z, a, t)
    assert rep.is_near


@settings(max_examples=200, deadline=None)
@given(a=_A, z_frac=_Z_FRAC, t_over_a=st.floats(3e15, 1e17))
def test_singularity_report_matches_full_scan_past_2_51(a, z_frac, t_over_a):
    # Here t/2 - y_h, an exact multiple of a, has a float quotient that may round off its
    # index; the scan takes that index as an exact rational quotient instead.
    z, t = z_frac * a, t_over_a * a
    assume(0.0 < z < a)
    _assert_matches_exact_scan(z, a, t)


def _mp_image(index, x, t):
    """Kernel ``index`` of _mp_reference at the image (x, t) as a float, over x**2 for a
    velocity: u = t/2x taken exactly, with digits to spare past the parallel forms'
    cancellation to O(u**-2)."""
    x, t = mpmath.mpf(x), mpmath.mpf(t)
    u = t / (2 * x)
    with mpmath.workdps(30 + 2 * int(mpmath.log10(u))):
        value = _mp_reference(u)[index]
        return float(value / x**2 if index < 2 else value)


# Images whose u, or u**2, leaves the float range; at (1e-300, 1e10) u is inf and G_par
# is finite, 237.647...
_EXTREME_IMAGES = ((1e-200, 1e-40), (1e-300, 1e10), (1.0, 1e300), (1e-150, 1e150))


def test_kernels_past_the_origin_series_switch():
    # From u = 4 up every kernel takes its origin series; there the parallel closed forms
    # cancel to O(u**-2) and lose up to hundreds of eps. The series holds all four to a few
    # eps out to u = 1e12, and at the extreme images to the reference's rounding, or inf
    # where the value is beyond the float range.
    eps = np.finfo(float).eps
    u = np.concatenate((np.linspace(4.0, 20.0, 321), np.geomspace(20.0, 1e12, 241)))
    public = (velocity_kernel_parallel, velocity_kernel_normal, position_kernel_parallel,
              position_kernel_normal)
    for x, t in [(1.0, 2.0 * ui) for ui in u] + list(_EXTREME_IMAGES):
        for index, (key, kernel) in enumerate(zip(kernels._SCALED, public)):
            ref = _mp_image(index, x, t)
            if math.isinf(ref):
                assert kernels._image_values(key, np.array([x]), t)[0] == ref, (key, x, t)
                with pytest.raises(GeometryError):
                    kernel(x, t)
            else:
                assert abs(kernel(x, t) - ref) <= 8.0 * eps * abs(ref), (key, x, t)
    with np.errstate(over="ignore"):  # u = t/2x is inf at (1e-300, 1e10), and G_par finite
        assert np.isinf(np.float64(1e10) / 1e-300 * 0.5)
    assert position_kernel_parallel(1e-300, 1e10) == pytest.approx(237.647188, rel=1e-8)


def test_inverse_series_match_their_horner_loops():
    # From u = 4 up every image sums its origin series in w = 1/u**2 by one power-and-dot
    # over kernels._ORIGIN; a hand Horner loop over the coefficients written out here, plus
    # the A and B terms, gives the same values within a few eps.
    rng = np.random.default_rng(3)
    u = np.concatenate(
        (4.0 + rng.exponential(10.0, 50_000), np.exp(rng.uniform(np.log(4.0), np.log(1e12), 50_000)))
    )
    w = 1.0 / (u * u)
    coefficients = {
        ("parallel", "velocity"): lambda j: (j + 1.0) / (4.0 * (2.0 * j + 3.0)),
        ("normal", "velocity"): lambda j: 1.0 / (4.0 * (2.0 * j + 3.0)),
        ("parallel", "position"): lambda j: -1.0 / 18.0 if j == 0 else -(1.0 / (2.0 * j + 3.0) + 1.0 / j) / 6.0,
        ("normal", "position"): lambda j: 1.0 / 9.0 if j == 0 else (2.0 / (2.0 * j + 3.0) - 1.0 / j) / 6.0,
    }
    horner = {}
    for key, d in coefficients.items():
        s = np.zeros_like(u)
        for j in range(15, -1, -1):
            s = s * w + d(j)
        horner[key] = s
    expected = {
        ("parallel", "velocity"): horner["parallel", "velocity"] * w,
        ("normal", "velocity"): 0.25 + horner["normal", "velocity"] * w,
        ("parallel", "position"): np.log(u) / 3.0 + horner["parallel", "position"],
        ("normal", "position"): 0.5 * u * u + np.log(u) / 3.0 + horner["normal", "position"],
    }
    eps = np.finfo(float).eps
    for key, want in expected.items():
        got = kernels._image_values(key, np.ones_like(u), 2.0 * u)
        np.testing.assert_allclose(got, want, rtol=4.0 * eps, atol=0.0, err_msg=str(key))


@pytest.mark.parametrize("key", list(kernels._SCALED))
def test_image_values_take_one_time_per_offset(key):
    # every branch (series, closed, origin series from u = 4, u**2 past the float range) in
    # one array, each offset at its own time, equals one call per offset bit for bit
    # (G_norm ~ u**2/2 leaves the float range at u = 1e160 and 1e300: inf both ways)
    u = np.array([0.01, 0.2, 1e300, 0.34, 0.36, 0.7, 1e100, 0.99, 1.01, 3.9, 4.0, 1e99, 50.0,
                  1e5, 2e100, 1e160])
    x = np.geomspace(1e-150, 1e3, u.size)[::-1]
    t = 2.0 * x * u
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(t)) and np.any(np.isinf((t / x * 0.5) ** 2))
    cuts = (kernels._G_SERIES_CUT, kernels._U_LARGE)
    assert all(np.any(u < c) and np.any(u >= c) for c in cuts)
    got = kernels._image_values(key, x, t)
    one_by_one = [kernels._image_values(key, np.array([xi]), ti)[0] for xi, ti in zip(x, t)]
    assert np.array_equal(got, one_by_one)
