"""Closed-form kernels against frozen spot values and an mpmath reference."""

import functools
import math

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


def _scan_nearest_cone(z, a, t):
    """Every offset of the three families up to the horizon, first minimum kept.

    The order of the scan breaks ties: n a, then n a + z, then n a - z,
    lowest n first.
    """
    n_top = math.ceil((0.5 * t + z) / a) + 1
    n = np.arange(0, n_top + 1, dtype=float)
    offsets = np.concatenate([n[1:] * a, n * a + z, np.abs(n[1:] * a - z)])
    families = ["plain"] * n_top + ["shifted"] * (2 * n_top + 1)
    indices = np.concatenate([n[1:], n, n[1:]]).astype(int)
    # At t = 2z with z near the smallest floats the far distances overflow
    # to inf, as they do in the code under test.
    with np.errstate(over="ignore"):
        dist = np.abs(t - 2.0 * offsets) / t
    k = int(np.argmin(dist))
    return float(dist[k]), float(2.0 * offsets[k]), float(offsets[k]), families[k], int(indices[k])


def _report_fields(z, a, t):
    rep = singularity_report(z, a, t)
    return rep.distance, rep.nearest_time, rep.nearest_offset, rep.family, rep.n


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
    assert _report_fields(z, a, t) == _scan_nearest_cone(z, a, t)


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
    fields = _report_fields(z, a, t)
    assert fields == _scan_nearest_cone(z, a, t)
    assert fields[0] == 0.0


def test_parallel_kernels_past_the_inverse_series_switch():
    # From u = 4 up the parallel closed forms cancel to O(u**-2) and lose
    # up to hundreds of eps; the inverse series holds them to a few eps.
    mpmath.mp.dps = 40
    eps = np.finfo(float).eps
    for u in np.linspace(4.0, 20.0, 321):
        f_par, _, g_par, _ = _mp_reference(u)
        f = velocity_kernel_parallel(1.0, 2.0 * u)
        g = position_kernel_parallel(1.0, 2.0 * u)
        assert abs(f - float(f_par)) <= 8.0 * eps * abs(float(f_par)), u
        assert abs(g - float(g_par)) <= 8.0 * eps * abs(float(g_par)), u
