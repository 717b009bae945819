"""Exact image-sum dispersions: symmetry, limits, windows, truncation honesty."""

import math
import warnings

import numpy as np
import pytest

from platevac import (
    GeometryError,
    SingularWindowError,
    approx_large_t,
    dispersion_exact,
    dispersion_via_quadrature,
    efield_correlator_normal,
    efield_correlator_parallel,
    single_plate_reference,
    singularity_report,
    position_kernel_normal,
    position_kernel_parallel,
    velocity_kernel_normal,
    velocity_kernel_parallel,
)
from platevac.kernels import horizon
from platevac.quantities import ALL_KINDS, DispersionKind, EvalPoint, Geometry

VZ = DispersionKind("normal", "velocity")
VX = DispersionKind("parallel", "velocity")
ZZ = DispersionKind("normal", "position")


def test_zero_time_is_zero():
    pt = EvalPoint(Geometry(1.0, 0.5), 0.0)
    for kind in ALL_KINDS:
        assert dispersion_exact(kind, pt).value == 0.0


def test_accepts_tuple_and_token_kinds():
    pt = EvalPoint(Geometry(1.0, 0.5), 0.3)
    reference = dispersion_exact(VZ, pt).value
    assert dispersion_exact(("normal", "velocity"), pt).value == pytest.approx(
        reference, rel=1e-14
    )
    assert dispersion_exact("dv2-normal", pt).value == pytest.approx(
        reference, rel=1e-14
    )
    with pytest.raises(GeometryError):
        dispersion_exact(VZ, (1.0, 0.5, 0.3))


def test_single_plate_is_the_nearest_image_term():
    z, t = 0.7, 0.9
    expect = {
        ("parallel", "velocity"): -velocity_kernel_parallel(z, t),
        ("normal", "velocity"): velocity_kernel_normal(z, t),
        ("parallel", "position"): -position_kernel_parallel(z, t),
        ("normal", "position"): position_kernel_normal(z, t),
    }
    for kind in ALL_KINDS:
        got = single_plate_reference(kind, z, t)
        assert got == pytest.approx(expect[(kind.axis, kind.observable)], rel=1e-13)
    with pytest.raises(SingularWindowError):
        single_plate_reference(VZ, 0.5, 1.0)
    with pytest.raises(GeometryError):
        single_plate_reference(VZ, -0.5, 1.0)


@pytest.mark.parametrize("a", [1e100, 1e300])
def test_wide_gap_limit_is_the_single_plate_value(a):
    # a**2 overflows past a ~ 1e154; the far images must then vanish, not raise
    z, t = 0.5, 0.3
    for kind in ALL_KINDS:
        got = dispersion_exact(kind, EvalPoint(Geometry(a, z), t))
        assert got.value == pytest.approx(single_plate_reference(kind, z, t), rel=1e-15)


@pytest.mark.parametrize("a", [1e-80, 1e-150])
def test_narrow_gaps_scale_like_the_unit_gap(a):
    # Each dispersion is a**-2 (velocities) or a**0 (positions) times a
    # function of z/a and t/a; no power of a in the tail may underflow.
    eps = np.finfo(float).eps
    for z_over_a, t_over_a in ((0.5, 0.3), (0.3, 1.37)):
        for kind in ALL_KINDS:
            ref = dispersion_exact(kind, EvalPoint(Geometry(1.0, z_over_a), t_over_a))
            got = dispersion_exact(kind, EvalPoint(Geometry(a, z_over_a * a), t_over_a * a))
            scale = a * a if kind.observable == "velocity" else 1.0
            allowed = ref.tail_estimate + scale * got.tail_estimate + 4 * eps * abs(ref.value)
            assert abs(scale * got.value - ref.value) <= allowed, kind.token


@pytest.mark.parametrize("t", [0.3, 7.3])
def test_reflection_symmetry(t):
    left = EvalPoint(Geometry(1.0, 0.37), t)
    right = EvalPoint(Geometry(1.0, 0.63), t)
    for kind in ALL_KINDS:
        a = dispersion_exact(kind, left).value
        b = dispersion_exact(kind, right).value
        assert a == pytest.approx(b, rel=5e-13)


@pytest.mark.parametrize("t", [1.0, 2.0, 3.0, 1000.0])
def test_image_cone_times_are_rejected(t):
    # at a = 1, z = 0.5 every integer time sits on some image cone
    pt = EvalPoint(Geometry(1.0, 0.5), t)
    with pytest.raises(SingularWindowError) as exc:
        dispersion_exact(VZ, pt)
    assert exc.value.report is not None
    assert exc.value.report.distance == 0.0


def test_window_is_adjustable():
    pt = EvalPoint(Geometry(1.0, 0.5), 1.0 + 5e-7)
    with pytest.raises(SingularWindowError):
        dispersion_exact(VZ, pt)
    dispersion_exact(VZ, pt, window=1e-9)


def test_normal_velocity_grows_toward_plate():
    t = 0.3
    vals = [
        dispersion_exact(VZ, EvalPoint(Geometry(1.0, 2.0**-k), t)).value
        for k in range(2, 13)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("z", [0.5, 0.3])
def test_late_time_normal_velocity_plateau(z):
    # the sum of the squared-cosecant lattice: pi**2/4 (1/3 + csc(pi z/a)**2)
    t = 1000.5
    limit = math.pi**2 / 4.0 * (1.0 / 3.0 + 1.0 / math.sin(math.pi * z) ** 2)
    got = dispersion_exact(VZ, EvalPoint(Geometry(1.0, z), t)).value
    assert got == pytest.approx(limit, rel=1e-5)


def test_late_time_normal_position_growth():
    # quadratic growth with half the velocity plateau as coefficient
    t = 1000.5
    limit = math.pi**2 / 8.0 * (1.0 / 3.0 + 1.0)
    got = dispersion_exact(ZZ, EvalPoint(Geometry(1.0, 0.5), t)).value
    assert got / t**2 == pytest.approx(limit, rel=1e-4)


def test_truncation_tail_is_honest():
    # The tail bound at this point is checked against an mpmath reference in
    # test_image_tails; here only the explicit range.
    pt = EvalPoint(Geometry(1.0, 0.5), 30.5)
    assert dispersion_exact(ZZ, pt).n_used >= 17  # horizon for t = 30.5


def test_no_image_cap_past_two_million_pairs():
    # Twice the horizon is 2,000,004 pairs at t = 2e6 + 0.37, just past the cap of 2,000,000
    # the image sums had; the late-time expansion has none, and it stays within the (a/t)**2
    # of the late law's error.
    a, z = 1.0, 0.3
    for t, window in ((2e6 + 0.37, 1e-9), (1e9 + 0.37, 1e-12)):
        point = EvalPoint(Geometry(a, z), t)
        for kind in ALL_KINDS:
            got = dispersion_exact(kind, point, window=window)
            law = approx_large_t(kind, point, window=window).value
            assert got.n_used == 0
            assert abs(got.value - law) <= 20.0 * (a / t) ** 2 * abs(law)


def test_sum_through_a_light_cone_raises_instead_of_returning():
    # t = 1000 lies on the cone of the plain image at n a = 500; with no
    # window the explicit sum meets that image and is not finite.
    z, a, t = 0.5, 1.0, 1000.0
    calls = [
        lambda kind=kind: dispersion_exact(kind, EvalPoint(Geometry(a, z), t), window=0.0)
        for kind in ALL_KINDS
    ]
    calls += [
        lambda: efield_correlator_parallel(z, a, t, window=0.0),
        lambda: efield_correlator_normal(z, a, t, window=0.0),
    ]
    for call in calls:
        with pytest.raises(SingularWindowError), np.errstate(divide="ignore", invalid="ignore"):
            call()


@pytest.mark.parametrize("window", [1e-6, 1e-10, 1e-14])
def test_explicit_range_is_twice_the_horizon(window):
    # The explicit range depends on the horizon alone, not on the singular window.
    z, a, t = 0.3, 1.0, 30.3
    expect = 2 * horizon(a, z, t)
    for kind in ALL_KINDS:
        assert dispersion_exact(kind, EvalPoint(Geometry(a, z), t), window=window).n_used == expect
    assert efield_correlator_parallel(z, a, t, window=window).n_used == 0
    assert efield_correlator_normal(z, a, t, window=window).n_used == 0
    # Early times still sum the minimum of 8 pairs.
    assert dispersion_exact(VZ, EvalPoint(Geometry(a, z), 0.3), window=window).n_used == 8


@pytest.mark.parametrize("t, window", [(250000.3, 1e-6), (1e6 + 0.37, 1e-9)])
def test_normal_velocity_sums_to_a_million_plate_spacings(t, window):
    a, z = 1.0, 0.3
    got = dispersion_exact(VZ, EvalPoint(Geometry(a, z), t), window=window)
    plateau = math.pi**2 / (4.0 * a * a) * (1.0 / 3.0 + 1.0 / math.sin(math.pi * z / a) ** 2)
    assert abs(got.value - plateau) <= 20.0 * (a / t) ** 2 * plateau
    assert got.n_used == 0  # the late-time expansion, past 64 shells


def test_values_beyond_the_float_range_are_a_geometry_error():
    # The velocity dispersions scale as a**-2 and the correlators as a**-4:
    # here they exceed the float range, with every image far from its cone.
    point = EvalPoint(Geometry(1e-160, 5e-161), 3e-161)
    calls = [lambda kind=kind: dispersion_exact(kind, point) for kind in (VX, VZ)]
    calls.append(lambda: efield_correlator_parallel(5e-81, 1e-80, 3e-81))
    for call in calls:
        with pytest.raises(GeometryError, match="float range"), np.errstate(all="ignore"):
            call()


def test_a_point_on_a_cone_is_near_at_any_window():
    # With the window switched off, a point exactly on a cone is still
    # rejected before any route evaluates there.
    assert singularity_report(0.5, 1.0, 1000.0, threshold=0.0).is_near
    assert not singularity_report(0.5, 1.0, 1000.3, threshold=0.0).is_near
    calls = (
        lambda: approx_large_t(VZ, EvalPoint(Geometry(1.0, 0.5), 1000.0), window=0.0),
        lambda: dispersion_via_quadrature(VZ, EvalPoint(Geometry(1.0, 0.3), 2.0), window=0.0),
    )
    for call in calls:
        with pytest.raises(SingularWindowError) as info:
            call()
        assert info.value.report.distance == 0.0


def test_overflowing_image_terms_warn_nothing(capsys):
    # An overflowing term either vanishes from the value or makes the sum
    # non-finite, which raises GeometryError; numpy's warning adds nothing.
    from platevac.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = dispersion_exact(VZ, EvalPoint(Geometry(1e300, 0.5), 0.3)).value
        assert wide == single_plate_reference(VZ, 0.5, 0.3)
        assert efield_correlator_normal(0.5, 1e100, 0.3).value > 0.0
        with pytest.raises(GeometryError, match="float range"):
            efield_correlator_parallel(5e-81, 1e-80, 3e-81)
        point = ["--a", "1e-160", "--z", "5e-161", "--t", "3e-161"]
        assert main(["eval", "--quantity", "dv2-normal", *point]) == 2
    captured = capsys.readouterr()
    assert "status     domain" in captured.out
    assert captured.err == ""
