"""Quadrature oracle: weight identities, finite parts, certification."""

import hashlib
import json
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platevac import (
    ConvergenceError,
    GeometryError,
    QuadratureSpec,
    SingularWindowError,
    certification_report,
    dispersion_exact,
    dispersion_via_quadrature,
    image_position_integral,
    image_velocity_integral,
    position_integral,
    position_kernel_normal,
    position_kernel_parallel,
    singularity_report,
    velocity_integral,
    velocity_kernel_normal,
    velocity_kernel_parallel,
    write_adjudication,
)
from platevac.kernels import horizon, offset_kernel
from platevac.quantities import ALL_KINDS, DispersionKind, EvalPoint, Geometry, ReducedValue

CLOSED = {
    ("parallel", "velocity"): velocity_kernel_parallel,
    ("normal", "velocity"): velocity_kernel_normal,
    ("parallel", "position"): position_kernel_parallel,
    ("normal", "position"): position_kernel_normal,
}


def test_weight_polynomials_on_simple_kernels():
    # velocity weight: 2 (t - tau); position weight reproduces t**4/4 on 1
    t = 1.7
    assert velocity_integral(lambda tau: 1.0, t) == pytest.approx(t**2, rel=1e-12)
    assert velocity_integral(lambda tau: tau, t) == pytest.approx(t**3 / 3.0, rel=1e-12)
    assert position_integral(lambda tau: 1.0, t) == pytest.approx(t**4 / 4.0, rel=1e-12)
    assert position_integral(lambda tau: tau, t) == pytest.approx(t**5 / 15.0, rel=1e-12)


def test_image_integrals_before_the_cone():
    x, t = 0.7, 0.8
    assert image_velocity_integral("parallel", x, t) == pytest.approx(
        velocity_kernel_parallel(x, t), rel=1e-10
    )
    assert image_velocity_integral("normal", x, t) == pytest.approx(
        velocity_kernel_normal(x, t), rel=1e-10
    )
    assert image_position_integral("parallel", x, t) == pytest.approx(
        position_kernel_parallel(x, t), rel=1e-10
    )
    assert image_position_integral("normal", x, t) == pytest.approx(
        position_kernel_normal(x, t), rel=1e-10
    )


def test_image_integrals_past_the_cone():
    # interior pole: Hadamard finite part must match the closed forms
    x, t = 0.7, 3.1
    assert image_velocity_integral("parallel", x, t) == pytest.approx(
        velocity_kernel_parallel(x, t), rel=1e-9
    )
    assert image_velocity_integral("normal", x, t) == pytest.approx(
        velocity_kernel_normal(x, t), rel=1e-9
    )
    assert image_position_integral("parallel", x, t) == pytest.approx(
        position_kernel_parallel(x, t), rel=1e-9
    )
    assert image_position_integral("normal", x, t) == pytest.approx(
        position_kernel_normal(x, t), rel=1e-9
    )


@pytest.mark.parametrize("u", [0.98, 0.995, 1.005, 1.02])
@pytest.mark.parametrize("x", [0.05, 0.7, 3.0])
def test_image_integrals_on_both_sides_of_the_cone(x, u):
    # the Laurent split at the pole 2x covers t < 2x < 2t, not only t > 2x
    t = 2.0 * x * u
    for (axis, obs), closed in CLOSED.items():
        integral = image_velocity_integral if obs == "velocity" else image_position_integral
        assert integral(axis, x, t) == pytest.approx(closed(x, t), rel=1e-10)


def test_image_integral_guards():
    with pytest.raises(GeometryError):
        image_velocity_integral("diagonal", 1.0, 0.5)
    with pytest.raises(SingularWindowError):
        image_velocity_integral("parallel", 1.0, 2.0)
    assert image_velocity_integral("parallel", 1.0, 0.0) == 0.0


def test_dispersion_via_quadrature_matches_exact():
    pt = EvalPoint(Geometry(1.0, 0.5), 2.7)
    for kind in ALL_KINDS:
        exact = dispersion_exact(kind, pt).value
        oracle = dispersion_via_quadrature(kind, pt).value
        assert oracle == pytest.approx(exact, rel=5e-8)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    z_over_a=st.floats(0.1, 0.9),
    t_over_a=st.floats(0.05, 10.0),
    kind=st.sampled_from(ALL_KINDS),
)
def test_summed_quadrature_agrees_with_the_exact_sum(a, z_over_a, t_over_a, kind):
    z, t = z_over_a * a, t_over_a * a
    assume(singularity_report(z, a, t).distance * t >= 0.05 * a)
    point = EvalPoint(Geometry(a, z), t)
    oracle = dispersion_via_quadrature(kind, point)
    exact = dispersion_exact(kind, point)
    n = oracle.n_used
    na = np.arange(1.0, n + 1) * a
    fvec, _ = offset_kernel(kind, t)
    # every image term, the plain family's twice
    terms = np.sum(abs(fvec(np.concatenate(([z], na, na, na + z, na - z)))))
    spec = QuadratureSpec()
    bound = (
        oracle.tail_estimate
        + exact.tail_estimate
        + (3 * n + 1) * spec.abs_tol
        + spec.rel_tol * terms
    )
    assert abs(oracle.value - exact.value) <= bound


@pytest.mark.parametrize("n_images", [50, 300])
def test_dispersion_via_quadrature_makes_two_quadratures(monkeypatch, n_images):
    # one for the summed lattice, one for the last image group's tail estimate
    calls = []
    quad = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    for t in (0.3, 3.1):
        for kind in ALL_KINDS:
            calls.clear()
            dispersion_via_quadrature(kind, EvalPoint(Geometry(1.0, 0.3), t), n_images=n_images)
            assert len(calls) == 2


def test_dispersion_via_quadrature_obeys_the_image_cap():
    # raises before building the offset arrays, explicit count or default
    kind = DispersionKind("normal", "velocity")
    with pytest.raises(ConvergenceError, match="cap"):
        dispersion_via_quadrature(kind, EvalPoint(Geometry(1.0, 0.5), 0.3), n_images=2_000_001)
    # t = 1e7 itself is a plain-image cone; 0.3 past it clears a 1e-9 window
    with pytest.raises(ConvergenceError, match="cap"):
        dispersion_via_quadrature(kind, EvalPoint(Geometry(1.0, 0.3), 1e7 + 0.3), window=1e-9)


def test_dispersion_via_quadrature_horizon_guard():
    pt = EvalPoint(Geometry(1.0, 0.5), 1000.5)  # horizon ~502 images
    with pytest.raises(GeometryError):
        dispersion_via_quadrature(DispersionKind("parallel", "velocity"), pt, n_images=50)
    with pytest.raises(SingularWindowError):
        dispersion_via_quadrature(
            DispersionKind("parallel", "velocity"), EvalPoint(Geometry(1.0, 0.5), 2.0)
        )


def test_dispersion_via_quadrature_default_reaches_twice_the_horizon():
    # the pinned 50 parallel images stop short of this point's horizon of 102
    point = EvalPoint(Geometry(1.0, 0.3), 200.3)
    oracle = dispersion_via_quadrature("dx2-parallel", point)
    exact = dispersion_exact("dx2-parallel", point)
    assert oracle.n_used == 2 * horizon(1.0, 0.3, 200.3)
    assert oracle.value == pytest.approx(exact.value, rel=1e-4)


def test_certification_report_is_clean():
    report = certification_report()
    assert report["certified"] is True
    assert report["worst_grid_diff"] < 1e-10
    conv = report["conventions"]
    assert conv["log_modulus"]["ok"]
    assert conv["normal_shifted_sign"]["ok"]
    # the sign adjudication must actually separate the two candidates
    for check in conv["normal_shifted_sign"]["checks"]:
        assert check["minus_diff"] > 1e3 * check["plus_diff"]


def test_write_adjudication_hash_covers_file_bytes(tmp_path):
    out = tmp_path / "adjudication.json"
    path, digest = write_adjudication(str(out))
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    report = json.loads(data)
    assert report["certified"] is True


@pytest.mark.parametrize("t", [2.7, 40.3])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.token)
def test_dispersion_takes_two_quadratures_and_scales_its_tail_from_the_last_group(
    monkeypatch, kind, t
):
    a, z = 1.0, 0.3
    calls = []
    quad = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    got = dispersion_via_quadrature(kind, EvalPoint(Geometry(a, z), t))
    assert len(calls) == 2
    monkeypatch.undo()
    integral = image_velocity_integral if kind.observable == "velocity" else image_position_integral
    n = got.n_used
    plain, up, down = (integral(kind.axis, x, t) for x in (n * a, n * a + z, n * a - z))
    expect = (2.0 * abs(plain) + abs(up) + abs(down)) * n / 3.0
    assert got.tail_estimate == pytest.approx(expect, rel=1e-10)


def test_black_box_integrals_reject_a_bad_time():
    for integral in (velocity_integral, position_integral):
        for t in (math.nan, math.inf, -1.0):
            with pytest.raises(GeometryError):
                integral(lambda tau: 1.0, t)


def test_black_box_integrals_at_zero_time_and_at_an_interior_singularity():
    for integral in (velocity_integral, position_integral):
        assert integral(lambda tau: 1.0, 0.0) == 0.0
    with pytest.raises(ConvergenceError) as info:
        velocity_integral(lambda tau: abs(tau - 0.3141592653589793) ** -1.5, 1.0)
    assert info.value.value is not None
    assert info.value.error_estimate > 0.0


def test_dispersion_via_quadrature_point_and_zero_time():
    with pytest.raises(GeometryError):
        dispersion_via_quadrature("dv2-normal", (1.0, 0.5, 0.3))
    got = dispersion_via_quadrature("dv2-normal", EvalPoint(Geometry(1.0, 0.5), 0.0))
    assert got == ReducedValue(0.0)
