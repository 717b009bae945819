"""Quadrature oracle: weight identities, finite parts, certification."""

import hashlib
import json
import math
import os
import subprocess
import sys

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
from platevac import oracle
from platevac.kernels import _image_values, horizon
from platevac.quantities import ALL_KINDS, DispersionKind, EvalPoint, Geometry, ReducedValue

CLOSED = {
    ("parallel", "velocity"): velocity_kernel_parallel,
    ("normal", "velocity"): velocity_kernel_normal,
    ("parallel", "position"): position_kernel_parallel,
    ("normal", "position"): position_kernel_normal,
}
_EPS = np.finfo(float).eps


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


def test_laurent_principal_parts_are_the_whole_integrand():
    # the closed-form images rest on K being exactly its principal parts at +-tau0
    tau0 = 1.3
    tau = np.array([0.0, 0.4, 1.1, 2.0, 5.0])
    for axis in ("parallel", "normal"):
        a, b = oracle._laurent(axis, tau0)
        parts = sum(
            ak * (tau - tau0) ** -k + bk * (tau + tau0) ** -k
            for k, (ak, bk) in enumerate(zip(a, b), start=1)
        )
        assert parts == pytest.approx(oracle._RAW[axis](tau0**2, tau), rel=1e-13)


@pytest.mark.parametrize("x", [0.05, 0.7, 3.0])
def test_image_integrals_integrate_only_images_at_or_beyond_t(monkeypatch, x):
    # x < t (u = t/2x > 1/2) is closed form, with no quadrature; x >= t takes one
    calls = []
    quad = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    near = np.concatenate((np.geomspace(0.55, 30.0, 40), [0.999, 1.001]))
    near = near[np.abs(near - 1.0) >= 1e-3]
    for (axis, obs), closed in CLOSED.items():
        integral = image_velocity_integral if obs == "velocity" else image_position_integral
        for u in (0.1, 0.3, 0.5):
            calls.clear()
            integral(axis, x, 2.0 * x * u)
            assert len(calls) == 1
        for u in near:
            t = 2.0 * x * u
            calls.clear()
            got = integral(axis, x, t)
            assert len(calls) == 0
            assert got == pytest.approx(closed(x, t), rel=1e-10)


def test_scipy_integrate_is_loaded_on_the_first_quadrature_only():
    script = (
        "import sys, platevac, platevac.cli\n"
        "from platevac.quantities import EvalPoint, Geometry\n"
        "point = EvalPoint(Geometry(1.0, 0.5), 0.3)\n"
        "platevac.dispersion_exact('dv2-normal', point)\n"
        "before = 'scipy.integrate' in sys.modules\n"
        "platevac.dispersion_via_quadrature('dv2-normal', point)\n"
        "print(before, 'scipy.integrate' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]


def test_library_calls_load_neither_mpmath_nor_sympy():
    # mpmath is a test extra and sympy is not declared at all.
    script = (
        "import sys, platevac, platevac.cli\n"
        "from platevac.quantities import EvalPoint, Geometry\n"
        "platevac.dispersion_exact('dv2-normal', EvalPoint(Geometry(1.0, 0.3), 100.37))\n"
        "platevac.efield_correlator_parallel(0.3, 1.0, 100.37)\n"
        "platevac.efield_correlator_normal(0.3, 1.0, 0.21)\n"
        "print(*(name in sys.modules for name in ('mpmath', 'sympy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]


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
    # every image term, the plain family's twice
    offsets = np.concatenate(([z], na, na, na + z, na - z))
    terms = np.sum(abs(_image_values((kind.axis, kind.observable), offsets, t)))
    spec = QuadratureSpec()
    bound = (
        oracle.tail_estimate
        + exact.tail_estimate
        + (3 * n + 1) * spec.abs_tol
        + spec.rel_tol * terms
    )
    assert abs(oracle.value - exact.value) <= bound


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    z_over_a=st.floats(0.1, 0.9),
    t_over_a=st.floats(0.05, 10.0),
    kind=st.sampled_from(ALL_KINDS),
)
def test_quadrature_route_agrees_with_the_exact_sum_to_1e_9(a, z_over_a, t_over_a, kind):
    # relative to the image terms' summed moduli, which a zero of the dispersion does not shrink
    z, t = z_over_a * a, t_over_a * a
    assume(singularity_report(z, a, t).distance * t >= 0.05 * a)
    point = EvalPoint(Geometry(a, z), t)
    oracle = dispersion_via_quadrature(kind, point)
    exact = dispersion_exact(kind, point)
    na = np.arange(1.0, oracle.n_used + 1) * a
    offsets = np.concatenate(([z], na, na, na + z, na - z))
    terms = np.sum(abs(_image_values((kind.axis, kind.observable), offsets, t)))
    assert abs(oracle.value - exact.value) <= 1e-9 * terms


def _raise(*args, **kwargs):
    raise AssertionError("the quadrature route reached a closed-form kernel")


def test_quadrature_route_uses_no_closed_kernel_or_zeta_tail(monkeypatch):
    from platevac import correlators, dispersions, kernels

    monkeypatch.setattr(correlators, "_hurwitz_tail", _raise)
    for module in (kernels, dispersions, oracle):
        monkeypatch.setattr(module, "_image_values", _raise)
    for t in (0.3, 2.7, 40.3):  # before the cones, past the first ones, past twenty shells
        for kind in ALL_KINDS:
            got = dispersion_via_quadrature(kind, EvalPoint(Geometry(1.0, 0.3), t))
            assert math.isfinite(got.value) and got.value != 0.0
            assert math.isfinite(got.tail_estimate)


@pytest.mark.parametrize("scale", [1e-150, 1e16, 1e18, 1e150])
def test_quadrature_route_scales_with_the_plate_spacing(scale):
    # (a, z, t) -> scale (a, z, t): velocities scale as scale**-2, positions not at all
    for t in (0.3, 2.7):
        for kind in ALL_KINDS:
            base = dispersion_via_quadrature(kind, EvalPoint(Geometry(1.0, 0.3), t))
            got = dispersion_via_quadrature(
                kind, EvalPoint(Geometry(scale, 0.3 * scale), t * scale)
            )
            power = scale * scale if kind.observable == "velocity" else 1.0
            assert got.value * power == pytest.approx(base.value, rel=1e-12)
            assert got.tail_estimate * power == pytest.approx(base.tail_estimate, rel=1e-6)


@pytest.mark.parametrize("n_images", [50, 300])
def test_dispersion_via_quadrature_makes_one_quadrature_at_most(monkeypatch, n_images):
    # one for the images at or beyond t, the images past n_images by their series
    calls = []
    quad = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    geom = Geometry(1.0, 0.3)
    for t in (0.3, 3.1):
        for kind in ALL_KINDS:
            calls.clear()
            dispersion_via_quadrature(kind, EvalPoint(geom, t), n_images=n_images)
            assert len(calls) == 1
    # at the horizon of t = 40.3 every summed offset, up to 22.3, lies below t
    t = 40.3
    for kind in ALL_KINDS:
        calls.clear()
        got = dispersion_via_quadrature(kind, EvalPoint(geom, t), n_images=horizon(1.0, 0.3, t))
        assert len(calls) == 0
        assert math.isfinite(got.value) and math.isfinite(got.tail_estimate)


@settings(max_examples=40, deadline=None)
@given(
    a=st.sampled_from((0.5, 1.0, 2.0)),
    z_over_a=st.floats(0.05, 0.95),
    t_over_a=st.floats(0.01, 10.0),
    kind=st.sampled_from(ALL_KINDS),
)
def test_the_default_count_is_the_pinned_one_up_to_t_10a(a, z_over_a, t_over_a, kind):
    # up to t = 10a the default call is, bit for bit, the call with the pinned count of its
    # axis or the horizon, whichever is larger, as a caller may rebuild it
    z, t = z_over_a * a, t_over_a * a
    assume(singularity_report(z, a, t).distance * t >= 0.05 * a)
    point = EvalPoint(Geometry(a, z), t)
    pinned = oracle.N_IMAGES_PARALLEL if kind.axis == "parallel" else oracle.N_IMAGES_NORMAL
    explicit = dispersion_via_quadrature(kind, point, n_images=max(pinned, horizon(a, z, t)))
    default = dispersion_via_quadrature(kind, point)
    assert (default.value, default.tail_estimate, default.n_used) == (
        explicit.value, explicit.tail_estimate, explicit.n_used)


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


def test_every_certification_row_matches_its_public_single_image_call():
    # a mislabelled or permuted row would still certify; against its own (x, t) it would not
    for row in certification_report()["grid"]:
        key, x, t = (row["axis"], row["observable"]), row["x"], row["t"]
        assert row["closed"] == CLOSED[key](x, t)
        integral = image_velocity_integral if key[1] == "velocity" else image_position_integral
        single = integral(key[0], x, t)
        if x < t:  # one finite-part pass over the grid: the terms are added in another order
            _, moduli = oracle._finite_part_image(*key, np.array([x]), t)
            assert abs(row["quadrature"] - single) <= 4.0 * _EPS * moduli[0]
        else:
            assert row["quadrature"] == single
        assert row["finite_part"] == (t / x > 2.0)


@pytest.mark.parametrize("key", list(CLOSED))
def test_finite_part_image_takes_one_time_per_image(key):
    # before the cone (t < 2x) and past it, each image at its own time, as one call per image
    x = np.array([0.05, 0.7, 3.0, 0.3, 1.1, 0.02])
    u = np.array([0.6, 0.9, 0.999, 1.001, 2.5, 300.0])
    t = 2.0 * x * u
    values, moduli = oracle._finite_part_image(*key, x, t)
    for i in range(x.size):
        value, modulus = oracle._finite_part_image(*key, x[i : i + 1], t[i])
        assert abs(values[i] - value[0]) <= 4.0 * _EPS * modulus[0]
        assert moduli[i] == pytest.approx(modulus[0], rel=4.0 * _EPS)
        assert abs(values[i]) <= moduli[i]
    # one time for all images, as the lattice passes it, or that time per image: the same bits
    same = np.full(x.size, t[2])
    assert np.array_equal(
        oracle._finite_part_image(*key, x, t[2])[0], oracle._finite_part_image(*key, x, same)[0]
    )


def test_certification_report_evaluates_its_grid_in_one_pass_per_kernel(monkeypatch):
    # 4 grid passes plus dispersion_exact and the flipped sum at both sign checks; the two
    # sign-check points lie before every cone, so no finite part there; 24 far rows and
    # the two sign checks take one quadrature each
    from platevac import dispersions, kernels

    calls = {"values": 0, "finite": 0, "quad": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    values = counted("values", kernels._image_values)
    for module in (kernels, dispersions, oracle):
        monkeypatch.setattr(module, "_image_values", values)
    monkeypatch.setattr(oracle, "_finite_part_image", counted("finite", oracle._finite_part_image))
    monkeypatch.setattr(scipy.integrate, "quad", counted("quad", scipy.integrate.quad))
    assert certification_report()["certified"] is True
    assert calls == {"values": 8, "finite": 4, "quad": 26}


def _near_plate_sample(n, seed):
    """a = 10**U(-0.3, 0.3), z/a in U(0.05, 0.15) or U(0.85, 0.95), t/a in U(7, 9.6), with
    at least 0.05 a between t and the nearest cone."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        a = 10.0 ** rng.uniform(-0.3, 0.3)
        z_over_a = rng.uniform(0.05, 0.15)
        if rng.random() < 0.5:
            z_over_a = 1.0 - z_over_a
        z, t = z_over_a * a, rng.uniform(7.0, 9.6) * a
        if singularity_report(z, a, t).distance * t >= 0.05 * a:
            points.append(EvalPoint(Geometry(a, z), t))
    return points


def test_quadrature_tail_covers_the_rounding_of_its_closed_form_parts():
    # near a plate the closed-form parts at +tau0 and -tau0 cancel: both tails together
    # must still cover the routes' difference (at 1 eps in place of _ROUNDING = 16 eps the
    # worst point here would use 0.73 of them; without the rounding bound 290 of the 1,000
    # points miss)
    kind = DispersionKind("parallel", "velocity")
    for point in _near_plate_sample(1000, 0):
        quad = dispersion_via_quadrature(kind, point)
        exact = dispersion_exact(kind, point)
        assert abs(quad.value - exact.value) <= quad.tail_estimate + exact.tail_estimate, point


def test_write_adjudication_hash_covers_file_bytes(tmp_path):
    out = tmp_path / "adjudication.json"
    path, digest = write_adjudication(str(out))
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    report = json.loads(data)
    assert report["certified"] is True


@pytest.mark.parametrize("t", [2.7, 40.3])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.token)
def test_remainder_matches_the_explicit_images_past_n(kind, t):
    # the series past shell N is shells N+1..N+200, one image at a time, plus the series past N+200
    a, z = 1.0, 0.3
    n = dispersion_via_quadrature(kind, EvalPoint(Geometry(a, z), t)).n_used
    integral = image_velocity_integral if kind.observable == "velocity" else image_position_integral
    shifts = np.array([0.0, z, -z])
    weights = np.array([2.0, kind.image_sign, kind.image_sign])
    spec = QuadratureSpec()
    explicit, quad_tol = 0.0, 0.0
    for shell in range(n + 1, n + 201):
        for shift, weight in zip(shifts, weights):
            value = integral(kind.axis, shell * a + shift, t)
            explicit += weight * value
            quad_tol += abs(weight) * max(spec.abs_tol, spec.rel_tol * abs(value))
    rest, bound = oracle._remainder(kind.axis, kind.observable, t, n + 1.0 + shifts, weights)
    later, later_bound = oracle._remainder(
        kind.axis, kind.observable, t, n + 201.0 + shifts, weights
    )
    assert rest != 0.0
    assert abs(rest - (explicit + later)) <= bound + later_bound + quad_tol


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
