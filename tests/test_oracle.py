"""Quadrature oracle: finite parts, series, certification."""

import hashlib
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_correlators import _sensitivity
from test_late_expansion import EPS, KEYS, SIGN, _fixed_lattice

from platevac import (
    ConvergenceError,
    GeometryError,
    SingularWindowError,
    certification_report,
    dispersion_exact,
    dispersion_via_quadrature,
    image_position_integral,
    image_velocity_integral,
    position_kernel_normal,
    position_kernel_parallel,
    singularity_report,
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
    # each weight rebuilt from its Taylor coefficients at a pole before, on, past and mirrored
    # about the cone: velocity 2 (t - tau) gives t**2 on 1 and t**3/3 on tau, position
    # (t - tau)**2 (2t + tau)/3 gives t**4/4 and t**5/15
    t = 1.7
    moments = {"velocity": (t**2, t**3 / 3.0), "position": (t**4 / 4.0, t**5 / 15.0)}
    for observable, (on_one, on_tau) in moments.items():
        for pole in (0.3, -0.3, t, 2.9, -2.9):
            shift = np.polynomial.Polynomial([-pole, 1.0])
            coefs = oracle._taylor(observable, t, pole)
            w = sum(float(c) * shift**j for j, c in enumerate(coefs))
            for kernel, expect in ((w, on_one), (w * np.polynomial.Polynomial([0.0, 1.0]), on_tau)):
                antiderivative = kernel.integ()
                got = antiderivative(t) - antiderivative(0.0)
                assert got == pytest.approx(expect, rel=1e-12), (observable, pole)


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


def _weighted_quad(axis, observable, x, t):
    """integral_0^t w(tau) K(x, tau) dtau by mpmath's quadrature at 30 digits, the weight
    w = 2 (t - tau) or (t - tau)**2 (2t + tau)/3: no code shared with the series."""
    with mpmath.workdps(30):
        x2, t = 4 * mpmath.mpf(x) ** 2, mpmath.mpf(t)

        def integrand(tau):
            w = 2 * (t - tau) if observable == "velocity" else (t - tau) ** 2 * (2 * t + tau) / 3
            return w * oracle._RAW[axis](x2, tau)

        return float(mpmath.quad(integrand, [0, t]))


@pytest.mark.parametrize("key", list(CLOSED))
def test_far_image_series_matches_the_quadrature_and_the_closed_kernel(key):
    # x >= t, from x = t (u = 1/2) to x = 1e5 t: the series against a 30-digit quadrature of
    # the raw integrand, which shares none of its code, and against the closed kernel
    axis, obs = key
    integral = image_velocity_integral if obs == "velocity" else image_position_integral
    for x in np.geomspace(0.01, 100.0, 5):
        for t in x * np.concatenate((np.geomspace(1e-5, 1.0, 6), [0.9, 0.99])):
            got = integral(axis, x, t)
            assert got == pytest.approx(_weighted_quad(axis, obs, x, t), rel=1e-10), (x, t)
            assert abs(got - CLOSED[key](x, t)) <= 4.0 * _EPS * abs(got), (x, t)


@pytest.mark.parametrize("x", [0.05, 0.7, 3.0])
def test_image_integrals_match_the_closed_kernels_on_both_routes(x):
    # x < t (u = t/2x > 1/2) is closed form, on both sides of the cone at u = 1; x >= t its series
    near = np.concatenate((np.geomspace(0.55, 30.0, 40), [0.999, 1.001]))
    near = near[np.abs(near - 1.0) >= 1e-3]
    for (axis, obs), closed in CLOSED.items():
        integral = image_velocity_integral if obs == "velocity" else image_position_integral
        for u in np.concatenate(((0.1, 0.3, 0.5), near)):
            t = 2.0 * x * u
            assert integral(axis, x, t) == pytest.approx(closed(x, t), rel=1e-10)


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


def _scipy_modules_after(script, *args):
    """The scipy modules loaded once ``script`` has run in a fresh interpreter."""
    script += "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_library_calls_load_no_scipy_special():
    # The library computes its zeta values and Clausen-type functions itself and integrates
    # every image in closed form or by its series: no route loads scipy.special, nor any scipy.
    script = (
        "import sys\n"
        "from platevac import *\n"
        "g = Geometry(1.0, 0.3)\n"
        "for kind in ALL_KINDS:\n"
        "    for t in (100.37, 20000.37, 2e6 + 0.37):  # the walk, then the late expansion\n"
        "        dispersion_exact(kind, EvalPoint(g, t), window=1e-9)\n"
        "    dispersion_via_quadrature(kind, EvalPoint(g, 2.7))\n"
        "    approx_large_t(kind, EvalPoint(g, 100.37))\n"
        "    midpoint_extremal(kind, 1.0, 100.3)\n"
        "    approx_large_a(kind, EvalPoint(g, 0.1))\n"
        "    approx_large_a_far(kind, EvalPoint(Geometry(1000.0, 0.3), 0.1))\n"
        "image_velocity_integral('parallel', 0.7, 3.1)\n"
        "image_position_integral('normal', 0.7, 0.3)\n"
        "efield_correlator_parallel(0.3, 1.0, 100.37)\n"
        "efield_correlator_normal(0.3, 1.0, 0.21)\n"
        "renormalized_photon_two_point(0, 0, 2.3, 0.1, 0.2, 0.3, 0.6, 1.0)\n"
    )
    assert _scipy_modules_after(script) == ["[]"]


def test_no_command_loads_scipy(tmp_path):
    script = (
        "import io, sys, contextlib, platevac.cli\n"
        "point = ['--quantity', 'dx2-parallel', '--a', '1', '--z', '0.3']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert platevac.cli.main(['eval', *point, '--t', '2.7']) == 0\n"
        "    assert platevac.cli.main(['sweep', *point, '--start', '0.1', '--stop', '9.7']) == 0\n"
        "    for t in ('0.3', '2.7', '1000.37'):  # before and past the cones, about 26 terms\n"
        "        assert platevac.cli.main(['compare', *point, '--t', t, '--oracle']) == 0\n"
        "    assert platevac.cli.main(['adjudicate', '--out', sys.argv[1]]) == 0\n"
    )
    assert _scipy_modules_after(script, str(tmp_path / "adjudication.json")) == ["[]"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_image_integral_guards():
    with pytest.raises(GeometryError):
        image_velocity_integral("diagonal", 1.0, 0.5)
    with pytest.raises(SingularWindowError):
        image_velocity_integral("parallel", 1.0, 2.0)
    assert image_velocity_integral("parallel", 1.0, 0.0) == 0.0


def test_image_integrals_reject_a_bad_time_and_vanish_at_zero_time():
    for integral in (image_velocity_integral, image_position_integral):
        for axis in ("parallel", "normal"):
            for t in (math.nan, math.inf, -1.0):
                with pytest.raises(GeometryError):
                    integral(axis, 0.7, t)
            for x in (1e-300, 0.7, 1e300):
                assert integral(axis, x, 0.0) == 0.0
    # the series returns its zeros before forming u = t/2x, which an offset of 0 would make 0/0
    for axis, obs in CLOSED:
        values, bounds = oracle._series(axis, obs, 0.0, np.array([0.0, 5e-324, 1.0]), family=True)
        assert not values.any() and not bounds.any()


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
    assert abs(oracle.value - exact.value) <= oracle.tail_estimate + exact.tail_estimate


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

    monkeypatch.setattr(correlators, "_image_tail", _raise)
    for module in (kernels, dispersions, oracle):
        monkeypatch.setattr(module, "_image_values", _raise)
    for t in (0.3, 2.7, 40.3):  # before the cones, past the first ones, past twenty shells
        for kind in ALL_KINDS:
            got = dispersion_via_quadrature(kind, EvalPoint(Geometry(1.0, 0.3), t))
            assert math.isfinite(got.value) and got.value != 0.0
            assert math.isfinite(got.tail_estimate)


def test_a_shared_zeta_table_still_separates_the_two_routes(monkeypatch):
    # The walk's series tail and the oracle's remainder both take correlators._EM_TABLE, the
    # oracle only past its 50 summed shells. A defect in the table's leading column moves the
    # walk by 1,005 to 192,230 of its tails and the oracle by at most 67 of its own, so the
    # routes no longer agree within both tails.
    from platevac import correlators

    points = [EvalPoint(Geometry(1.0, z), t) for z, t in ((0.3, 3.5), (0.45, 9.5))]

    def gaps():
        for point in points:
            for kind in ALL_KINDS:
                exact, quad = dispersion_exact(kind, point), dispersion_via_quadrature(kind, point)
                yield abs(exact.value - quad.value) / (exact.tail_estimate + quad.tail_estimate)

    assert max(gaps()) <= 1.0
    table = correlators._EM_TABLE.copy()
    table[:, 0] *= 1.0 + 1e-6
    monkeypatch.setattr(correlators, "_EM_TABLE", table)
    assert min(gaps()) > 1.0


def _traced_quadrature(kind, point):
    """(dispersion_via_quadrature's result, its traced peak memory in bytes)."""
    import tracemalloc

    tracemalloc.start()
    try:
        got = dispersion_via_quadrature(kind, point, window=1e-9)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_finite_parts_take_bounded_memory_at_late_times():
    # t = 1e5 a puts 300,000 images before the cone. Summed as one (pole, k, j, image) array they
    # peaked at 102 (dv2-normal) to 225 MiB (dx2-parallel) traced, and with the offsets built
    # whole at 17.1 MiB (1e5 a) and 68.4 MiB (4e5 a, dx2-parallel). Streamed in shell blocks the
    # call stays below 16 MiB at any t, and every value is the one-array value within the
    # oracle's own tail.
    one_array = {"dv2-parallel": 2.2163776276772326e-05, "dv2-normal": 4.592320459156386,
                 "dx2-parallel": -4.153422593251045, "dx2-normal": 22961772206.586124}
    point = EvalPoint(Geometry(1.0, 0.3), 1e5 + 0.37)
    for kind in ALL_KINDS:
        got, peak = _traced_quadrature(kind, point)
        assert peak < 64 * 2**20, kind
        assert abs(got.value - one_array[kind.token]) <= got.tail_estimate, kind
        if kind.token == "dx2-parallel":
            assert peak < 16 * 2**20
    got, peak = _traced_quadrature("dx2-parallel", EvalPoint(Geometry(1.0, 0.3), 4e5 + 0.37))
    assert peak < 16 * 2**20 and math.isfinite(got.value)


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
def test_dispersion_via_quadrature_is_finite_at_any_image_count(n_images):
    geom = Geometry(1.0, 0.3)
    points = [(t, n_images) for t in (0.3, 3.1)]
    # at the horizon of t = 40.3 every summed offset, up to 22.3, lies below t
    points.append((40.3, horizon(1.0, 0.3, 40.3)))
    for t, n in points:
        for kind in ALL_KINDS:
            got = dispersion_via_quadrature(kind, EvalPoint(geom, t), n_images=n)
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


def test_dispersion_via_quadrature_raises_where_its_series_does_not_settle():
    # at the horizon of t = 1000.5 the first offset past it, 502.5, leaves the series ratio
    # (t/2x)**2 at 0.99, which its 40 terms cannot bound; twice the horizon settles
    point = EvalPoint(Geometry(1.0, 0.5), 1000.5)
    n = horizon(1.0, 0.5, 1000.5)
    for kind in ALL_KINDS:
        with pytest.raises(ConvergenceError, match="settle"):
            dispersion_via_quadrature(kind, point, n_images=n)
        got = dispersion_via_quadrature(kind, point, n_images=2 * n)
        assert math.isfinite(got.value) and math.isfinite(got.tail_estimate)


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
    # The evaluator over seeded far images (u up to 1/2) and near ones before and past the cone,
    # one time for all or one per image: each image takes the same bits alone as in the batch.
    rng = np.random.default_rng(35)
    u = np.concatenate((10.0 ** rng.uniform(-5.0, math.log10(0.5), 20), [0.5],
                        rng.uniform(0.52, 0.98, 10), rng.uniform(1.02, 30.0, 20)))
    for t in (rng.uniform(0.05, 5.0, u.size), 1.3):
        x = 0.5 * t / u
        values, bounds = oracle._raw_values(*key, x, t)
        for i in range(x.size):
            t_i = t[i] if np.ndim(t) else t
            value, bound = oracle._raw_values(*key, x[i : i + 1], t_i)
            assert (value[0], bound[0]) == (values[i], bounds[i]), u[i]
    assert np.array_equal(oracle._raw_values(*key, x, 1.3),
                          oracle._raw_values(*key, x, np.full(x.size, 1.3)))


def test_certification_report_evaluates_its_grid_in_one_pass_per_kernel(monkeypatch):
    # 4 grid passes plus dispersion_exact and the flipped sum at both sign checks; the two
    # sign-check points lie before every cone, so no finite part there; the 24 far rows and
    # the two sign checks take their series
    from platevac import dispersions, kernels

    calls = {"values": 0, "finite": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    values = counted("values", kernels._image_values)
    for module in (kernels, dispersions, oracle):
        monkeypatch.setattr(module, "_image_values", values)
    monkeypatch.setattr(oracle, "_finite_part_image", counted("finite", oracle._finite_part_image))
    assert certification_report()["certified"] is True
    assert calls == {"values": 8, "finite": 4}


def test_the_position_weight_keeps_its_digits_next_to_a_cone():
    # 1.0e-9 from the n = 0 cone with z exact: w and w' at the pole are differences of O(t**3)
    # terms unless factored, which read dx2-parallel as -2.156 with a tail of 1.5e-13
    a, z, t = 1.0, 0.12417782788691148, 0.24835565552384625
    point, refs = EvalPoint(Geometry(a, z), t), _fixed_lattice(a, z, t)
    assert refs[2] == pytest.approx(4.954781020406467, rel=1e-15)
    for key, ref in zip(KEYS, refs):
        got = dispersion_via_quadrature(DispersionKind(*key), point, window=1e-10)
        assert abs(got.value - ref) <= got.tail_estimate, key


def _near_cone_sample(count, seed):
    """(a, z, t): a in {0.5, 1, 2}, z/a in U(0.01, 0.99), t/a = 10**U(-1, 1) moved to a
    relative distance 10**U(-9, -3) from its nearest cone."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        a = rng.choice((0.5, 1.0, 2.0))
        z, t = a * rng.uniform(0.01, 0.99), a * 10.0 ** rng.uniform(-1.0, 1.0)
        cone = singularity_report(z, a, t, 0.0).nearest_time
        t = cone * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -3.0))
        points.append((a, z, t))
    return points


def test_the_oracle_next_to_a_cone_is_within_its_tail():
    # Against the 128-bit exact-offset lattice, all four kinds. The oracle forms its offsets
    # n +/- z/a and t/a in floating point, which its tail does not cover yet (ROADMAP item 4):
    # 4 eps S beyond the tail, S = sum |f| + |x f'| over its images, as for the walk.
    for a, z, t in _near_cone_sample(40, 31):
        point = EvalPoint(Geometry(a, z), t)
        for key, sign, ref in zip(KEYS, SIGN, _fixed_lattice(a, z, t)):
            got = dispersion_via_quadrature(DispersionKind(*key), point, window=1e-10)
            slack = 4.0 * EPS * _sensitivity(lambda x: _image_values(key, x, t), sign, a, z,
                                             got.n_used, 0.5 * t)
            assert abs(got.value - ref) <= got.tail_estimate + slack, (key, a, z, t)


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
    explicit = 0.0
    for shell in range(n + 1, n + 201):
        for shift, weight in zip(shifts, weights):
            explicit += weight * integral(kind.axis, shell * a + shift, t)

    def remainder(first):
        values, bounds = oracle._series(kind.axis, kind.observable, t, first + shifts, family=True)
        return weights @ values, np.abs(weights) @ bounds

    rest, bound = remainder(n + 1.0)
    later, later_bound = remainder(n + 201.0)
    assert rest != 0.0
    assert abs(rest - (explicit + later)) <= bound + later_bound


def test_dispersion_via_quadrature_point_and_zero_time():
    with pytest.raises(GeometryError):
        dispersion_via_quadrature("dv2-normal", (1.0, 0.5, 0.3))
    got = dispersion_via_quadrature("dv2-normal", EvalPoint(Geometry(1.0, 0.5), 0.0))
    assert got == ReducedValue(0.0)
    # the image count is an integer: any integer type is taken as a Python int, others refused
    point = EvalPoint(Geometry(1.0, 0.5), 0.3)
    with pytest.raises(GeometryError, match="integer"):
        dispersion_via_quadrature("dv2-normal", point, n_images=50.5)
    got = dispersion_via_quadrature("dv2-normal", point, n_images=np.int64(60))
    assert type(got.n_used) is int
    assert got == dispersion_via_quadrature("dv2-normal", point, n_images=60)
