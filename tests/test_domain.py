"""Whole-domain gate: every numeric export gives a finite value or a typed error.

Lengths are drawn log-uniform over 1e-300..1e300; z/a uniform, log-uniform
down to 1e-300 and within 1e-16 of 1. Under warnings as errors (the suite's
pytest setting), each call returns a finite float (a ReducedValue with a
finite value and tail) or raises a PlatevacError. Times are capped in units
of a where a route's cost grows with t/a: 50 for the image sums, 5 for the
oracle.
"""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platevac as pv
from platevac import cli
from platevac import (
    ALL_KINDS,
    ELECTRON,
    EvalPoint,
    Geometry,
    GeometryError,
    Particle,
    PlatevacError,
    ReducedValue,
)

_GATE = settings(derandomize=True, deadline=None, max_examples=150)

_LENGTHS = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_SIGNED = st.tuples(_LENGTHS, st.sampled_from((1.0, -1.0))).map(lambda p: p[0] * p[1])
_Z_OVER_A = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-300.0, 0.0, exclude_max=True).map(lambda e: 10.0**e),
    st.floats(-16.0, 0.0, exclude_max=True).map(lambda e: 1.0 - 10.0**e),
)
_KINDS = st.sampled_from(ALL_KINDS)
_AXES = st.sampled_from(("parallel", "normal"))
_PARTICLES = st.one_of(
    st.sampled_from(sorted(pv.PARTICLES.values(), key=lambda p: p.name)),
    _LENGTHS.map(lambda m: ("drawn", m)),
)

# Exports that take no numbers: the errors, constants, tables and report writers.
_NOT_NUMERIC = {
    "ALL_KINDS", "ALPHA", "ELECTRON", "PARTICLES", "PROTON", "SINGULAR_WINDOW",
    "ConvergenceError", "GeometryError", "PlatevacError", "RegimeError", "SingularWindowError",
    "DispersionKind", "QuadratureSpec", "ReducedValue", "SingularityReport",
    "certification_report",
}
# The exports the gates below call, each under its public name.
_GATED = {
    "velocity_kernel_parallel", "velocity_kernel_normal", "position_kernel_parallel",
    "position_kernel_normal", "correlator_term_parallel", "correlator_term_normal",
    "single_plate_reference", "image_velocity_integral", "image_position_integral",
    "efield_correlator_parallel", "efield_correlator_normal", "image_sum_quartic", "Geometry",
    "EvalPoint", "dispersion_exact", "amplification_ratio", "recommend_regime",
    "singularity_report", "renormalized_photon_two_point", "dispersion_via_quadrature",
    "midpoint_extremal", "approx_large_t", "approx_large_a", "approx_large_a_far",
    "empty_space_efield", "minkowski_two_point", "Particle", "effective_temperature",
    "falling_time", "displacement_bound", "separation_threshold", "physicalize",
    "length_to_natural", "time_to_natural", "natural_to_meters", "validity_check",
}


def test_the_gates_cover_every_export_that_takes_numbers():
    assert _GATED | _NOT_NUMERIC == set(pv.__all__)


def _finite_or_typed(func, *args):
    """func(*args) checked to be finite; None when it raises a PlatevacError."""
    try:
        out = func(*args)
    except PlatevacError:
        return None
    assert math.isfinite(float(out)), (func.__name__, args, out)
    if isinstance(out, ReducedValue):
        assert math.isfinite(out.tail_estimate), (func.__name__, args, out)
    return out


def _particle(drawn):
    return Particle(*drawn) if isinstance(drawn, tuple) else drawn


def _point(a, z_over_a, t_over_a):
    return EvalPoint(Geometry(a, a * z_over_a), a * t_over_a)


@_GATE
@given(x=_SIGNED, t=st.one_of(_LENGTHS, st.floats(-4.0, 4.0).map(lambda e: 10.0**e)),
       relative=st.booleans(), kind=_KINDS, axis=_AXES)
def test_single_image_routes(x, t, relative, kind, axis):
    if relative:  # t in units of |x|, often near the light cone
        t *= abs(x)
    for func in (pv.velocity_kernel_parallel, pv.velocity_kernel_normal,
                 pv.position_kernel_parallel, pv.position_kernel_normal,
                 pv.correlator_term_parallel, pv.correlator_term_normal):
        _finite_or_typed(func, x, t)
    _finite_or_typed(pv.single_plate_reference, kind, abs(x), t)
    if not relative or t <= 5.0 * abs(x):
        _finite_or_typed(pv.image_velocity_integral, axis, x, t)
        _finite_or_typed(pv.image_position_integral, axis, x, t)


@_GATE
@given(a=_LENGTHS, z_over_a=_Z_OVER_A, t_over_a=st.floats(0.0, 50.0), kind=_KINDS)
def test_image_sums(a, z_over_a, t_over_a, kind):
    z, t = a * z_over_a, a * t_over_a
    for func in (pv.efield_correlator_parallel, pv.efield_correlator_normal):
        _finite_or_typed(func, z, a, t)
    _finite_or_typed(pv.image_sum_quartic, z, a)
    try:
        point = _point(a, z_over_a, t_over_a)
    except GeometryError:
        return
    _finite_or_typed(pv.dispersion_exact, kind, point)
    _finite_or_typed(pv.amplification_ratio, point)
    assert pv.recommend_regime(point) in ("large_a", "intermediate", "large_t")
    try:
        report = pv.singularity_report(point.geometry.z, a, point.t)
    except PlatevacError:
        return
    assert report.distance >= 0.0  # inf at t = 0 and where t is below the float range's reach


@settings(derandomize=True, deadline=None, max_examples=60)
@given(a=_LENGTHS, z_over_a=_Z_OVER_A, zp_over_a=_Z_OVER_A, dt_over_a=st.floats(0.0, 50.0),
       dx_over_a=st.floats(-20.0, 20.0), mu=st.integers(0, 3), nu=st.integers(0, 3))
def test_photon_two_point(a, z_over_a, zp_over_a, dt_over_a, dx_over_a, mu, nu):
    _finite_or_typed(pv.renormalized_photon_two_point, mu, nu, a * dt_over_a, a * dx_over_a,
                     0.5 * a * dx_over_a, a * z_over_a, a * zp_over_a, a)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(a=_LENGTHS, z_over_a=_Z_OVER_A, t_over_a=st.floats(0.0, 5.0), kind=_KINDS)
def test_oracle(a, z_over_a, t_over_a, kind):
    try:
        point = _point(a, z_over_a, t_over_a)
    except GeometryError:
        return
    _finite_or_typed(pv.dispersion_via_quadrature, kind, point)


@_GATE
@given(a=_LENGTHS, z_over_a=_Z_OVER_A, late=st.floats(1.0, 6.0), early=st.floats(-6.0, 0.0),
       kind=_KINDS)
def test_asymptotic_routes(a, z_over_a, late, early, kind):
    _finite_or_typed(pv.midpoint_extremal, kind, a, a * 10.0**late)
    try:
        late_point = _point(a, z_over_a, 10.0**late)
        early_point = _point(a, z_over_a, 0.4 * min(z_over_a, 1.0 - z_over_a) * 10.0**early)
    except GeometryError:
        return
    _finite_or_typed(pv.approx_large_t, kind, late_point)
    for func in (pv.approx_large_a, pv.approx_large_a_far):
        _finite_or_typed(func, kind, early_point)


@_GATE
@given(parts=st.tuples(_SIGNED, _SIGNED, _SIGNED, _SIGNED), mu=st.integers(0, 3),
       nu=st.integers(0, 3))
def test_free_space_parts(parts, mu, nu):
    _finite_or_typed(pv.empty_space_efield, parts[0])
    _finite_or_typed(pv.minkowski_two_point, mu, nu, *parts)


@_GATE
@given(length=_LENGTHS, value=_SIGNED, drawn=_PARTICLES, kind=_KINDS, kappa=_LENGTHS,
       unit=st.sampled_from(("m", "cm", "mm", "um", "nm", "A")))
def test_physical_scales(length, value, drawn, kind, kappa, unit):
    particle = _particle(drawn)
    for func in (pv.effective_temperature, pv.falling_time, pv.displacement_bound):
        _finite_or_typed(func, length, particle)
    _finite_or_typed(pv.separation_threshold, particle, kappa)
    _finite_or_typed(pv.physicalize, value, kind, particle)
    _finite_or_typed(pv.length_to_natural, length, unit)
    _finite_or_typed(pv.time_to_natural, length, "s")
    _finite_or_typed(pv.natural_to_meters, value)


@_GATE
@given(a=_LENGTHS, z_over_a=_Z_OVER_A, t_over_a=st.floats(0.0, 50.0), drawn=_PARTICLES,
       safety=st.one_of(st.sampled_from((0.0, -1.0)),
                        st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
def test_validity_check(a, z_over_a, t_over_a, drawn, safety):
    try:
        report = pv.validity_check(_point(a, z_over_a, t_over_a), _particle(drawn), safety)
    except PlatevacError:
        return
    for check in report["checks"]:
        assert math.isfinite(check["value"]) and math.isfinite(check["limit"]), report


_KERNELS = (
    (pv.velocity_kernel_parallel, 2), (pv.velocity_kernel_normal, 2),
    (pv.position_kernel_parallel, 0), (pv.position_kernel_normal, 0),
    (pv.correlator_term_parallel, 4), (pv.correlator_term_normal, 4),
)


def _normal(value):
    return sys.float_info.min <= abs(value) < math.inf


def _normal_value(func, *args):
    """func(*args) if it is a normal float; None if it raises, is 0 or is subnormal."""
    try:
        value = func(*args)
    except PlatevacError:
        return None
    return value if _normal(value) else None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(x=_SIGNED, t_over_x=st.floats(-100.0, 100.0).map(lambda e: 10.0**e),
       k=st.integers(-1000, 1000), case=st.sampled_from(_KERNELS))
def test_single_images_scale_with_their_dimension(x, t_over_x, k, case):
    # At (2**k x, 2**k t) a value of dimension length**-p is 2**(-p k) times the one at (x, t),
    # wherever the scaling is exact and both values are normal floats.
    func, p = case
    t = abs(x) * t_over_x
    try:
        xs, ts = math.ldexp(x, k), math.ldexp(t, k)
    except OverflowError:
        return
    if not all(map(_normal, (x, t, xs, ts))):
        return
    here, there = _normal_value(func, x, t), _normal_value(func, xs, ts)
    if here is None or there is None:
        return
    assert there == pytest.approx(math.ldexp(here, -p * k), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "func, args, expected",
    [
        (pv.velocity_kernel_normal, (1e-200, 0.3), GeometryError),
        (pv.approx_large_t, ("dv2-normal", EvalPoint(Geometry(1.0, 1e-200), 100.5)), GeometryError),
        (pv.correlator_term_parallel, (1e200, 0.3), -0.0),
        (pv.displacement_bound, (1e200,), GeometryError),
        (pv.length_to_natural, (1e303, "m"), GeometryError),
        (pv.time_to_natural, (1e301, "s"), GeometryError),
        (pv.separation_threshold, (ELECTRON, 1e160), GeometryError),
    ],
)
def test_extreme_finite_inputs_give_a_value_or_a_float_range_error(func, args, expected):
    if expected is GeometryError:
        with pytest.raises(GeometryError, match="float range"):
            func(*args)
    else:
        assert func(*args) == expected


def _mp_single_image(func, x, t):
    """The closed form of a single-image kernel in 700-digit arithmetic."""
    with mpmath.workdps(700):
        x, t = mpmath.mpf(x), mpmath.mpf(t)
        u = t / (2 * x)
        lam, log = mpmath.atanh(1 / u), mpmath.log(u * u - 1)
        return float({
            pv.velocity_kernel_parallel: (u * u / (8 * (u * u - 1)) - u * lam / 8) / (x * x),
            pv.velocity_kernel_normal: u * lam / 4 / (x * x),
            pv.position_kernel_parallel: (u * u - u**3 * lam + log) / 6,
            pv.position_kernel_normal: (u * u + 2 * u**3 * lam + log) / 6,
        }[func])


@pytest.mark.parametrize(
    "func, x, t",
    [
        (pv.velocity_kernel_parallel, 1e-300, 1e10),  # u = t/2x beyond the float range
        (pv.position_kernel_parallel, 1e-300, 1e10),
        (pv.velocity_kernel_normal, 1e-20, 1e300),
        (pv.velocity_kernel_parallel, 1e-200, 1.0),  # u in range, u**2 beyond it
        (pv.position_kernel_normal, 1e-110, 1.0),  # u**3 beyond it
        (pv.position_kernel_parallel, 1e-100, 2.0),  # u = 1e100, where the far forms begin
        (pv.position_kernel_normal, 1e-100, 2.0),
        (pv.position_kernel_normal, 1e-300, 2.6e-146),  # value in range, (t/x)**2 beyond it
        (pv.position_kernel_normal, 1.0, 3.5e154),
    ],
)
def test_single_images_where_u_leaves_the_float_range(func, x, t):
    assert func(x, t) == pytest.approx(_mp_single_image(func, x, t), rel=4e-16, abs=0.0)
    assert func(-x, t) == func(x, t)


_KERNEL_OF = {
    "dv2-parallel": pv.velocity_kernel_parallel, "dv2-normal": pv.velocity_kernel_normal,
    "dx2-parallel": pv.position_kernel_parallel, "dx2-normal": pv.position_kernel_normal,
}


@pytest.mark.parametrize("z_over_a, t", [
    pytest.param(1e-50, 1.0, id="1e-50"),
    pytest.param(1e-120, 1.0, id="1e-120"),
    pytest.param(1e-160, 1.0, id="1e-160"),
    pytest.param(1e-300, 1.0, id="1e-300"),
    # t << a, where z**2 is below the normal floats: (2z)**2 has a few bits or none
    pytest.param(1.6176922489491105e-162, 6.7312787295871e-67, id="1.6e-162-t6.7e-67"),
    pytest.param(1e-160, 1e-100, id="1e-160-t1e-100"),
    pytest.param(1e-160, 2.6e-6, id="1e-160-t2.6e-6"),  # dx2-normal 8.45e307, (t/z)**2 beyond range
])
@pytest.mark.parametrize("kind", sorted(_KERNEL_OF))
def test_dispersions_next_to_a_plate(kind, z_over_a, t):
    # At a = 1 and t <= 1 the lattice's n = 0 image is the whole sum to double precision:
    # the other images add O(z**2) along the plates and O(1) against 1/z**2 along the
    # normal. It takes the single-image path, so it is single_plate_reference exactly.
    point = EvalPoint(Geometry(1.0, z_over_a), t)
    sign = -1.0 if kind.endswith("parallel") else 1.0
    image = sign * _mp_single_image(_KERNEL_OF[kind], z_over_a, t)
    if math.isinf(image):
        with pytest.raises(GeometryError, match="float range"):
            pv.dispersion_exact(kind, point)
    else:
        assert pv.dispersion_exact(kind, point).value == pytest.approx(image, rel=4e-16, abs=0.0)
        assert pv.dispersion_exact(kind, point).value == pv.single_plate_reference(kind, z_over_a, t)


def _mp_efield(sign, z, a, dt):
    """The E-field correlator as its image lattice summed by mpmath at 40 digits."""
    with mpmath.workdps(40):
        z, a, h = mpmath.mpf(z), mpmath.mpf(a), mpmath.mpf(dt) / 2
        if sign > 0:
            kernel = lambda x: 1 / (16 * (x * x - h * h) ** 2)  # noqa: E731
        else:
            kernel = lambda x: -(x * x + h * h) / (16 * (x * x - h * h) ** 3)  # noqa: E731
        plain = 2 * mpmath.nsum(lambda n: kernel(n * a), [1, mpmath.inf])
        shifted = mpmath.nsum(lambda m: kernel(m * a + z), [-mpmath.inf, mpmath.inf])
        return float((plain + sign * shifted) / mpmath.pi**2)


@pytest.mark.parametrize("z, a, dt", [(5e152, 1e153, 0.3), (5e299, 1e300, 0.3), (0.5, 1e300, 0.3),
                                      (8e307, 1.7e308, 1.7e308)])
@pytest.mark.parametrize("sign, func", [(-1, pv.efield_correlator_parallel),
                                        (1, pv.efield_correlator_normal)])
def test_efield_correlators_at_a_huge_gap(sign, func, z, a, dt):
    # Next to z = a/2 the value, about a**-4, underflows to 0; at z = 0.5 it is the n = 0
    # image. At a = 1.7e308 the phases and 2 pi dt/a are formed without leaving the range.
    expected = _mp_efield(sign, z, a, dt)
    got = func(z, a, dt)
    assert abs(got.value - expected) <= got.tail_estimate
    assert (got.value == 0.0) == (expected == 0.0)


def _mp_efield_closed(sign, z, a, dt):
    """The E-field correlator from h-derivatives of the cotangent form of
    sum_m 1/((m a + delta)**2 - h**2), h = dt/2, at 60 digits."""
    with mpmath.workdps(60):
        z, a, h = mpmath.mpf(z), mpmath.mpf(a), mpmath.mpf(dt) / 2

        def lattice(delta):
            def f(k):
                arg = mpmath.pi / a
                return arg / (2 * k) * (mpmath.cot(arg * (delta - k)) - mpmath.cot(arg * (delta + k)))

            d1, d2 = mpmath.diff(f, h, 1), mpmath.diff(f, h, 2)
            # sum 1/(x**2 - h**2)**2 and sum (x**2 + h**2)/(x**2 - h**2)**3
            return d1 / (2 * h) if sign > 0 else d1 / (4 * h) + d2 / 4

        return float((lattice(z) + sign * lattice(0) - 1 / h**4) / (16 * mpmath.pi**2))


@pytest.mark.parametrize("z, a, dt, window", [(0.3, 1.0, 2e12 + 0.37, 1e-14),
                                              (0.7, 1.1, 3e13 + 1.1, 1e-15),
                                              (0.49999951, 1.0, 2.0 * 1000.49999953, 1e-12),
                                              (0.4999999993, 1.0, 2.0 * 1000.4999999991, 1e-14),
                                              # n a + z rounds to t/2, 2.5e-17 (relative) off it
                                              (0.3, 1.0, 4e15 + 0.5, 1e-17)])
@pytest.mark.parametrize("sign, func", [(-1, pv.efield_correlator_parallel),
                                        (1, pv.efield_correlator_normal)])
def test_efield_correlators_keep_their_phases(sign, func, z, a, dt, window):
    # At t/a ~ 1e13 each phase spans ~1e13 half-periods; a reduction that rounds n a or
    # z - n a loses about eps t/a of it, up to 1e-4 of the value here. In the last two,
    # z and t/2 lie next to a/2 modulo a: cos(pi z/a) and cos(pi t/2a) lose digits unless
    # they too are reduced phases, and z + t/2 lands 2e-9 a from a cone, which only the
    # exact sum of the two reduced phases resolves.
    expected = _mp_efield_closed(sign, z, a, dt)
    got = func(z, a, dt, window=window)
    assert abs(got.value - expected) <= got.tail_estimate
    assert got.n_used == 0


def _mp_late_law(kind, a, z, t):
    """The late-time law of approx_large_t at 60 digits, its phases formed from the
    float inputs exactly."""
    with mpmath.workdps(60):
        a, z, t = mpmath.mpf(a), mpmath.mpf(z), mpmath.mpf(t)
        x, theta = mpmath.pi * t / (2 * a), mpmath.pi * z / a

        def contrast(f):
            return 2 * f(x) - f(x - theta) - f(x + theta)

        def log_2sin(y):
            return mpmath.log(abs(2 * mpmath.sin(y)))

        plateau = (mpmath.pi / (2 * a)) ** 2 * (mpmath.mpf(1) / 3 + mpmath.csc(theta) ** 2)
        if kind == "dv2-normal":
            law = plateau
        elif kind == "dx2-normal":
            law = plateau * t * t / 2
        elif kind == "dv2-parallel":
            law = (mpmath.pi / (8 * a * t) * contrast(mpmath.cot) - 1 / (3 * t * t)
                   + contrast(log_2sin) / (4 * t * t))
        else:
            law = (-mpmath.log(mpmath.pi * t / (2 * a * mpmath.sin(theta))) / 3
                   + mpmath.mpf(1) / 18 + contrast(log_2sin) / 4
                   - a / (4 * mpmath.pi * t) * contrast(lambda y: mpmath.clsin(2, 2 * y)))
        return float(law)


_EPS = 2.0**-52


@pytest.mark.parametrize("a, z, t, window", [(1.0, 0.3, 1e6 + 0.6 + 1e-7, 1e-14),
                                             (1.0, 0.3, 1e9 + 0.6 + 1e-5, 1e-15),
                                             (1.0, 0.3, 2e12 + 0.603, 1e-16),
                                             (1.1, 0.7, 3e13 + 1.1, 1e-15),
                                             # next to either plate, where the contrasts
                                             # are products, not second differences
                                             (0.9422663426890888, 6.079787490419526e-10,
                                              344348.43745660206, 1e-6),
                                             (1.0, 1.0 - 1e-12, 1000.37, 1e-6)])
@pytest.mark.parametrize("kind", sorted(_KERNEL_OF))
def test_late_laws_keep_their_phases(kind, a, z, t, window):
    # As in the E-field correlators, each phase t/2 and t/2 -/+ z is reduced modulo a
    # exactly. Rounding n a instead loses about eps t/a of a phase next to a cone, up to
    # 3e-2 of the dv2-parallel law at t/a = 2e12.
    got = pv.approx_large_t(kind, EvalPoint(Geometry(a, z), t), window=window).value
    assert got == pytest.approx(_mp_late_law(kind, a, z, t), rel=8 * _EPS, abs=0.0)


@pytest.mark.parametrize("z, a", [(1.0 - 1e-12, 1.0), (0.7 - 1e-10, 0.7)])
def test_lattice_closed_forms_next_to_the_far_plate(z, a):
    # sin(pi z/a) formed from z/a next to 1 keeps only the digits of 1 - z/a, 1e-4 of the
    # value at a - z = 1e-12 a; the reduced phase z - a is exact.
    with mpmath.workdps(50):
        p = mpmath.pi * mpmath.mpf(z) / mpmath.mpf(a)
        quartic = (mpmath.pi / a) ** 4 * (mpmath.cot(p) ** 2 + mpmath.mpf(1) / 3) / mpmath.sin(p) ** 2
    assert pv.image_sum_quartic(z, a) == pytest.approx(float(quartic), rel=4 * _EPS, abs=0.0)
    point = EvalPoint(Geometry(a, z), 1000.37 * a)
    for kind in ("dv2-normal", "dx2-normal"):
        expected = _mp_late_law(kind, a, z, point.t)
        assert pv.approx_large_t(kind, point).value == pytest.approx(expected, rel=4 * _EPS, abs=0.0)


@pytest.mark.parametrize("window", [0.0, 1e-17])
@pytest.mark.parametrize("a, z, t", [(1.580852151603986, 0.0704546928538603, 2097151.9999998556),
                                     (1.2343307025762966, 0.2751457083717259, 2097151.9999997627),
                                     (1.7800763142277345, 1.0938880301004785, 2097151.9999998037),
                                     (1.9355868950784179, 1.1021923064336967, 2097151.9999997907)])
def test_exact_cones_the_float_scan_misses_are_rejected(a, z, t, window, capsys):
    # t/2 = n a -/+ z exactly, while a scan of the rounded offsets reads t one ulp off
    # that cone. The scan reduces t/2 -/+ z exactly, so every lattice route rejects it.
    report = pv.singularity_report(z, a, t, window)
    assert report.is_near and report.distance == 0.0
    half, n = Fraction(t) / 2, report.n
    assert half in (n * Fraction(a) - Fraction(z), n * Fraction(a) + Fraction(z))
    point = EvalPoint(Geometry(a, z), t)
    calls = [lambda: pv.efield_correlator_parallel(z, a, t, window=window),
             lambda: pv.efield_correlator_normal(z, a, t, window=window)]
    for kind in ALL_KINDS:
        for route in (pv.dispersion_exact, pv.approx_large_t, pv.dispersion_via_quadrature):
            calls.append(lambda route=route, kind=kind: route(kind, point, window=window))
    for call in calls:
        with pytest.raises(pv.SingularWindowError) as caught:
            call()
        got = caught.value.report
        assert (got.distance, got.family, got.n) == (0.0, report.family, n)
    argv = ["eval", "--quantity", "dv2-parallel", "--a", repr(a), "--z", repr(z), "--t", repr(t)]
    assert cli.main([*argv, "--window", repr(window)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("k", [-1000, -600, 0, 530, 1000])
def test_the_amplification_ratio_is_scale_free(k):
    # the two dispersions it divides underflow to subnormals from a ~ 1e154 on
    here = EvalPoint(Geometry(1.0, 0.3), 0.7)
    there = EvalPoint(Geometry(math.ldexp(1.0, k), math.ldexp(0.3, k)), math.ldexp(0.7, k))
    assert pv.amplification_ratio(there) == pv.amplification_ratio(here)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_points_and_particles_must_be_finite(bad):
    with pytest.raises(GeometryError, match="finite"):
        EvalPoint(Geometry(1.0, 0.5), bad)
    with pytest.raises(GeometryError):
        Particle("drawn", bad)
