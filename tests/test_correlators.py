"""Field correlators: frozen midplane values, boundary limits, brute-force sums."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from platevac import (
    GeometryError,
    SingularWindowError,
    correlator_term_normal,
    correlator_term_parallel,
    efield_correlator_normal,
    efield_correlator_parallel,
    empty_space_efield,
    minkowski_two_point,
    renormalized_photon_two_point,
    singularity_report,
)
from platevac.correlators import _grouped_image_sum, _k_normal, _k_parallel
from platevac.kernels import _K, horizon

_EPS = np.finfo(float).eps
# (correlator, raw kernel, shifted-family sign, large-offset series (c_k, m) of the raw
# kernel: K = sum_k c_k (dt/2)**2k x**-(2k+4)). Here |c_{k+1}/c_k| = ((k+2)/(k+1))**p, p = 2
# and 1, above the engine's 1, so its bound on the terms past k = 39 falls short by up to 7%
# of itself: at most 4e-16 of the whole tail estimate at 126 points per kernel of their range.
_EFIELDS = {
    "parallel": (efield_correlator_parallel, _k_parallel, -1.0, (-((_K + 1.0) ** 2) / 16, 0)),
    "normal": (efield_correlator_normal, _k_normal, 1.0, ((_K + 1.0) / 16, 0)),
}


def _sensitivity(fvec, sign, a, z, N, h):
    """Sum of |f| + |x f'(x)| over the images of shells 0..N, weights taken in modulus:
    rounding an offset x to a float moves its term by up to eps |x f'(x)|. f' is a central
    difference with a step 1e-4 of the distance to x = 0 or to the cone x = h, whichever
    is nearer."""
    base = np.arange(1, N + 1, dtype=float) * a
    total = 0.0
    for x, weight in [(np.array([z]), sign)] + [(base + s, w) for s, w in ((0.0, 2.0), (z, sign),
                                                                           (-z, sign))]:
        step = 1e-4 * np.minimum(x, np.abs(x - h))
        x_df = x * (fvec(x + step) - fvec(x - step)) / (2.0 * step)
        total += abs(weight) * float(np.sum(np.abs(fvec(x)) + np.abs(x_df)))
    return total


def _image_lattice(name, z, a, dt):
    """pi**2 times the correlator as the engine's image lattice: (value, tail, sensitivity)."""
    _, kvec, sign, series = _EFIELDS[name]
    fvec = lambda x: kvec(4.0 * x * x, dt)  # noqa: E731
    value, tail, n = _grouped_image_sum(fvec, sign, a, z, (*series, 0.5 * dt), horizon(a, z, dt))
    return value, tail, _sensitivity(fvec, sign, a, z, n, 0.5 * dt)


def test_infinite_separation_is_a_geometry_error():
    # a -> infinity is the single-plate limit, not a geometry to sum over
    inf = math.inf
    calls = (
        lambda: efield_correlator_parallel(0.5, inf, 0.3),
        lambda: efield_correlator_normal(0.5, inf, 0.3),
        lambda: renormalized_photon_two_point(0, 0, 0.3, 0.0, 0.0, 0.5, 0.4, inf),
    )
    for call in calls:
        with pytest.raises(GeometryError):
            call()


def test_coincident_term_kernels():
    # equal-time limits of the raw integrands: -+ 1 / (16 x**4)
    for x in (0.5, 1.0, 2.0):
        assert correlator_term_parallel(x, 0.0) == pytest.approx(-1.0 / (16.0 * x**4), rel=1e-14)
        assert correlator_term_normal(x, 0.0) == pytest.approx(1.0 / (16.0 * x**4), rel=1e-14)
    with pytest.raises(SingularWindowError):
        correlator_term_parallel(0.5, 1.0)


def test_midplane_equal_time_values():
    # closed-form lattice sums at z = a/2, dt = 0
    exx = efield_correlator_parallel(0.5, 1.0, 0.0)
    ezz = efield_correlator_normal(0.5, 1.0, 0.0)
    assert exx.value == pytest.approx(7.0 * math.pi**2 / 360.0, rel=1e-11)
    assert ezz.value == pytest.approx(math.pi**2 / 45.0, rel=1e-11)
    assert exx.tail_estimate <= 1e-12
    assert ezz.tail_estimate <= 1e-12


def test_reflection_symmetry():
    for fn in (efield_correlator_parallel, efield_correlator_normal):
        left = fn(0.3, 1.0, 0.45).value
        right = fn(0.7, 1.0, 0.45).value
        assert left == pytest.approx(right, rel=5e-13)


def test_tangential_correlator_vanishes_at_plate():
    # renormalized part must cancel the empty-space term as z -> 0
    dt = 0.7
    full3 = efield_correlator_parallel(1e-3, 1.0, dt).value + empty_space_efield(dt)
    full2 = efield_correlator_parallel(1e-2, 1.0, dt).value + empty_space_efield(dt)
    assert abs(full3) < 2e-5
    assert full2 / full3 == pytest.approx(100.0, rel=0.25)  # O(z**2) approach


def test_normal_correlator_coincidence_divergence():
    # ezz(z, dt=0) ~ 1 / (16 pi**2 z**4) near the plate
    for z in (1e-2, 1e-3):
        lead = 1.0 / (16.0 * math.pi**2 * z**4)
        got = efield_correlator_normal(z, 1.0, 0.0).value
        assert got == pytest.approx(lead, rel=1e-6)


def test_empty_space_value():
    dt = 0.7
    assert empty_space_efield(dt) == pytest.approx(1.0 / (math.pi**2 * dt**4), rel=1e-14)
    with pytest.raises(SingularWindowError):
        empty_space_efield(0.0)


def test_minkowski_two_point():
    s2 = 0.4**2 - 0.1**2 - 0.2**2 - 0.1**2
    pref = 1.0 / (4.0 * math.pi**2 * s2)
    assert minkowski_two_point(0, 0, 0.4, 0.1, 0.2, 0.1) == pytest.approx(pref, rel=1e-14)
    assert minkowski_two_point(1, 1, 0.4, 0.1, 0.2, 0.1) == pytest.approx(-pref, rel=1e-14)
    assert minkowski_two_point(0, 1, 0.4, 0.1, 0.2, 0.1) == 0.0
    with pytest.raises(SingularWindowError):
        minkowski_two_point(0, 0, 1.0, 1.0, 0.0, 0.0)


def _brute_two_point(mu, dt, dx, dy, z, zp, a, n_terms=2_000_000):
    eta = (1.0, -1.0, -1.0, -1.0)
    refl = (1.0, -1.0, -1.0, 1.0)
    A = dt * dt - dx * dx - dy * dy
    n = np.arange(-n_terms, n_terms + 1, dtype=float)
    s = z + zp + 2.0 * n * a
    total = -refl[mu] / (4.0 * math.pi**2) * float(np.sum(1.0 / (A - s * s)))
    n = n[n != 0]
    s = z - zp + 2.0 * n * a
    total += eta[mu] / (4.0 * math.pi**2) * float(np.sum(1.0 / (A - s * s)))
    return total


def test_two_point_matches_brute_force():
    # one timelike and one spacelike argument set, off the midplane
    got = renormalized_photon_two_point(0, 0, 0.4, 0.1, 0.2, 0.3, 0.6, 1.0)
    assert got.value == pytest.approx(_brute_two_point(0, 0.4, 0.1, 0.2, 0.3, 0.6, 1.0), abs=1e-12)
    got = renormalized_photon_two_point(1, 1, 2.5, 0.0, 0.0, 0.25, 0.5, 1.0)
    assert got.value == pytest.approx(_brute_two_point(1, 2.5, 0.0, 0.0, 0.25, 0.5, 1.0), abs=1e-12)


@pytest.mark.parametrize("a", [1e5, 1e6, 1e100])
def test_two_point_wide_gap_is_not_mistaken_for_a_light_cone(a):
    # The n = 0 image at y = z + z' is far from its cone |y| = dt; the far
    # images shift the value by O(a**-4), below rounding already at a = 5e4.
    ref = renormalized_photon_two_point(0, 0, 0.3, 0.0, 0.0, 0.5, 0.4, 5e4)
    got = renormalized_photon_two_point(0, 0, 0.3, 0.0, 0.0, 0.5, 0.4, a)
    eps = np.finfo(float).eps
    assert abs(got.value - ref.value) <= got.tail_estimate + ref.tail_estimate + 4 * eps * abs(ref.value)


def test_two_point_midplane_coincident_value():
    # equal-point normal-normal component at the midplane: 1 / (12 a**2)
    for a in (1.0, 2.0):
        got = renormalized_photon_two_point(3, 3, 0.0, 0.0, 0.0, a / 2, a / 2, a)
        assert got.value == pytest.approx(1.0 / (12.0 * a * a), rel=1e-9)
        assert abs(got.value - 1.0 / (12.0 * a * a)) <= 10.0 * got.tail_estimate + 1e-14


def test_two_point_symmetry_and_off_diagonal():
    v1 = renormalized_photon_two_point(1, 1, 0.4, 0.1, 0.2, 0.3, 0.6, 1.0).value
    v2 = renormalized_photon_two_point(1, 1, 0.4, 0.1, 0.2, 0.6, 0.3, 1.0).value
    assert v1 == pytest.approx(v2, abs=1e-15)
    assert renormalized_photon_two_point(0, 3, 0.4, 0.0, 0.0, 0.3, 0.6, 1.0).value == 0.0
    for mu, nu in [(4, 4), (0, 4)]:
        with pytest.raises(GeometryError):
            renormalized_photon_two_point(mu, nu, 0.4, 0.0, 0.0, 0.3, 0.6, 1.0)


@pytest.mark.parametrize("name", sorted(_EFIELDS))
@seed(20041202)
@settings(max_examples=30, deadline=None)
@given(a=st.sampled_from((0.5, 1.0, 2.0)), t_over_a=st.floats(-6.0, 5.4).map(lambda p: 10.0**p),
       z_over_a=st.floats(0.001, 0.999))
@example(a=1.0, t_over_a=0.0, z_over_a=0.3)
@example(a=1.0, t_over_a=1e-6, z_over_a=0.3)
@example(a=2.0, t_over_a=1e-3, z_over_a=0.97)
@example(a=0.5, t_over_a=0.03, z_over_a=0.01)
@example(a=1.0, t_over_a=1e-3, z_over_a=0.9999)  # phases next to pi keep their digits
def test_closed_form_matches_the_image_lattice(name, a, t_over_a, z_over_a):
    # Both sides carry a bound: the lattice its tail and rounding, the closed form
    # its own rounding. 4 eps S allows for the offsets' rounding next to a cone.
    z, dt = a * z_over_a, a * t_over_a
    assume(singularity_report(z, a, dt).distance >= 1e-9)
    lattice, tail, sensitivity = _image_lattice(name, z, a, dt)
    got = _EFIELDS[name][0](z, a, dt, window=1e-9)
    pi2 = math.pi**2
    assert abs(pi2 * got.value - lattice) <= tail + pi2 * got.tail_estimate + 4.0 * _EPS * sensitivity
    assert got.n_used == 0


@pytest.mark.parametrize("name", sorted(_EFIELDS))
@pytest.mark.parametrize("z_over_a", [0.0625, 0.125, 0.375])
def test_late_correlators_are_mirror_symmetric(name, z_over_a):
    # z and a - z (exact in binary here) are one geometry seen from either plate.
    a, dt = 1.0, 1e4 + 0.37
    func = _EFIELDS[name][0]
    near, far = func(a * z_over_a, a, dt), func(a - a * z_over_a, a, dt)
    sensitivity = _image_lattice(name, a * z_over_a, a, dt)[2] / math.pi**2
    allowed = near.tail_estimate + far.tail_estimate + 4.0 * _EPS * sensitivity
    assert abs(near.value - far.value) <= allowed


def test_image_sum_tail_estimate_is_honest():
    # The tail bound at this point is checked against an mpmath reference in
    # test_image_tails; here only the explicit range.
    assert efield_correlator_parallel(0.37, 1.0, 0.21).n_used == 0


@pytest.mark.parametrize("dt, dx", [(math.inf, 0.0), (math.nan, 0.0), (0.3, math.nan), (0.3, math.inf)])
def test_two_point_non_finite_interval_is_a_geometry_error(dt, dx):
    with pytest.raises(GeometryError):
        renormalized_photon_two_point(0, 0, dt, dx, 0.0, 0.5, 0.4, 1.0)


def test_photon_value_carries_its_nearest_cone():
    got = renormalized_photon_two_point(0, 0, 0.9 * (1.0 + 1e-9), 0.0, 0.0, 0.4, 0.5, 1.0)
    report = got.singularity
    assert report.nearest_time == 0.9
    assert (report.family, report.n) == ("shifted", 0)
    assert not report.is_near
    # a space-like interval has no cone to be near
    assert renormalized_photon_two_point(0, 0, 0.3, 0.5, 0.0, 0.4, 0.5, 1.0).singularity is None


def test_free_space_parts_reject_non_finite_input():
    nan, inf = math.nan, math.inf
    calls = (
        lambda: minkowski_two_point(0, 0, nan, 0.0, 0.0, 0.0),
        lambda: minkowski_two_point(0, 0, inf, 0.0, 0.0, 0.0),
        lambda: minkowski_two_point(3, 3, 1.0, 0.0, 0.0, -inf),
        lambda: empty_space_efield(nan),
        lambda: empty_space_efield(-inf),
    )
    for call in calls:
        with pytest.raises(GeometryError):
            call()


@pytest.mark.filterwarnings("error")
def test_free_space_parts_at_extreme_finite_input():
    # a value below the float range is 0 or subnormal; one above it is a GeometryError
    assert empty_space_efield(1e100) == 0.0
    with pytest.raises(GeometryError, match="float range"):
        empty_space_efield(1e-100)
    pref = 1.0 / (4.0 * math.pi**2 * 1e320)
    assert minkowski_two_point(0, 0, 1e160, 0.0, 0.0, 0.0) == pytest.approx(pref, rel=1e-2)
    assert minkowski_two_point(0, 0, 1e160, 0.0, 0.0, 0.0) > 0.0
    with pytest.raises(GeometryError, match="float range"):  # time-like, value ~3e338
        minkowski_two_point(0, 0, 1e-170, 0.0, 0.0, 5e-171)
    for dt in (1e-170, 1.0, 1e160):  # light-like at every scale
        with pytest.raises(SingularWindowError):
            minkowski_two_point(0, 0, dt, 0.0, dt, 0.0)
