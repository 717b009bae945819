"""Asymptotic expansions against the exact sums and against each other."""

import math

import numpy as np
import pytest

from platevac import (
    GeometryError,
    RegimeError,
    SingularWindowError,
    approx_large_a,
    approx_large_a_far,
    approx_large_t,
    dispersion_exact,
    image_sum_quartic,
    midpoint_extremal,
    recommend_regime,
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
    # z << t << a: nearest plate dominates, leading cavity correction kept
    pt = EvalPoint(Geometry(1000.0, 1.0), 100.0)
    tol = {
        ("parallel", "velocity"): 1e-8,
        ("normal", "velocity"): 1e-8,
        ("parallel", "position"): 0.1,  # form drops an O(1) additive constant
        ("normal", "position"): 1e-3,
    }
    for kind in ALL_KINDS:
        exact = dispersion_exact(kind, pt).value
        far = approx_large_a_far(kind, pt).value
        assert abs(far - exact) / abs(exact) < tol[(kind.axis, kind.observable)]


def test_far_plate_guards():
    with pytest.raises(RegimeError):
        approx_large_a_far(VX, EvalPoint(Geometry(50.0, 1.0), 10.0))  # a too small
    with pytest.raises(RegimeError):
        approx_large_a_far(VX, EvalPoint(Geometry(1000.0, 1.0), 900.0))  # t too large
    with pytest.raises(RegimeError):  # position forms also need t >> 2z
        approx_large_a_far(("parallel", "position"), EvalPoint(Geometry(1000.0, 1.0), 5.0))
    approx_large_a_far(VX, EvalPoint(Geometry(1000.0, 1.0), 5.0))


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
