"""Unit conversions, physical scales, and the amplification ratio."""

import math

import pytest

from platevac import (
    ALPHA,
    ELECTRON,
    GeometryError,
    PARTICLES,
    PROTON,
    Particle,
    amplification_ratio,
    displacement_bound,
    effective_temperature,
    falling_time,
    length_to_natural,
    natural_to_meters,
    physicalize,
    separation_threshold,
    time_to_natural,
    validity_check,
)
from platevac.physics import BOLTZMANN_EV_K, E_SQUARED, HBARC_EV_M
from platevac.quantities import EvalPoint, Geometry


def test_charge_convention():
    assert E_SQUARED == pytest.approx(4.0 * math.pi * ALPHA, rel=1e-15)


def test_length_conversions():
    z = length_to_natural(1.0, "um")
    assert z == pytest.approx(1e-6 / HBARC_EV_M, rel=1e-12)
    assert natural_to_meters(z) == pytest.approx(1e-6, rel=1e-12)
    assert length_to_natural(1.0, "A") == pytest.approx(1e-10 / HBARC_EV_M, rel=1e-12)
    with pytest.raises(GeometryError):
        length_to_natural(1.0, "furlong")


def test_time_conversion():
    assert time_to_natural(1.0, "s") == pytest.approx(299792458.0 / HBARC_EV_M, rel=1e-12)
    with pytest.raises(GeometryError):
        time_to_natural(1.0, "min")


def test_particles():
    assert PARTICLES["electron"] is ELECTRON
    assert PROTON.mass_ev > 1800 * ELECTRON.mass_ev
    with pytest.raises(GeometryError):
        Particle("ghost", -1.0)


def test_physicalize_prefactor():
    pref = 4.0 * ALPHA / (math.pi * ELECTRON.mass_ev**2)
    assert physicalize(2.0, ("parallel", "velocity"), ELECTRON) == pytest.approx(
        2.0 * pref, rel=1e-14
    )
    assert physicalize(2.0, ("normal", "position"), ELECTRON) == pytest.approx(
        2.0 * pref * HBARC_EV_M**2, rel=1e-14
    )


def test_effective_temperature():
    z = length_to_natural(1.0, "um")
    expect = ALPHA / (math.pi * BOLTZMANN_EV_K * ELECTRON.mass_ev * z * z)
    assert effective_temperature(z) == pytest.approx(expect, rel=1e-13)
    # inverse-square distance scaling
    assert effective_temperature(z / 2.0) == pytest.approx(4.0 * expect, rel=1e-13)
    with pytest.raises(GeometryError):
        effective_temperature(0.0)


def test_falling_time_and_thresholds():
    z0 = 3.0
    assert falling_time(z0) == pytest.approx(
        math.sqrt(ELECTRON.mass_ev * z0**3 / E_SQUARED), rel=1e-13
    )
    assert separation_threshold() == pytest.approx(
        8.0 * E_SQUARED / ELECTRON.mass_ev, rel=1e-13
    )
    assert separation_threshold(kappa=2.0) == pytest.approx(
        4.0 * separation_threshold(), rel=1e-13
    )
    # frozen value in meters for the electron
    assert natural_to_meters(separation_threshold()) == pytest.approx(
        2.8329025997950388e-13, rel=1e-9
    )
    assert displacement_bound(2.0) == pytest.approx(4.0 * ELECTRON.mass_ev, rel=1e-13)
    for call in (
        lambda: falling_time(0.0),
        lambda: separation_threshold(kappa=0.0),
        lambda: displacement_bound(0.0),
    ):
        with pytest.raises(GeometryError):
            call()


def test_amplification_plateau():
    # two plates at late times versus one plate: ratio tends to pi**2/3
    pt = EvalPoint(Geometry(1.0, 0.5), 1000.5)
    ratio = amplification_ratio(pt)
    assert abs(ratio - math.pi**2 / 3.0) < 1e-4
    for t in (10.5, 30.5, 100.5, 300.5):
        assert amplification_ratio(EvalPoint(Geometry(1.0, 0.5), t)) > 1.0


def test_validity_check_flags():
    a = length_to_natural(1.0, "um")
    ok = validity_check(EvalPoint(Geometry(a, a / 2.0), 1.0))
    assert ok["ok"] is True
    assert {c["name"] for c in ok["checks"]} == {"displacement", "falling", "separation"}

    # displacement bound fails once t exceeds m z**2 / safety
    z = a / 2.0
    too_long = validity_check(EvalPoint(Geometry(a, z), ELECTRON.mass_ev * z * z))
    assert too_long["ok"] is False
    names = {c["name"]: c["ok"] for c in too_long["checks"]}
    assert names["displacement"] is False

    # an atom-scale gap is narrower than the separation threshold
    tiny_a = separation_threshold() / 4.0
    narrow = validity_check(EvalPoint(Geometry(tiny_a, tiny_a / 2.0), tiny_a / 100.0))
    names = {c["name"]: c["ok"] for c in narrow["checks"]}
    assert names["separation"] is False


def test_scales_beyond_the_float_range_are_geometry_errors():
    with pytest.raises(GeometryError, match="float range"):
        effective_temperature(1e-200)  # z * z underflows
    with pytest.raises(GeometryError, match="float range"):
        effective_temperature(5e-161)  # the temperature overflows
    with pytest.raises(GeometryError, match="float range"):
        falling_time(1e300)
    # at t = 0 both dispersions vanish and their ratio is undefined
    with pytest.raises(GeometryError, match="undefined"):
        amplification_ratio(EvalPoint(Geometry(1.0, 0.5), 0.0))
