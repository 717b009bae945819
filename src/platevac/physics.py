"""Physical constants, unit handling and derived physical quantities.

Everything upstream works in natural units (c = hbar = 1) with the
Lorentz-Heaviside charge e**2 = 4 pi alpha, and returns *reduced* values.
The universal prefactor e**2 / (pi**2 m**2) = 4 alpha / (pi m**2) is
applied exactly once, here, by :func:`physicalize`. Lengths and times
convert to natural units (1/eV) through hbar c.
"""

import math
from dataclasses import dataclass

from .dispersions import dispersion_exact, single_plate_reference
from .errors import GeometryError, in_float_range
from .kernels import checked_report, singularity_report
from .quantities import DispersionKind, EvalPoint, Geometry

# CODATA 2018.
ALPHA = 7.2973525693e-3
HBARC_EV_M = 1.973269804e-7  # hbar c in eV m
BOLTZMANN_EV_K = 8.617333262e-5  # k_B in eV / K
SPEED_OF_LIGHT_M_S = 299792458.0

E_SQUARED = 4.0 * math.pi * ALPHA  # Lorentz-Heaviside


@dataclass(frozen=True)
class Particle:
    name: str
    mass_ev: float

    def __post_init__(self):
        if not (0.0 < self.mass_ev < math.inf):
            raise GeometryError(f"particle mass must be positive and finite, got {self.mass_ev}")


ELECTRON = Particle("electron", 510998.95)
PROTON = Particle("proton", 938272088.16)
PARTICLES = {p.name: p for p in (ELECTRON, PROTON)}

_LENGTH_UNITS_M = {
    "m": 1.0,
    "cm": 1e-2,
    "mm": 1e-3,
    "um": 1e-6,
    "nm": 1e-9,
    "A": 1e-10,
}


def length_to_natural(value, unit):
    """Convert a length in the given unit to natural units (1/eV)."""
    try:
        meters = value * _LENGTH_UNITS_M[unit]
    except KeyError:
        raise GeometryError(
            f"unknown length unit {unit!r}; expected one of {sorted(_LENGTH_UNITS_M)}"
        ) from None
    return in_float_range(meters / HBARC_EV_M, f"length {value} {unit}")


def natural_to_meters(value):
    return value * HBARC_EV_M


def time_to_natural(value, unit):
    """Convert a time in seconds to natural units (1/eV)."""
    if unit != "s":
        raise GeometryError(f"unknown time unit {unit!r}; expected 's'")
    return in_float_range(value * SPEED_OF_LIGHT_M_S / HBARC_EV_M, f"time {value} s")


def physicalize(value, kind, particle):
    """Apply the universal prefactor 4 alpha / (pi m**2) exactly once.

    Velocity dispersions come back dimensionless, as (v/c)**2; position
    dispersions come back in meters squared. ``value`` must be reduced
    and computed from geometry in natural units.
    """
    kind = DispersionKind.coerce(kind)
    out = float(value) / particle.mass_ev / particle.mass_ev * (4.0 * ALPHA / math.pi)
    if kind.observable == "position":
        out *= HBARC_EV_M**2
    return in_float_range(out, "physical value")


def effective_temperature(z, particle=ELECTRON):
    """Temperature whose thermal velocity spread matches the plate-induced one.

    (alpha / pi) / (k_B m z**2) for a particle held at natural-unit
    distance z from a single plate; in kelvin.
    """
    if z <= 0.0:
        raise GeometryError(f"plate distance must be positive, got z={z}")
    kelvin = ALPHA / math.pi / BOLTZMANN_EV_K / particle.mass_ev / z / z
    return in_float_range(kelvin, f"effective temperature at z={z}")


def falling_time(z0, particle=ELECTRON):
    """Classical image-attraction fall time from rest at distance z0.

    z0 sqrt(m z0 / e**2) in natural units; the image force is
    -e**2 / (4 z)**2 ~ treated at its initial magnitude, so this sets the
    scale on which the particle reaches the plate.
    """
    if z0 <= 0.0:
        raise GeometryError(f"initial distance must be positive, got z0={z0}")
    return in_float_range(z0 * math.sqrt(particle.mass_ev * z0 / E_SQUARED), "fall time")


def separation_threshold(particle=ELECTRON, kappa=1.0):
    """Smallest separation keeping the midplane fall time >= kappa * a.

    Setting sqrt(m (a/2)**3 / e**2) >= kappa a gives
    a >= 8 kappa**2 e**2 / m; returned in natural units.
    """
    if kappa <= 0.0:
        raise GeometryError(f"kappa must be positive, got {kappa}")
    return in_float_range(8.0 * E_SQUARED / particle.mass_ev * kappa * kappa, "separation threshold")


def displacement_bound(z, particle=ELECTRON):
    """Largest time with position spread safely below z: t <= m z**2."""
    if z <= 0.0:
        raise GeometryError(f"plate distance must be positive, got z={z}")
    return in_float_range(particle.mass_ev * z * z, f"displacement bound at z={z}")


def amplification_ratio(point):
    """Two-plate normal velocity dispersion over its single-plate value.

    The single plate is the one at 0, the farther one for z > a/2: the late
    ratio is (pi z/a)**2 (1/3 + csc(pi z/a)**2), 9.0 at z = 0.7a and 86.4 at
    0.9a. Against the nearer plate, at d = min(z, a - z), it is
    (pi d/a)**2 (1/3 + csc(pi z/a)**2), at most pi**2/3 at the midplane.

    Both reduced, same z and t, so the universal prefactor cancels; both
    are taken at the point scaled exactly by the power of two that brings
    a into [1/2, 1). Where the single-plate value is 0, as at t = 0, the
    ratio is undefined and GeometryError is raised.
    """
    kind = DispersionKind("normal", "velocity")
    geom, e = point.geometry, -math.frexp(point.geometry.a)[1]
    checked_report(singularity_report(geom.z, geom.a, point.t), point.t)  # errors name this t
    z, t = math.ldexp(geom.z, e), math.ldexp(point.t, e)
    plates = dispersion_exact(kind, EvalPoint(Geometry(math.ldexp(geom.a, e), z), t)).value
    single = single_plate_reference(kind, z, t)
    if single == 0.0:
        raise GeometryError(
            f"amplification ratio undefined at t={point.t}: the single-plate value is 0"
        )
    return plates / single


def validity_check(point, particle=ELECTRON, safety=10.0):
    """Flag whether the free Langevin treatment applies at this point.

    Three scales must dominate t with the given safety factor: the
    displacement bound m z**2 for both plate distances, and the classical
    fall time from the nearer plate. The separation itself must exceed
    the fall-time threshold. Returns a JSON-friendly dict.
    """
    if not (0.0 < safety < math.inf):
        raise GeometryError(f"safety factor must be positive and finite, got {safety}")
    geom, t = point.geometry, point.t
    z_near = min(geom.z, geom.zbar)
    # (name, description, value, limit, whether the value must stay below the limit)
    table = (
        ("displacement", "position spread below plate distance: t << m z**2",
         t, displacement_bound(z_near, particle) / safety, True),
        ("falling", "image attraction has not pulled the particle in",
         t, falling_time(z_near, particle) / safety, True),
        ("separation", "gap wide enough that crossing times fit the fall time",
         geom.a, separation_threshold(particle) * safety, False),
    )
    checks = [
        dict(name=name, description=description, limit=in_float_range(limit, f"{name} limit"),
             value=value, ok=value <= limit if below else value >= limit)
        for name, description, value, limit, below in table
    ]
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}
