"""Acceptance gate: one test and one printed verdict line per criterion.

Criteria 7, 8 and 11 compare against published reference numbers that
the exact machinery here does not reproduce; those tests state the
measured values in their failure messages rather than loosening the
stated tolerances. The pinned late times t = 10**2 a and t = 10**3 a sit
exactly on image light cones (t = 2 n a), so the nearest admissible
times 100.5 a and 1000.5 a stand in for them.
"""

import math
import time

import numpy as np
import pytest

from platevac import (
    dispersion_exact,
    dispersion_via_quadrature,
    effective_temperature,
    image_position_integral,
    image_sum_quartic,
    image_velocity_integral,
    length_to_natural,
    midpoint_extremal,
    natural_to_meters,
    position_kernel_normal,
    position_kernel_parallel,
    singularity_report,
    single_plate_reference,
    velocity_kernel_normal,
    velocity_kernel_parallel,
)
from platevac.physics import amplification_ratio, separation_threshold
from platevac.quantities import ALL_KINDS, DispersionKind, EvalPoint, Geometry


VZ = DispersionKind("normal", "velocity")
VX = DispersionKind("parallel", "velocity")


def _verdict(num, ok, detail):
    print(f"CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_kernel_quadrature_grid():
    t_start = time.time()
    closed = {
        ("parallel", "velocity"): (image_velocity_integral, velocity_kernel_parallel),
        ("normal", "velocity"): (image_velocity_integral, velocity_kernel_normal),
        ("parallel", "position"): (image_position_integral, position_kernel_parallel),
        ("normal", "position"): (image_position_integral, position_kernel_normal),
    }
    worst = 0.0
    worst_ft = 0.0
    for (axis, obs), (quad, kern) in closed.items():
        for x in (0.5, 1.0, 2.0):
            for ratio in (0.1, 0.5, 1.5):
                t = ratio * x
                rel = abs(quad(axis, x, t) - kern(x, t)) / abs(kern(x, t))
                worst = max(worst, rel)
                if (axis, obs) == ("normal", "velocity"):
                    worst_ft = max(worst_ft, rel)
    elapsed = time.time() - t_start
    ok = worst <= 1e-8 and worst_ft <= 1e-12 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"kernel grid worst rel {worst:.2e} (<=1e-8), normal-velocity worst "
        f"{worst_ft:.2e} (<=1e-12), {elapsed:.2f}s (<10s)",
    )


def test_criterion_02_quadrature_route_agreement():
    pt = EvalPoint(Geometry(1.0, 0.5), 0.3)
    details = []
    worst = 0.0
    for kind in ALL_KINDS:
        exact = dispersion_exact(kind, pt).value
        oracle = dispersion_via_quadrature(kind, pt).value
        rel = abs(oracle - exact) / abs(exact)
        worst = max(worst, rel)
        details.append(f"{kind.token} {rel:.2e}")
    _verdict(2, worst <= 1e-8, f"oracle vs exact at (1, 0.5, 0.3): {', '.join(details)} (<=1e-8)")


def test_criterion_03_reflection_symmetry():
    rng = np.random.default_rng(20260819)
    configs = []
    while len(configs) < 20:
        a = float(rng.uniform(0.5, 2.0))
        z = float(rng.uniform(0.08, 0.46)) * a
        t = float(rng.uniform(0.2, 6.0)) * a
        if singularity_report(z, a, t).distance < 1e-3:
            continue
        configs.append((a, z, t))
    worst = 0.0
    for a, z, t in configs:
        for kind in ALL_KINDS:
            left = dispersion_exact(kind, EvalPoint(Geometry(a, z), t)).value
            right = dispersion_exact(kind, EvalPoint(Geometry(a, a - z), t)).value
            worst = max(worst, abs(left - right) / abs(left))
    _verdict(3, worst <= 1e-12, f"z <-> a-z worst rel {worst:.2e} over 20 configs (<=1e-12)")


def test_criterion_04_single_plate_recovery():
    z, a = 1.0, 1.0e6
    worst = 0.0
    for t in (0.5, 3.0, 10.0):
        pt = EvalPoint(Geometry(a, z), t)
        for kind in ALL_KINDS:
            exact = dispersion_exact(kind, pt).value
            single = single_plate_reference(kind, z, t)
            worst = max(worst, abs(exact - single) / abs(single))
    _verdict(4, worst <= 1e-6, f"a = 1e6 z, t <= 10 z: worst rel {worst:.2e} (<=1e-6)")


def test_criterion_05_wide_gap_formulas():
    from platevac import approx_large_a

    a, z = 1.0, 0.5
    worst1 = 0.0
    worst_ratio = math.inf
    for kind in ALL_KINDS:
        rels = []
        for t in (1e-2 * a, 1e-3 * a):
            pt = EvalPoint(Geometry(a, z), t)
            exact = dispersion_exact(kind, pt).value
            approx = approx_large_a(kind, pt).value
            rels.append(abs(approx - exact) / abs(exact))
        worst1 = max(worst1, rels[0])
        worst_ratio = min(worst_ratio, rels[0] / max(rels[1], 1e-300))
    ok = worst1 <= 1e-4 and worst_ratio >= 50.0
    _verdict(
        5,
        ok,
        f"t = 1e-2 a worst rel {worst1:.2e} (<=1e-4); error shrink x{worst_ratio:.0f} "
        "to t = 1e-3 a (>=x50)",
    )


def test_criterion_06_late_time_formulas():
    a = 1.0
    t_late, t_mid = 1000.5, 100.5  # nearest off-cone stand-ins for 1e3 a, 1e2 a
    details = []
    ok = True
    for kind in ALL_KINDS:
        rels = {}
        for t in (t_late, t_mid):
            exact = dispersion_exact(kind, EvalPoint(Geometry(a, 0.5 * a), t)).value
            approx = midpoint_extremal(kind, a, t).value
            rels[t] = abs(approx - exact) / abs(exact)
        shrink = rels[t_mid] / max(rels[t_late], 1e-300)
        # O((a/t)**2) error: a factor ~(t_late/t_mid)**2 ~ 99, held to >= 25
        kind_ok = rels[t_late] <= 1e-2 and shrink >= 25.0
        ok = ok and kind_ok
        details.append(f"{kind.token} rel {rels[t_late]:.2e} shrink x{shrink:.1f}")
    _verdict(6, ok, "midplane forms at t ~ 1e3 a (<=1e-2, shrink >=x25): " + "; ".join(details))


def test_criterion_07_amplification_ratio():
    ratio = amplification_ratio(EvalPoint(Geometry(1.0, 0.5), 1000.5))
    target = 17.0 / 6.0
    rel = abs(ratio - target) / target
    _verdict(7, rel <= 1e-2, f"measured ratio {ratio:.5f} vs 17/6 = {target:.5f}, rel {rel:.2e} (<=1e-2)")


def test_criterion_08_effective_temperature_numbers():
    t_um = effective_temperature(length_to_natural(1.0, "um"))
    t_ang = effective_temperature(length_to_natural(1.0, "A"))
    rel_um = abs(t_um - 1.7e-6) / 1.7e-6
    rel_ang = abs(t_ang - 1.7e2) / 1.7e2
    ok = rel_um <= 0.03 and rel_ang <= 0.03
    _verdict(
        8,
        ok,
        f"T(1um) = {t_um:.4e} K vs 1.7e-6 (rel {rel_um:.2e}); "
        f"T(1A) = {t_ang:.4e} K vs 1.7e2 (rel {rel_ang:.2e}) (<=0.03)",
    )


def test_criterion_09_quartic_lattice_sum():
    rng = np.random.default_rng(19930427)
    worst = 0.0
    cases = [(0.5, 1.0, math.pi**4 / 3.0), (0.25, 1.0, 8.0 * math.pi**4 / 3.0)]
    for z, a, expect in cases:
        worst = max(worst, abs(image_sum_quartic(z, a) - expect) / expect)
    n = np.arange(-3000, 3001, dtype=float)
    for _ in range(10):
        a = float(rng.uniform(0.5, 2.0))
        z = float(rng.uniform(0.05, 0.95)) * a
        brute = float(np.sum(1.0 / (n * a + z) ** 4))
        worst = max(worst, abs(image_sum_quartic(z, a) - brute) / brute)
    _verdict(9, worst <= 1e-10, f"closed form vs brute force worst rel {worst:.2e} (<=1e-10)")


def test_criterion_10_boundary_behavior():
    t, a = 0.3, 1.0
    par = [
        dispersion_exact(VX, EvalPoint(Geometry(a, 2.0**-k), t)).value for k in range(4, 13)
    ]
    diffs = [abs(b - c) for b, c in zip(par, par[1:])]
    # geometric decay (each halving of z quarters the step) and a last
    # step that is negligible against the limit itself
    par_converges = all(d2 < 0.5 * d1 for d1, d2 in zip(diffs, diffs[1:]))
    par_converges = par_converges and diffs[-1] <= 1e-4 * abs(par[-1])
    z = 2.0**-12
    vz_z2 = dispersion_exact(VZ, EvalPoint(Geometry(a, z), t)).value * z * z
    norm_ok = abs(vz_z2 - 0.25) / 0.25 <= 0.01
    ok = par_converges and norm_ok
    _verdict(
        10,
        ok,
        f"parallel velocity converges toward plate (last step {diffs[-1]:.2e}); "
        f"normal velocity z**2 -> {vz_z2:.7f} vs 1/4 (<=1%)",
    )


def test_criterion_11_separation_threshold():
    got_m = natural_to_meters(separation_threshold())
    target_m = 2.4e-10  # 2.4e-4 um
    ratio = got_m / target_m
    ok = 0.5 <= ratio <= 2.0
    _verdict(
        11,
        ok,
        f"threshold {got_m:.4e} m vs 2.4e-10 m, ratio {ratio:.2e} (within factor 2)",
    )