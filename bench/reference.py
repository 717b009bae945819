"""Independent high-precision reference for the benchmark's checks.

Shares no code with platevac. Every value is an image sum in mpmath at
DPS digits, written from the closed kernels as the platevac kernel
documentation states them, with u = t / (2x) and
Lam(u) = artanh(min(u, 1/u)):

    dv2-parallel  F_par(u) / x**2,  F_par  = u**2 / (8 (u**2 - 1)) - (u/8) Lam
    dv2-normal    F_norm(u) / x**2, F_norm = (u/4) Lam
    dx2-parallel  (u**2 -   u**3 Lam + ln|1 - u**2|) / 6
    dx2-normal    (u**2 + 2 u**3 Lam + ln|1 - u**2|) / 6

and from the raw E-field integrands (dt**2 + 4x**2) / (dt**2 - 4x**2)**3
(parallel) and 1 / (dt**2 - 4x**2)**2 (normal). A dispersion is
sign f(z) + sum_{n>=1} [2 f(n a) + sign (f(n a + z) + f(n a - z))] with
sign -1 along the plates and +1 along the normal; a correlator is the same
sum over pi**2.

Terms are summed explicitly up to n = N, where every later offset is at
least t away (u <= 1/2 and beyond), and the rest is a Hurwitz-zeta tail
(DLMF 25.11): past the light cone each kernel is a power series
sum_k c_k (t/2)**p_k x**-(2k+4), so a family n a + d contributes
c_k (t/2)**p_k a**-(2k+4) zeta(2k+4, N + 1 + d/a). The series is cut
when the bound on what is left falls below TARGET of the running value;
the bound uses |c_k| <= (k+1)**2 / 4, a ratio of at most 1/4 between
powers, and zeta(s, q) <= q**-s (1 + q/(s-1)). mpmath.nsum is not used:
its extrapolation, started near the horizon, does not reach the digits
needed.

The photon two-point function has a closed form instead: with
alpha = s/(2a) and beta = sqrt(A)/(2a),
sum_n 1/(A - (s + 2na)**2) = pi (cot pi(beta - alpha) + cot pi(beta + alpha))
/ (8 a**2 beta).

Run ``python3 bench/reference.py --rebuild`` to recompute the late-time
table ``reference_late.json`` that the late-time workload draws from.
"""

import argparse
import json
import math
import random
import sys
from pathlib import Path

import mpmath
from mpmath import mpf

DPS = 30
TARGET = mpf("1e-20")
HERE = Path(__file__).resolve().parent
LATE_TABLE = HERE / "reference_late.json"

KINDS = ("dv2-parallel", "dv2-normal", "dx2-parallel", "dx2-normal")
EFIELDS = ("efield-parallel", "efield-normal")
# Sign of the shifted family: minus along the plates, plus along the normal.
SIGN = {
    "dv2-parallel": -1,
    "dv2-normal": 1,
    "dx2-parallel": -1,
    "dx2-normal": 1,
    "efield-parallel": -1,
    "efield-normal": 1,
}


def _terms(names, x, t):
    """Per-image (term, sensitivity) at offset x (mpf) for each quantity.

    The sensitivity is |x d(term)/dx| + |term|: a relative error eps in
    the offset or in t, as double-precision arithmetic makes when it forms
    n a + z and t / 2x, moves the term by about eps times this much.
    Near a light cone it exceeds |term| by the factor 1 / |1 - u|.
    """
    u = t / (2 * x)
    out = {}
    if any(n in KINDS for n in names):
        lam = mpmath.atanh(min(u, 1 / u))
        u2 = u * u
        one_m = 1 - u2  # d lam / du = 1 / (1 - u**2) on both sides of the cone
        log = None
        for n in names:
            if n == "dv2-parallel":
                f = u2 / (8 * (u2 - 1)) - u * lam / 8
                df = -u / (4 * one_m * one_m) - lam / 8 - u / (8 * one_m)
                out[n] = (f / (x * x), abs(u * df + 2 * f) / (x * x) + abs(f) / (x * x))
            elif n == "dv2-normal":
                f = u * lam / 4
                df = lam / 4 + u / (4 * one_m)
                out[n] = (f / (x * x), abs(u * df + 2 * f) / (x * x) + abs(f) / (x * x))
            elif n in ("dx2-parallel", "dx2-normal"):
                if log is None:
                    log = mpmath.log(abs((1 - u) * (1 + u)))
                c = -1 if n == "dx2-parallel" else 2
                g = (u2 + c * u2 * u * lam + log) / 6
                dg = (2 * u + c * (3 * u2 * lam + u2 * u / one_m) - 2 * u / one_m) / 6
                out[n] = (g, abs(u * dg) + abs(g))
    d = t * t - 4 * x * x
    x2 = x * x
    if "efield-parallel" in names:
        k = (t * t + 4 * x2) / (d * d * d)
        dk = 8 * x2 / (d * d * d) + 24 * x2 * (t * t + 4 * x2) / (d * d * d * d)
        out["efield-parallel"] = (k, abs(dk) + abs(k))
    if "efield-normal" in names:
        k = 1 / (d * d)
        out["efield-normal"] = (k, abs(16 * x2 / (d * d * d)) + abs(k))
    return out


def _coefficient(name, k, half_t):
    """c_k (t/2)**p_k of the x**-(2k+4) term of the large-x series."""
    k1 = k + 1
    if name == "dv2-parallel":
        return -mpf(k1) / (4 * (2 * k + 1)) * half_t ** (2 * k + 2)
    if name == "dv2-normal":
        return mpf(1) / (4 * (2 * k + 1)) * half_t ** (2 * k + 2)
    if name == "dx2-parallel":
        return -mpf(k1) / (2 * (2 * k + 1) * (k + 2)) * half_t ** (2 * k + 4)
    if name == "dx2-normal":
        return mpf(1) / (2 * (2 * k + 1) * (k + 2)) * half_t ** (2 * k + 4)
    if name == "efield-parallel":
        return -mpf(k1 * k1) / 16 * half_t ** (2 * k)
    return mpf(k1) / 16 * half_t ** (2 * k)


def _power(name):
    """p_0: the power of t/2 in the leading tail coefficient."""
    return {"dv2-parallel": 2, "dv2-normal": 2, "dx2-parallel": 4, "dx2-normal": 4}.get(name, 0)


def _explicit_count(a, z, t):
    """Last explicit image index: past it every offset is at least t away."""
    reach = math.ceil((t + z) / a)
    return reach + min(max(reach, 8), 512)


def image_sums(names, a, z, t):
    """Reference image sums for the given quantities at one point.

    Returns {name: (value, error_bound, sensitivity)} as mpf, where
    sensitivity sums the terms' sensitivities (see ``_terms``): eps times
    it is the scale of the rounding error that a double-precision sum of
    the same images cannot avoid. ``t`` is the elapsed time for
    dispersions and the time difference for correlators.
    """
    with mpmath.workdps(DPS):
        a, z, t = mpf(a), mpf(z), mpf(t)
        n_last = _explicit_count(float(a), float(z), float(t))
        totals = {n: mpf(0) for n in names}
        sensitivity = {n: mpf(0) for n in names}

        def add(x, shifted):
            for n, (v, sens) in _terms(names, x, t).items():
                weight = SIGN[n] if shifted else 2
                totals[n] += weight * v
                sensitivity[n] += abs(weight) * sens

        add(z, True)
        for i in range(1, n_last + 1):
            base = i * a
            add(base, False)
            add(base + z, True)
            add(base - z, True)

        half_t = t / 2
        q0 = n_last + 1
        qs = (q0, q0 + z / a, q0 - z / a)
        zetas = {}
        # Every tail offset is at least t, so (t/2x)**2 <= 1/4; with the
        # smallest offset x_min the k-th power is at most w_max**k.
        x_min = qs[2] * a
        w_max = (half_t / x_min) ** 2
        result = {}
        for n in names:
            sign = SIGN[n]
            total = totals[n]
            k = 0
            while True:
                s = 2 * k + 4
                for q in qs:
                    if (s, q) not in zetas:
                        zetas[(s, q)] = mpmath.zeta(s, q)
                zsum = 2 * zetas[(s, qs[0])] + sign * (zetas[(s, qs[1])] + zetas[(s, qs[2])])
                total += _coefficient(n, k, half_t) * zsum / a**s
                k += 1
                bound = _tail_bound(k, half_t, x_min, w_max, _power(n), a, qs[2])
                if bound <= TARGET * abs(total):
                    break
                if k > 400:
                    raise ArithmeticError(f"{n}: tail series did not settle at a={a}, z={z}, t={t}")
            n_terms = 3 * n_last + 1
            rounding = n_terms * mpf(10) ** (1 - DPS) * sensitivity[n]
            result[n] = (total, bound + rounding, sensitivity[n])
        return result


def _tail_bound(k, half_t, x_min, w_max, p0, a, q_min):
    """Bound on the tail series left after terms 0..k-1, over four families."""
    s = 2 * k + 4
    ratio = ((k + 2) / mpf(k + 1)) ** 2 * w_max
    per_image = mpf((k + 1) ** 2) / 4 * half_t ** (p0 + 2 * k) / (1 - ratio)
    zeta_bound = q_min ** (-s) * (1 + q_min / (s - 1))
    # Plain family twice plus two shifted families, each bounded by the
    # family with the smallest first offset.
    return 4 * per_image * zeta_bound / a**s


def photon_two_point(mu, dt, dx, dy, z, zp, a):
    """Plate-induced photon two-point function (diagonal mu, mu), closed form.

    Returns (value, sensitivity). The sensitivity is the sum over both
    lattices of |y d/dy| + |.| of each term 1/(A - y**2), that is
    3 y**2/(A - y**2)**2 at most, which the closed form gives as
    3 (A S2 - S1) with S1 the lattice sum and S2 = -dS1/dA.
    """
    eta = (1, -1, -1, -1)
    reflected = (1, -1, -1, 1)
    with mpmath.workdps(DPS):
        a = mpf(a)
        big_a = mpf(dt) ** 2 - mpf(dx) ** 2 - mpf(dy) ** 2
        four_pi2 = 4 * mpmath.pi**2
        value = mpf(0)
        sensitivity = mpf(0)
        for s, coeff, include_zero in ((mpf(z) + mpf(zp), -reflected[mu], True),
                                       (mpf(z) - mpf(zp), eta[mu], False)):
            s1 = _lattice_closed(big_a, s, a)
            s2 = -mpmath.diff(lambda x: _lattice_closed(x, s, a), big_a)
            if not include_zero:
                d = big_a - s * s
                s1 -= 1 / d
                s2 -= 1 / (d * d)
            value += coeff * s1
            sensitivity += 3 * abs(big_a * s2 - s1)
        return value / four_pi2, sensitivity / four_pi2


def _lattice_closed(big_a, s, a):
    """sum over all integers n of 1/(A - (s + 2 n a)**2) for A > 0."""
    if big_a <= 0:
        raise ValueError("closed lattice form is written for A > 0")
    alpha = s / (2 * a)
    beta = mpmath.sqrt(big_a) / (2 * a)
    pi = mpmath.pi
    return pi * (mpmath.cot(pi * (beta - alpha)) + mpmath.cot(pi * (beta + alpha))) / (
        8 * a * a * beta
    )


# Late-time table: strata of t/a (cavity crossings times two), each with
# CANDIDATES points whose cost differs little, so that a run's cost does
# not hinge on which candidate a seed draws.
LATE_STRATA = (1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5)
LATE_BAND = 0.03
LATE_CANDIDATES = 6
LATE_A = (0.5, 1.0, 2.0)
LATE_Z_OVER_A = (0.2, 0.5)
TABLE_SEED = 20041201
# Fixed dv2-normal points past the table, where platevac's grouped sum
# reaches its n_max of 2,000,000 image pairs and raises ConvergenceError.
EXPECTED_FAILURES = ((1.0, 0.3, 2.25e5 + 0.3), (1.0, 0.3, 2.5e5 + 0.3))


def cone_distance(a, z, t):
    """Distance |t - 2X| to the nearest image light cone, X = n a or n a +/- z.

    The nearest cone of each family is round((t/2 -/+ d)/a) for d = 0, z.
    """
    best = math.inf
    for d in (0.0, z, -z):
        n = round((0.5 * t - d) / a)
        for m in (n - 1, n, n + 1):
            x = m * a + d
            if x > 0.0 and (d != 0.0 or m > 0):
                best = min(best, abs(t - 2.0 * x))
    return best


def late_clearance(a, t):
    """Minimum cone distance a late-time point keeps: 0.15 a or 2e-6 t."""
    return max(0.15 * a, 2e-6 * t)


def late_points(seed=TABLE_SEED):
    """The (stratum, a, z, t) inputs of the late-time table."""
    rng = random.Random(seed)
    points = []
    for stratum, center in enumerate(LATE_STRATA):
        for _ in range(LATE_CANDIDATES):
            while True:
                a = rng.choice(LATE_A)
                z = a * rng.uniform(*LATE_Z_OVER_A)
                t = a * center * rng.uniform(1.0 - LATE_BAND, 1.0 + LATE_BAND)
                if cone_distance(a, z, t) >= late_clearance(a, t):
                    break
            points.append((stratum, a, z, t))
    return points


def _entry(stratum, a, z, t):
    sums = image_sums(KINDS + EFIELDS, a, z, t)
    with mpmath.workdps(DPS):
        pi2 = mpmath.pi**2
        values = {}
        for n, (v, err, sens) in sums.items():
            if n in EFIELDS:
                v, err, sens = v / pi2, err / pi2, sens / pi2
            values[n] = [mpmath.nstr(v, 25), mpmath.nstr(err, 3), mpmath.nstr(sens, 6)]
        values["photon"] = [
            [mpmath.nstr(x, 25 if i == 0 else 6) for i, x in
             enumerate(photon_two_point(mu, t, 0.0, 0.0, z, z, a))]
            for mu in range(4)
        ]
    return {"stratum": stratum, "a": a, "z": z, "t": t, "values": values}


def _expected_entry(a, z, t):
    v, err, sens = image_sums(("dv2-normal",), a, z, t)["dv2-normal"]
    with mpmath.workdps(DPS):
        values = {"dv2-normal": [mpmath.nstr(v, 25), mpmath.nstr(err, 3), mpmath.nstr(sens, 6)]}
    return {"a": a, "z": z, "t": t, "values": values}


def rebuild(path=LATE_TABLE, log=sys.stderr):
    entries = []
    for stratum, a, z, t in late_points():
        entries.append(_entry(stratum, a, z, t))
        print(f"stratum {stratum} a={a} z={z:.4f} t={t:.2f}", file=log, flush=True)
    data = {
        "dps": DPS,
        "target": mpmath.nstr(TARGET, 3),
        "seed": TABLE_SEED,
        "strata": list(LATE_STRATA),
        "candidates": LATE_CANDIDATES,
        "points": entries,
        "expected_failures": [_expected_entry(a, z, t) for a, z, t in EXPECTED_FAILURES],
    }
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def load_late_table(path=LATE_TABLE):
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rebuild", action="store_true", help="recompute reference_late.json")
    args = parser.parse_args(argv)
    if args.rebuild:
        rebuild()
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
