"""Correctness checks on a run's outputs, made after the timed loop.

Every check compares against the independent reference in reference.py
or against a property of the exact sums, never against stored platevac
output, so a change that makes values more accurate still passes.

An exact-route value v with reported tail T passes against a reference r
(own error bound B, sensitivity S, see reference.image_sums) when

    |v - r| <= TAIL_MARGIN * T + ROUNDING * eps * S + B.

The tail term is the program's truncation claim with a margin of 2: at
the default tolerance the error left is as large as the tail itself. The
rounding term is what double precision cannot avoid when it forms the
image offsets near a light cone; for the parallel E-field correlator at
late times it exceeds the tail by up to 6e5.
"""

import csv
import hashlib
import io
import json
import math

import mpmath
from mpmath import mpf

import reference

EPS = 2.0**-52
TAIL_MARGIN = 2.0
ROUNDING = 4.0
# |exact - approx_large_t| <= LATE_C (a/t)**2 |leading term|; the largest
# ratio over the late-time table is 2.8 (README).
LATE_C = 20.0


class Checker:
    """Collects failed checks and the worst relative error against the reference."""

    def __init__(self):
        self.failures = []
        self.worst = 0.0
        self.checked = 0

    def fail(self, message):
        if len(self.failures) < 50:
            self.failures.append(message)

    def against_reference(self, label, value, tail, ref, bound=0.0, sensitivity=0.0):
        """Compare one exact-route value with its reference; track the error."""
        with mpmath.workdps(reference.DPS):
            ref = mpf(ref)
            err = abs(mpf(value) - ref)
            allowed = TAIL_MARGIN * mpf(tail) + ROUNDING * EPS * mpf(sensitivity) + mpf(bound)
            rel = float(err / abs(ref)) if ref != 0 else float(err)
        self.checked += 1
        self.worst = max(self.worst, rel)
        if not (err <= allowed) or not math.isfinite(value):
            self.fail(f"{label}: value {value!r} vs reference {mpmath.nstr(ref, 20)}, "
                      f"error {float(err):.3e} > allowed {float(allowed):.3e}")

    def accuracy_digits(self):
        """-log10 of the worst relative error; 17 when every value was exact."""
        return -math.log10(self.worst) if self.worst > 0.0 else 17.0


def check_early(pv, records, checker):
    """Sweep outputs: every row ok, one row per sweep against the reference
    and against its mirror point z <-> a - z."""
    for op, result, error in records:
        label = " ".join(op.argv)
        if error is not None:
            checker.fail(f"{label}: failed with {error}")
            continue
        rc, out = result
        rows = list(csv.DictReader(io.StringIO(out)))
        meta = op.meta
        grid = meta["grid"]
        if rc != 0 or len(rows) != len(grid):
            checker.fail(f"{label}: exit {rc}, {len(rows)} rows for {len(grid)} grid points")
            continue
        for row, x in zip(rows, grid):
            if row["status"] != "ok" or float(row["value"]) != float(x):
                checker.fail(f"{label}: row {row}")
                break
            if not math.isfinite(float(row["reduced"])) or float(row["tail"]) < 0.0:
                checker.fail(f"{label}: row {row}")
                break
        row = rows[meta["check_row"]]
        a = meta["a"]
        z = float(row["value"]) if meta["var"] == "z" else meta["z"]
        t = float(row["value"]) if meta["var"] == "t" else meta["t"]
        q = meta["quantity"]
        value, tail = float(row["reduced"]), float(row["tail"])
        ref, bound, sens = reference.image_sums((q,), a, z, t)[q]
        checker.against_reference(f"{label} row {meta['check_row']}", value, tail, ref,
                                  bound, sens)
        mirror = pv.dispersion_exact(q, pv.EvalPoint(pv.Geometry(a, a - z), t))
        allowed = TAIL_MARGIN * (tail + mirror.tail_estimate) + 2 * ROUNDING * EPS * float(sens)
        if not abs(mirror.value - value) <= allowed:
            checker.fail(f"{label}: mirror z={a - z!r} gives {mirror.value!r}, "
                         f"z={z!r} gives {value!r} (allowed {allowed:.3e})")


def late_leading(quantity, a, z, t):
    """Size of the leading late-time term, the scale of the (a/t)**2 check."""
    theta, tau = z / a, t / (2.0 * a)
    plateau = math.pi**2 / (4.0 * a * a) * (1.0 / 3.0 + math.sin(math.pi * theta) ** -2)
    if quantity == "dv2-normal":
        return plateau
    if quantity == "dx2-normal":
        return plateau * t * t / 2.0
    if quantity == "dv2-parallel":
        # pi/(8 a t) times the light-cone contrast of cot; its magnitude,
        # since the contrast itself can pass through zero.
        cots = sum(abs(1.0 / math.tan(math.pi * math.fmod(x, 1.0)))
                   for x in (tau, tau, tau - theta, tau + theta))
        return math.pi / (8.0 * a * t) * max(cots, 1.0)
    return abs(math.log(math.pi * t / (2.0 * a * math.sin(math.pi * theta)))) / 3.0


def plateau(a, z):
    """Closed late-time dv2-normal plateau (pi**2/4a**2)(1/3 + csc**2(pi z/a))."""
    return math.pi**2 / (4.0 * a * a) * (1.0 / 3.0 + math.sin(math.pi * z / a) ** -2)


def expected_failure(op, error):
    """Whether an operation failed as its inputs lead to expect, and no other way."""
    return error is not None and type(error).__name__ == op.meta.get("expect")


def check_late(pv, records, checker):
    """Library values against the reference table, the late-time laws and
    the dv2-normal plateau. The points expected to fail must either raise
    ConvergenceError or give a value that passes like any other."""
    for op, result, error in records:
        meta = op.meta
        q, a, z, t = meta["quantity"], meta["a"], meta["z"], meta["t"]
        label = f"{op.func}({q}, a={a!r}, z={z!r}, t={t!r})"
        if error is not None:
            if not expected_failure(op, error):
                checker.fail(f"{label}: failed with {error!r}")
            continue
        ref = meta["ref"]
        if op.func == "approx_large_t":
            exact = float(ref[q][0])
            allowed = LATE_C * (a / t) ** 2 * late_leading(q, a, z, t)
            if not abs(result.value - exact) <= allowed:
                checker.fail(f"{label}: {result.value!r} vs exact {exact!r}, "
                             f"allowed {allowed:.3e}")
            continue
        if q == "photon":
            value, sens = ref["photon"][meta["mu"]]
            checker.against_reference(label, result.value, result.tail_estimate, value,
                                      sensitivity=sens)
            continue
        value, bound, sens = ref[q]
        checker.against_reference(label, result.value, result.tail_estimate, value, bound, sens)
        if q == "dv2-normal":
            p = plateau(a, z)
            if not abs(result.value - p) <= LATE_C * (a / t) ** 2 * p:
                checker.fail(f"{label}: {result.value!r} vs plateau {p!r}")


def check_oracle(pv, records, checker):
    """compare --oracle: both routes against the reference and each other;
    adjudicate: certified, and the printed digest hashes the written file."""
    for op, result, error in records:
        label = " ".join(op.argv)
        if error is not None:
            checker.fail(f"{label}: failed with {error}")
            continue
        rc, out = result
        if rc != 0:
            checker.fail(f"{label}: exit {rc}")
            continue
        if op.argv[0] == "adjudicate":
            _check_adjudication(label, out, op.meta["out"], checker)
            continue
        meta = op.meta
        q, a, z, t = meta["quantity"], meta["a"], meta["z"], meta["t"]
        routes = {r["route"]: r["value"] for r in json.loads(out)["routes"]}
        if "exact" not in routes or "quadrature" not in routes:
            checker.fail(f"{label}: routes {sorted(routes)}")
            continue
        point = pv.EvalPoint(pv.Geometry(a, z), t)
        exact = pv.dispersion_exact(q, point)
        n_images = max(pv.oracle.N_IMAGES_PARALLEL if q.endswith("parallel")
                       else pv.oracle.N_IMAGES_NORMAL, exact_horizon(a, z, t))
        quad = pv.dispersion_via_quadrature(q, point, n_images=n_images)
        if routes["exact"] != exact.value or routes["quadrature"] != quad.value:
            checker.fail(f"{label}: routes differ from the library calls")
        ref, bound, sens = reference.image_sums((q,), a, z, t)[q]
        quad_tol = _quadrature_tolerance(pv, n_images, sens)
        checker.against_reference(f"{label} exact", exact.value, exact.tail_estimate, ref,
                                  bound, sens)
        checker.against_reference(f"{label} quadrature", quad.value, quad.tail_estimate, ref,
                                  bound + quad_tol, sens)
        allowed = (TAIL_MARGIN * (exact.tail_estimate + quad.tail_estimate)
                   + 2 * ROUNDING * EPS * float(sens) + quad_tol)
        if not abs(exact.value - quad.value) <= allowed:
            checker.fail(f"{label}: exact {exact.value!r} and quadrature {quad.value!r} "
                         f"differ by more than {allowed:.3e}")


def _quadrature_tolerance(pv, n_images, sens):
    """What the per-image quadratures may leave: their own tolerances."""
    spec = pv.QuadratureSpec()
    return (3 * n_images + 1) * spec.abs_tol + spec.rel_tol * float(sens)


def exact_horizon(a, z, t):
    return int(math.ceil((0.5 * t + z) / a)) + 1


def _check_adjudication(label, out, path, checker):
    lines = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        checker.fail(f"{label}: {exc}")
        return
    digest = hashlib.sha256(data).hexdigest()
    if lines.get("sha256") != digest:
        checker.fail(f"{label}: printed sha256 {lines.get('sha256')} != file {digest}")
    if lines.get("certified") != "True" or not json.loads(data)["certified"]:
        checker.fail(f"{label}: not certified")


CHECKS = {"early-sweep": check_early, "late-time": check_late, "oracle": check_oracle}
