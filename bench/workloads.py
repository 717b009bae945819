"""Seeded operation streams for the benchmark's three workloads.

A run repeats whole rounds. Each round has the same fixed composition of
operations; the seed only draws their inputs (a, and z and t within a
few percent of fixed centres; the order in which the late-time table's
points take turns). So the share of each kind of operation, and of
expected failures, is the same in every run, and a round's cost hardly
depends on the seed.

Every generated point keeps clear of the image light cones. The nearest
cone of each family is found in O(1) from round((t/2 -/+ z)/a) by
``reference.cone_distance``.
"""

from dataclasses import dataclass, field

import numpy as np
from platevac import EvalPoint, Geometry

from reference import (
    KINDS,
    LATE_STRATA,
    cone_distance,
    load_late_table,
)

# Relative cone clearance of early points: ten times platevac's default
# singular window of 1e-6.
EARLY_CLEARANCE = 1e-5
# Absolute cone clearance of oracle points, in units of a: the finite-part
# panels stay well conditioned.
ORACLE_CLEARANCE = 0.05
A_VALUES = (0.5, 1.0, 2.0)

@dataclass
class Op:
    """One operation as a user issues it.

    ``cli`` ops carry an argv for ``platevac.cli.main``; library ops carry
    the name of a function exported by ``platevac`` and its arguments.
    ``meta`` holds what the checks need to know about the inputs.
    """

    kind: str
    argv: list = None
    func: str = None
    args: tuple = ()
    meta: dict = field(default_factory=dict)


def _num(x):
    """Exact text form of a float for the CLI, which parses with float()."""
    return repr(float(x))


def sweep_grid(start, stop, steps, scale):
    """The grid ``platevac sweep`` evaluates for these bounds."""
    if scale == "log":
        return np.geomspace(start, stop, steps)
    return np.linspace(start, stop, steps)


def _clear(a, z, t, rel):
    return cone_distance(a, z, t) >= rel * t


class EarlySweep:
    """CLI sweeps over t from about 0.01a to 30a, plus a few z sweeps.

    Per round, every quantity alike: sixteen 25-row sweeps (three t sweeps
    and one z sweep per quantity, log and linear) and one 250-row t sweep
    per quantity: 20 commands, 1,400 rows.
    """

    name = "early-sweep"
    min_rounds = 5
    # Rounds whose outputs are checked in full; fixed, so that
    # accuracy_digits depends on the seed only.
    check_rounds = 5

    # (variable, rows, scale, quantity, centre of z/a for t sweeps or of
    # t/a for z sweeps). Inputs are drawn within a few percent of a centre,
    # so a round's cost hardly depends on the seed.
    SLOTS = (
        [("t", 25, "log", q, zc) for q, zc in zip(KINDS, (0.08, 0.2, 0.35, 0.48))]
        + [("t", 250, "log", "dv2-parallel", 0.2), ("t", 250, "linear", "dv2-normal", 0.35),
           ("t", 250, "log", "dx2-parallel", 0.48), ("t", 250, "linear", "dx2-normal", 0.08)]
        + [("t", 25, "linear", q, zc) for q, zc in zip(KINDS, (0.2, 0.35, 0.48, 0.08))]
        + [("z", 25, "linear", q, tc) for q, tc in zip(KINDS, (2.3, 7.7, 15.3, 25.7))]
        + [("t", 25, "log" if i % 2 else "linear", q, zc)
           for i, (q, zc) in enumerate(zip(KINDS, (0.35, 0.48, 0.08, 0.2)))]
    )

    def rounds(self, rng):
        while True:
            yield [self._sweep(rng, *slot) for slot in self.SLOTS]

    def _sweep(self, rng, var, steps, scale, quantity, centre):
        while True:
            a = rng.choice(A_VALUES)
            if var == "t":
                z = a * centre * rng.uniform(0.95, 1.05)
                start = a * rng.uniform(0.01, 0.011)
                stop = a * rng.uniform(29.0, 30.0)
                grid = sweep_grid(start, stop, steps, scale)
                ok = all(_clear(a, z, float(t), EARLY_CLEARANCE) for t in grid)
                fixed = ["--z", _num(z)]
                t = None
            else:
                t = a * centre * rng.uniform(0.97, 1.03)
                start = a * rng.uniform(0.02, 0.03)
                stop = a * rng.uniform(0.97, 0.98)
                grid = sweep_grid(start, stop, steps, scale)
                ok = all(_clear(a, float(zz), t, EARLY_CLEARANCE) for zz in grid)
                fixed = ["--t", _num(t)]
                z = None
            if ok:
                break
        argv = [
            "sweep", "--quantity", quantity, "--var", var,
            "--start", _num(start), "--stop", _num(stop),
            "--steps", str(steps), "--scale", scale,
            "--a", _num(a), *fixed, "--format", "csv",
        ]  # fmt: skip
        meta = {
            "quantity": quantity, "var": var, "a": a, "z": z, "t": t,
            "grid": grid, "check_row": rng.randrange(steps),
        }  # fmt: skip
        return Op("cli", argv=argv, meta=meta)


class LateTime:
    """Library calls at t from 1e2 a to 1e5 a, drawn from the reference table.

    Per round, one table point from each of the seven t/a strata gets the
    four ``dispersion_exact`` and ``approx_large_t`` calls, both E-field
    correlators and one photon two-point component: 77 calls. Then
    dv2-normal at the two ``reference.EXPECTED_FAILURES`` points: 79
    operations, 2 of them failing today.

    The seed sets, per stratum, the order in which its candidates take
    turns. Every run of at least CANDIDATES
    rounds therefore covers the whole table, so its cost and its peak
    memory do not hinge on which candidates the seed happened to draw.
    """

    name = "late-time"
    min_rounds = 13
    # Rounds whose outputs are checked in full; fixed, so that
    # accuracy_digits depends on the seed only.
    check_rounds = 13

    def __init__(self):
        table = load_late_table()
        self.expected = table["expected_failures"]
        self.strata = [[] for _ in LATE_STRATA]
        for index, entry in enumerate(table["points"]):
            self.strata[entry["stratum"]].append(dict(entry, index=index))

    def rounds(self, rng):
        orders = [rng.sample(c, len(c)) for c in self.strata]
        turn = 0
        while True:
            yield self._round([order[turn % len(order)] for order in orders])
            turn += 1

    def _round(self, entries):
        ops = []
        for entry in entries:
            a, z, t = entry["a"], entry["z"], entry["t"]
            meta = {"a": a, "z": z, "t": t, "ref": entry["values"]}
            point = EvalPoint(Geometry(a, z), t)
            for q in KINDS:
                ops.append(Op("lib", func="dispersion_exact", args=(q, point),
                              meta=dict(meta, quantity=q)))
            for q in KINDS:
                ops.append(Op("lib", func="approx_large_t", args=(q, point),
                              meta=dict(meta, quantity=q)))
            ops.append(Op("lib", func="efield_correlator_parallel", args=(z, a, t),
                          meta=dict(meta, quantity="efield-parallel")))
            ops.append(Op("lib", func="efield_correlator_normal", args=(z, a, t),
                          meta=dict(meta, quantity="efield-normal")))
            # The component is tied to the table point, not drawn, so that
            # every run checks the same (point, component) pairs.
            mu = entry["index"] % 4
            ops.append(Op("lib", func="renormalized_photon_two_point",
                          args=(mu, mu, t, 0.0, 0.0, z, z, a),
                          meta=dict(meta, quantity="photon", mu=mu)))
        for entry in self.expected:
            a, z, t = entry["a"], entry["z"], entry["t"]
            point = EvalPoint(Geometry(a, z), t)
            ops.append(Op("lib", func="dispersion_exact", args=("dv2-normal", point),
                          meta={"a": a, "z": z, "t": t, "quantity": "dv2-normal",
                                "ref": entry["values"], "expect": "ConvergenceError"}))
        return ops


class Oracle:
    """CLI ``compare --oracle`` at t <= 10a, plus one ``adjudicate``.

    Per round, for each quantity (with its own z/a within 5% of 0.2, 0.3,
    0.4 or 0.45): one point at a tenth of the first round trip
    2 min(z, a - z), where the wide-gap route also answers, one at 0.6 of
    it, and two past the cones, at t/a in [3.4, 3.6] and [9.4, 9.6]: 16
    compares, then one adjudicate to a file under the benchmark's output
    directory: 17 commands. The quadrature route's error grows with t at
    its fixed image count, so narrow bands keep the worst error of a run
    from hinging on the seed.
    """

    name = "oracle"
    min_rounds = 12
    # Rounds whose outputs are checked in full; fixed, so that
    # accuracy_digits depends on the seed only.
    check_rounds = 6

    def __init__(self, out_path):
        self.out_path = str(out_path)

    def rounds(self, rng):
        while True:
            yield self._round(rng)

    def _round(self, rng):
        ops = []
        for q, zc in zip(KINDS, (0.2, 0.3, 0.4, 0.45)):
            for band, past in (((0.08, 0.12), False), ((0.55, 0.65), False),
                               ((3.4, 3.6), True), ((9.4, 9.6), True)):
                ops.append(self._compare(rng, q, zc, band, past))
        ops.append(Op("cli", argv=["adjudicate", "--out", self.out_path],
                      meta={"out": self.out_path}))
        return ops

    def _compare(self, rng, quantity, z_centre, band, past):
        while True:
            a = rng.choice(A_VALUES)
            z = a * z_centre * rng.uniform(0.95, 1.05)
            if past:
                t = a * rng.uniform(*band)
            else:
                t = 2.0 * min(z, a - z) * rng.uniform(*band)
            if cone_distance(a, z, t) >= ORACLE_CLEARANCE * a:
                break
        argv = ["compare", "--quantity", quantity, "--a", _num(a), "--z", _num(z),
                "--t", _num(t), "--oracle", "--format", "json"]
        return Op("cli", argv=argv, meta={"quantity": quantity, "a": a, "z": z, "t": t})


def workload(name, out_dir):
    if name == "early-sweep":
        return EarlySweep()
    if name == "late-time":
        return LateTime()
    if name == "oracle":
        return Oracle(out_dir / "adjudication.json")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("early-sweep", "late-time", "oracle")
