"""Command line interface.

Subcommands: eval, sweep, compare, physics, adjudicate. Lengths and times
are natural units unless suffixed (1um, 0.5A, 2.5e-7s); reduced values
are always reported, physical ones when --particle is given.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from .asymptotics import approx_large_a, approx_large_t, recommend_regime
from .dispersions import dispersion_exact
from .errors import (
    ConvergenceError,
    GeometryError,
    PlatevacError,
    RegimeError,
    SingularWindowError,
)
from .kernels import SINGULAR_WINDOW
from .oracle import dispersion_via_quadrature, write_adjudication
from .physics import (
    PARTICLES,
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
from .quantities import DispersionKind, EvalPoint, Geometry

CSV_HEADER = [
    "variable",
    "value",
    "reduced",
    "physical",
    "tail",
    "n_used",
    "sing_dist",
    "regime",
    "status",
]

DEFAULT_ADJUDICATION = "oracle_adjudication.json"

_VALUE_RE = re.compile(r"^([0-9eE.+-]+)\s*([a-zA-Z]*)$")


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _parse_value(text, *, allow_time=False):
    """Parse a scalar with optional unit suffix into natural units."""
    m = _VALUE_RE.match(text.strip())
    if not m:
        raise GeometryError(f"cannot parse value {text!r}")
    number, unit = m.groups()
    try:
        value = float(number)
    except ValueError:
        raise GeometryError(f"cannot parse number in {text!r}") from None
    if not unit:
        return value
    if unit == "s":
        if not allow_time:
            raise GeometryError(f"time unit not allowed here: {text!r}")
        return time_to_natural(value, unit)
    return length_to_natural(value, unit)


def _point(args):
    geom = Geometry(_parse_value(args.a), _parse_value(args.z))
    return EvalPoint(geom, _parse_value(args.t, allow_time=True))


def _adjudication_block(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"path": path, "sha256": digest}


def _particle(args):
    if args.particle is None:
        return None
    try:
        return PARTICLES[args.particle]
    except KeyError:
        raise GeometryError(
            f"unknown particle {args.particle!r}; expected one of {sorted(PARTICLES)}"
        ) from None


def _empty_row(variable, value, regime, status):
    row = dict.fromkeys(CSV_HEADER)
    row.update(variable=variable, value=value, regime=regime, status=status)
    return row


def _eval_row(kind, point, particle, window):
    """One CSV row worth of results; never raises for a point it cannot evaluate."""
    row = _empty_row("t", point.t, recommend_regime(point), "ok")
    try:
        result = dispersion_exact(kind, point, window=window)
    except SingularWindowError as exc:
        row["status"] = "singular"
        if exc.report is not None:
            row["sing_dist"] = exc.report.distance
        return row
    except ConvergenceError:
        row["status"] = "convergence"
        return row
    except GeometryError:  # the value is beyond the float range
        row["status"] = "domain"
        return row
    row["reduced"] = result.value
    row["tail"] = result.tail_estimate
    row["n_used"] = result.n_used
    if result.singularity is not None:
        row["sing_dist"] = result.singularity.distance
    if particle is not None:
        row["physical"] = physicalize(result.value, kind, particle)
    return row


def _emit_csv(rows, stream):
    writer = csv.writer(stream)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(row[key]) for key in CSV_HEADER])


def cmd_eval(args):
    kind = DispersionKind.from_token(args.quantity)
    point = _point(args)
    particle = _particle(args)
    row = _eval_row(kind, point, particle, args.window)

    if args.format == "csv":
        _emit_csv([row], sys.stdout)
    elif args.format == "json":
        payload = {
            "quantity": kind.token,
            "a": point.geometry.a,
            "z": point.geometry.z,
            "t": point.t,
            "reduced": row["reduced"],
            "tail_estimate": row["tail"],
            "n_used": row["n_used"],
            "sing_dist": row["sing_dist"],
            "regime": row["regime"],
            "status": row["status"],
            "physical": row["physical"],
            "particle": particle.name if particle else None,
            "adjudication": _adjudication_block(args.adjudication),
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(f"quantity   {kind.token}")
        print(f"a, z, t    {_fmt(point.geometry.a)}, {_fmt(point.geometry.z)}, {_fmt(point.t)}")
        print(f"regime     {row['regime']}")
        print(f"status     {row['status']}")
        if row["reduced"] is not None:
            print(f"reduced    {_fmt(row['reduced'])}")
            print(f"tail       {_fmt(row['tail'])}  (n_used {row['n_used']})")
        if row["sing_dist"] is not None:
            print(f"sing_dist  {_fmt(row['sing_dist'])}")
        if row["physical"] is not None:
            unit = "(v/c)^2" if kind.observable == "velocity" else "m^2"
            print(f"physical   {_fmt(row['physical'])} {unit}")

    return {"ok": 0, "domain": 2, "singular": 3, "convergence": 4}[row["status"]]


def cmd_sweep(args):
    kind = DispersionKind.from_token(args.quantity)
    particle = _particle(args)
    start = _parse_value(args.start, allow_time=args.var == "t")
    stop = _parse_value(args.stop, allow_time=args.var == "t")
    if args.steps < 2:
        raise GeometryError("sweep needs at least 2 steps")
    if args.scale == "log":
        if start <= 0.0 or stop <= 0.0:
            raise GeometryError("log sweep needs positive bounds")
        grid = np.geomspace(start, stop, args.steps)
    else:
        grid = np.linspace(start, stop, args.steps)

    base = {}
    for name in ("a", "z"):
        if name != args.var:
            raw = getattr(args, name)
            if raw is None:
                raise GeometryError(f"sweep over {args.var} requires --{name}")
            base[name] = _parse_value(raw)
    t_base = _parse_value(args.t, allow_time=True) if args.t is not None else None
    if args.var != "t" and t_base is None:
        raise GeometryError(f"sweep over {args.var} requires --t")

    rows = []
    for value in grid:
        params = dict(base)
        t = t_base
        if args.var == "t":
            t = float(value)
        else:
            params[args.var] = float(value)
        try:
            point = EvalPoint(Geometry(params["a"], params["z"]), t)
        except GeometryError:
            rows.append(_empty_row(args.var, float(value), None, "domain"))
            continue
        row = _eval_row(kind, point, particle, args.window)
        row["variable"] = args.var
        row["value"] = float(value)
        rows.append(row)

    if args.format == "json":
        json.dump({"quantity": kind.token, "rows": rows}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _emit_csv(rows, sys.stdout)

    statuses = {r["status"] for r in rows}
    if "ok" in statuses:
        return 0
    if "singular" in statuses:
        return 3
    if "convergence" in statuses:
        return 4
    return 2


def cmd_compare(args):
    kind = DispersionKind.from_token(args.quantity)
    point = _point(args)
    exact = dispersion_exact(kind, point, window=args.window)

    routes = [("exact", exact.value)]
    if args.oracle:
        oracle_val = dispersion_via_quadrature(
            kind, point, n_images=args.n_images, window=args.window
        )
        routes.append(("quadrature", oracle_val.value))
    for name, func in (
        ("large_a", approx_large_a),
        ("large_t", functools.partial(approx_large_t, window=args.window)),
    ):
        try:
            routes.append((name, func(kind, point).value))
        except RegimeError:
            continue

    def _rel(val):
        return abs(val - exact.value) / abs(exact.value) if exact.value else None

    if args.format == "json":
        payload = {
            "quantity": kind.token,
            "a": point.geometry.a,
            "z": point.geometry.z,
            "t": point.t,
            "routes": [
                {
                    "route": name,
                    "value": val,
                    "abs_diff_vs_exact": abs(val - exact.value),
                    "rel_diff_vs_exact": _rel(val),
                }
                for name, val in routes
            ],
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["route", "value", "abs_diff_vs_exact", "rel_diff_vs_exact"])
        for name, val in routes:
            writer.writerow([name, _fmt(val), _fmt(abs(val - exact.value)), _fmt(_rel(val))])
    else:
        width = max(len(name) for name, _ in routes)
        for name, val in routes:
            print(
                f"{name:<{width}}  {_fmt(val):<26}  diff {_fmt(abs(val - exact.value))}"
                f"  rel {_fmt(_rel(val))}"
            )
    return 0


def cmd_physics(args):
    point = _point(args)
    particle = _particle(args) or PARTICLES["electron"]
    geom = point.geometry
    z_near = min(geom.z, geom.zbar)

    report = {
        "particle": particle.name,
        "a_natural": geom.a,
        "z_natural": geom.z,
        "t_natural": point.t,
        "effective_temperature_K": effective_temperature(z_near, particle),
        "falling_time_natural": falling_time(z_near, particle),
        "separation_threshold_natural": separation_threshold(particle),
        "separation_threshold_m": natural_to_meters(separation_threshold(particle)),
        "displacement_bound_natural": displacement_bound(z_near, particle),
        "validity": validity_check(point, particle, safety=args.safety),
    }
    try:
        report["amplification_ratio"] = amplification_ratio(point)
    except (SingularWindowError, ConvergenceError) as exc:
        report["amplification_ratio"] = None
        report["amplification_note"] = str(exc)

    if args.format == "json":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(f"particle               {report['particle']}")
        print(f"effective temperature  {_fmt(report['effective_temperature_K'])} K")
        print(f"falling time           {_fmt(report['falling_time_natural'])} (natural)")
        print(
            "separation threshold   "
            f"{_fmt(report['separation_threshold_m'])} m "
            f"({_fmt(report['separation_threshold_natural'])} natural)"
        )
        print(f"displacement bound     {_fmt(report['displacement_bound_natural'])} (natural)")
        if report["amplification_ratio"] is not None:
            print(f"amplification ratio    {_fmt(report['amplification_ratio'])}")
        for check in report["validity"]["checks"]:
            flag = "ok" if check["ok"] else "EXCEEDED"
            print(f"validity:{check['name']:<13} {flag}  (value {_fmt(check['value'])}, limit {_fmt(check['limit'])})")
        print(f"valid overall          {report['validity']['ok']}")
    return 0


def cmd_adjudicate(args):
    path, digest = write_adjudication(args.out)
    with open(path, "r", encoding="utf-8") as fh:
        certified = json.load(fh)["certified"]
    print(f"adjudication written to {path}")
    print(f"sha256 {digest}")
    print(f"certified {certified}")
    return 0 if certified else 4


def _add_point_args(p, required=True):
    p.add_argument("--a", required=required, default=None, help="plate separation (natural or suffixed)")
    p.add_argument("--z", required=required, default=None, help="particle position (natural or suffixed)")
    p.add_argument("--t", required=required, default=None, help="elapsed time (natural or e.g. 2.5e-7s)")


def _add_particle(p):
    p.add_argument("--particle", choices=sorted(PARTICLES), default=None)


def _add_format(p):
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _add_window(p):
    p.add_argument("--window", type=float, default=SINGULAR_WINDOW, help="singular window (relative)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="platevac",
        description="Vacuum-induced Brownian dispersions of a charge between conducting plates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="one dispersion at one point")
    p.add_argument("--quantity", required=True)
    _add_point_args(p)
    _add_particle(p)
    _add_format(p)
    _add_window(p)
    p.add_argument("--adjudication", default=DEFAULT_ADJUDICATION, help="adjudication JSON to reference")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="dispersion along a parameter grid")
    p.add_argument("--quantity", required=True)
    p.add_argument("--var", choices=("t", "z", "a"), default="t")
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    _add_point_args(p, required=False)
    _add_particle(p)
    _add_format(p)
    _add_window(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="exact vs asymptotics, optionally vs quadrature")
    p.add_argument("--quantity", required=True)
    _add_point_args(p)
    _add_format(p)
    _add_window(p)
    p.add_argument("--oracle", action="store_true", help="include the quadrature route")
    p.add_argument("--n-images", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("physics", help="physical scales and validity flags")
    _add_point_args(p)
    _add_particle(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--safety", type=float, default=10.0)
    p.set_defaults(func=cmd_physics)

    p = sub.add_parser("adjudicate", help="run the oracle certification grid")
    p.add_argument("--out", default=DEFAULT_ADJUDICATION)
    p.set_defaults(func=cmd_adjudicate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlatevacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
