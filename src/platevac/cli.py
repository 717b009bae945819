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
    if not math.isfinite(value):
        raise GeometryError(f"number must be finite, got {text!r}")
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


# The status of a row that meets each error, in sweep precedence: a sweep
# exits with the code of the first status among its rows.
_ROW_STATUS = {
    SingularWindowError: "singular",
    ConvergenceError: "convergence",
    GeometryError: "domain",  # the value is beyond the float range
}
_EXIT_CODES = {"ok": 0, **{status: error.exit_code for error, status in _ROW_STATUS.items()}}


def _empty_row(variable, value, regime, status):
    row = dict.fromkeys(CSV_HEADER)
    row.update(variable=variable, value=value, regime=regime, status=status)
    return row


def _eval_row(kind, point, particle, window):
    """One CSV row worth of results; never raises for a point it cannot evaluate."""
    row = _empty_row("t", point.t, recommend_regime(point), "ok")
    try:
        result = dispersion_exact(kind, point, window=window)
    except tuple(_ROW_STATUS) as exc:
        row["status"] = _ROW_STATUS[type(exc)]
        report = getattr(exc, "report", None)
    else:
        row.update(reduced=result.value, tail=result.tail_estimate, n_used=result.n_used)
        if particle is not None:
            row["physical"] = physicalize(result.value, kind, particle)
        report = result.singularity
    if report is not None:
        row["sing_dist"] = report.distance
    return row


def _where(kind, point):
    """The fields that open the eval and compare records."""
    return {"quantity": kind.token, "a": point.geometry.a, "z": point.geometry.z, "t": point.t}


def _json_safe(obj):
    """``obj`` with each float that is not finite as None, since strict JSON has no inf or nan."""
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit_json(record):
    json.dump(_json_safe(record), sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")


def _emit_csv(rows, header=CSV_HEADER):
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row[key]) for key in header])


def cmd_eval(args):
    kind = DispersionKind.from_token(args.quantity)
    point = _point(args)
    particle = PARTICLES.get(args.particle)
    row = _eval_row(kind, point, particle, args.window)

    if args.format == "csv":
        _emit_csv([row])
    elif args.format == "json":
        _emit_json(
            {
                **_where(kind, point),
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
        )
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

    return _EXIT_CODES[row["status"]]


def cmd_sweep(args):
    kind = DispersionKind.from_token(args.quantity)
    particle = PARTICLES.get(args.particle)
    start = _parse_value(args.start, allow_time=args.var == "t")
    stop = _parse_value(args.stop, allow_time=args.var == "t")
    if args.steps < 2:
        raise GeometryError("sweep needs at least 2 steps")
    if args.scale == "log":
        if start <= 0.0 or stop <= 0.0:
            raise GeometryError("log sweep needs positive bounds")
        grid = np.geomspace(start, stop, args.steps)
    elif math.isfinite(stop - start):
        grid = np.linspace(start, stop, args.steps)
    else:  # stop - start is beyond the float range; weigh the two ends instead
        s = np.linspace(0.0, 1.0, args.steps)
        grid = start * (1.0 - s) + stop * s

    # Every flag given is parsed; the swept variable takes its values from the grid.
    fixed = {}
    for name in ("a", "z", "t"):
        raw = getattr(args, name)
        if raw is not None:
            fixed[name] = _parse_value(raw, allow_time=name == "t")
        elif name != args.var:
            raise GeometryError(f"sweep over {args.var} requires --{name}")

    rows = []
    for value in map(float, grid):
        params = {**fixed, args.var: value}
        try:
            point = EvalPoint(Geometry(params["a"], params["z"]), params["t"])
        except GeometryError:
            rows.append(_empty_row(args.var, value, None, "domain"))
            continue
        row = _eval_row(kind, point, particle, args.window)
        row.update(variable=args.var, value=value)
        rows.append(row)

    if args.format == "json":
        _emit_json({"quantity": kind.token, "rows": rows})
    else:
        _emit_csv(rows)

    statuses = {r["status"] for r in rows}
    return next(code for status, code in _EXIT_CODES.items() if status in statuses)


def cmd_compare(args):
    kind = DispersionKind.from_token(args.quantity)
    point = _point(args)
    routes = {"exact": dispersion_exact(kind, point, window=args.window).value}
    if args.oracle:
        routes["quadrature"] = dispersion_via_quadrature(
            kind, point, n_images=args.n_images, window=args.window
        ).value
    for name, func in (
        ("large_a", approx_large_a),
        ("large_t", functools.partial(approx_large_t, window=args.window)),
    ):
        try:
            routes[name] = func(kind, point).value
        except RegimeError:
            continue

    exact = routes["exact"]
    rows = [
        {
            "route": name,
            "value": val,
            "abs_diff_vs_exact": abs(val - exact),
            "rel_diff_vs_exact": abs(val - exact) / abs(exact) if exact else None,
        }
        for name, val in routes.items()
    ]
    if args.format == "json":
        _emit_json({**_where(kind, point), "routes": rows})
    elif args.format == "csv":
        _emit_csv(rows, header=list(rows[0]))
    else:
        width = max(map(len, routes))
        for row in rows:
            print(
                f"{row['route']:<{width}}  {_fmt(row['value']):<26}"
                f"  diff {_fmt(row['abs_diff_vs_exact'])}  rel {_fmt(row['rel_diff_vs_exact'])}"
            )
    return 0


def cmd_physics(args):
    point = _point(args)
    particle = PARTICLES[args.particle or "electron"]
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
    except PlatevacError as exc:  # on a light cone, or at t = 0 where the ratio is 0/0
        report["amplification_ratio"] = None
        report["amplification_note"] = str(exc)

    if args.format == "json":
        _emit_json(report)
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
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


_PARSER = build_parser()  # built once: main may be called many times in one process


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except PlatevacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
