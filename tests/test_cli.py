"""Command line front end: formats, exit codes, sweeps, adjudication."""

import argparse
import csv
import hashlib
import io
import json
import math
import random
import re

import pytest

from platevac import (
    SingularWindowError,
    length_to_natural,
    single_plate_reference,
    time_to_natural,
)
from platevac.cli import CSV_HEADER, _fmt, build_parser, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER, r)) for r in rows[1:]]


def test_eval_text(capsys):
    rc, out = run_cli(
        capsys, "eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "0.3"
    )
    assert rc == 0
    assert "reduced" in out and "status     ok" in out


def test_eval_json_record(capsys, tmp_path):
    rc, out = run_cli(
        capsys,
        "eval",
        "--quantity",
        "dv2-normal",
        "--a",
        "1",
        "--z",
        "0.5",
        "--t",
        "0.3",
        "--particle",
        "electron",
        "--format",
        "json",
        "--adjudication",
        str(tmp_path / "missing.json"),
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["status"] == "ok"
    assert rec["reduced"] == pytest.approx(0.2006248050546345, rel=1e-10)
    # provenance fields travel with every value
    assert rec["n_used"] > 0
    assert rec["tail_estimate"] >= 0.0
    assert rec["regime"] == "intermediate"
    assert rec["adjudication"] is None
    assert rec["physical"] == pytest.approx(rec["reduced"] * 4 * 7.2973525693e-3 / (math.pi * 510998.95**2), rel=1e-9)


def test_eval_csv_round_trips(capsys):
    rc, out = run_cli(
        capsys,
        "eval",
        "--quantity",
        "dx2-parallel",
        "--a",
        "1",
        "--z",
        "0.5",
        "--t",
        "0.3",
        "--format",
        "csv",
    )
    assert rc == 0
    row = parse_csv(out)[0]
    assert row["status"] == "ok"
    # 17 significant digits: formatting the parsed float reproduces the text
    assert f"{float(row['reduced']):.17g}" == row["reduced"]
    assert f"{float(row['tail']):.17g}" == row["tail"]


def test_eval_unit_suffixes(capsys, tmp_path):
    rc, out = run_cli(
        capsys,
        "eval",
        "--quantity",
        "dv2-normal",
        "--a",
        "2um",
        "--z",
        "1um",
        "--t",
        "1.0",
        "--format",
        "json",
        "--adjudication",
        str(tmp_path / "missing.json"),
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["a"] == pytest.approx(length_to_natural(2.0, "um"), rel=1e-12)
    assert rec["z"] == pytest.approx(length_to_natural(1.0, "um"), rel=1e-12)


def test_eval_domain_error_exit_2(capsys):
    rc = main(["eval", "--quantity", "dv2-normal", "--a", "1", "--z", "1.5", "--t", "0.3"])
    assert rc == 2
    rc = main(["eval", "--quantity", "dv2-bogus", "--a", "1", "--z", "0.5", "--t", "0.3"])
    assert rc == 2
    # 1e400 parses to inf: not a plate separation
    rc = main(["eval", "--quantity", "dv2-normal", "--a", "1e400", "--z", "0.5", "--t", "0.3"])
    assert rc == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_value_beyond_the_float_range_exit_2(capsys):
    rc, out = run_cli(
        capsys, "eval", "--quantity", "dv2-normal", "--a", "1e-160", "--z", "5e-161",
        "--t", "3e-161",
    )
    assert rc == 2
    assert "status     domain" in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_keeps_going_past_a_value_beyond_the_float_range(capsys):
    # At z = 1e-160 the value, about 1/(4 z**2), overflows; at z = a/2 it does not.
    rc, out = run_cli(
        capsys, "sweep", "--quantity", "dv2-normal", "--var", "z", "--start", "1e-160",
        "--stop", "5e-151", "--steps", "2", "--scale", "log", "--a", "1e-150", "--t", "3e-151",
        "--format", "csv",
    )
    assert rc == 0
    assert [r["status"] for r in parse_csv(out)] == ["domain", "ok"]


def test_eval_singular_window_exit_3(capsys):
    # t = 2z light cone
    rc, out = run_cli(
        capsys, "eval", "--quantity", "dv2-parallel", "--a", "1", "--z", "0.5", "--t", "1"
    )
    assert rc == 3
    assert "singular" in out
    # t = 1000 a lands exactly on a distant image cone (2 n a, n = 500)
    rc, out = run_cli(
        capsys,
        "eval",
        "--quantity",
        "dv2-normal",
        "--a",
        "1",
        "--z",
        "0.5",
        "--t",
        "1000",
        "--format",
        "csv",
    )
    assert rc == 3
    row = parse_csv(out)[0]
    assert row["status"] == "singular"
    assert float(row["sing_dist"]) == 0.0


def test_sweep_z_symmetric(capsys):
    rc, out = run_cli(
        capsys,
        "sweep",
        "--quantity",
        "dx2-normal",
        "--var",
        "z",
        "--start",
        "0.1",
        "--stop",
        "0.9",
        "--steps",
        "9",
        "--a",
        "1",
        "--t",
        "0.3",
        "--format",
        "csv",
    )
    assert rc == 0
    rows = parse_csv(out)
    vals = [float(r["reduced"]) for r in rows]
    assert len(vals) == 9
    for lo, hi in zip(vals, reversed(vals)):
        assert abs(lo - hi) <= 1e-12 * abs(lo)


def test_sweep_t_late_time_plateau(capsys):
    # log sweep of the normal velocity: rows approach pi**2 / (3 a**2)
    rc, out = run_cli(
        capsys,
        "sweep",
        "--quantity",
        "dv2-normal",
        "--var",
        "t",
        "--start",
        "5.3",
        "--stop",
        "987.3",
        "--steps",
        "7",
        "--scale",
        "log",
        "--a",
        "1",
        "--z",
        "0.5",
        "--format",
        "csv",
    )
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 7
    assert [r["status"] for r in rows] == ["ok"] * 7
    ts = [float(r["value"]) for r in rows]
    assert ts == sorted(ts)  # deterministic grid order
    plateau = math.pi**2 / 3.0
    for r in rows:
        if float(r["value"]) >= 100.0:
            assert float(r["reduced"]) == pytest.approx(plateau, rel=1e-4)


def test_sweep_keeps_singular_rows(capsys):
    rc, out = run_cli(
        capsys,
        "sweep",
        "--quantity",
        "dv2-normal",
        "--var",
        "t",
        "--start",
        "1.5",
        "--stop",
        "2.0",
        "--steps",
        "2",
        "--a",
        "1",
        "--z",
        "0.5",
        "--format",
        "csv",
    )
    assert rc == 0  # one row is fine, the t = 2 row is singular but kept
    rows = parse_csv(out)
    assert [r["status"] for r in rows] == ["ok", "singular"]


def test_sweep_all_singular_exit_3(capsys):
    rc, out = run_cli(
        capsys,
        "sweep",
        "--quantity",
        "dv2-normal",
        "--var",
        "t",
        "--start",
        "2",
        "--stop",
        "4",
        "--steps",
        "2",
        "--a",
        "1",
        "--z",
        "0.5",
        "--format",
        "csv",
    )
    assert rc == 3
    assert all(r["status"] == "singular" for r in parse_csv(out))


def test_sweep_domain_rows(capsys):
    rc, out = run_cli(
        capsys,
        "sweep",
        "--quantity",
        "dv2-normal",
        "--var",
        "z",
        "--start",
        "0.3",
        "--stop",
        "1.2",
        "--steps",
        "4",
        "--a",
        "1",
        "--t",
        "0.3",
        "--format",
        "csv",
    )
    assert rc == 0
    rows = parse_csv(out)
    assert rows[-1]["status"] == "domain"
    assert rows[-1]["reduced"] == ""


def test_sweep_all_domain_exit_2(capsys):
    rc, out = run_cli(
        capsys, "sweep", "--quantity", "dv2-normal", "--var", "z", "--start", "2", "--stop", "3",
        "--steps", "3", "--a", "1", "--t", "0.3",
    )
    assert rc == 2
    assert [r["status"] for r in parse_csv(out)] == ["domain"] * 3


def test_sweep_missing_fixed_param_exit_2(capsys):
    rc = main(
        ["sweep", "--quantity", "dv2-normal", "--var", "z", "--start", "0.3", "--stop",
         "0.7", "--steps", "3", "--a", "1"]
    )
    assert rc == 2


def test_sweep_csv_reemission_is_byte_identical(capsys):
    rc, out = run_cli(
        capsys,
        "sweep",
        "--quantity",
        "dv2-normal",
        "--var",
        "t",
        "--start",
        "0.1",
        "--stop",
        "0.7",
        "--steps",
        "4",
        "--a",
        "1",
        "--z",
        "0.5",
        "--format",
        "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        rewritten = []
        for cell in row:
            try:
                rewritten.append(f"{float(cell):.17g}")
            except ValueError:
                rewritten.append(cell)
        writer.writerow(rewritten)
    assert buf.getvalue() == out


def test_compare_wide_gap_and_oracle(capsys):
    rc, out = run_cli(
        capsys,
        "compare",
        "--quantity",
        "dv2-normal",
        "--a",
        "1",
        "--z",
        "0.5",
        "--t",
        "0.01",
        "--oracle",
        "--format",
        "json",
    )
    assert rc == 0
    rec = json.loads(out)
    routes = {r["route"]: r for r in rec["routes"]}
    assert set(routes) == {"exact", "quadrature", "large_a"}
    # reported deviations: oracle within combined tolerance, wide gap small
    assert routes["quadrature"]["rel_diff_vs_exact"] < 1e-6
    assert routes["large_a"]["rel_diff_vs_exact"] < 1e-4


@pytest.mark.parametrize(
    "quantity, t, rel",
    [("dv2-parallel", "2000.3", 1e-7), ("dx2-parallel", "200.3", 1e-4)],
)
def test_compare_oracle_late_default_images_reach_twice_the_horizon(capsys, quantity, t, rel):
    # Stopped at the horizon, these sums were off by 8.8e-4 and 4.5e-3.
    rc, out = run_cli(
        capsys,
        "compare",
        "--quantity",
        quantity,
        "--a",
        "1",
        "--z",
        "0.3",
        "--t",
        t,
        "--oracle",
        "--format",
        "json",
    )
    assert rc == 0
    routes = {r["route"]: r for r in json.loads(out)["routes"]}
    assert routes["quadrature"]["rel_diff_vs_exact"] < rel


def test_compare_late_time_reports_deviation(capsys):
    rc, out = run_cli(
        capsys,
        "compare",
        "--quantity",
        "dv2-normal",
        "--a",
        "1",
        "--z",
        "0.5",
        "--t",
        "1000.5",
        "--format",
        "json",
    )
    assert rc == 0
    rec = json.loads(out)
    routes = {r["route"]: r for r in rec["routes"]}
    assert set(routes) == {"exact", "large_t"}
    assert routes["large_t"]["rel_diff_vs_exact"] > 0.0  # deviation is reported


def test_compare_late_time_uses_the_window(capsys):
    # 1e-10 from the cone at t = 1000: inside the default window, outside 1e-12
    args = ["compare", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5"]
    rc, _ = run_cli(capsys, *args, "--t", "1000.0000001")
    assert rc == 3
    rc, out = run_cli(capsys, *args, "--t", "1000.0000001", "--window", "1e-12", "--format", "json")
    assert rc == 0
    routes = {r["route"] for r in json.loads(out)["routes"]}
    assert routes == {"exact", "large_t"}


def test_physics_report(capsys):
    rc, out = run_cli(
        capsys,
        "physics",
        "--a",
        "2um",
        "--z",
        "1um",
        "--t",
        "101.4",
        "--format",
        "json",
    )
    assert rc == 0
    rec = json.loads(out)
    z = length_to_natural(1.0, "um")
    assert rec["effective_temperature_K"] == pytest.approx(
        7.2973525693e-3 / (math.pi * 8.617333262e-5 * 510998.95 * z * z), rel=1e-10
    )
    assert rec["separation_threshold_m"] == pytest.approx(2.8329026e-13, rel=1e-7)
    assert rec["amplification_ratio"] > 1.0
    assert rec["validity"]["ok"] is True

    rc, out = run_cli(capsys, "physics", "--a", "2um", "--z", "1um", "--t", "101.4")
    assert rc == 0
    assert "effective temperature" in out


def test_adjudicate_then_reference(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    rc, out = run_cli(capsys, "adjudicate", "--out", str(out_path))
    assert rc == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest in out
    assert "certified True" in out

    rc, out = run_cli(
        capsys,
        "eval",
        "--quantity",
        "dv2-normal",
        "--a",
        "1",
        "--z",
        "0.5",
        "--t",
        "0.3",
        "--format",
        "json",
        "--adjudication",
        str(out_path),
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["adjudication"]["sha256"] == digest


def test_eval_late_normal_velocity_exits_0(capsys):
    rc, out = run_cli(
        capsys, "eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.3", "--t", "250000.3",
        "--format", "csv",
    )
    assert rc == 0
    assert parse_csv(out)[0]["status"] == "ok"


class _ReadRecorder(argparse.Namespace):
    """Namespace that remembers which attributes a handler read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "0.3", "--format", "json"],
        ["sweep", "--quantity", "dv2-normal", "--start", "0.1", "--stop", "0.3", "--steps", "2",
         "--a", "1", "--z", "0.5"],
        ["compare", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "0.3", "--oracle"],
        ["physics", "--a", "1", "--z", "0.5", "--t", "0.3"],
        ["adjudicate"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_flag_is_read_by_its_handler(capsys, tmp_path, argv):
    # A flag its handler never reads accepts a value and silently ignores it.
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {
        action.dest
        for action in sub.choices[argv[0]]._actions
        if not isinstance(action, argparse._HelpAction)
    }
    if argv[0] == "adjudicate":
        argv = [*argv, "--out", str(tmp_path / "cert.json")]
    args = _ReadRecorder(_reads=set())
    parser.parse_args(argv, namespace=args)
    args._reads.clear()
    assert args.func(args) == 0
    assert dests <= args._reads, f"never read: {sorted(dests - args._reads)}"


def test_physics_takes_only_text_and_json(capsys):
    with pytest.raises(SystemExit) as info:
        main(["physics", "--a", "1", "--z", "0.5", "--t", "0.3", "--format", "csv"])
    assert info.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_sweep_takes_only_csv_and_json(capsys):
    argv = ["sweep", "--quantity", "dv2-normal", "--start", "0.1", "--stop", "0.3", "--steps",
            "2", "--a", "1", "--z", "0.5"]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--format", "text"])
    assert info.value.code == 2
    assert "invalid choice: 'text'" in capsys.readouterr().err
    rc, default = run_cli(capsys, *argv)
    rc_csv, out = run_cli(capsys, *argv, "--format", "csv")
    assert rc == rc_csv == 0
    assert default == out


def test_sweep_json_carries_the_csv_rows(capsys):
    argv = ["sweep", "--quantity", "dv2-normal", "--start", "1.5", "--stop", "2.0", "--steps",
            "2", "--a", "1", "--z", "0.5"]
    rc, out = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["quantity"] == "dv2-normal"
    assert [r["status"] for r in rec["rows"]] == ["ok", "singular"]
    _, text = run_cli(capsys, *argv)
    first = parse_csv(text)[0]
    assert rec["rows"][0]["reduced"] == float(first["reduced"])
    assert rec["rows"][0]["n_used"] == int(first["n_used"])


def test_sweep_exit_code_precedence(capsys, monkeypatch):
    # with no ok row: singular before domain
    import platevac.cli as cli_mod

    def failing(kind, point, **kwargs):
        raise SingularWindowError("forced")

    monkeypatch.setattr(cli_mod, "dispersion_exact", failing)
    argv = ["sweep", "--quantity", "dv2-normal", "--var", "z", "--a", "1", "--t", "0.3",
            "--steps", "2"]
    rc, out = run_cli(capsys, *argv, "--start", "0.4", "--stop", "1.5")
    assert (rc, [r["status"] for r in parse_csv(out)]) == (3, ["singular", "domain"])


def test_compare_csv(capsys):
    rc, out = run_cli(
        capsys, "compare", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "0.01",
        "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["route", "value", "abs_diff_vs_exact", "rel_diff_vs_exact"]
    assert [r[0] for r in rows[1:]] == ["exact", "large_a"]
    assert rows[1][2:] == ["0", "0"]
    assert float(rows[2][3]) < 1e-4


def test_compare_oracle_over_the_image_cap_exit_4(capsys):
    rc = main(["compare", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "0.3",
               "--oracle", "--n-images", "3000000"])
    assert rc == 4
    assert "cap" in capsys.readouterr().err


def test_fmt_keeps_the_sign_of_infinity():
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(math.inf) == "inf"


@pytest.mark.parametrize("window", ["nan", "inf", "-1"])
def test_eval_malformed_window_exit_2(capsys, window):
    rc, out = run_cli(
        capsys, "eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "0.3",
        f"--window={window}",
    )
    assert rc == 2
    assert "status     domain" in out


def test_eval_time_in_seconds(capsys, tmp_path):
    rc, out = run_cli(
        capsys, "eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "2.5e-15s",
        "--format", "json", "--adjudication", str(tmp_path / "missing.json"),
    )
    assert rc == 0
    assert json.loads(out)["t"] == pytest.approx(time_to_natural(2.5e-15, "s"), rel=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5s", "--t", "0.3"],
        ["eval", "--quantity", "dv2-normal", "--a", "1x2", "--z", "0.5", "--t", "0.3"],
        ["eval", "--quantity", "dv2-normal", "--a", "1e", "--z", "0.5", "--t", "0.3"],
        ["sweep", "--quantity", "dv2-normal", "--start", "0.1", "--stop", "0.3", "--steps", "1",
         "--a", "1", "--z", "0.5"],
        ["sweep", "--quantity", "dv2-normal", "--start", "0", "--stop", "0.3", "--scale", "log",
         "--a", "1", "--z", "0.5"],
        ["sweep", "--quantity", "dv2-normal", "--var", "z", "--start", "0.3", "--stop", "0.7",
         "--t", "0.3"],
    ],
    ids=["time-unit-on-z", "bad-value", "bad-number", "one-step", "log-from-zero", "no-a"],
)
def test_malformed_input_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_text_prints_the_physical_value(capsys):
    rc, out = run_cli(
        capsys, "eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "0.3",
        "--particle", "electron",
    )
    assert rc == 0
    assert re.search(r"^physical   \S+ \(v/c\)\^2$", out, re.MULTILINE)


def test_physics_on_a_light_cone_reports_no_ratio(capsys):
    rc, out = run_cli(capsys, "physics", "--a", "1", "--z", "0.3", "--t", "0.6", "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["amplification_ratio"] is None
    assert "cone" in rec["amplification_note"]


def _compare_routes(capsys, argv, fmt):
    """{route: (value, abs diff, rel diff)} as the strings _fmt would print."""
    rc, out = run_cli(capsys, *argv, "--format", fmt)
    assert rc == 0
    if fmt == "json":
        rows = [list(r.values()) for r in json.loads(out)["routes"]]
        return {r[0]: tuple(_fmt(x) for x in r[1:]) for r in rows}
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["route", "value", "abs_diff_vs_exact", "rel_diff_vs_exact"]
        return {r[0]: tuple(r[1:]) for r in rows[1:]}
    routes = {}
    for line in out.splitlines():
        name, value, diff_label, diff, rel_label, *rel = line.split()
        assert (diff_label, rel_label) == ("diff", "rel")
        routes[name] = (value, diff, rel[0] if rel else "")
    return routes


@pytest.mark.parametrize(
    "point, approx", [(("1", "0.5", "0.01"), "large_a"), (("1", "0.5", "1000.5"), "large_t")]
)
def test_compare_formats_carry_the_same_routes(capsys, point, approx):
    a, z, t = point
    argv = ["compare", "--quantity", "dv2-normal", "--a", a, "--z", z, "--t", t, "--oracle"]
    by_format = [_compare_routes(capsys, argv, fmt) for fmt in ("json", "csv", "text")]
    assert list(by_format[0]) == ["exact", "quadrature", approx]
    assert by_format[0] == by_format[1] == by_format[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_main_repeats_in_process(capsys, tmp_path):
    evaluate = ["eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5", "--t", "0.3",
                "--format", "json", "--adjudication", str(tmp_path / "missing.json")]
    first = run_cli(capsys, *evaluate)
    rc, _ = run_cli(capsys, "sweep", "--quantity", "dv2-normal", "--var", "z", "--start", "2",
                    "--stop", "3", "--steps", "2", "--a", "1", "--t", "0.3")
    assert rc == 2
    with pytest.raises(SystemExit):
        main(["eval", "--quantity", "dv2-normal", "--bogus"])
    capsys.readouterr()
    assert run_cli(capsys, *evaluate) == first


def test_sweep_parses_a_given_swept_flag(capsys):
    argv = ["sweep", "--quantity", "dv2-normal", "--var", "z", "--start", "0.1", "--stop", "0.9",
            "--steps", "3", "--a", "1", "--t", "0.3"]
    assert main([*argv, "--z", "1x2"]) == 2
    assert capsys.readouterr().err == "error: cannot parse value '1x2'\n"
    assert run_cli(capsys, *argv, "--z", "0.4") == run_cli(capsys, *argv)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, rc, expect",
    [
        ("eval --quantity dv2-normal --a 1 --z 0.3 --t 5e-324", 0, "sing_dist  inf"),
        ("eval --quantity dv2-normal --a 1e-200 --z 1e-300 --t 1e300", 2, "status     domain"),
        ("compare --quantity dv2-normal --a 1e300 --z 2.7 --t 0.3", 0, "large_a"),
        ("compare --quantity dv2-parallel --a 1e-320 --z 5e-324 --t 0", 0, "large_a  0 "),
        ("compare --quantity dv2-parallel --a 1e-155 --z 1e-320 --t 0", 0, "large_a  0 "),
        ("physics --a 1 --z 0.5 --t 0 --format json", 0, '"amplification_ratio": null'),
        ("physics --a 1 --z 0.5 --t 1e999", 2, "must be finite"),
        ("physics --a 1e7 --z 1e-200 --t 1", 2, "float range"),
        ("physics --a 1.5e308 --z 1e300 --t 1", 2, "float range"),
        ("compare --quantity dx2-parallel --a 1e300 --z 1e7 --t 1e155 --oracle", 2, "float range"),
    ],
)
def test_extreme_inputs_give_a_value_or_a_typed_error(capsys, argv, rc, expect):
    assert main(argv.split()) == rc
    captured = capsys.readouterr()
    assert expect in captured.out + captured.err


def test_compare_at_a_huge_separation_is_the_single_plate_value(capsys):
    rc, out = run_cli(capsys, "compare", "--quantity", "dv2-normal", "--a", "1e300", "--z", "2.7",
                      "--t", "0.3", "--format", "json")
    assert rc == 0
    routes = {r["route"]: r["value"] for r in json.loads(out)["routes"]}
    single = single_plate_reference("dv2-normal", 2.7, 0.3)
    assert routes["large_a"] == pytest.approx(single, rel=1e-15)
    assert routes["exact"] == pytest.approx(single, rel=1e-15)


_EXTREMES = ["0", "5e-324", "1e-320", "1e-200", "1e-155", "1e154", "1e300", "1.5e308", "1e999",
             "1", "0.3", "0.5", "2.7", "1e7"]
_QUANTITIES = ["dv2-normal", "dv2-parallel", "dx2-normal", "dx2-parallel"]


def _fuzz_argv(rng):
    command = rng.choice(["eval", "compare", "physics", "sweep"])
    a, z, t = (rng.choice(_EXTREMES) for _ in range(3))
    point = ["--a", a, "--z", z, "--t", t]
    if command == "physics":
        return [command, *point, "--format", rng.choice(["text", "json"])]
    quantity = ["--quantity", rng.choice(_QUANTITIES)]
    if command == "sweep":
        var = rng.choice("azt")
        bounds = ["--start", rng.choice(_EXTREMES), "--stop", rng.choice(_EXTREMES), "--steps", "3"]
        return [command, *quantity, "--var", var, *bounds, "--scale",
                rng.choice(["linear", "log"]), *point, "--format", rng.choice(["csv", "json"])]
    oracle = ["--oracle"] if command == "compare" and rng.random() < 0.3 else []
    return [command, *quantity, *point, *oracle, "--format", rng.choice(["text", "json", "csv"])]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_no_argv_ends_in_a_traceback(capsys):
    # Seeded draws of a, z and t from zero, subnormals, the edges of the float range and beyond.
    # Warnings are errors, and every JSON output must parse as strict JSON.
    rng = random.Random(2004)
    for _ in range(4000):
        argv = _fuzz_argv(rng)
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        out = capsys.readouterr().out
        assert rc in (0, 2, 3, 4, 5), argv
        if "json" in argv and out:
            json.loads(out, parse_constant=_reject_constant)


def test_json_is_strict_and_command_line_numbers_are_finite(capsys):
    rc, out = run_cli(capsys, "eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.3",
                      "--t", "5e-324", "--format", "json")
    assert rc == 0
    assert json.loads(out, parse_constant=_reject_constant)["sing_dist"] is None  # inf in text
    sweep = ["sweep", "--quantity", "dv2-normal", "--start", "1e999", "--stop", "1e999",
             "--a", "1", "--z", "0.5", "--format", "json"]
    for argv in (sweep, ["eval", "--quantity", "dv2-normal", "--a", "1", "--z", "0.5",
                         "--t=-1e999", "--format", "json"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err


@pytest.mark.filterwarnings("error")
def test_sweep_between_the_ends_of_the_float_range(capsys):
    # stop - start overflows; the grid is formed without that difference and without warnings
    rc, out = run_cli(capsys, "sweep", "--quantity", "dv2-normal", "--var", "t",
                      "--start=-1.5e308", "--stop", "1.5e308", "--steps", "3",
                      "--a", "1", "--z", "0.5")
    rows = parse_csv(out)
    assert [float(r["value"]) for r in rows] == [-1.5e308, 0.0, 1.5e308]
    assert [r["status"] for r in rows] == ["domain", "ok", "singular"]
    assert rc == 0
