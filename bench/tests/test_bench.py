"""The benchmark's own tests: tiny runs pass, perturbed outputs fail.

    python3 -m pytest -q bench/tests
"""

import random
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

pv = run.import_platevac()
import workloads  # noqa: E402


def _one_round(name, rounds=1, seed=7):
    load = workloads.workload(name, run.OUT)
    run.OUT.mkdir(exist_ok=True)
    records, latencies, round_ns, rss_mb = run.run_rounds(pv, load, seed, rounds=rounds)
    return load, records


def _check(name, records):
    checker = checks.Checker()
    checks.CHECKS[name](pv, [r[:3] for r in records], checker)
    return checker


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_round_passes_its_checks(name):
    load, records = _one_round(name)
    checker = _check(name, records)
    assert checker.failures == []
    assert checker.checked > 0
    assert 5.0 < checker.accuracy_digits() < 17.0


def test_same_seed_same_inputs():
    a = next(workloads.workload("early-sweep", run.OUT).rounds(random.Random(3)))
    b = next(workloads.workload("early-sweep", run.OUT).rounds(random.Random(3)))
    assert [op.argv for op in a] == [op.argv for op in b]


def test_expected_failures_are_counted_and_the_run_goes_on():
    load, records = _one_round("late-time", rounds=2)
    errors = [r[2] for r in records if r[2] is not None]
    assert len(records) == 2 * 79
    assert len(errors) == 4
    assert all(isinstance(e, pv.ConvergenceError) for e in errors)
    # The round after the failures ran in full.
    assert all(r[2] is None for r in records[79:156])
    assert _check("late-time", records).failures == []


def test_expected_failure_point_that_converges_is_checked_like_any_other():
    load = workloads.workload("late-time", run.OUT)
    op = next(load.rounds(random.Random(7)))[-1]
    assert op.meta["expect"] == "ConvergenceError"
    ref = float(mpmath.mpf(op.meta["ref"]["dv2-normal"][0]))
    tail = abs(ref) * 1e-10
    good = pv.ReducedValue(ref, tail, 3_000_000)
    bad = pv.ReducedValue(ref + 10 * tail, tail, 3_000_000)
    assert _check("late-time", [(op, good, None, 0)]).failures == []
    assert _check("late-time", [(op, bad, None, 0)]).failures
    other = pv.SingularWindowError("not the expected failure")
    assert len(_check("late-time", [(op, None, other, 0)]).failures) == 1


def test_setup_probe_runs_the_operation_it_is_given():
    for name in workloads.WORKLOADS:
        op = next(workloads.workload(name, run.OUT).rounds(random.Random(5)))[0]
        again = run.decode_op(pv, run.encode_op(pv, op))
        assert run.execute(pv, again) == run.execute(pv, op)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    for n, p in ((300, 96), (380, 97), (2000, 99)):
        assert run.tail_percentile(n) == p
        assert n - run.rank(p, n) >= 10 > n - run.rank(p + 1, n)


def test_p50_is_the_mean_of_the_round_medians():
    latencies = [5, 1, 9, 4, 2, 8, 3, 7, 6]
    assert run.round_median_mean(latencies, 3) == (5 + 4 + 6) / 3


def test_late_value_off_by_ten_tails_fails():
    load, records = _one_round("late-time")
    op, result, error, rnd = next(
        r for r in records if r[0].func == "dispersion_exact" and r[2] is None
        and r[0].meta["quantity"] == "dv2-normal")
    bad = pv.ReducedValue(result.value + 10 * result.tail_estimate, result.tail_estimate,
                          result.n_used)
    checker = _check("late-time", [(op, bad, None, 0)])
    assert len(checker.failures) == 1


def test_early_row_with_wrong_shifted_sign_fails():
    load, records = _one_round("early-sweep")
    op, (rc, out), error, rnd = next(
        r for r in records if r[0].meta["quantity"] == "dv2-normal" and r[0].meta["var"] == "t")
    lines = out.splitlines()
    i = op.meta["check_row"] + 1
    fields = lines[i].split(",")
    t = float(fields[1])
    point = pv.EvalPoint(pv.Geometry(op.meta["a"], op.meta["z"]), t)
    kind = pv.DispersionKind.coerce("dv2-normal")
    fields[2] = repr(pv.oracle._flipped_normal_sum(kind, point))
    lines[i] = ",".join(fields)
    checker = _check("early-sweep", [(op, (rc, "\n".join(lines) + "\n"), None, 0)])
    assert any("reference" in f for f in checker.failures)


def test_oracle_adjudication_digest_is_checked():
    load, records = _one_round("oracle")
    op, (rc, out), error, rnd = records[-1]
    assert op.argv[0] == "adjudicate"
    forged = out.replace("sha256 ", "sha256 0")
    checker = _check("oracle", [(op, (rc, forged), None, 0)])
    assert len(checker.failures) == 1


# --- the reference itself -------------------------------------------------


def _raw(axis, x, tau):
    d = tau * tau - 4 * x * x
    if axis == "parallel":
        return (tau * tau + 4 * x * x) / d**3
    return 1 / d**2


@pytest.mark.parametrize("quantity", reference.KINDS)
@pytest.mark.parametrize("x, t", [(0.7, 0.3), (2.5, 4.0), (1.0, 1.9)])
def test_reference_kernels_match_quadrature_before_the_cone(quantity, x, t):
    axis = quantity.split("-")[1]
    with mpmath.workdps(30):
        x, t = mpmath.mpf(x), mpmath.mpf(t)
        if quantity.startswith("dv2"):
            weight = lambda tau: 2 * (t - tau)  # noqa: E731
        else:
            weight = lambda tau: 2 * (t**3 / 3 - tau * t * t / 2 + tau**3 / 6)  # noqa: E731
        quad = mpmath.quad(lambda tau: weight(tau) * _raw(axis, x, tau), [0, t])
        closed = reference._terms((quantity,), x, t)[quantity][0]
        assert abs(quad - closed) <= mpmath.mpf("1e-25") * abs(closed)


def test_reference_dispersion_is_the_time_integral_of_the_correlator():
    # Before the first cone (t < 2z), dv2-normal is 2 int_0^t (t - tau) C(tau)
    # with C the normal E-field image sum: two independent reference sums.
    a, z, t = 1.0, 0.5, 0.4
    with mpmath.workdps(20):
        disp = reference.image_sums(("dv2-normal",), a, z, t)["dv2-normal"][0]

        def corr(tau):
            return reference.image_sums(("efield-normal",), a, z, tau)["efield-normal"][0]

        integral = mpmath.quad(lambda tau: 2 * (t - tau) * corr(tau), [0, t])
        assert abs(integral - disp) <= mpmath.mpf("1e-15") * abs(disp)


def test_reference_tail_agrees_with_a_longer_explicit_sum():
    a, z, t = 1.0, 0.3, 7.3
    short = reference.image_sums(reference.KINDS, a, z, t)
    original = reference._explicit_count
    try:
        reference._explicit_count = lambda a, z, t: 4 * original(a, z, t)
        long = reference.image_sums(reference.KINDS, a, z, t)
    finally:
        reference._explicit_count = original
    for q in reference.KINDS:
        assert abs(short[q][0] - long[q][0]) <= short[q][1] + long[q][1]


def test_photon_closed_form_matches_direct_lattice_sum():
    a, z, t, mu = 1.0, 0.3, 5.3, 1
    with mpmath.workdps(30):
        big_a = mpmath.mpf(t) ** 2

        def direct(s, include_zero):
            f = lambda n: 1 / (big_a - (s + 2 * n * a) ** 2)  # noqa: E731
            total = mpmath.nsum(f, [1, mpmath.inf]) + mpmath.nsum(f, [-mpmath.inf, -1])
            return total + (f(0) if include_zero else 0)

        plus = direct(2 * mpmath.mpf(z), True)
        minus = direct(mpmath.mpf(0), False)
        expected = (plus + (-1) * minus) / (4 * mpmath.pi**2)  # mu = 1: -(-1) plus, -1 minus
        got = reference.photon_two_point(mu, t, 0.0, 0.0, z, z, a)[0]
        assert abs(got - expected) <= mpmath.mpf("1e-12") * abs(expected)


def test_cone_distance_finds_the_nearest_cone():
    a, z = 1.0, 0.3
    for t in (0.55, 0.61, 2.0001, 3.39, 1000.37):
        cones = [2 * x for n in range(0, 600)
                 for x in ((n * a) if n else None, n * a + z, n * a - z) if x and x > 0]
        assert reference.cone_distance(a, z, t) == pytest.approx(min(abs(t - c) for c in cones))
