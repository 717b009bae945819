"""platevac benchmark: run one workload in one process on one thread.

    python3 bench/run.py --workload late-time --seed 1 --seconds 40 --trace 0

Drives platevac only through its public entry points: ``platevac.cli.main``
in-process with stdout captured, and the functions ``platevac`` exports.
Operations run in a closed loop with one caller, in whole rounds (see
workloads.py), for at least ``--seconds`` and at least the workload's
minimum number of rounds. The timing metrics come from every operation
of the run. The outputs of the first rounds
are then checked against the independent reference (checks.py).

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics. ``--trace 1`` runs the workload's minimum number of
rounds with every layer boundary wrapped (tracing.py), runs each round
again untraced right after it to measure the tracing overhead, and reports the per-layer
metrics instead. Result and trace files go to bench/out/.
"""

import os

# One thread: pin BLAS and OpenMP pools before numpy is imported, here and
# in the set-up probes this process starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7


def import_platevac():
    """Import the checkout's platevac from src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import platevac
        import platevac.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import platevac from {SRC}: {exc}")
    if Path(platevac.__file__).resolve().parent != (SRC / "platevac").resolve():
        sys.exit(f"bench: imported platevac from {platevac.__file__}, not from {SRC}")
    return platevac


def execute(pv, op):
    """Run one operation; CLI output is captured and returned with the exit code."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pv.cli.main(op.argv)
        return rc, out.getvalue()
    return getattr(pv, op.func)(*op.args)


def run_rounds(pv, load, seed, seconds=None, rounds=None, tracer=None, untraced_ns=None,
               between=None):
    """Closed loop over whole rounds. Returns (records, latencies_ns, round_ns, rss_mb).

    Generation of a round is not timed; round_ns holds the time from each
    round's first operation to the end of its last. With a tracer, each
    round runs traced and then once more untraced, its time appended to
    untraced_ns: the two runs of a round fall in the same phase of the
    machine's speed, so their difference is the tracing's cost.
    ``between`` is called before each round with the time run so far. rss_mb is the peak
    resident set after the workload's minimum number of rounds: a fixed
    amount of work, since heap fragmentation keeps raising it a little
    with every later round, and how many rounds fit in the run depends on
    the machine's speed.
    """
    stream = load.rounds(random.Random(seed))
    records, latencies, round_ns = [], [], []
    done = 0
    rss_mb = None
    while True:
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= load.min_rounds and sum(round_ns) >= seconds * 1e9:
            break
        if between is not None:
            between(sum(round_ns))
        ops = next(stream)
        if tracer is not None:
            tracer.install(pv)
        round_start = time.perf_counter_ns()
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            start = time.perf_counter_ns()
            try:
                result, error = execute(pv, op), None
            except pv.PlatevacError as exc:
                result, error = None, exc
            end = time.perf_counter_ns()
            if error is None and op.kind == "cli" and result[0] != 0:
                error = f"exit code {result[0]}"
            latencies.append(end - start)
            records.append((op, result, error, done))
        round_ns.append(time.perf_counter_ns() - round_start)
        if tracer is not None:
            tracer.uninstall()
            round_start = time.perf_counter_ns()
            for op in ops:
                try:
                    execute(pv, op)
                except pv.PlatevacError:
                    pass
            untraced_ns.append(time.perf_counter_ns() - round_start)
        done += 1
        if done == load.min_rounds:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, latencies, round_ns, rss_mb


def points(op, result, error, adjudication_rows):
    """Values one operation delivered: sweep rows, compare routes, grid rows."""
    if error is not None:
        return 0
    if op.kind == "lib":
        return 1
    rc, out = result
    if op.argv[0] == "sweep":
        return sum(1 for line in out.splitlines()[1:] if line.endswith(",ok"))
    if op.argv[0] == "compare":
        return len(json.loads(out)["routes"])
    return adjudication_rows


def round_median_mean(latencies, slots):
    """Mean over the run's rounds of each round's median operation latency.

    Every round is one pass over the same mix of operations, taken within
    a second or two, so its median is the median of the mix at the
    host's speed of that moment. The mean over rounds moves with a slow
    phase of the host in proportion to its length, as points_per_s does.
    The median of all the run's samples moves more: the mix has gaps in
    its costs next to the median, so a few samples more or fewer on one
    side move it across a gap.
    """
    rounds = [sorted(latencies[k:k + slots]) for k in range(0, len(latencies), slots)]
    return statistics.fmean(r[rank(50, slots) - 1] for r in rounds)


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples beyond it."""
    return max(p for p in range(1, 100) if n - rank(p, n) >= 10)


def rank(p, n):
    """Nearest rank, from 1, of the p-th percentile of n samples."""
    return max(1, -(-p * n // 100))


def encode_op(pv, op):
    """An operation as JSON, so that a set-up probe needs nothing but platevac."""
    if op.kind == "cli":
        return json.dumps({"argv": op.argv})
    args = [{"point": [x.geometry.a, x.geometry.z, x.t]} if isinstance(x, pv.EvalPoint) else x
            for x in op.args]
    return json.dumps({"func": op.func, "args": args})


def decode_op(pv, text):
    data = json.loads(text)
    if "argv" in data:
        return SimpleNamespace(kind="cli", argv=data["argv"])
    args = [pv.EvalPoint(pv.Geometry(*x["point"][:2]), x["point"][2]) if isinstance(x, dict)
            else x for x in data["args"]]
    return SimpleNamespace(kind="lib", func=data["func"], args=args)


class SetupProbes:
    """Times set-up: a fresh interpreter, from its start to its first completed operation.

    Called between rounds, it starts the next of SETUP_PROBES probes once
    another 1/SETUP_PROBES of the run's timed seconds has passed, so that
    the probes sample the whole run rather than one moment of the
    machine's speed; ``median`` finishes any left.
    """

    def __init__(self, op_json, seconds):
        self.op_json, self.seconds, self.times = op_json, seconds, []

    def __call__(self, elapsed_ns):
        if (len(self.times) < SETUP_PROBES
                and elapsed_ns >= len(self.times) * self.seconds * 1e9 / SETUP_PROBES):
            self.times.append(probe_once(self.op_json))

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self.times.append(probe_once(self.op_json))
        return statistics.median(self.times)


def probe_once(op_json):
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe", op_json],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def probe(op_json):
    """Child side of a set-up probe: import platevac, run one operation.

    The operation comes ready-made from the parent, so that the benchmark's
    own modules (and the mpmath its reference imports) stay out of the
    time measured.
    """
    pv = import_platevac()
    op = decode_op(pv, op_json)
    try:
        execute(pv, op)
    except pv.PlatevacError:
        pass
    print("ready", flush=True)
    return 0


def check(pv, load, records):
    """Check the first rounds in full, and the later ones for failures."""
    import checks

    checker = checks.Checker()
    limit = load.check_rounds
    checked = [(op, result, error) for op, result, error, rnd in records if rnd < limit]
    checks.CHECKS[load.name](pv, checked, checker)
    # Later rounds repeat the same composition; their operations must
    # still succeed, or fail only as expected.
    for op, result, error, rnd in records:
        if rnd >= limit and error is not None and not checks.expected_failure(op, error):
            checker.fail(f"round {rnd}: {op.func or op.argv[0]} gave {error!r}")
            break
    return checker


def adjudication_rows(load):
    path = getattr(load, "out_path", None)
    if path is None or not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        return len(json.load(fh)["grid"])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--probe"] and len(argv) == 2:
        return probe(argv[1])
    parser = argparse.ArgumentParser(description="platevac benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pv = import_platevac()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    load = workloads.workload(args.workload, OUT)

    metrics = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        untraced_ns = []
        try:
            # A fixed number of rounds, so that every count repeats exactly
            # for a seed.
            records, latencies, round_ns, _ = run_rounds(
                pv, load, args.seed, rounds=load.min_rounds, tracer=tracer,
                untraced_ns=untraced_ns)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace_{args.workload}.jsonl")
        layers = tracing.layer_metrics(tracer, sum(round_ns), sum(untraced_ns))
        for name, (value, unit) in layers.items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        first = next(load.rounds(random.Random(args.seed)))[0]
        probes = SetupProbes(encode_op(pv, first), args.seconds)
        records, latencies, round_ns, peak_rss_mb = run_rounds(
            pv, load, args.seed, seconds=args.seconds, between=probes)
        setup_s = probes.median()

    checker = check(pv, load, records)
    attempted = len(records)
    failed = sum(1 for rec in records if rec[2] is not None)

    if not args.trace:
        rows = adjudication_rows(load)
        delivered = sum(points(*rec[:3], rows) for rec in records)
        lat = sorted(latencies)
        tail = tail_percentile(len(lat))
        p50 = round_median_mean(latencies, len(records) // len(round_ns))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "points_per_s": {"value": delivered / (sum(lat) * 1e-9), "unit": "1/s"},
            "latency_p50_ms": {"value": p50 * 1e-6, "unit": "ms"},
            "latency_tail_ms": {"value": lat[rank(tail, len(lat)) - 1] * 1e-6, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "accuracy_digits": {"value": checker.accuracy_digits(), "unit": "digits"},
        }

    for message in checker.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(round_ns)}  "
          f"attempted {attempted}  failed {failed}  checked {checker.checked}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not checker.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result_{args.workload}_{args.seed}_{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
