"""The benchmark's tracer still finds every name it wraps, and its counters still read.

``bench/tracing.py`` wraps platevac's functions from outside, by name, and
its counters read fixed argument positions and results. A refactor that
renames or reshapes one of them breaks ``bench/run.py --trace 1``; this
test catches that in the library's own suite.
"""

import contextlib
import importlib.util
import io
import math
import time
from pathlib import Path

import platevac
import platevac.cli  # the tracer wraps platevac.cli.main; ``import platevac`` alone does not load it
from platevac import EvalPoint, Geometry

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_span_for_every_traced_name():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    original = platevac.correlators._lattice_scalar
    start = time.perf_counter_ns()
    tracer.install(platevac)
    try:
        point = EvalPoint(Geometry(1.0, 0.5), 0.3)
        platevac.dispersion_exact("dv2-normal", point)
        platevac.efield_correlator_parallel(0.5, 1.0, 0.3)
        platevac.efield_correlator_normal(0.5, 1.0, 0.3)
        platevac.renormalized_photon_two_point(2, 2, 3.7, 0.1, 0.2, 0.3, 0.4, 1.0)
        platevac.approx_large_t("dv2-normal", EvalPoint(Geometry(1.0, 0.5), 1000.5))
        platevac.dispersion_via_quadrature("dv2-normal", point)
        before = len(tracer.spans)
        platevac.velocity_kernel_parallel(0.3, 0.2)
        single_image = [span[0] for span in tracer.spans[before:]]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = platevac.cli.main(
                ["eval", "--quantity", "dv2-parallel", "--a", "1", "--z", "0.3", "--t", "2.7"]
            )
    finally:
        tracer.uninstall()
    wall = time.perf_counter_ns() - start
    assert rc == 0
    assert platevac.correlators._lattice_scalar is original
    names = {span[0] for span in tracer.spans}
    assert names >= {
        "cli.main",
        "dispersions.dispersion_exact",
        "kernels.singularity_report",
        "kernels.scaled",
        "correlators.grouped_sum",
        "correlators.efield",
        "correlators.photon_two_point",
        "correlators.lattice_scalar",
        "asymptotics.approx_large_t",
        "oracle.dispersion_via_quadrature",
    }
    # A single image shares the lattices' evaluator, which reads _SCALED at call time.
    assert "kernels.scaled" in single_image
    # The photon function is in closed form: it never reaches the grouped image sum.
    by_index = dict(enumerate(tracer.spans))
    assert not any(
        span[0] == "correlators.grouped_sum" and by_index[span[4]][0] == "correlators.lattice_scalar"
        for span in tracer.spans if span[4] >= 0
    )
    # Every counter reads its arguments and results: a reshaped call fails here, not only
    # in bench/run.py --trace 1.
    metrics = tracing.layer_metrics(tracer, wall, wall)
    assert all(math.isfinite(value) for value, _ in metrics.values())
