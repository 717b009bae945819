"""Per-layer spans, recorded by wrapping platevac's functions from outside.

Each wrapped call records a span: name, start, end of the call, end after
the span's own counting, the index of the enclosing span and the id of
the operation. Where a module calls another by a name it imported, the
wrapper replaces that name in the caller's namespace; nothing inside
platevac changes. Counts come from arguments and returned values
(``n_used``, array sizes), never from timers.

A span's self time is its call time minus the full time of its direct
children (their counting included), so the counting falls in no layer
and shows as ``trace.counting_ms``. The wrapper's own work before a
child span starts and after it ends does fall in the parent's self time;
``span_cost_ns`` measures it on a wrapped no-op, and the layer self times
are reported with it taken out.
"""

import json
import math
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op_id = -1

    def _wrap(self, original, name, count):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                extra = count(args, kwargs, result) if count is not None and result is not None else None
                tracer.spans[index] = (name, start, end, time.perf_counter_ns(), parent,
                                       tracer.op_id, extra)

        return traced

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self, pv):
        """Wrap every layer boundary of the imported platevac package."""
        import scipy.integrate

        cli, disp, corr = pv.cli, pv.dispersions, pv.correlators
        asym, orc = pv.asymptotics, pv.oracle

        def wrap_everywhere(owners, attr, name, count=None):
            wrapped = self._wrap(getattr(owners[0], attr), name, count)
            for owner in owners:
                self._patch(owner, attr, wrapped)

        wrap_everywhere([cli], "main", "cli.main")
        wrap_everywhere([pv, cli, disp], "dispersion_exact", "dispersions.dispersion_exact")
        wrap_everywhere([disp, corr, asym, orc], "singularity_report",
                        "kernels.singularity_report", _count_offsets)
        wrap_everywhere([disp, corr, orc], "_grouped_image_sum", "correlators.grouped_sum",
                        _count_grouped)
        for attr in ("efield_correlator_parallel", "efield_correlator_normal"):
            wrap_everywhere([pv], attr, "correlators.efield", _count_n_used)
        wrap_everywhere([pv], "renormalized_photon_two_point", "correlators.photon_two_point")
        wrap_everywhere([corr], "_lattice_scalar", "correlators.lattice_scalar", _count_lattice)
        wrap_everywhere([pv, cli], "approx_large_t", "asymptotics.approx_large_t")
        wrap_everywhere([pv, cli, orc], "dispersion_via_quadrature",
                        "oracle.dispersion_via_quadrature")
        wrap_everywhere([orc], "_image_integral", "oracle.image_integral")
        wrap_everywhere([orc], "_finite_part_image", "oracle.finite_part_image")
        wrap_everywhere([orc], "certification_report", "oracle.certification_report")
        wrap_everywhere([cli], "write_adjudication", "oracle.write_adjudication")
        wrap_everywhere([scipy.integrate], "quad", "oracle.quad")

        kernels = pv.kernels
        cuts = (kernels._G_SERIES_CUT, kernels._U_LARGE)
        table = disp._SCALED
        for key, (scaled, per_x2) in list(table.items()):
            branches = _BRANCHES[scaled.__name__]
            wrapped = self._wrap(scaled, "kernels.scaled", _branch_counter(branches, cuts))
            self._patches.append((table, key, table[key]))
            table[key] = (wrapped, per_x2)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, end_total, parent, op, extra in self.spans:
                fh.write(json.dumps([name, start, end, end_total, parent, op, extra]) + "\n")

    def summary(self, span_cost_ns=0.0):
        """Per-layer metrics from the recorded spans.

        Each child span costs its parent span_cost_ns of wrapper work,
        which is taken out of the parent's layer.
        """
        child_ns = [0] * len(self.spans)
        wrapper_ns = [0.0] * len(self.spans)
        for name, start, end, end_total, parent, op, extra in self.spans:
            if parent >= 0:
                child_ns[parent] += end_total - start
                wrapper_ns[parent] += span_cost_ns
        agg = {}
        layer_self = {}
        root_ns = 0
        counting_ns = 0
        for i, (name, start, end, end_total, parent, op, extra) in enumerate(self.spans):
            self_ns = end - start - child_ns[i]
            entry = agg.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "extra": []})
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += self_ns
            if extra is not None:
                entry["extra"].append(extra)
            module = name.split(".")[0]
            layer_self[module] = layer_self.get(module, 0) + self_ns - wrapper_ns[i]
            counting_ns += end_total - end
            if parent < 0:
                root_ns += end_total - start
        return agg, layer_self, root_ns, counting_ns


def span_cost_ns(calls=20000, repeats=7):
    """Wrapper work one child span adds to its parent's self time, in ns.

    A wrapped no-op is called in a loop; the loop's time, less the time
    inside the recorded spans and less the same loop over the bare no-op,
    is the work outside the spans. Median over repeats.
    """
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer._wrap(noop, "noop", None)
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter_ns() - start
        inside = sum(end_total - begin for _, begin, _, end_total, *_ in tracer.spans)
        costs.append((traced - inside - bare) / calls)
    costs.sort()
    return costs[len(costs) // 2]


# Which branches each scaled kernel has: (series below the cut, inverse
# series at and above the large-u switch).
_BRANCHES = {
    "_vel_parallel_scaled": (False, True),
    "_vel_normal_scaled": (False, False),
    "_pos_parallel_scaled": (True, True),
    "_pos_normal_scaled": (True, False),
}


def _branch_counter(branches, cuts):
    has_series, has_inverse = branches
    series_cut, large = cuts

    def count(args, kwargs, result):
        u = np.asarray(args[0])
        n = u.size
        series = int(np.count_nonzero(u < series_cut)) if has_series else 0
        inverse = int(np.count_nonzero(u >= large)) if has_inverse else 0
        return (n, series, n - series - inverse, inverse)

    return count


def _count_offsets(args, kwargs, result):
    z, a, t = args[:3]
    n_max = args[3] if len(args) > 3 else kwargs.get("n_max")
    if t == 0.0:
        return 0
    if n_max is None:
        n_max = int(math.ceil((0.5 * t + z) / a)) + 1
    return 3 * n_max + 1


def _count_grouped(args, kwargs, result):
    return (result[2], args[5])


def _count_n_used(args, kwargs, result):
    return result.n_used


def _count_lattice(args, kwargs, result):
    n = result[2]
    return 2 * n + 1 if args[3] else 2 * n


def layer_metrics(tracer, wall_ns, untraced_ns):
    """The per_layer metrics of BENCHMARK.json, from a traced run."""
    cost = span_cost_ns()
    agg, layer_self, root_ns, counting_ns = tracer.summary(cost)

    def get(name):
        return agg.get(name, {"calls": 0, "ns": 0, "self_ns": 0, "extra": []})

    ms = 1e-6
    m = {}
    e = get("cli.main")
    m["cli.main.calls"] = (e["calls"], "count")
    m["cli.main.self_ms"] = (e["self_ns"] * ms, "ms")
    e = get("dispersions.dispersion_exact")
    m["dispersions.dispersion_exact.calls"] = (e["calls"], "count")
    m["dispersions.dispersion_exact.self_ms"] = (e["self_ns"] * ms, "ms")
    e = get("kernels.singularity_report")
    m["kernels.singularity_report.calls"] = (e["calls"], "count")
    m["kernels.singularity_report.ms"] = (e["ns"] * ms, "ms")
    m["kernels.singularity_report.offsets"] = (sum(e["extra"]), "count")
    e = get("kernels.scaled")
    elements = [sum(x[i] for x in e["extra"]) for i in range(4)]
    m["kernels.scaled.elements"] = (elements[0], "count")
    m["kernels.scaled.ms"] = (e["ns"] * ms, "ms")
    m["kernels.scaled.ns_per_element"] = (e["ns"] / elements[0] if elements[0] else 0.0, "ns")
    m["kernels.scaled.elements_series"] = (elements[1], "count")
    m["kernels.scaled.elements_closed"] = (elements[2], "count")
    m["kernels.scaled.elements_inverse"] = (elements[3], "count")
    e = get("correlators.grouped_sum")
    images = sum(x[0] for x in e["extra"])
    horizons = sum(x[1] for x in e["extra"])
    m["correlators.grouped_sum.calls"] = (e["calls"], "count")
    m["correlators.grouped_sum.self_ms"] = (e["self_ns"] * ms, "ms")
    m["correlators.grouped_sum.images"] = (images, "count")
    m["correlators.grouped_sum.images_per_horizon"] = (
        images / horizons if horizons else 0.0, "ratio")
    e = get("correlators.efield")
    m["correlators.efield.calls"] = (e["calls"], "count")
    m["correlators.efield.ms"] = (e["ns"] * ms, "ms")
    m["correlators.efield.images"] = (sum(e["extra"]), "count")
    e = get("correlators.photon_two_point")
    m["correlators.photon_two_point.calls"] = (e["calls"], "count")
    m["correlators.photon_two_point.ms"] = (e["ns"] * ms, "ms")
    m["correlators.photon_two_point.terms"] = (
        sum(get("correlators.lattice_scalar")["extra"]), "count")
    e = get("asymptotics.approx_large_t")
    m["asymptotics.approx_large_t.calls"] = (e["calls"], "count")
    m["asymptotics.approx_large_t.self_ms"] = (e["self_ns"] * ms, "ms")
    e = get("oracle.dispersion_via_quadrature")
    m["oracle.dispersion_via_quadrature.calls"] = (e["calls"], "count")
    m["oracle.dispersion_via_quadrature.ms"] = (e["ns"] * ms, "ms")
    m["oracle.image_integrals"] = (get("oracle.image_integral")["calls"], "count")
    m["oracle.finite_part_images"] = (get("oracle.finite_part_image")["calls"], "count")
    e = get("oracle.quad")
    m["oracle.quad.calls"] = (e["calls"], "count")
    m["oracle.quad.ms"] = (e["ns"] * ms, "ms")
    m["oracle.certification_report.ms"] = (get("oracle.certification_report")["ns"] * ms, "ms")
    for module in ("cli", "dispersions", "kernels", "correlators", "asymptotics", "oracle"):
        m[f"layer.{module}.self_ms"] = (layer_self.get(module, 0) * ms, "ms")
    self_sum = sum(layer_self.values())
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.wall_ms"] = (wall_ns * ms, "ms")
    m["trace.untraced_wall_ms"] = (untraced_ns * ms, "ms")
    m["trace.overhead_ms"] = ((wall_ns - untraced_ns) * ms, "ms")
    m["trace.layers_self_ms"] = (self_sum * ms, "ms")
    m["trace.span_cost_ns"] = (cost, "ns")
    m["trace.wrapper_ms"] = (sum(1 for s in tracer.spans if s[4] >= 0) * cost * ms, "ms")
    m["trace.counting_ms"] = (counting_ns * ms, "ms")
    m["trace.outside_spans_ms"] = ((wall_ns - root_ns) * ms, "ms")
    # The layer self times, wrapper work taken out, against the untraced
    # run of the same rounds: 1.0 when they account for all of it.
    m["trace.coverage"] = (self_sum / untraced_ns if untraced_ns else 0.0, "ratio")
    return m
