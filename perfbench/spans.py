"""Span tracing from outside the program, and the per-layer metrics it yields.

`Tracer.install(cv)` replaces each traced function in every module of the
package that binds it (for example `critvals.solve.buchberger`,
`critvals.certify.build_system`, `critvals.report.refine_interval`) with a
wrapper that records a span: name, start, end, parent span and operation id.
Spans stay in memory until the benchmark writes them out.  A span's self time
is its duration minus the durations of its direct children; spans nest
strictly because the program is single-threaded.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

# (module, function) -> span name.  The span name's prefix is the layer.
TRACED = {
    ("arcs", "substitute"): "arcs.substitute",
    ("systems", "build_system"): "systems.build_system",
    ("systems", "build_av_system"): "systems.build_av_system",
    ("groebner", "buchberger"): "groebner.buchberger",
    ("univariate", "squarefree_part"): "univariate.squarefree_part",
    ("univariate", "isolate_real_roots"): "univariate.isolate_real_roots",
    ("univariate", "refine_interval"): "univariate.refine_interval",
    ("univariate", "approx_complex_roots"): "univariate.approx_complex_roots",
    ("solve", "compute_k0"): "solve.compute_k0",
    ("solve", "compute_kinf"): "solve.compute_kinf",
    ("solve", "compute_k"): "solve.compute_k",
    ("solve", "compute_sF"): "solve.compute_sF",
    ("certify", "certify_zero"): "certify.certify_zero",
    ("certify", "certify_real"): "certify.certify_real",
    ("certify", "certify_critical_point"): "certify.certify_critical_point",
    ("certify", "malgrange_probe"): "certify.malgrange_probe",
    ("report", "build_value_set_report"): "report.build_value_set_report",
    ("report", "build_sf_report"): "report.build_sf_report",
    ("cli", "run"): "cli.run",
}
MODULES = ("arcs", "systems", "groebner", "univariate", "solve", "certify", "report", "cli")

# Per-layer metrics, in the order they are reported, with their units.
LAYER_METRICS = {
    "arcs.substitute_s": "s",
    "arcs.substitute_calls": "count",
    "arcs.series_terms": "count",
    "systems.build_self_s": "s",
    "systems.build_calls": "count",
    "systems.generators": "count",
    "systems.generator_terms": "count",
    "groebner.buchberger_s": "s",
    "groebner.calls": "count",
    "groebner.input_terms": "count",
    "groebner.basis_size": "count",
    "groebner.max_coeff_bits": "bits",
    "groebner.limit_trips": "count",
    "univariate.squarefree_s": "s",
    "univariate.isolate_s": "s",
    "univariate.refine_s": "s",
    "univariate.refine_calls": "count",
    "univariate.complex_roots_s": "s",
    "univariate.eliminant_degree": "degree",
    "certify.zero_s": "s",
    "certify.zero_calls": "count",
    "certify.certified_share": "ratio",
    "certify.probe_s": "s",
    "solve.self_s": "s",
    "report.build_s": "s",
    "report.serialize_s": "s",
    "report.bytes": "bytes",
    "cli.self_s": "s",
    "cli.budget_overrun_s": "s",
    "trace.overhead_frac": "ratio",
}

# Time metrics as (metric, span names, self time instead of duration).
_TIMES = (
    ("arcs.substitute_s", ("arcs.substitute",), False),
    ("systems.build_self_s", ("systems.build_system", "systems.build_av_system"), True),
    ("groebner.buchberger_s", ("groebner.buchberger",), False),
    ("univariate.squarefree_s", ("univariate.squarefree_part",), False),
    ("univariate.isolate_s", ("univariate.isolate_real_roots",), True),
    ("univariate.refine_s", ("univariate.refine_interval",), True),
    ("univariate.complex_roots_s", ("univariate.approx_complex_roots",), False),
    ("certify.zero_s", ("certify.certify_zero",), False),
    ("certify.probe_s", ("certify.malgrange_probe",), False),
    ("solve.self_s", ("solve.compute_k0", "solve.compute_kinf", "solve.compute_k", "solve.compute_sF"), True),
    ("report.build_s", ("report.build_value_set_report", "report.build_sf_report"), True),
    ("report.serialize_s", ("report.to_json",), False),
    ("cli.self_s", ("cli.run",), True),
)


def _max_coeff_bits(polys) -> int:
    bits = 0
    for p in polys:
        for _, c in p.terms():
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters of one traced pass; `reset` starts the next pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, op
        self.counts: dict[str, float] = defaultdict(float)
        self.stage_of: dict[int, str] = {}  # id(exception) -> innermost span it left
        self._stack: list[int] = []
        self.op_id = -1

    def _count(self, name: str, args: tuple, result: Any) -> None:
        c = self.counts
        if name == "arcs.substitute":
            c["arcs.substitute_calls"] += 1
            c["arcs.series_terms"] += sum(p.num_terms() for p in result.coeffs.values())
        elif name.startswith("systems."):
            c["systems.build_calls"] += 1
            c["systems.generators"] += len(result.generators)
            c["systems.generator_terms"] += sum(g.num_terms() for g in result.generators)
        elif name == "groebner.buchberger":
            c["groebner.calls"] += 1
            c["groebner.input_terms"] += sum(g.num_terms() for g in args[0].generators)
            c["groebner.basis_size"] += len(result.basis)
            c["groebner.max_coeff_bits"] = max(c["groebner.max_coeff_bits"], _max_coeff_bits(result.basis))
        elif name == "univariate.refine_interval":
            c["univariate.refine_calls"] += 1
        elif name == "univariate.isolate_real_roots":
            c["univariate.eliminant_degree"] = max(c["univariate.eliminant_degree"], args[0].total_degree())
        elif name == "certify.certify_zero":
            c["certify.zero_calls"] += 1
            c["certify.certified"] += result.certified
        elif name == "report.to_json":
            c["report.bytes"] += len(result)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self.stage_of.setdefault(id(e), name)
                if name == "groebner.buchberger" and type(e).__name__ == "LimitExceeded":
                    self.counts["groebner.limit_trips"] += 1
                raise
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent, self.op_id)
                self._stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def install(self, cv) -> Callable[[], None]:
        """Wrap every binding of a traced function; returns the undo."""
        targets = {id(getattr(getattr(cv, mod), fn)): name for (mod, fn), name in TRACED.items()}
        undo = []
        for mod_name in MODULES:
            mod = getattr(cv, mod_name)
            for attr, value in list(vars(mod).items()):
                if id(value) in targets:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, self.wrap(targets[id(value)], value))
        report_cls = cv.report.CriticalValueReport
        undo.append((report_cls, "to_json", report_cls.to_json))
        report_cls.to_json = self.wrap("report.to_json", report_cls.to_json)

        def restore() -> None:
            for owner, attr, value in undo:
                setattr(owner, attr, value)

        return restore

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since `reset`."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])  # duration, self
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            acc = by_name[name]
            acc[0] += end - start
            acc[1] += end - start - children
        out = {}
        for metric, names, self_time in _TIMES:
            out[metric] = sum(by_name[n][1 if self_time else 0] for n in names if n in by_name)
        calls = self.counts.get("certify.zero_calls", 0)
        out["certify.certified_share"] = self.counts.get("certify.certified", 0) / calls if calls else 0.0
        for metric in LAYER_METRICS:
            out.setdefault(metric, self.counts.get(metric, 0.0))
        return out
