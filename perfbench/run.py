"""Benchmark of the critvals pipeline.

    python3 perfbench/run.py --workload arc-elim --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One process, no extra threads.  A run imports the package from `src/` beside
this directory, builds the workload's operations from the seed, and repeats
passes over them until `--seconds` have gone by.  Every output is checked
against its reference outside the timed region, and the outputs of every pass
must equal those of the first.  With `--trace 0` the last line of standard
output is one JSON object with the end-to-end metrics; with `--trace 1`
untraced and traced passes alternate and it carries the per-layer metrics.
A record of the run, with its spans when traced, goes to `perfbench/out/`.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

# One process and one thread: numpy's BLAS would otherwise start a pool of
# worker threads when the package imports it.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9  # setup_s is the median of at least this many set-ups in one run
END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def package_modules() -> dict[str, Any]:
    return {name: m for name, m in sys.modules.items() if name == "critvals" or name.startswith("critvals.")}


def import_package():
    """A fresh import of critvals from this checkout's src/."""
    for name in package_modules():
        del sys.modules[name]
    cv = importlib.import_module("critvals")
    if Path(cv.__file__).resolve().parent != SRC / "critvals":
        raise SystemExit(f"imported critvals from {cv.__file__}, not from {SRC}")
    return cv


def set_up(workload: str, seed: int):
    """Import the package afresh, build the seeded inputs and finish the
    warm-up operation (the workload's first, whose cost does not follow the
    seed).  Returns the time taken, the package and the operations."""
    gc.collect()
    start = time.perf_counter()
    cv = import_package()
    ops = workloads.build(workload, seed, cv)
    timed(ops[0])
    return time.perf_counter() - start, cv, ops


def sample_set_up(workload: str, seed: int) -> float:
    """Time one more set-up, then put back the package the passes run on."""
    kept = package_modules()
    seconds = set_up(workload, seed)[0]
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return seconds


def timed(op) -> tuple[float, Any, Exception | None]:
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as e:  # noqa: BLE001 - every failure of an operation is counted
        return time.perf_counter() - start, None, e
    return time.perf_counter() - start, out, None


def failing_layer(e: Exception) -> str:
    """Layer of the innermost package frame the exception passed through."""
    layer = "?"
    tb = e.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("critvals."):
            layer = module.split(".", 1)[1]
        tb = tb.tb_next
    return layer


def same(a: tuple, b: tuple) -> bool:
    """Two attempts of one operation agree: equal outputs, or the same error."""
    (_, out_a, err_a), (_, out_b, err_b) = a, b
    if err_a is not None or err_b is not None:
        return type(err_a) is type(err_b) and str(err_a) == str(err_b)
    return out_a == out_b


def measure(workload: str, seed: int, seconds: float, traced_run: bool) -> dict:
    # The first set-up imports numpy and may compile the package's bytecode;
    # setup_s is the median of warm set-ups, one before each pass, so that
    # its samples are spread over the whole run.
    setup_cold, cv, ops = set_up(workload, seed)
    setup_times: list[float] = []
    tracer = spans.Tracer()
    first: list[tuple] | None = None
    passes: list[dict] = []
    stats = {op.name: {"status": "ok", "detail": None, "limit": []} for op in ops}
    span_log: list[list] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        setup_times.append(sample_set_up(workload, seed))
        traced = traced_run and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            restore = tracer.install(cv)
        attempts = []
        gc.collect()  # start every pass from the same collector state
        start = time.perf_counter()
        for k, op in enumerate(ops):
            tracer.op_id = k
            attempts.append(timed(op))
        wall = time.perf_counter() - start
        if traced:
            restore()
            layers = tracer.layer_metrics()
            span_log += [[*s, len(passes)] for s in tracer.spans]
        for op, attempt in zip(ops, attempts):
            err = attempt[2]
            if err is not None and type(err).__name__ == "LimitExceeded":
                # traced: the innermost open span when the limit tripped
                span = tracer.stage_of.get(id(err), "") if traced else None
                stage = span.split(".")[0] if traced else failing_layer(err)
                stats[op.name]["limit"].append(
                    {"which": err.which, "stage": stage, "span": span, "seconds": attempt[0],
                     "overrun_s": attempt[0] - op.budget_s if op.budget_s else None}
                )
        if first is None:
            first = attempts
        else:
            for op, a, b in zip(ops, first, attempts):
                if not same(a, b):
                    stats[op.name].update(status="nondeterministic", detail=f"pass {len(passes)} differs from pass 0")
        passes.append({"wall_s": wall, "traced": traced, "op_s": [a[0] for a in attempts],
                       "layers": layers if traced else None})
        del attempts
    while len(setup_times) < SETUPS:
        setup_times.append(sample_set_up(workload, seed))

    for op, (_, out, err) in zip(ops, first):
        st = stats[op.name]
        if st["status"] != "ok":
            continue
        if err is None:
            problem = op.check(out)
            if problem:
                st.update(status="wrong", detail=problem)
        elif not (type(err).__name__ == "LimitExceeded" and err.which == op.expect_limit):
            st.update(status="error", detail=f"{type(err).__name__}: {err}")

    untraced = [p for p in passes if not p["traced"]]
    attempted = len(ops) * len(passes)
    failed = sum(len(passes) for st in stats.values() if st["status"] != "ok")
    trips = sum(len(st["limit"]) for st in stats.values() if st["status"] == "ok")
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "op_p50_s": statistics.median(statistics.median(p["op_s"]) for p in untraced),
        "op_max_s": statistics.median(max(p["op_s"]) for p in untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_rate": (failed + trips) / attempted,
    }
    units = {**END_TO_END, "fail_rate": "ratio"}
    if traced_run:
        traced_passes = [p for p in passes if p["traced"]]
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced_passes)
            for name in spans.LAYER_METRICS
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced_passes) / statistics.median(p["wall_s"] for p in untraced) - 1
        )
        overruns = [t["overrun_s"] for st in stats.values() for t in st["limit"] if t["overrun_s"] is not None]
        metrics["cli.budget_overrun_s"] = statistics.median(overruns) if overruns else 0.0
        units = spans.LAYER_METRICS
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced_run),
        "environment": {
            "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
        },
        "correct": failed == 0, "attempted": attempted, "failed": failed, "limit_trips": trips,
        "passes": len(passes), "ops_per_pass": len(ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "operations": [{"name": op.name, **stats[op.name], "seconds": [p["op_s"][k] for p in passes]}
                       for k, op in enumerate(ops)],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_cold_s": setup_cold,
        "setup_times_s": setup_times,
        "spans": {"fields": ["name", "start", "end", "parent", "op", "pass"], "rows": span_log} if traced_run else None,
    }


def report(result: dict) -> None:
    env = result["environment"]
    print(f"# critvals benchmark: workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    print(f"# {result['passes']} passes x {result['ops_per_pass']} operations: attempted={result['attempted']} "
          f"failed={result['failed']} over-budget={result['limit_trips']}")
    for op in result["operations"]:
        for trip in op["limit"][:1]:
            overrun = f", {trip['overrun_s']:.3f} s past the budget" if trip["overrun_s"] is not None else ""
            print(f"# {op['name']}: LimitExceeded({trip['which']}) in stage {trip['stage']}{overrun}")
        if op["status"] != "ok":
            print(f"# {op['name']}: {op['status']}: {op['detail']}")
    for name, m in result["metrics"].items():
        note = f"  (median over passes of the median of {result['ops_per_pass']} operations)" if name == "op_p50_s" else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one short run of every workload, both modes; "
                   "checks that every metric in BENCHMARK.json is emitted with a unit")
    args = p.parse_args(argv)
    if not (SRC / "critvals" / "__init__.py").is_file():
        print(f"no critvals package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    report(result)
    metrics = result["metrics"]
    if not args.trace:
        metrics = {k: v for k, v in metrics.items() if k in END_TO_END}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = measure(workload, 0, 0.0, bool(trace))
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} missing or not in {m['unit']}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: outputs failed their reference checks")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics, correct={result['correct']}", flush=True)
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
