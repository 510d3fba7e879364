"""Run one benchmark workload and print its result as the last line of stdout.

    python3 bench/run.py --workload online-purify --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the workload up at least three times and for at least two
seconds (set-up time is the median), then runs whole rounds of its operations until ``--seconds`` have passed and
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` instead runs
traced passes (set-up plus a fixed number of rounds, at least two passes and
as many as fit in ``--seconds``), checks that every count repeats exactly
from pass to pass, reports the per-layer metrics and writes the spans to
``.bench_out/trace-<workload>-seed<seed>.json``.  The program is imported
from ``src/`` of the checkout this file sits in; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Set-up runs at least this many times and until this much time has passed,
# so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0


def _import_program() -> bool:
    src = ROOT / "src"
    if not (src / "lorid" / "__init__.py").is_file():
        print(f"error: no lorid package under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import lorid

    if Path(lorid.__file__).resolve().parent != (src / "lorid").resolve():
        print(f"error: imported lorid from {lorid.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(cls, seed: int, seconds: float, workdir: Path):
    """Untraced run: the end-to-end metrics."""
    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        wl = cls(seed, workdir)
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < wl.min_rounds or time.perf_counter() < deadline:
        wl.round()
        rounds += 1
    wl.finish()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (1e3 * statistics.median(wl.latencies), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = {"rounds": rounds, "setups": len(setups), "latency_samples": len(wl.latencies),
              **wl.figures}
    return wl.attempted, wl.failed, wl.problems, wl.failures, metrics, detail


def traced(cls, seed: int, seconds: float, workdir: Path, trace_path: Path):
    """Traced run: the per-layer metrics, with counts checked pass against pass."""
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        tracer = Tracer()
        with tracer.installed():
            wl = cls(seed, workdir, tracer)
            tracer.request = "setup"
            start = time.perf_counter()
            wl.setup()
            setup_s = time.perf_counter() - start
            for _ in range(wl.trace_rounds):
                wl.round()
        wl.finish()
        passes.append((wl, tracer, setup_s, tracer.layer_stats()))

    problems = [p for wl, *_ in passes for p in wl.problems]
    failures: dict[str, int] = {}
    for wl, *_ in passes:
        for kind, n in wl.failures.items():
            failures[kind] = failures.get(kind, 0) + n
    per_pass = [layer_metrics(stats) for *_, stats in passes]
    metrics = {}
    for name, unit, _, _ in LAYER_METRICS:
        values = [m[name] for m in per_pass]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                problems.append(f"trace: {name} differs between passes: {values}")
            metrics[name] = (values[0], unit)

    summary = [{"setup_s": setup_s, "latency_p50_ms": 1e3 * statistics.median(wl.latencies),
                "layers": layers} for wl, _, setup_s, layers in passes]
    last = passes[-1][1]
    trace_path.parent.mkdir(exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"span_fields": ["layer", "start", "end", "parent", "request", "error",
                                   "amount"],
                   "passes": summary, "spans": last.spans}, fh)
    layers = {layer: {stat: statistics.median(p["layers"][layer][stat] for p in summary)
                      for stat in ("calls", "s", "self_s", "amount", "rejected")}
              for layer in summary[0]["layers"]}
    detail = {"passes": len(passes), "trace_file": str(trace_path.relative_to(ROOT)),
              "traced_setup_s": statistics.median(p["setup_s"] for p in summary),
              "traced_latency_p50_ms": statistics.median(p["latency_p50_ms"] for p in summary),
              "layers": layers}
    attempted = sum(wl.attempted for wl, *_ in passes)
    failed = sum(wl.failed for wl, *_ in passes)
    return attempted, failed, problems, failures, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            result = traced(cls, args.seed, args.seconds, workdir, OUT / f"trace-{tag}.json")
        else:
            result = measure(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)
    attempted, failed, problems, failures, metrics, detail = result

    print(f"{tag}: {attempted} operations, {failed} failed {failures or ''}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    for name, value in detail.items():
        if name == "layers":
            for layer, st in value.items():
                print(f"  layer {layer}: " + ", ".join(f"{k} {v:.6g}" for k, v in st.items()))
        else:
            print(f"  {name} {value}")
    for p in problems[:20]:
        print(f"WRONG OUTPUT {p}", file=sys.stderr)
    with open(OUT / f"{'trace' if args.trace else 'run'}-{tag}.summary.json", "w") as fh:
        json.dump({"failures": failures, "problems": problems,
                   "metrics": {k: v for k, (v, _) in metrics.items()}, "detail": detail}, fh,
                  indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
