"""deformq benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cold-weights --seed 1 --seconds 15 --trace 0

Run from the root of a deformq checkout; the program is imported from its
`src/`.  Workloads and why they exist are listed in BENCHMARK.json.

--trace 0 times set-up (fresh-interpreter import of deformq plus input
preparation, repeated and the median kept), then repeats verified units of
work while a typical unit still fits in --seconds (always at least one),
and reports the end-to-end metrics.
--trace 1 times one fixed unit plainly and once more under the external
tracer (tracer.py), and reports the per-layer metrics and the overhead.

Lines before the last are details (machine, failures, per-graph weight
spans); the last line is the result JSON.  Spans and a full result copy go
to perfbench/out/.  The exit code is 0 when every output was correct, 1 when
an oracle failed, 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, per_layer

SETUP_REPEATS = 7
STARTUP_REPEATS = 5
OUT = Path(__file__).resolve().parent / "out"


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def machine_info(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not found)"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "commit": commit,
    }


def run_unit(fn, *args) -> workloads.Unit:
    """One unit; an exception from the program counts as a failed unit."""
    start = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the run goes on and reports it
        elapsed = time.perf_counter() - start
        return workloads.Unit(elapsed, [elapsed], 1, [f"{type(exc).__name__}: {exc}"])


def measure(wl, ctx: workloads.Context, seconds: float) -> tuple[dict, list, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import deformq.cli"], env=ctx.env, check=True)
        wl.setup()
        setups.append(time.perf_counter() - start)
    units = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(wl.unit, len(units)))
        # start another unit only if a typical one still fits the budget
        typical = statistics.median(u.seconds for u in units)
        if time.perf_counter() - start + typical > seconds:
            break
    latencies = [t for u in units for t in u.latencies]
    metrics = {
        "wall_s": (statistics.median(u.seconds for u in units), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "req_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "req_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
    }
    details = {"units": len(units), "requests": len(latencies), "setups_s": setups}
    return metrics, units, details


def weight_summary(tracer: Tracer) -> list[str]:
    """Per graph: Monte-Carlo rounds, samples per round, time, snapped value."""
    rounds: dict[int, list] = {}
    for span in tracer.spans_named("weights.weight_mc"):
        rounds.setdefault(span["parent"], []).append(span)
    lines = []
    for est in tracer.spans_named("weights.estimate_and_snap"):
        mc = rounds.get(est["id"], [])
        samples = [s["samples"] for s in mc if s["mc"]]
        lines.append(
            f"weight {est['graph']}: {len(samples)} MC round(s) {samples}, "
            f"{est['s']:.3f} s, snapped {est['snapped']}"
        )
    return lines


def trace(wl, ctx: workloads.Context, name: str) -> tuple[dict, list, dict]:
    wl.setup()
    plain = run_unit(wl.trace_unit)
    with Tracer() as tracer:
        traced = run_unit(wl.trace_unit)
    startup = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        ctx.deformq("graphs", "--n", "0", "--nbar", "2")
        startup.append(time.perf_counter() - start)
    metrics = per_layer(tracer)
    metrics["cli.startup_ms"] = (statistics.median(startup) * 1e3, "ms")
    metrics["trace_overhead"] = (traced.seconds / plain.seconds, "ratio")
    spans_path = OUT / f"trace-{name}-seed{ctx.seed}.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            if span:
                fh.write(json.dumps(span) + "\n")
    details = {
        "plain_s": plain.seconds,
        "traced_s": traced.seconds,
        "spans_file": str(spans_path.relative_to(ctx.root)),
        "weights": weight_summary(tracer),
    }
    return metrics, [plain, traced], details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "deformq" / "__init__.py", root / "tests" / ".weight_cache.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a deformq checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import deformq.cli  # noqa: F401 - imported outside the timed set-up

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    ctx = workloads.Context(root, args.seed, scratch)
    wl = workloads.WORKLOADS[args.workload](ctx)
    try:
        if args.trace:
            metrics, units, details = trace(wl, ctx, args.workload)
        else:
            metrics, units, details = measure(wl, ctx, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(u.attempted for u in units)
    failures = [f for u in units for f in u.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(root),
        "fail_rate": len(failures) / attempted,
        "failures": failures[:20],
        **details,
    }
    for line in details.get("weights", []):
        print(line)
    print(json.dumps({"info": info}))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
