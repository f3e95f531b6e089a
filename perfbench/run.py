"""Benchmark of record for the CaWoSched reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program.  ``--trace 1`` repeats that measurement, then runs the same
operations again with span wrappers around each layer's entry point and
reports per-layer call counts and self times, plus the tracer's own
overhead; the spans are written to ``perfbench/out/`` as JSON lines.

Times are scaled by the machine's speed during the same pass, measured
with a fixed reference kernel (``reference.py``), because the shared
machine's speed drifts between runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the environment stamp, a metric table and the schedule digest.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text(encoding="utf8")) if SPEC_PATH.is_file() else None

#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 3
#: Every item runs at least this often; its median time enters the metrics.
MIN_PASSES = 2
#: Seconds between two samples of the reference kernel (about 10 ms each).
SAMPLE_INTERVAL_S = 0.1


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    """CPU, core count, library versions and git revision of this run."""
    import networkx
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():  # a bare checkout must not report an enclosing repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "git_sha": sha,
    }


def measure(workload, items, gate, speed, *, seconds, tracer=None):
    """Run whole passes over *items* while another pass fits into *seconds*.

    *seconds* counts untraced operation time.  At least ``MIN_PASSES``
    passes run.  During every pass *speed* (``reference.Speed``) samples
    the machine's speed; its handler's time is taken out of the operation
    it interrupted, and the pass's times are scaled by the pass's mean
    speed.  With a *tracer*, every untraced pass is followed by a traced
    pass over the same items, and spans are kept for the first traced pass
    only.  Only ``workload.run`` is timed; outputs are checked between
    operations, and every pass must reproduce the first pass's outputs
    exactly.

    Returns ``(adjusted[traced][item] -> list, raw[item] -> list, speeds,
    units per item, plans per pass, passes)``; *raw* and *speeds* are of
    the untraced passes.
    """
    adjusted = {False: [[] for _ in items], True: [[] for _ in items]}
    raw = [[] for _ in items]
    speeds = []
    units = [1] * len(items)
    plans = 0
    passes = 0
    used = 0.0
    while passes < MIN_PASSES or used + used / passes <= seconds:
        for traced in (False, True) if tracer is not None else (False,):
            first = passes == 0 and not traced
            gc.collect()
            elapsed = []
            with tracer if traced else contextlib.nullcontext(), speed:
                ctx = workload.begin_pass()
                for index, item in enumerate(items):
                    if traced:
                        tracer.op = index
                    begin, stolen = time.perf_counter(), speed.stolen
                    out = workload.run(ctx, item)
                    elapsed.append(time.perf_counter() - begin - (speed.stolen - stolen))
                    checked = workload.check(item, out, gate, first)
                    if first:
                        plans += checked
                        units[index] = workload.units(out)
                workload.end_pass(ctx)
            factor = speed.take()
            for index, value in enumerate(elapsed):
                adjusted[traced][index].append(value * factor)
                if not traced:
                    raw[index].append(value)
            if not traced:
                speeds.append(factor)
            gate.end_pass()
            if traced:
                tracer.keep_spans = False  # one pass of spans bounds memory and file size
        passes += 1
        used = sum(map(sum, raw))
    if speed.mismatches:
        _fail("the reference kernel returned a wrong checksum")
    return adjusted, raw, speeds, units, plans, passes


def named(section: str, values: dict) -> dict:
    """Attach each metric's unit from ``BENCHMARK.json``; the names must match exactly."""
    units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    if set(units) != set(values):
        _fail(f"metrics {sorted(set(units) ^ set(values))} differ from BENCHMARK.json {section}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    if SPEC is None:
        _fail(f"{SPEC_PATH} is missing")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    if "REPRO_SCALAR_KERNELS" in os.environ:
        _fail("REPRO_SCALAR_KERNELS is set; it switches kernel code paths, refusing to measure")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from reference import Speed

    # Set-up is sampled like the passes, so its time is adjusted the same way.
    speed = Speed(SAMPLE_INTERVAL_S)
    with speed:
        import repro  # noqa: F401  (the program's import cost belongs to set-up)
        from gate import Gate
        from tracer import SPANS, Tracer
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        import_s = time.perf_counter() - _PROCESS_START - speed.stolen

        workload = WORKLOADS[args.workload](args.seed)
        generate_s = []
        for _ in range(SETUP_REPEATS):
            items = None
            begin, stolen = time.perf_counter(), speed.stolen
            items = workload.generate()
            generate_s.append(time.perf_counter() - begin - (speed.stolen - stolen))
        begin, stolen = time.perf_counter(), speed.stolen
        workload.warmup(items)
        warmup_s = time.perf_counter() - begin - (speed.stolen - stolen)
    setup_s = (import_s + statistics.median(generate_s) + warmup_s) * speed.take()

    gate = Gate()
    # Span clocks skip the sampler's time, so self times are the program's.
    tracer = Tracer(clock=lambda: time.perf_counter() - speed.stolen) if args.trace else None
    adjusted, raw, speeds, units, plans, passes = measure(
        workload, items, gate, speed, seconds=args.seconds, tracer=tracer
    )
    # Each item's median speed-adjusted time over the passes: the shared
    # machine's speed drifts by 10-30% between runs, and scaling by the
    # reference kernel's speed in the same pass takes most of that out.
    typical = [statistics.median(samples) for samples in adjusted[False]]
    instance_ms = [elapsed * 1e3 / count for elapsed, count in zip(typical, units)]
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "plans_per_s": plans / sum(typical),
        "instance_p50_ms": statistics.median(instance_ms),
        "instance_p90_ms": (
            statistics.quantiles(instance_ms, n=10, method="inclusive")[8]
            if len(instance_ms) > 1 else instance_ms[0]
        ),
        "cost_ratio": workload.cost_ratio(),
    }
    details = {
        "passes": passes,
        "plans_per_pass": plans,
        "measured_s": sum(map(sum, raw)),
        "speeds": speeds,
        "unadjusted_plans_per_s": plans / sum(map(statistics.median, raw)),
        **workload.details(items, typical),
    }

    if tracer is None:
        metrics = named("end_to_end", end_to_end)
    else:
        per_layer = {}
        for span in SPANS:
            per_layer[f"{span}.calls"] = tracer.calls[span] / passes
            per_layer[f"{span}.self_s"] = tracer.self_s[span] / passes
        lookups = workload.hits + workload.misses
        per_layer["api.cache_hit_ratio"] = workload.hits / lookups if lookups else 0.0
        per_layer["core.local_search.moved_frac"] = (
            tracer.moved / tracer.searched if tracer.searched else 0.0
        )
        per_layer["trace.overhead"] = sum(map(statistics.median, adjusted[True])) / sum(typical) - 1.0
        metrics = named("per_layer", per_layer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}.jsonl"
        tracer.write_jsonl(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        details["end_to_end"] = end_to_end

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print("details " + json.dumps(details, sort_keys=True))
    print(f"schedule_digest {gate.digest}")
    for problem in gate.problems[:10]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
