"""Throughput of the online simulator: events per second on a 1k-arrival run.

The online simulator is the serving path of the system (every arrival costs
an oracle-baseline plan plus a commit-time plan through the scheduling
service), so its event throughput bounds how much virtual time a sweep can
cover.  This benchmark drives a deterministic 1,000-arrival simulation —
one workflow every 20 time units, a full week of virtual days — and records
arrivals/second and events/second alongside the figure benchmarks.
"""

from __future__ import annotations

import time

from repro.experiments.reporting import format_table
from repro.sim import SimulationConfig, simulate

from bench_utils import write_bench_json, write_figure_output

ARRIVALS = 1000


def test_sim_throughput(benchmark, output_dir, record_bench):
    config = SimulationConfig(
        horizon=ARRIVALS * 20,
        arrivals="burst",
        burst_period=20,
        burst_size=1,
        slots=8,
        policy="fifo",
        forecast="persistence",
        tasks=(8,),
        variant="slack",
        cache_size=64,
        seed=0,
    )

    measured = {}

    def run():
        begin = time.perf_counter()
        report = simulate(config)
        measured["elapsed"] = time.perf_counter() - begin
        measured["report"] = report
        return report

    benchmark.pedantic(run, rounds=1, iterations=1)

    report = measured["report"]
    elapsed = measured["elapsed"]
    num_jobs = len(report.jobs)
    num_events = len(report.events)
    rows = [
        ["arrivals", num_jobs],
        ["events", num_events],
        ["virtual horizon", config.horizon],
        ["wall seconds", round(elapsed, 3)],
        ["arrivals / s", round(num_jobs / elapsed, 1)],
        ["events / s", round(num_events / elapsed, 1)],
        ["schedules computed", report.service["solved"]],
        ["cache hits", report.service["solve_hits"]],
    ]
    text = format_table(rows, ["quantity", "value"])
    print("\nOnline simulator throughput (1k arrivals)\n" + text)
    write_figure_output(output_dir, "sim_throughput", text)
    write_bench_json(
        output_dir,
        "sim_throughput",
        {
            "sim": {
                "median_ms": round(elapsed * 1e3, 3),
                "mean_ms": round(elapsed * 1e3, 3),
                "runs": 1,
            }
        },
        extra={
            "arrivals": num_jobs,
            "events": num_events,
            "arrivals_per_s": round(num_jobs / elapsed, 1),
            "events_per_s": round(num_events / elapsed, 1),
        },
        record=record_bench,
    )

    # Shape checks: the full stream completed and the engine sustains a
    # usable event rate on laptop hardware.
    assert num_jobs == ARRIVALS
    assert num_events >= 2 * ARRIVALS
    assert num_jobs / elapsed > 10, "simulator slower than 10 arrivals/second"
