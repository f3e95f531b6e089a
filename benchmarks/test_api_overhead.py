"""Overhead of the repro.api facade over direct scheduler calls.

The facade adds payload serialisation, canonical fingerprinting, cache
bookkeeping and record derivation around every submission.  This benchmark
quantifies that toll on the paper's reference workload shape — one
``pressWR-LS`` run on a 30-task instance — by timing a fresh
``Job → Client → InlineBackend`` submission against a direct
``CaWoSched.run`` of the same work, and asserts the facade stays within
10% of the direct path.  The two paths run in alternating rounds (which one
goes first alternates too), so a slow phase of a shared machine hits both
alike, and their medians are compared: a best-of-N time rests on one lucky
round per side and flips on noise of the operation's size (~1 ms).
"""

from __future__ import annotations

import statistics
import time

from repro.api import Client, Job
from repro.core.scheduler import CaWoSched
from repro.experiments.instances import InstanceSpec, make_instance
from repro.experiments.reporting import format_table

from bench_utils import write_figure_output

VARIANT = "pressWR-LS"
ROUNDS = 41
MAX_OVERHEAD = 0.10


def _alternated_medians(direct, facade, rounds: int = ROUNDS):
    """Return the median times of *direct* and *facade* over alternated rounds."""
    times = {direct: [], facade: []}
    for index in range(rounds):
        for fn in (direct, facade) if index % 2 == 0 else (facade, direct):
            begin = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - begin)
    return statistics.median(times[direct]), statistics.median(times[facade])


def test_facade_overhead(benchmark, output_dir):
    instance = make_instance(InstanceSpec("atacseq", 30, "small", "S1", 2.0, seed=0))
    scheduler = CaWoSched()

    def direct():
        return scheduler.run(instance, VARIANT)

    def facade():
        # A fresh client and job per round: every submission pays the full
        # freight (payload build, fingerprint, validation, record
        # derivation) with no cache hits.
        client = Client(cache_size=2)
        job = Job.from_instance(instance, variants=(VARIANT,), scheduler=scheduler)
        return client.submit(job)

    # Warm-up (imports, first-run allocations) outside the timed section.
    direct()
    facade()

    direct_median, facade_median = _alternated_medians(direct, facade)
    overhead = facade_median / direct_median - 1.0

    benchmark.pedantic(facade, rounds=3, iterations=1)

    rows = [
        ["tasks", instance.num_tasks],
        ["variant", VARIANT],
        ["direct median (ms)", round(direct_median * 1000.0, 3)],
        ["facade median (ms)", round(facade_median * 1000.0, 3)],
        ["overhead", f"{overhead * 100.0:+.2f}%"],
    ]
    text = format_table(rows, ["quantity", "value"])
    print("\nFacade overhead (Job + InlineBackend vs CaWoSched.run)\n" + text)
    write_figure_output(output_dir, "api_overhead", text)

    assert overhead < MAX_OVERHEAD, (
        f"facade adds {overhead * 100.0:.1f}% over direct scheduling "
        f"(budget {MAX_OVERHEAD * 100.0:.0f}%)"
    )
