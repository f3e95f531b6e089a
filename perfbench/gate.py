"""Correctness gate of the benchmark, run outside every timed region.

Each schedule the program returns is rechecked here with a feasibility
check written independently of ``repro.schedule.validation``: precedence
on every edge of the communication-enhanced DAG (which includes the fixed
per-processor order), no two tasks overlapping on one processor, no start
before 0 and no finish after the deadline.  The reported carbon cost must
equal the literal per-time-unit definition of the paper.  Simulation
reports are checked per arrival.  Every failure is counted against the
operations attempted, and a SHA-256 digest over the outputs lets two runs
be compared for byte identity.
"""

from __future__ import annotations

import hashlib
import json
from typing import Hashable, List, Mapping, Sequence

__all__ = ["Gate", "schedule_violations", "schedule_lines", "sim_violations"]


def schedule_violations(dag, deadline: int, starts: Mapping[Hashable, int]) -> List[str]:
    """Return the feasibility violations of *starts* on *dag* (empty if feasible)."""
    duration = dag.duration_map()
    problems: List[str] = []
    if set(starts) != set(duration):
        problems.append("the schedule does not cover exactly the DAG's tasks")
        return problems
    for node, start in starts.items():
        if start < 0 or start + duration[node] > deadline:
            problems.append(f"{node!r} runs outside [0, {deadline})")
    for source, target in dag.edges():
        if starts[target] < starts[source] + duration[source]:
            problems.append(f"{target!r} starts before its predecessor {source!r} ends")
    for processor in dag.processors_with_tasks():
        ordered = sorted(dag.tasks_on(processor), key=starts.__getitem__)
        for earlier, later in zip(ordered, ordered[1:]):
            if starts[later] < starts[earlier] + duration[earlier]:
                problems.append(f"{earlier!r} and {later!r} overlap on {processor!r}")
    return problems


def schedule_lines(label: str, variant: str, cost: int, starts: Mapping[Hashable, int]) -> str:
    """Canonical text of one schedule, the unit the digest is taken over."""
    items = sorted((repr(node), int(start)) for node, start in starts.items())
    return f"{label}\t{variant}\t{int(cost)}\t{json.dumps(items, separators=(',', ':'))}\n"


def sim_violations(report, expected_arrivals: int) -> List[str]:
    """Return the per-arrival violations of a simulation report."""
    problems: List[str] = []
    if len(report.jobs) != expected_arrivals:
        problems.append(f"{len(report.jobs)} of {expected_arrivals} arrivals completed")
    for job in report.jobs:
        if job.start < job.arrival:
            problems.append(f"{job.name} starts at {job.start} before it arrived at {job.arrival}")
        if job.completion < job.start:
            problems.append(f"{job.name} completes before it starts")
    return problems


class Gate:
    """Counts checked operations and failures, and digests the outputs.

    ``attempted`` counts plans (one per instance and variant) for the batch
    workloads and arrivals for the simulator.  The digest covers one pass;
    every later pass must reproduce it exactly, or it counts as one failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest = ""
        self._pass_hash = hashlib.sha256()

    def record(self, problems: Sequence[str], attempted: int = 1) -> None:
        """Count *attempted* operations, failing one per listed problem (at most all)."""
        self.attempted += attempted
        self.failed += min(len(problems), attempted)
        self.problems.extend(problems[:5])

    def check_schedule(self, label, variant, schedule, reported_cost, cost_of, *, full=True):
        """Check one produced schedule and add it to the pass digest.

        *cost_of* computes the literal per-time-unit carbon cost of a
        schedule, which the reported cost must equal.  The digest covers the
        start times and the reported cost, so a later pass whose digest
        matches the fully checked first pass needs no recheck
        (``full=False``).
        """
        starts = schedule.start_times()
        problems = []
        if full:
            instance = schedule.instance
            problems = schedule_violations(instance.dag, instance.deadline, starts)
            literal = cost_of(schedule)
            if reported_cost != literal:
                problems.append(f"reported cost {reported_cost} != per-time-unit cost {literal}")
        self.record([f"{label}/{variant}: {p}" for p in problems])
        self._pass_hash.update(schedule_lines(label, variant, reported_cost, starts).encode())

    def check_report(self, report, expected_arrivals: int, canonical: str) -> None:
        """Check one simulation report and add its canonical text to the digest."""
        self.record(sim_violations(report, expected_arrivals), attempted=expected_arrivals)
        self._pass_hash.update(canonical.encode())

    def end_pass(self) -> None:
        """Close a pass: the first sets the digest, later ones must match it."""
        digest = self._pass_hash.hexdigest()
        self._pass_hash = hashlib.sha256()
        if not self.digest:
            self.digest = digest
        elif digest != self.digest:
            self.failed += 1
            self.problems.append("a repeated pass produced different outputs")
