"""Test-only oracle: the reference local search.

A verbatim copy of the original hill climber of §5.3: processors in
non-increasing order of working power, tasks in mapping order, each task's
legal window recomputed from its neighbours on every visit, and one
``PowerTimeline.move_gain`` call per candidate start.  ``tests/test_kernel_parity.py``
checks that the array-backed kernel in :mod:`repro.core.local_search`
reproduces its start times exactly.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.schedule.schedule import Schedule
from repro.schedule.timeline import PowerTimeline


def oracle_local_search(
    schedule: Schedule,
    *,
    window: int = 10,
    max_rounds: Optional[int] = None,
    best_improvement: bool = False,
    algorithm_name: Optional[str] = None,
) -> Schedule:
    """Run the reference local search; same contract as ``local_search``."""
    instance = schedule.instance
    dag = instance.dag
    starts: Dict[Hashable, int] = schedule.start_times()
    timeline = PowerTimeline(instance, schedule)

    processors: List[Hashable] = sorted(
        dag.processors_with_tasks(),
        key=lambda proc: (-instance.dag.platform.processor(proc).p_work, str(proc)),
    )

    rounds = 0
    while True:
        round_gain = False
        for processor in processors:
            for node in dag.tasks_on(processor):
                if _improve(instance, timeline, starts, node, window, best_improvement):
                    round_gain = True

        rounds += 1
        if not round_gain:
            break
        if max_rounds is not None and rounds >= max_rounds:
            break

    name = algorithm_name or f"{schedule.algorithm}-LS"
    return Schedule(instance, starts, algorithm=name)


def _improve(instance, timeline: PowerTimeline, starts: Dict[Hashable, int],
             node: Hashable, window: int, best_improvement: bool) -> bool:
    dag = instance.dag
    deadline = instance.deadline
    current = starts[node]
    duration = dag.duration(node)

    # Legal window of the node given the *current* schedule of its
    # neighbours (its EST/LST with every other task pinned).
    earliest = max(
        (starts[pred] + dag.duration(pred) for pred in dag.predecessors(node)),
        default=0,
    )
    latest = min(
        (starts[succ] for succ in dag.successors(node)),
        default=deadline,
    ) - duration
    latest = min(latest, deadline - duration)

    lo = max(earliest, current - window)
    hi = min(latest, current + window)
    if hi < lo:
        return False

    if best_improvement:
        best_gain = 0
        best_candidate = None
        for candidate in range(lo, hi + 1):
            if candidate == current:
                continue
            gain = timeline.move_gain(node, candidate)
            if gain > best_gain:
                best_gain = gain
                best_candidate = candidate
        if best_candidate is not None:
            timeline.move(node, best_candidate)
            starts[node] = best_candidate
            return True
    else:
        for candidate in range(lo, hi + 1):
            if candidate == current:
                continue
            gain = timeline.move_gain(node, candidate)
            if gain > 0:
                timeline.move(node, candidate)
                starts[node] = candidate
                return True
    return False
