"""Test-only oracle: the reference HEFT implementation.

These are verbatim copies of the straightforward HEFT implementation: the
upward ranks with one validated ``execution_time`` call per (task,
processor), and the processor-selection loops (plain and carbon-aware) that
recompute predecessor facts per processor, scan every busy slot from the
start and insert with append-and-sort.  ``tests/test_mapping_heft_parity.py`` checks that the
library's bisected implementation in :mod:`repro.mapping.heft` reproduces
their results exactly.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.mapping.heft import HeftResult
from repro.mapping.mapping import Mapping
from repro.platform_.cluster import Cluster
from repro.utils.errors import InvalidMappingError
from repro.utils.validation import check_probability
from repro.workflow.dag import Workflow


def upward_ranks(
    workflow: Workflow,
    cluster: Cluster,
    *,
    bandwidth: float = 1.0,
) -> Dict[Hashable, float]:
    """Compute HEFT upward ranks for every task.

    The average execution time of a task is its work divided by each
    processor speed, averaged; the average communication cost of an edge is
    its data volume divided by the bandwidth, multiplied by the probability
    ``(P - 1) / P`` that the two endpoints land on different processors.
    """
    if bandwidth <= 0:
        raise InvalidMappingError(f"bandwidth must be positive, got {bandwidth}")
    processors = cluster.processors()
    num_procs = len(processors)
    cross_probability = (num_procs - 1) / num_procs if num_procs > 1 else 0.0

    avg_cost: Dict[Hashable, float] = {}
    for task in workflow.tasks():
        work = workflow.work(task)
        avg_cost[task] = sum(p.execution_time(work) for p in processors) / num_procs

    ranks: Dict[Hashable, float] = {}
    for task in reversed(workflow.topological_order()):
        best_successor = 0.0
        for successor in workflow.successors(task):
            comm = workflow.data(task, successor) / bandwidth * cross_probability
            best_successor = max(best_successor, comm + ranks[successor])
        ranks[task] = avg_cost[task] + best_successor
    return ranks


def heft_mapping(
    workflow: Workflow,
    cluster: Cluster,
    *,
    bandwidth: float = 1.0,
) -> HeftResult:
    """Run HEFT and return the fixed mapping (plus the HEFT schedule).

    Parameters
    ----------
    workflow:
        The workflow to map.  Must be a valid DAG.
    cluster:
        The heterogeneous compute cluster.
    bandwidth:
        Normalised network bandwidth shared by all links (the paper uses 1).

    Notes
    -----
    Ties in the priority list are broken by task insertion order (no special
    tie-breaking, as in the paper).  The insertion policy scans the idle gaps
    of each processor and places the task in the earliest gap that fits.
    """
    workflow.validate()
    ranks = upward_ranks(workflow, cluster, bandwidth=bandwidth)

    # Non-increasing rank order; stable sort keeps insertion order for ties.
    priority: List[Hashable] = sorted(
        workflow.tasks(), key=lambda task: -ranks[task]
    )

    processors = cluster.processors()
    assignment: Dict[Hashable, Hashable] = {}
    start_times: Dict[Hashable, int] = {}
    finish_times: Dict[Hashable, int] = {}
    # Occupied slots per processor, kept sorted by start time.
    busy: Dict[Hashable, List[Tuple[int, int, Hashable]]] = {p.name: [] for p in processors}

    for task in priority:
        work = workflow.work(task)
        best: Optional[Tuple[int, int, Hashable]] = None  # (finish, start, processor)
        for proc in processors:
            duration = proc.execution_time(work)
            ready = 0
            for predecessor in workflow.predecessors(task):
                if predecessor not in finish_times:
                    # Predecessor has lower rank — allowed by HEFT only if the
                    # rank computation failed; guard explicitly.
                    raise InvalidMappingError(
                        "HEFT priority order is not a topological order; "
                        "check the workflow weights"
                    )
                comm = 0
                if assignment[predecessor] != proc.name:
                    comm_volume = workflow.data(predecessor, task)
                    comm = int(-(-comm_volume // bandwidth)) if comm_volume > 0 else 0
                ready = max(ready, finish_times[predecessor] + comm)
            start = _earliest_slot(busy[proc.name], ready, duration)
            finish = start + duration
            if best is None or (finish, start) < (best[0], best[1]):
                best = (finish, start, proc.name)
        assert best is not None
        finish, start, proc_name = best
        assignment[task] = proc_name
        start_times[task] = start
        finish_times[task] = finish
        _insert_slot(busy[proc_name], (start, finish, task))

    processor_order = {
        proc_name: [task for _, _, task in sorted(slots)]
        for proc_name, slots in busy.items()
        if slots
    }
    mapping = Mapping(workflow, cluster, assignment, processor_order=processor_order)
    makespan = max(finish_times.values(), default=0)
    return HeftResult(
        mapping=mapping,
        start_times=start_times,
        finish_times=finish_times,
        makespan=makespan,
        ranks=ranks,
    )


def carbon_aware_heft_mapping(
    workflow: Workflow,
    cluster: Cluster,
    *,
    power_weight: float = 0.3,
    bandwidth: float = 1.0,
) -> HeftResult:
    """Run the carbon-aware HEFT first pass.

    Parameters
    ----------
    workflow:
        The workflow to map.
    cluster:
        The heterogeneous compute cluster.
    power_weight:
        Weight of the energy term in the processor-selection objective
        (0 = plain HEFT, 1 = energy only).
    bandwidth:
        Normalised network bandwidth (as in HEFT).

    Returns
    -------
    HeftResult
        Mapping, start/finish times of the first-pass schedule, makespan and
        ranks — the same structure :func:`heft_mapping` returns, so the two
        passes are interchangeable in every downstream pipeline.
    """
    power_weight = check_probability(power_weight, "power_weight")
    if bandwidth <= 0:
        raise InvalidMappingError(f"bandwidth must be positive, got {bandwidth}")
    workflow.validate()
    ranks = upward_ranks(workflow, cluster, bandwidth=bandwidth)
    priority: List[Hashable] = sorted(workflow.tasks(), key=lambda task: -ranks[task])

    processors = cluster.processors()
    max_active_power = max(spec.total_power for spec in processors) or 1
    # Normalise the finish-time term by a crude serial upper bound so both
    # objective terms live on comparable scales.
    slowest = min(spec.speed for spec in processors)
    horizon_scale = max(
        1.0, workflow.total_work() / slowest + workflow.total_data() / bandwidth
    )

    assignment: Dict[Hashable, Hashable] = {}
    start_times: Dict[Hashable, int] = {}
    finish_times: Dict[Hashable, int] = {}
    busy: Dict[Hashable, List[Tuple[int, int, Hashable]]] = {p.name: [] for p in processors}

    for task in priority:
        work = workflow.work(task)
        best_score: Optional[float] = None
        best: Optional[Tuple[int, int, Hashable]] = None
        for proc in processors:
            duration = proc.execution_time(work)
            ready = 0
            for predecessor in workflow.predecessors(task):
                comm = 0
                if assignment[predecessor] != proc.name:
                    volume = workflow.data(predecessor, task)
                    comm = int(-(-volume // bandwidth)) if volume > 0 else 0
                ready = max(ready, finish_times[predecessor] + comm)
            start = _earliest_slot(busy[proc.name], ready, duration)
            finish = start + duration
            energy = duration * proc.total_power
            score = (1.0 - power_weight) * (finish / horizon_scale) + power_weight * (
                energy / (horizon_scale * max_active_power)
            )
            if best_score is None or (score, finish, start) < (
                best_score,
                best[0] if best else 0,
                best[1] if best else 0,
            ):
                best_score = score
                best = (finish, start, proc.name)
        assert best is not None
        finish, start, proc_name = best
        assignment[task] = proc_name
        start_times[task] = start
        finish_times[task] = finish
        _insert_slot(busy[proc_name], (start, finish, task))

    processor_order = {
        proc_name: [task for _, _, task in sorted(slots)]
        for proc_name, slots in busy.items()
        if slots
    }
    mapping = Mapping(workflow, cluster, assignment, processor_order=processor_order)
    return HeftResult(
        mapping=mapping,
        start_times=start_times,
        finish_times=finish_times,
        makespan=max(finish_times.values(), default=0),
        ranks=ranks,
    )


def _earliest_slot(slots: List[Tuple[int, int, Hashable]], ready: int, duration: int) -> int:
    """Return the earliest start >= *ready* of a gap of length *duration*.

    *slots* is the sorted list of (start, finish, task) occupied intervals of
    one processor.
    """
    candidate = ready
    for slot_start, slot_finish, _ in slots:
        if candidate + duration <= slot_start:
            return candidate
        candidate = max(candidate, slot_finish)
    return candidate


def _insert_slot(slots: List[Tuple[int, int, Hashable]], slot: Tuple[int, int, Hashable]) -> None:
    """Insert *slot* keeping the list sorted by start time."""
    slots.append(slot)
    slots.sort(key=lambda item: item[0])
