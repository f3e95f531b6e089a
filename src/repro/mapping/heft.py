"""HEFT — Heterogeneous Earliest Finish Time list scheduling.

The paper produces the fixed mapping and ordering with "our own basic HEFT
implementation without special techniques for tie-breaking" (§6.1).  This
module is that implementation:

1. *Rank phase*: every task receives an upward rank
   ``rank_u(v) = avg_cost(v) + max_{(v,w)} (avg_comm(v,w) + rank_u(w))``
   where ``avg_cost`` averages the execution time over all processors and
   ``avg_comm`` is the communication time when the endpoints are on different
   processors (bandwidth normalised to 1), scaled by the probability that two
   uniformly chosen processors differ.
2. *Processor-selection phase*: tasks are processed in non-increasing rank
   order; each is placed on the processor minimising its earliest finish time
   (EFT), using the standard insertion policy: the task starts in the
   earliest idle gap of the processor that begins no earlier than the task's
   data-ready time and is long enough to hold it, or after the processor's
   last busy slot if no gap fits.

The processor-selection loop (:func:`place_tasks`) is shared with the
carbon-aware first pass in :mod:`repro.mapping.carbon_heft`, which only
changes how the candidate placements of a task are compared.

The result is returned both as a :class:`~repro.mapping.mapping.Mapping`
(assignment + per-processor order + per-link communication order, which is
all CaWoSched needs) and, optionally, as the concrete HEFT schedule (start
times) for inspection.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from repro.mapping.mapping import Mapping
from repro.platform_.cluster import Cluster
from repro.platform_.processor import ProcessorSpec
from repro.utils.errors import InvalidMappingError
from repro.workflow.dag import Workflow

__all__ = ["HeftResult", "heft_mapping", "upward_ranks"]

#: A candidate placement of one task: (finish, start, processor index).
Candidate = Tuple[int, int, int]


@dataclass
class HeftResult:
    """Outcome of a HEFT run.

    Attributes
    ----------
    mapping:
        The fixed mapping (assignment, per-processor order, communication
        order) handed to CaWoSched.
    start_times:
        The HEFT schedule's task start times (informational; CaWoSched only
        uses the mapping and recomputes start times itself).
    finish_times:
        The HEFT schedule's task finish times.
    makespan:
        The HEFT makespan (max finish time).
    ranks:
        The upward ranks used for the task priority order.
    """

    mapping: Mapping
    start_times: Dict[Hashable, int]
    finish_times: Dict[Hashable, int]
    makespan: int
    ranks: Dict[Hashable, float]


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
    return rank_phase(workflow, cluster, bandwidth)[1]


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
    Ties in the priority list are broken by task insertion order, and ties
    between processors by processor declaration order (no special
    tie-breaking, as in the paper).  The insertion policy places the task in
    the earliest idle gap of a processor that fits.
    """
    workflow.validate()
    durations, ranks = rank_phase(workflow, cluster, bandwidth)
    # The least (finish, start, index) is the first processor, in declaration
    # order, with the earliest finish and, among those, the earliest start.
    return place_tasks(workflow, cluster, durations, ranks, bandwidth, min)


# --------------------------------------------------------------------------- #
# The two phases, shared with the carbon-aware first pass
# --------------------------------------------------------------------------- #
def rank_phase(
    workflow: Workflow, cluster: Cluster, bandwidth: float
) -> Tuple[Dict[Hashable, List[int]], Dict[Hashable, float]]:
    """Return the per-processor duration table and the upward ranks.

    The table maps every task to its running time on each processor of
    *cluster* (declaration order).  A running time depends only on the
    processor speed, so it is computed once per distinct speed.
    """
    if bandwidth <= 0:
        raise InvalidMappingError(f"bandwidth must be positive, got {bandwidth}")
    processors = cluster.processors()
    num_procs = len(processors)
    durations = _duration_table(workflow, processors)

    cross_probability = (num_procs - 1) / num_procs if num_procs > 1 else 0.0
    successors = workflow.graph.succ
    ranks: Dict[Hashable, float] = {}
    for task in reversed(workflow.topological_order()):
        best_successor = 0.0
        for successor, attrs in successors[task].items():
            comm = attrs["data"] / bandwidth * cross_probability
            best_successor = max(best_successor, comm + ranks[successor])
        ranks[task] = sum(durations[task]) / num_procs + best_successor
    return durations, ranks


def _duration_table(
    workflow: Workflow, processors: Sequence[ProcessorSpec]
) -> Dict[Hashable, List[int]]:
    speeds = [spec.speed for spec in processors]
    first_of_speed: Dict[float, ProcessorSpec] = {}
    for spec in processors:
        first_of_speed.setdefault(spec.speed, spec)
    table: Dict[Hashable, List[int]] = {}
    for task, work in workflow.graph.nodes(data="work"):
        by_speed = {
            speed: spec.execution_time(int(work)) for speed, spec in first_of_speed.items()
        }
        table[task] = [by_speed[speed] for speed in speeds]
    return table


def place_tasks(
    workflow: Workflow,
    cluster: Cluster,
    durations: Dict[Hashable, List[int]],
    ranks: Dict[Hashable, float],
    bandwidth: float,
    choose: Callable[[List[Candidate]], Candidate],
) -> HeftResult:
    """Run the processor-selection phase and build the :class:`HeftResult`.

    Tasks are taken in non-increasing rank order (stable, so ties keep the
    workflow's insertion order).  For each task, the earliest insertion-policy
    placement on every processor is computed and *choose* picks one of these
    candidates, given in processor declaration order.

    Raises
    ------
    InvalidMappingError
        If a task comes before one of its predecessors in the rank order.
    """
    priority: List[Hashable] = sorted(workflow.tasks(), key=lambda task: -ranks[task])
    names = cluster.processor_names()
    num_procs = len(names)
    slots = [ProcessorSlots() for _ in names]
    predecessors = workflow.graph.pred
    placed_on: Dict[Hashable, int] = {}
    start_times: Dict[Hashable, int] = {}
    finish_times: Dict[Hashable, int] = {}

    for task in priority:
        # Predecessor facts, grouped by the processor that ran them: the
        # latest finish (what a successor on that processor waits for) and
        # the latest finish plus communication (what any other waits for).
        latest_finish: Dict[int, int] = {}
        latest_arrival: Dict[int, int] = {}
        for predecessor, attrs in predecessors[task].items():
            if predecessor not in finish_times:
                raise InvalidMappingError(
                    "HEFT priority order is not a topological order; "
                    "check the workflow weights"
                )
            proc = placed_on[predecessor]
            finish = finish_times[predecessor]
            volume = attrs["data"]
            arrival = finish + (int(-(-volume // bandwidth)) if volume > 0 else 0)
            if finish > latest_finish.get(proc, 0):
                latest_finish[proc] = finish
            if arrival > latest_arrival.get(proc, 0):
                latest_arrival[proc] = arrival
        ready = [max(latest_arrival.values(), default=0)] * num_procs
        for proc, finish in latest_finish.items():
            ready[proc] = max(
                [finish] + [t for other, t in latest_arrival.items() if other != proc]
            )

        row = durations[task]
        candidates: List[Candidate] = []
        for proc in range(num_procs):
            start = slots[proc].earliest_start(ready[proc], row[proc])
            candidates.append((start + row[proc], start, proc))
        finish, start, proc = choose(candidates)
        slots[proc].insert(start, finish, task)
        placed_on[task] = proc
        start_times[task] = start
        finish_times[task] = finish

    assignment = {task: names[proc] for task, proc in placed_on.items()}
    processor_order = {
        name: busy.tasks() for name, busy in zip(names, slots) if busy.starts
    }
    mapping = Mapping(workflow, cluster, assignment, processor_order=processor_order)
    return HeftResult(
        mapping=mapping,
        start_times=start_times,
        finish_times=finish_times,
        makespan=max(finish_times.values(), default=0),
        ranks=ranks,
    )


class ProcessorSlots:
    """The busy time of one processor and the tasks placed on it.

    Busy time is kept as maximal intervals: ``starts`` and ``finishes`` are
    parallel sorted lists, and a task placed right against a busy interval
    extends it instead of adding one.  A task runs for at least one time unit,
    so a boundary between two back-to-back tasks can never take a task; the
    gap search therefore sees the same idle gaps as a scan over every task
    slot, while it bisects past everything that ends by the ready time and
    then visits one interval per idle gap.
    """

    __slots__ = ("starts", "finishes", "_placed")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.finishes: List[int] = []
        self._placed: List[Tuple[int, Hashable]] = []

    def earliest_start(self, ready: int, duration: int) -> int:
        """Return the earliest start >= *ready* of a gap of length *duration*."""
        starts = self.starts
        finishes = self.finishes
        start = ready
        for index in range(bisect_right(finishes, ready), len(starts)):
            if start + duration <= starts[index]:
                break
            start = finishes[index]
        return start

    def insert(self, start: int, finish: int, task: Hashable) -> None:
        """Occupy the idle interval ``[start, finish)`` with *task*."""
        self._placed.append((start, task))
        starts = self.starts
        finishes = self.finishes
        index = bisect_right(starts, start)
        if index and finishes[index - 1] == start:
            index -= 1
            start = starts.pop(index)
            finishes.pop(index)
        if index < len(starts) and starts[index] == finish:
            starts.pop(index)
            finish = finishes.pop(index)
        starts.insert(index, start)
        finishes.insert(index, finish)

    def tasks(self) -> List[Hashable]:
        """Return the placed tasks in start-time order."""
        return [task for _, task in sorted(self._placed, key=lambda slot: slot[0])]
