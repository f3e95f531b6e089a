"""Problem instances: a communication-enhanced DAG plus a green-power profile.

A :class:`ProblemInstance` bundles everything the optimisation problem of the
paper needs: the communication-enhanced DAG ``Gc`` (tasks, durations,
processors, precedence), the green-power profile over the horizon ``[0, T)``,
and therefore the deadline ``T`` itself (the profile's horizon).  All
schedulers, cost evaluators and exact algorithms take a problem instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.carbon.intervals import PowerProfile
from repro.mapping.enhanced_dag import EnhancedDAG
from repro.utils.errors import InfeasibleScheduleError, InvalidProfileError

__all__ = ["ProblemInstance", "SearchArrays", "CostRows"]


@dataclass(frozen=True)
class ProblemInstance:
    """An instance of the carbon-aware scheduling problem.

    Parameters
    ----------
    dag:
        The communication-enhanced DAG (fixed mapping and ordering included).
    profile:
        The green-power profile; its horizon is the deadline ``T``.
    name:
        Optional instance label used in experiment reports.
    metadata:
        Free-form key/value annotations (workflow family, scenario, deadline
        factor, cluster name, ...) carried through the experiment pipeline.

    Raises
    ------
    InfeasibleScheduleError
        If no schedule can meet the deadline (the DAG's critical path is
        longer than the horizon).
    """

    dag: EnhancedDAG
    profile: PowerProfile
    name: str = "instance"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.profile.horizon <= 0:
            raise InvalidProfileError("the profile horizon must be positive")
        critical = self.dag.critical_path_duration()
        if critical > self.profile.horizon:
            raise InfeasibleScheduleError(
                f"deadline {self.profile.horizon} is shorter than the critical "
                f"path duration {critical}; no feasible schedule exists"
            )

    # ------------------------------------------------------------------ #
    @property
    def deadline(self) -> int:
        """The deadline ``T`` (the profile horizon)."""
        return self.profile.horizon

    @property
    def num_tasks(self) -> int:
        """Number of nodes of the communication-enhanced DAG (``N = n + |E'|``)."""
        return self.dag.num_nodes

    def total_idle_power(self) -> int:
        """Total idle power of the platform (drawn every time unit)."""
        return self.dag.platform.total_idle_power()

    def total_work_power(self) -> int:
        """Total working power of the platform (upper bound on the variable draw)."""
        return self.dag.platform.total_work_power()

    def work_power_of(self, node: Hashable) -> int:
        """Working power of the processor that executes *node*."""
        return self.work_power_map[node]

    def active_power_of(self, node: Hashable) -> int:
        """Idle plus working power of the processor that executes *node*."""
        return self.active_power_map[node]

    @cached_property
    def work_power_map(self) -> Dict[Hashable, int]:
        """Node → working power of its processor (computed once, read-only)."""
        dag = self.dag
        p_work = {spec.name: spec.p_work for spec in dag.platform.processors()}
        return {node: p_work[dag.processor(node)] for node in dag.nodes()}

    @cached_property
    def active_power_map(self) -> Dict[Hashable, int]:
        """Node → idle + working power of its processor (computed once, read-only)."""
        dag = self.dag
        total = {spec.name: spec.total_power for spec in dag.platform.processors()}
        return {node: total[dag.processor(node)] for node in dag.nodes()}

    @cached_property
    def search_arrays(self) -> "SearchArrays":
        """Node-indexed arrays of the local search (computed once, read-only)."""
        return _build_search_arrays(self)

    @cached_property
    def cost_rows(self) -> "CostRows":
        """Rows of the carbon-cost sweep (computed once, read-only)."""
        return _build_cost_rows(self)

    def describe(self) -> Dict[str, object]:
        """Return a dictionary summary (used by experiment reports)."""
        summary: Dict[str, object] = {
            "name": self.name,
            "tasks": self.dag.num_nodes,
            "comm_tasks": self.dag.num_comm_tasks,
            "processors": self.dag.platform.num_processors,
            "deadline": self.deadline,
            "intervals": self.profile.num_intervals,
        }
        summary.update(self.metadata)
        return summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProblemInstance(name={self.name!r}, tasks={self.dag.num_nodes}, "
            f"deadline={self.deadline})"
        )


@dataclass(frozen=True, eq=False)
class SearchArrays:
    """Static arrays the local search reads, indexed by node position.

    Positions follow the local search's visit order: processors in
    non-increasing order of their working power (ties broken by name), and
    each processor's tasks in their fixed mapping order.  Neighbours are
    stored in CSR form: the predecessors of position ``i`` are
    ``pred[pred_ptr[i] : pred_ptr[i + 1]]``, likewise for successors.  Every
    array is read-only, so the runs on one instance can share them.
    """

    #: Node names in visit order (position -> node).
    nodes: Tuple[Hashable, ...]
    duration: np.ndarray
    work_power: np.ndarray
    pred_ptr: np.ndarray
    pred: np.ndarray
    succ_ptr: np.ndarray
    succ: np.ndarray
    #: Idle power minus green budget per time unit: the excess of an empty
    #: platform.
    base_excess: np.ndarray


def _build_search_arrays(instance: ProblemInstance) -> SearchArrays:
    dag = instance.dag
    platform = dag.platform
    processors = sorted(
        dag.processors_with_tasks(),
        key=lambda proc: (-platform.processor(proc).p_work, str(proc)),
    )
    tasks_on = dag.ordered_task_map()
    nodes = tuple(node for proc in processors for node in tasks_on[proc])
    index = {node: position for position, node in enumerate(nodes)}
    durations = dag.duration_map()
    work_power = instance.work_power_map

    def frozen(values) -> np.ndarray:
        array = np.asarray(values, dtype=np.int64)
        array.setflags(write=False)
        return array

    def csr(adjacency: Dict[Hashable, List[Hashable]]) -> Tuple[np.ndarray, np.ndarray]:
        ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum([len(adjacency[node]) for node in nodes], out=ptr[1:])
        flat = [index[other] for node in nodes for other in adjacency[node]]
        return frozen(ptr), frozen(flat)

    pred_ptr, pred = csr(dag.predecessor_map())
    succ_ptr, succ = csr(dag.successor_map())
    return SearchArrays(
        nodes=nodes,
        duration=frozen([durations[node] for node in nodes]),
        work_power=frozen([work_power[node] for node in nodes]),
        pred_ptr=pred_ptr,
        pred=pred,
        succ_ptr=succ_ptr,
        succ=succ,
        base_excess=frozen(
            instance.total_idle_power() - instance.profile.budgets_per_time_unit()
        ),
    )


@dataclass(frozen=True, eq=False)
class CostRows:
    """Static rows of :func:`repro.schedule.cost.carbon_cost` (read-only).

    The sweep's events are the profile boundaries, then the starts, then the
    finishes of the nodes whose processor draws working power (the others
    leave the platform power unchanged).  ``excess_delta`` holds each event's
    change of ``power − budget``: at a boundary the idle power (at time 0) or
    the budget drop, at a start ``+P_work``, at a finish ``−P_work``.  Past
    the horizon the last interval's budget stays in force.
    """

    #: Nodes with non-zero working power, processor by processor.
    nodes: Tuple[Hashable, ...]
    duration: np.ndarray
    #: Profile interval begins followed by the horizon.
    boundaries: np.ndarray
    excess_delta: np.ndarray


def _build_cost_rows(instance: ProblemInstance) -> CostRows:
    dag = instance.dag
    platform = dag.platform
    durations = dag.duration_map()
    nodes: List[Hashable] = []
    power: List[int] = []
    for processor, tasks in dag.ordered_task_map().items():
        work_power = platform.processor(processor).p_work
        if work_power:
            nodes += tasks
            power += [work_power] * len(tasks)
    budgets = [interval.budget for interval in instance.profile.intervals()]
    # Boundary ``i`` replaces budget ``i - 1`` by budget ``i``; the horizon
    # boundary keeps the last budget.
    drops = [instance.total_idle_power() - budgets[0]]
    drops += [before - after for before, after in zip(budgets, budgets[1:])] + [0]
    rows = CostRows(
        nodes=tuple(nodes),
        duration=np.array([durations[node] for node in nodes], dtype=np.int64),
        boundaries=np.array(instance.profile.boundaries(), dtype=np.int64),
        excess_delta=np.array(drops + power + [-value for value in power], dtype=np.int64),
    )
    for row in (rows.duration, rows.boundaries, rows.excess_delta):
        row.setflags(write=False)
    return rows
