"""Test-only oracle: EST/LST bookkeeping by full recompute after every fix.

This is the paper's formulation (§5.2: "These updates take ``O(n + |Ec|)``
time"): after each fixing, both sweeps over the topological order run again
with the fixed tasks pinned.  It is a verbatim copy of the recompute path the
production :class:`repro.core.estlst.EstLstTracker` used to offer behind a
switch; ``tests/test_kernel_parity.py`` checks that the incremental
propagation reproduces its EST/LST maps after every fix.  Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.mapping.enhanced_dag import EnhancedDAG
from repro.utils.errors import InfeasibleScheduleError


class RecomputeTracker:
    """Same contract as ``EstLstTracker``; :meth:`fix` resweeps the whole DAG."""

    def __init__(self, dag: EnhancedDAG, deadline: int) -> None:
        self._dag = dag
        self._deadline = int(deadline)
        self._order = dag.topological_order()
        self._position: Dict[Hashable, int] = {
            node: index for index, node in enumerate(self._order)
        }
        position = self._position
        duration_map = dag.duration_map()
        pred_map = dag.predecessor_map()
        succ_map = dag.successor_map()
        self._duration: List[int] = [duration_map[node] for node in self._order]
        self._preds: List[List[Tuple[int, int]]] = [
            [(position[pred], duration_map[pred]) for pred in pred_map[node]]
            for node in self._order
        ]
        self._succs: List[List[int]] = [
            [position[succ] for succ in succ_map[node]] for node in self._order
        ]
        self._fixed: Dict[Hashable, int] = {}
        self._is_fixed: List[bool] = [False] * len(self._order)
        self._est: List[int] = []
        self._lst: List[int] = []
        self._recompute()

    def est(self, node: Hashable) -> int:
        return self._est[self._position[node]]

    def lst(self, node: Hashable) -> int:
        return self._lst[self._position[node]]

    def est_map(self) -> Dict[Hashable, int]:
        return dict(zip(self._order, self._est))

    def lst_map(self) -> Dict[Hashable, int]:
        return dict(zip(self._order, self._lst))

    def fixed_starts(self) -> Dict[Hashable, int]:
        return dict(self._fixed)

    def fix(self, node: Hashable, start: int) -> None:
        start = int(start)
        if node in self._fixed:
            raise InfeasibleScheduleError(f"task {node!r} is already fixed")
        index = self._position[node]
        if not self._est[index] <= start <= self._lst[index]:
            raise InfeasibleScheduleError(
                f"cannot fix task {node!r} at {start}: outside its window "
                f"[{self._est[index]}, {self._lst[index]}]"
            )
        self._fixed[node] = start
        self._is_fixed[index] = True
        self._recompute()

    def _recompute(self) -> None:
        """Recompute EST and LST with the fixed tasks pinned (two sweeps)."""
        num_nodes = len(self._order)
        duration, preds, succs = self._duration, self._preds, self._succs
        is_fixed = self._is_fixed
        fixed_value = [
            self._fixed[node] if is_fixed[index] else 0
            for index, node in enumerate(self._order)
        ]
        est: List[int] = [0] * num_nodes
        for index in range(num_nodes):
            if is_fixed[index]:
                est[index] = fixed_value[index]
                continue
            value = 0
            for pred, pred_duration in preds[index]:
                finish = est[pred] + pred_duration
                if finish > value:
                    value = finish
            est[index] = value
        lst: List[int] = [0] * num_nodes
        for index in range(num_nodes - 1, -1, -1):
            if is_fixed[index]:
                lst[index] = fixed_value[index]
                continue
            successors = succs[index]
            if successors:
                bound = lst[successors[0]]
                for succ in successors[1:]:
                    if lst[succ] < bound:
                        bound = lst[succ]
                lst[index] = bound - duration[index]
            else:
                lst[index] = self._deadline - duration[index]
            if lst[index] < est[index]:
                raise InfeasibleScheduleError(
                    f"task {self._order[index]!r} has an empty scheduling window "
                    f"[{est[index]}, {lst[index]}] for deadline {self._deadline}"
                )
        self._est = est
        self._lst = lst
