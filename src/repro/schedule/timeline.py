"""Mutable power timeline used for incremental cost evaluation.

The local search needs to evaluate many candidate single-task moves cheaply.
:class:`PowerTimeline` keeps the total platform power per time unit as a NumPy
array together with the per-time-unit green budget; placing or removing a task
touches only the task's execution window, and the cost change of a move can be
computed from the affected slice alone.

The timeline is pseudo-polynomial in the deadline (one array cell per time
unit), which is practical for the instance sizes the library targets and is
exactly the granularity the local search of the paper reasons about (it moves
tasks by individual time units).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import numpy as np

from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import InvalidScheduleError

__all__ = ["PowerTimeline"]


class PowerTimeline:
    """Total platform power and green budget per time unit.

    Parameters
    ----------
    instance:
        The problem instance (defines the horizon, the idle-power baseline and
        the per-node working powers).
    schedule:
        Optional schedule to load immediately; otherwise the timeline starts
        empty (idle power only) and tasks are placed with :meth:`place`.
    """

    def __init__(self, instance: ProblemInstance, schedule: Optional[Schedule] = None) -> None:
        self._instance = instance
        horizon = instance.deadline
        self._power = np.full(horizon, instance.total_idle_power(), dtype=np.int64)
        self._budget = instance.profile.budgets_per_time_unit()
        # Durations and working powers are read on every mutation; the
        # instance-level maps are computed once and shared across runs.
        self._duration: Dict[Hashable, int] = instance.dag.duration_map()
        self._work_power: Dict[Hashable, int] = instance.work_power_map
        # Reusable scratch rows for gain_profile (avoids two allocations per
        # evaluation; the returned gain vector is always a fresh array).
        self._scratch = np.empty(horizon, dtype=np.int64)
        self._scratch_prefix = np.empty(horizon + 1, dtype=np.int64)
        self._starts: Dict[Hashable, int] = {}
        if schedule is not None:
            starts = schedule.start_times()
            power = self._power
            for node in instance.dag.nodes():
                start = starts[node]
                duration = self._duration[node]
                if start < 0 or start + duration > horizon:
                    raise InvalidScheduleError(
                        f"task {node!r} at start {start} (duration {duration}) does "
                        f"not fit into the horizon [0, {horizon})"
                    )
                work_power = self._work_power[node]
                if work_power:
                    power[start : start + duration] += work_power
            self._starts = starts

    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> ProblemInstance:
        """The problem instance this timeline belongs to."""
        return self._instance

    @property
    def horizon(self) -> int:
        """The deadline ``T``."""
        return len(self._power)

    def power_array(self) -> np.ndarray:
        """Return a copy of the per-time-unit total power."""
        return self._power.copy()

    def start_of(self, node: Hashable) -> int:
        """Return the currently placed start time of *node*."""
        try:
            return self._starts[node]
        except KeyError as exc:
            raise InvalidScheduleError(f"task {node!r} is not placed on the timeline") from exc

    def is_placed(self, node: Hashable) -> bool:
        """Return whether *node* is currently placed."""
        return node in self._starts

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def place(self, node: Hashable, start: int) -> None:
        """Place *node* at *start*, adding its working power to the window."""
        if node in self._starts:
            raise InvalidScheduleError(f"task {node!r} is already placed")
        start = int(start)
        duration = self._duration[node]
        if start < 0 or start + duration > self.horizon:
            raise InvalidScheduleError(
                f"task {node!r} at start {start} (duration {duration}) does not fit "
                f"into the horizon [0, {self.horizon})"
            )
        work_power = self._work_power[node]
        if work_power:
            self._power[start : start + duration] += work_power
        self._starts[node] = start

    def remove(self, node: Hashable) -> int:
        """Remove *node* from the timeline and return its previous start time."""
        start = self.start_of(node)
        work_power = self._work_power[node]
        if work_power:
            self._power[start : start + self._duration[node]] -= work_power
        del self._starts[node]
        return start

    def move(self, node: Hashable, new_start: int) -> None:
        """Move *node* to *new_start* with two slice updates.

        Unlike a ``remove`` + ``place`` pair this validates once and keeps the
        node's dictionary entry in place.
        """
        old_start = self.start_of(node)
        new_start = int(new_start)
        if new_start == old_start:
            return
        duration = self._duration[node]
        if new_start < 0 or new_start + duration > self.horizon:
            raise InvalidScheduleError(
                f"task {node!r} at start {new_start} (duration {duration}) does not "
                f"fit into the horizon [0, {self.horizon})"
            )
        work_power = self._work_power[node]
        if work_power:
            self._power[old_start : old_start + duration] -= work_power
            self._power[new_start : new_start + duration] += work_power
        self._starts[node] = new_start

    # ------------------------------------------------------------------ #
    # Cost evaluation
    # ------------------------------------------------------------------ #
    def total_cost(self) -> int:
        """Return the carbon cost of the currently placed tasks."""
        return int(np.maximum(self._power - self._budget, 0).sum())

    def segment_cost(self, begin: int, end: int) -> int:
        """Return the carbon cost restricted to the time window ``[begin, end)``."""
        begin = max(0, int(begin))
        end = min(self.horizon, int(end))
        if end <= begin:
            return 0
        window = self._power[begin:end] - self._budget[begin:end]
        return int(np.maximum(window, 0).sum())

    def move_gain(self, node: Hashable, new_start: int) -> int:
        """Return the cost reduction of moving *node* to *new_start*.

        Positive values mean the move lowers the carbon cost.  The timeline is
        left unchanged.
        """
        old_start = self.start_of(node)
        if new_start == old_start:
            return 0
        duration = self._duration[node]
        if new_start < 0 or new_start + duration > self.horizon:
            raise InvalidScheduleError(
                f"task {node!r} cannot move to {new_start}: outside the horizon"
            )
        window_begin = min(old_start, new_start)
        window_end = max(old_start, new_start) + duration
        before = self.segment_cost(window_begin, window_end)
        self.move(node, new_start)
        after = self.segment_cost(window_begin, window_end)
        self.move(node, old_start)
        return before - after

    def gain_profile(self, node: Hashable, lo: int, hi: int) -> np.ndarray:
        """Return the move gains of all candidate starts ``lo .. hi`` at once.

        The result is an ``int64`` array of length ``hi - lo + 1`` whose entry
        ``s - lo`` equals ``move_gain(node, s)`` (the entry for the current
        start, when inside the window, is 0).  Instead of the per-candidate
        remove/place round-trips of :meth:`move_gain`, the node is removed
        once and every candidate is evaluated with a single prefix-sum
        expression over the affected window:

        with ``excess[t] = power[t] - budget[t]`` after removing the node, the
        cost delta of covering ``t`` is ``max(excess[t] + p, 0) -
        max(excess[t], 0) = clip(excess[t], -p, 0) + p``; the constant ``p``
        per covered unit is shared by every candidate and cancels in the gain
        differences, so the cost of candidate ``s`` differs from the shared
        baseline by the sum of ``clip(excess, -p, 0)`` over ``[s, s + d)`` — a
        sliding-window sum obtained from one cumulative sum.  All arithmetic
        is integer, so the profile is bit-identical to the scalar loop.

        The timeline is left unchanged.
        """
        old_start = self.start_of(node)
        lo = int(lo)
        hi = int(hi)
        duration = self._duration[node]
        if lo < 0 or hi + duration > self.horizon:
            raise InvalidScheduleError(
                f"task {node!r} cannot move within [{lo}, {hi}]: outside the horizon"
            )
        if hi < lo:
            return np.zeros(0, dtype=np.int64)
        work_power = self._work_power[node]
        if not work_power or not duration:
            # A zero-power or zero-length node never changes the cost.
            return np.zeros(hi - lo + 1, dtype=np.int64)
        window_begin = min(lo, old_start)
        window_end = max(hi, old_start) + duration
        length = window_end - window_begin
        excess = self._scratch[:length]
        np.subtract(
            self._power[window_begin:window_end],
            self._budget[window_begin:window_end],
            out=excess,
        )
        rel_old = old_start - window_begin
        excess[rel_old : rel_old + duration] -= work_power
        np.minimum(excess, 0, out=excess)
        np.maximum(excess, -work_power, out=excess)
        prefix = self._scratch_prefix[: length + 1]
        prefix[0] = 0
        excess.cumsum(out=prefix[1:])
        # The excess row is dead after the cumsum; reuse it for the window sums.
        window_sums = np.subtract(
            prefix[duration:], prefix[:-duration], out=self._scratch[: length + 1 - duration]
        )
        rel_lo = lo - window_begin
        return window_sums[rel_old] - window_sums[rel_lo : rel_lo + hi - lo + 1]

    def as_schedule(self, *, algorithm: str = "timeline") -> Schedule:
        """Return the currently placed start times as a :class:`Schedule`.

        All nodes of the instance must be placed.
        """
        return Schedule(self._instance, dict(self._starts), algorithm=algorithm)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PowerTimeline(horizon={self.horizon}, placed={len(self._starts)}/"
            f"{self._instance.dag.num_nodes})"
        )
