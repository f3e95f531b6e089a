"""The greedy phase of CaWoSched.

Tasks are processed in the order induced by their score (slack or pressure,
optionally power-weighted).  Each task is started at the beginning of the
remaining-budget interval with the highest green budget among the intervals
whose start lies in the task's current ``[EST, LST]`` window (ties are broken
towards the earliest interval); if no interval start is available the task
simply starts at its EST.  After a task has been placed, the budgets of the
intervals it overlaps are decreased by the task's processor power (idle +
working), the overlapped boundary intervals are split, and the EST/LST of all
unscheduled tasks are updated (§5.2 of the paper).

The 16 heuristics are 8 greedy configurations (slack/pressure × W × R), and
on one instance they all start from the same EST/LST state, use one of 4
score orders and one of 2 subdivisions.  :class:`GreedyPreparation` builds
each of those pieces once, on first use; a run copies the pieces it needs and
walks its order by topological position.
"""

from __future__ import annotations

import bisect
import copy
from time import perf_counter
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.carbon.intervals import PowerProfile
from repro.core.estlst import EstLstTracker
from repro.core.scores import SCORE_PRESSURE, SCORE_SLACK, compute_scores, task_order
from repro.core.subdivision import (
    DEFAULT_BLOCK_SIZE,
    original_subdivision,
    refined_subdivision,
)
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.utils.errors import CaWoSchedError

__all__ = ["BudgetIntervals", "GreedyPreparation", "greedy_schedule"]


class BudgetIntervals:
    """Mutable view of the green budget over a subdivision of the horizon.

    The interval begins and their budgets are parallel Python lists, always
    contiguous over ``[0, T)``: interval ``i`` ends where interval ``i + 1``
    begins.  The rows hold a few dozen entries, a size at which ``bisect``,
    ``max``/``list.index`` and one list comprehension beat NumPy's per-call
    overhead.  Placing a task splits the partially covered first/last
    intervals and decreases the budget of every interval the task overlaps.
    """

    def __init__(self, profile: PowerProfile, subdivision_points: Sequence[int]) -> None:
        horizon = profile.horizon
        points = set(subdivision_points) | {iv.begin for iv in profile.intervals()}
        self._horizon = horizon
        self._begins: List[int] = sorted(p for p in points if 0 <= p < horizon)
        self._budgets: List[int] = [profile.budget_at(begin) for begin in self._begins]

    def copy(self) -> "BudgetIntervals":
        """Return an independent copy (the greedy runs of a job share one template)."""
        twin = copy.copy(self)
        twin._begins = list(self._begins)
        twin._budgets = list(self._budgets)
        return twin

    def intervals(self) -> List[Tuple[int, int, int]]:
        """Return the current (begin, end, budget) triples."""
        ends = self._begins[1:] + [self._horizon]
        return list(zip(self._begins, ends, self._budgets))

    def best_start(self, earliest: int, latest: int) -> Optional[int]:
        """Return the best interval start within ``[earliest, latest]``.

        "Best" means the interval with the highest remaining budget; ties are
        broken towards the earliest start point (``list.index`` finds the
        first maximum).  Returns ``None`` when no interval starts inside the
        window.
        """
        begins = self._begins
        lo = bisect.bisect_left(begins, earliest)
        hi = bisect.bisect_right(begins, latest)
        if hi <= lo:
            return None
        window = self._budgets[lo:hi]
        return begins[lo + window.index(max(window))]

    def _split_index(self, time: int) -> int:
        """Make *time* an interval boundary and return its interval index.

        *time* must lie in ``[0, horizon)``.
        """
        begins = self._begins
        index = bisect.bisect_right(begins, time) - 1
        if begins[index] == time:
            return index
        begins.insert(index + 1, time)
        self._budgets.insert(index + 1, self._budgets[index])
        return index + 1

    def consume(self, begin: int, end: int, power: int) -> None:
        """Decrease the budget by *power* over the window ``[begin, end)``.

        The window is clipped to the horizon; boundary intervals are split so
        that the decrement applies exactly to the window.  Budgets may become
        negative, which simply marks heavily loaded intervals as unattractive
        for subsequent tasks.
        """
        horizon = self._horizon
        begin = max(0, int(begin))
        end = min(horizon, int(end))
        if end <= begin:
            return
        lo = self._split_index(begin)
        hi = self._split_index(end) if end < horizon else len(self._begins)
        budgets = self._budgets
        budgets[lo:hi] = [budget - power for budget in budgets[lo:hi]]


class GreedyPreparation:
    """The greedy pieces one instance's configurations share, built lazily.

    The pieces are the initial EST/LST state with the duration and active
    power rows by topological position, one task order per ``(base,
    weighted)`` and one budget template per ``refined`` subdivision.  Each is
    kept with the wall time its build took, so :meth:`run` charges a
    configuration for every piece it uses, as a lone run would pay them.

    Parameters
    ----------
    instance:
        The problem instance.
    block_size:
        Maximum block size of the refined subdivision (the paper's ``k``).
    """

    def __init__(self, instance: ProblemInstance, *, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        self.instance = instance
        self.block_size = block_size
        self._pieces: Dict[Hashable, Tuple[object, float]] = {}

    def run(
        self,
        base: str,
        weighted: bool = False,
        refined: bool = False,
        algorithm_name: Optional[str] = None,
    ) -> Tuple[Schedule, float]:
        """Run one greedy configuration; return its schedule and seconds.

        The seconds cover the placement loop plus the build time of every
        piece the configuration uses, whether built now or by an earlier run.
        """
        if base not in (SCORE_SLACK, SCORE_PRESSURE):
            raise CaWoSchedError(f"unknown base score {base!r}")
        (tracker, duration, power), state_seconds = self._piece("state", self._build_state)
        order, order_seconds = self._piece(
            ("order", base, weighted), lambda: self._build_order(tracker, base, weighted)
        )
        template, budget_seconds = self._piece(
            ("budgets", refined), lambda: self._build_budgets(refined)
        )

        begin = perf_counter()
        tracker = tracker.copy()
        budgets = template.copy()
        nodes, est, lst = tracker.order, tracker.est_row, tracker.lst_row
        for index in order:
            earliest = est[index]
            start = budgets.best_start(earliest, lst[index])
            if start is None:
                start = earliest
            tracker.fix(nodes[index], start)
            budgets.consume(start, start + duration[index], power[index])
        name = algorithm_name or _default_name(base, weighted, refined)
        schedule = Schedule._trusted(self.instance, tracker.fixed_starts(), algorithm=name)
        seconds = perf_counter() - begin
        return schedule, state_seconds + order_seconds + budget_seconds + seconds

    # ------------------------------------------------------------------ #
    def _piece(self, key: Hashable, build: Callable[[], object]) -> Tuple[object, float]:
        """Return ``(piece, build seconds)`` for *key*, building it on first use."""
        if key not in self._pieces:
            begin = perf_counter()
            piece = build()
            self._pieces[key] = (piece, perf_counter() - begin)
        return self._pieces[key]

    def _build_state(self) -> Tuple[EstLstTracker, List[int], List[int]]:
        instance = self.instance
        tracker = EstLstTracker(instance.dag, instance.deadline)
        duration = instance.dag.duration_map()
        power = instance.active_power_map
        return (
            tracker,
            [duration[node] for node in tracker.order],
            [power[node] for node in tracker.order],
        )

    def _build_order(self, tracker: EstLstTracker, base: str, weighted: bool) -> List[int]:
        dag = self.instance.dag
        scores = compute_scores(
            dag, tracker.est_map(), tracker.lst_map(), base=base, weighted=weighted
        )
        position = tracker.positions
        return [position[node] for node in task_order(dag, scores, base=base)]

    def _build_budgets(self, refined: bool) -> BudgetIntervals:
        instance = self.instance
        if refined:
            points = refined_subdivision(instance, block_size=self.block_size)
        else:
            points = original_subdivision(instance.profile)
        return BudgetIntervals(instance.profile, points)


def greedy_schedule(
    instance: ProblemInstance,
    *,
    base: str,
    weighted: bool = False,
    refined: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
    algorithm_name: Optional[str] = None,
) -> Schedule:
    """Run the greedy CaWoSched phase on *instance*.

    Parameters
    ----------
    instance:
        The problem instance.
    base:
        Base score: ``"slack"`` or ``"pressure"``.
    weighted:
        Whether to weight the score by the processor power factor.
    refined:
        Whether to use the refined interval subdivision (block alignments).
    block_size:
        Maximum block size of the refined subdivision (the paper's ``k``).
    algorithm_name:
        Optional label stored on the returned schedule.

    Returns
    -------
    Schedule
        A feasible schedule of all tasks (the caller may refine it further
        with the local search).
    """
    preparation = GreedyPreparation(instance, block_size=block_size)
    return preparation.run(base, weighted, refined, algorithm_name)[0]


def _default_name(base: str, weighted: bool, refined: bool) -> str:
    """Return the paper's variant name for a greedy configuration."""
    prefix = "slack" if base == SCORE_SLACK else "press"
    return prefix + ("W" if weighted else "") + ("R" if refined else "")
