"""Local search (hill climbing) on top of a greedy schedule.

The local search of §5.3 iterates over the processors in non-increasing order
of their working power; on each processor it walks over the tasks from left to
right (in the fixed mapping order) and tries to move each task by up to ``µ``
time units to the left or right.  A move is *legal* when the new start time
respects the task's predecessors and successors in the current schedule (and
the deadline); the first legal move with a strictly positive carbon-cost gain
is applied.  Rounds over all processors are repeated until a full round yields
no gain, so the procedure is a plain hill climber and can only improve the
schedule.

The kernel is array-backed.  Start times, the platform's power excess over
the green budget and one *verdict* per task live in NumPy rows indexed by the
task's position in the visit order (:attr:`ProblemInstance.search_arrays`).
A verdict is *unevaluated*, *no gain* or *move to s*, together with the
``[begin, end)`` power region it was computed from.  The walk jumps straight
to the next task whose verdict is not *no gain*.  On an unevaluated task it
evaluates that task and the next unevaluated ones in visit order as one
chunk: legal windows come from the CSR neighbour arrays, and the gains of all
candidate starts of all tasks in the chunk from one 2-D clip + cumulative-sum
expression (the same integer arithmetic as
:meth:`~repro.schedule.timeline.PowerTimeline.gain_profile`).

A verdict depends only on the power inside its region and on the start times
of the task's graph neighbours.  Applying a move therefore resets the mover,
its neighbours and every verdict whose region overlaps the changed span, with
one vectorised compare; any verdict still standing when the walk reaches its
task equals what a fresh evaluation would return there, so the result is the
plain hill climber's, move for move.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import numpy as np

from repro.schedule.instance import SearchArrays
from repro.schedule.schedule import Schedule
from repro.utils.errors import InvalidScheduleError
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["local_search", "DEFAULT_WINDOW"]

#: Default local-search window (the paper's µ).
DEFAULT_WINDOW = 10

#: Most tasks evaluated together in one chunk.
_CHUNK = 64

# Verdict codes; a verdict >= 0 is the start time the task should move to.
_UNEVALUATED = -1
_NO_GAIN = -2


def local_search(
    schedule: Schedule,
    *,
    window: int = DEFAULT_WINDOW,
    max_rounds: Optional[int] = None,
    best_improvement: bool = False,
    algorithm_name: Optional[str] = None,
) -> Schedule:
    """Improve *schedule* with the CaWoSched local search.

    Parameters
    ----------
    schedule:
        A feasible schedule (typically the output of the greedy phase or of
        ASAP).
    window:
        Maximum shift (in time units) considered to the left and to the right
        of a task's current start time (the paper's ``µ``, default 10).
    max_rounds:
        Optional safety cap on the number of improvement rounds; ``None``
        iterates until a round brings no gain (the paper's stopping rule).
    best_improvement:
        If true, evaluate all legal moves of a task and apply the best one
        instead of the first improving one.  The paper reports that this does
        not significantly change the results and uses first improvement; the
        flag exists for the ablation benchmark.
    algorithm_name:
        Optional label of the returned schedule; defaults to the input
        schedule's label with an ``-LS`` suffix.

    Returns
    -------
    Schedule
        A schedule whose carbon cost is never higher than the input's.
    """
    window = check_non_negative_int(window, "window")
    if max_rounds is not None:
        max_rounds = check_positive_int(max_rounds, "max_rounds")

    instance = schedule.instance
    starts = schedule.start_times()
    search = _ArraySearch(
        instance.search_arrays, starts, instance.deadline, window, best_improvement
    )

    rounds = 0
    while True:
        round_gain = search.run_round()
        rounds += 1
        if not round_gain:
            break
        if max_rounds is not None and rounds >= max_rounds:
            break

    starts.update(zip(search.arrays.nodes, search.start.tolist()))
    name = algorithm_name or f"{schedule.algorithm}-LS"
    return Schedule._trusted(instance, starts, algorithm=name)


class _ArraySearch:
    """Task state in position-indexed rows, evaluated a chunk at a time."""

    def __init__(
        self,
        arrays: SearchArrays,
        starts: Dict[Hashable, int],
        deadline: int,
        window: int,
        best_improvement: bool,
    ) -> None:
        self.arrays = arrays
        self._deadline = deadline
        self._window = window
        self._best_improvement = best_improvement
        count = len(arrays.nodes)
        start = np.fromiter(
            (starts[node] for node in arrays.nodes), dtype=np.int64, count=count
        )
        end = start + arrays.duration
        outside = np.flatnonzero((start < 0) | (end > deadline))
        if outside.size:
            position = int(outside[0])
            raise InvalidScheduleError(
                f"task {arrays.nodes[position]!r} at start {int(start[position])} "
                f"(duration {int(arrays.duration[position])}) does not fit into the "
                f"horizon [0, {deadline})"
            )
        # Load the power row with a difference array: +p at each start, -p at
        # each end, and one cumulative sum.
        delta = np.zeros(deadline + 1, dtype=np.int64)
        np.add.at(delta, start, arrays.work_power)
        np.subtract.at(delta, end, arrays.work_power)
        self.excess = arrays.base_excess + np.cumsum(delta[:-1])
        self.start = start
        self.verdict = np.full(count, _UNEVALUATED, dtype=np.int64)
        self.region_begin = np.zeros(count, dtype=np.int64)
        self.region_end = np.zeros(count, dtype=np.int64)

    def run_round(self) -> bool:
        """Visit every task once in order; return whether any task moved."""
        verdict = self.verdict
        moved = False
        position = 0
        while position < verdict.size:
            pending = verdict[position:] != _NO_GAIN
            step = int(pending.argmax())
            if not pending[step]:
                break
            position += step
            target = int(verdict[position])
            if target == _UNEVALUATED:
                unevaluated = (verdict[position:] == _UNEVALUATED).nonzero()[0]
                self._evaluate(position + unevaluated[:_CHUNK])
            else:
                self._move(position, target)
                moved = True
                position += 1
        return moved

    def _evaluate(self, rows: np.ndarray) -> None:
        """Store the verdicts of the tasks at positions *rows*."""
        arrays, start = self.arrays, self.start
        duration = arrays.duration
        current = start[rows]
        length = duration[rows]
        power = arrays.work_power[rows]

        # Legal window of each task given its neighbours' current starts.
        preds, offsets, counts = _neighbours(arrays.pred_ptr, arrays.pred, rows)
        earliest = _reduce(np.maximum, start[preds] + duration[preds], offsets, counts, 0)
        succs, offsets, counts = _neighbours(arrays.succ_ptr, arrays.succ, rows)
        bound = _reduce(np.minimum, start[succs], offsets, counts, self._deadline)
        length_col = length[:, None]
        lo = np.maximum(earliest, current - self._window)
        hi = np.minimum(bound - length, current + self._window)
        begin = np.minimum(lo, current)
        end = np.maximum(hi, current) + length

        # excess[t] with the task itself removed, clipped to [-p, 0], over
        # each task's region.  Shorter regions are padded at their end, past
        # every prefix value their row reads.
        cells = np.arange(int((end - begin).max()))
        index = begin[:, None] + cells
        np.minimum(index, self._deadline - 1, out=index)
        excess = self.excess[index]
        rel_old = (current - begin)[:, None]
        own = (cells >= rel_old) & (cells < rel_old + length_col)
        power_col = power[:, None]
        np.subtract(excess, power_col, out=excess, where=own)
        np.minimum(excess, 0, out=excess)
        np.maximum(excess, -power_col, out=excess)
        width = cells.size + 1
        prefix = np.zeros((rows.size, width), dtype=np.int64)
        excess.cumsum(axis=1, out=prefix[:, 1:])

        # Sliding-window sums: the cost of starting at region column c differs
        # from a shared baseline by prefix[c + d] - prefix[c].
        flat = prefix.ravel()
        row_base = (np.arange(rows.size) * width)[:, None]
        span = hi - lo + 1
        candidates = np.arange(max(int(span.max()), 1))
        column = np.minimum((lo - begin)[:, None] + candidates, cells.size - length_col)
        column += row_base
        old = row_base + rel_old
        gains = (flat[old + length_col] - flat[old]) - (flat[column + length_col] - flat[column])
        valid = candidates < span[:, None]
        if self._best_improvement:
            gains[~valid] = 0
            pick = gains.argmax(axis=1)
            improves = gains[np.arange(rows.size), pick] > 0
        else:
            positive = (gains > 0) & valid
            pick = positive.argmax(axis=1)
            improves = positive[np.arange(rows.size), pick]

        target = lo + pick
        target[~improves] = _NO_GAIN
        self.verdict[rows] = target
        self.region_begin[rows] = begin
        self.region_end[rows] = end

    def _move(self, position: int, target: int) -> None:
        """Move the task at *position* to *target* and reset stale verdicts."""
        arrays = self.arrays
        old = int(self.start[position])
        length = int(arrays.duration[position])
        power = int(arrays.work_power[position])
        self.excess[old : old + length] -= power
        self.excess[target : target + length] += power
        self.start[position] = target

        verdict = self.verdict
        changed_begin = min(old, target)
        changed_end = max(old, target) + length
        verdict[(self.region_begin < changed_end) & (self.region_end > changed_begin)] = (
            _UNEVALUATED
        )
        # The neighbours' legal windows depend on the mover's start.
        verdict[position] = _UNEVALUATED
        verdict[arrays.pred[arrays.pred_ptr[position] : arrays.pred_ptr[position + 1]]] = (
            _UNEVALUATED
        )
        verdict[arrays.succ[arrays.succ_ptr[position] : arrays.succ_ptr[position + 1]]] = (
            _UNEVALUATED
        )


def _neighbours(ptr: np.ndarray, adjacent: np.ndarray, rows: np.ndarray):
    """Return the CSR neighbours of *rows* concatenated, with offsets and counts."""
    first = ptr[rows]
    counts = ptr[rows + 1] - first
    offsets = counts.cumsum() - counts
    flat = (first - offsets).repeat(counts) + np.arange(offsets[-1] + counts[-1])
    return adjacent[flat], offsets, counts


def _reduce(ufunc, values: np.ndarray, offsets: np.ndarray, counts: np.ndarray, default: int):
    """Reduce each row's segment of *values* with *ufunc*, folding in *default*."""
    # The appended default keeps every offset in range; a row without
    # neighbours takes the default itself.
    reduced = ufunc.reduceat(np.concatenate((values, [default])), offsets)
    ufunc(reduced, default, out=reduced)
    reduced[counts == 0] = default
    return reduced
