"""Carbon-cost evaluation of schedules.

Two evaluators are provided:

* :func:`carbon_cost` — the polynomial interval-by-interval computation of
  Appendix A.1: the horizon is swept once; sub-interval boundaries are created
  at every task start/end and at every profile boundary, the platform power is
  constant within each sub-interval, and the cost of a sub-interval is
  ``max(power − budget, 0) × length``.
* :func:`carbon_cost_per_time_unit` — the pseudo-polynomial reference
  implementation that literally loops over the ``T`` time units (vectorised
  with NumPy).  It exists to cross-check the polynomial evaluator in tests and
  to serve as the ground-truth definition (§3 of the paper).

Both return exactly the same integer for any feasible schedule.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.schedule.schedule import Schedule

__all__ = ["carbon_cost", "carbon_cost_per_time_unit", "power_events", "brown_energy_breakdown"]


def power_events(schedule: Schedule) -> List[Tuple[int, int]]:
    """Return the (time, power-delta) events induced by the schedule.

    Every task contributes ``+P_work`` of its processor at its start time and
    ``−P_work`` at its finish time.  Idle power is not part of the events (it
    is a constant baseline).
    """
    events: List[Tuple[int, int]] = []
    dag = schedule.instance.dag
    for node in dag.nodes():
        start = schedule.start(node)
        finish = start + dag.duration(node)
        work_power = dag.processor_spec(node).p_work
        if work_power == 0:
            continue
        events.append((start, work_power))
        events.append((finish, -work_power))
    events.sort()
    return events


def carbon_cost(schedule: Schedule) -> int:
    """Compute the total carbon cost of *schedule* (polynomial sweep).

    The computation follows Appendix A.1 of the paper: the horizon is split at
    every profile boundary and at every task start/finish; within each
    resulting sub-interval the total platform power is constant, so the cost
    is ``max(power − budget, 0)`` times the sub-interval length.  The sweep
    runs in NumPy over the instance's
    :attr:`~repro.schedule.instance.ProblemInstance.cost_rows`: the profile
    boundaries and task starts/finishes are sorted as one row, and a
    ``cumsum`` of their deltas of ``power − budget`` gives every
    sub-interval's excess.

    Tasks finishing after the horizon still contribute events; the cost beyond
    the horizon is accounted against the last interval's budget so that
    infeasible (deadline-violating) schedules still get a well-defined,
    comparable cost.  Feasibility itself is checked separately by
    :func:`repro.schedule.validation.check_schedule`.
    """
    rows = schedule.instance.cost_rows
    start_of = schedule.start_times()
    starts = np.fromiter(map(start_of.__getitem__, rows.nodes), np.int64, len(rows.nodes))
    times = np.concatenate((rows.boundaries, starts, starts + rows.duration))
    order = times.argsort()
    # After the events up to a sorted position, the cumulative excess delta is
    # the sub-interval's power minus its budget.  Events sharing a time are
    # separated by zero-length sub-intervals, so their order does not matter.
    excess = rows.excess_delta[order].cumsum()[:-1]
    return int((np.maximum(excess, 0) * np.diff(times[order])).sum())


def carbon_cost_per_time_unit(schedule: Schedule) -> int:
    """Compute the carbon cost by summing over every time unit (reference).

    This is the literal definition ``CC = Σ_t max(P_t − G_t, 0)`` from §3 of
    the paper, vectorised with NumPy.  It is pseudo-polynomial in the deadline
    and therefore only used for validation and small instances.
    """
    instance = schedule.instance
    profile = instance.profile
    dag = instance.dag
    horizon = max(profile.horizon, schedule.makespan)

    power = np.full(horizon, instance.total_idle_power(), dtype=np.int64)
    for node in dag.nodes():
        start = schedule.start(node)
        finish = start + dag.duration(node)
        work_power = dag.processor_spec(node).p_work
        if work_power and finish > start:
            power[start:finish] += work_power

    budgets = np.empty(horizon, dtype=np.int64)
    budgets[: profile.horizon] = profile.budgets_per_time_unit()
    if horizon > profile.horizon:
        budgets[profile.horizon :] = profile.interval(profile.num_intervals - 1).budget

    return int(np.maximum(power - budgets, 0).sum())


def brown_energy_breakdown(schedule: Schedule) -> Dict[int, int]:
    """Return the carbon cost attributed to each profile interval.

    The keys are 0-based interval indices; the values sum to
    :func:`carbon_cost` for schedules that finish within the horizon.  Used by
    examples and reporting to show *where* brown energy is consumed.
    """
    instance = schedule.instance
    profile = instance.profile
    dag = instance.dag
    horizon = profile.horizon

    power = np.full(horizon, instance.total_idle_power(), dtype=np.int64)
    for node in dag.nodes():
        start = schedule.start(node)
        finish = min(start + dag.duration(node), horizon)
        work_power = dag.processor_spec(node).p_work
        if work_power and finish > start and start < horizon:
            power[start:finish] += work_power

    budgets = profile.budgets_per_time_unit()
    brown = np.maximum(power - budgets, 0)
    breakdown: Dict[int, int] = {}
    for index, interval in enumerate(profile.intervals()):
        breakdown[index] = int(brown[interval.begin : interval.end].sum())
    return breakdown
