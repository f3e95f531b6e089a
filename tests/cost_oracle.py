"""Test-only oracle: the carbon-cost sweep of Appendix A.1 in plain Python.

A verbatim copy of the original ``carbon_cost`` (here ``oracle_carbon_cost``)
and the ``power_events`` it reads: events sorted in a list, boundaries merged
in a set and swept one sub-interval at a time with ``PowerProfile.budget_at``.
``tests/test_schedule_cost.py`` checks that the NumPy sweep in
:mod:`repro.schedule.cost` returns the same integer.  Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.schedule.schedule import Schedule


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


def oracle_carbon_cost(schedule: Schedule) -> int:
    """Compute the total carbon cost of *schedule* (polynomial sweep).

    The computation follows Appendix A.1 of the paper: the horizon is split at
    every profile boundary and at every task start/finish; within each
    resulting sub-interval the total platform power is constant, so the cost
    is ``max(power − budget, 0)`` times the sub-interval length.

    Tasks finishing after the horizon still contribute events; the cost beyond
    the horizon is accounted against the last interval's budget so that
    infeasible (deadline-violating) schedules still get a well-defined,
    comparable cost.  Feasibility itself is checked separately by
    :func:`repro.schedule.validation.check_schedule`.
    """
    instance = schedule.instance
    profile = instance.profile
    idle_power = instance.total_idle_power()

    events = power_events(schedule)
    boundaries = sorted(
        set(profile.boundaries())
        | {time for time, _ in events}
        | {0}
    )
    # Make sure the sweep covers the full horizon even if no task touches it.
    horizon_end = max(profile.horizon, boundaries[-1] if boundaries else 0)
    if boundaries[-1] < horizon_end:
        boundaries.append(horizon_end)

    # Aggregate the power deltas per boundary time.
    delta_at: Dict[int, int] = {}
    for time, delta in events:
        delta_at[time] = delta_at.get(time, 0) + delta

    total_cost = 0
    power = idle_power
    last_budget = profile.interval(profile.num_intervals - 1).budget
    for begin, end in zip(boundaries, boundaries[1:]):
        power += delta_at.get(begin, 0)
        if begin >= profile.horizon:
            budget = last_budget
        else:
            budget = profile.budget_at(begin)
        length = end - begin
        if length > 0:
            total_cost += max(power - budget, 0) * length
    return int(total_cost)
