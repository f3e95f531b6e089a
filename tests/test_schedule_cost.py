"""Tests for the carbon-cost evaluators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cost_oracle import oracle_carbon_cost
from random_instances import build_random_instance
from repro.carbon.intervals import PowerProfile
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.mapping import Mapping
from repro.platform_.presets import single_processor_cluster
from repro.schedule.asap import alap_schedule, asap_schedule
from repro.schedule.cost import (
    brown_energy_breakdown,
    carbon_cost,
    carbon_cost_per_time_unit,
    power_events,
)
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.workflow.dag import Workflow


def single_task_instance(work: int, p_idle: int, p_work: int, profile: PowerProfile):
    wf = Workflow("one")
    wf.add_task("t", work=work)
    cluster = single_processor_cluster(p_idle=p_idle, p_work=p_work)
    mapping = Mapping(wf, cluster, {"t": "p0"})
    dag = build_enhanced_dag(mapping, rng=0)
    return ProblemInstance(dag, profile)


class TestHandComputedCosts:
    def test_single_task_fully_green(self):
        instance = single_task_instance(3, p_idle=1, p_work=2, profile=PowerProfile([10], [5]))
        schedule = Schedule(instance, {"t": 0})
        # Power is 3 while running, 1 while idle; budget 5 everywhere -> cost 0.
        assert carbon_cost(schedule) == 0

    def test_single_task_all_brown(self):
        instance = single_task_instance(4, p_idle=1, p_work=2, profile=PowerProfile([10], [0]))
        schedule = Schedule(instance, {"t": 2})
        # Idle cost 1 for 6 units + active cost 3 for 4 units = 6 + 12 = 18.
        assert carbon_cost(schedule) == 18

    def test_single_task_partial_budget(self):
        profile = PowerProfile([5, 5], [3, 1])
        instance = single_task_instance(4, p_idle=1, p_work=2, profile=profile)
        # Run in the first (greener) interval: active power 3 <= 3 -> 0 cost
        # there; idle power 1 <= 1 in the second interval -> total 0.
        assert carbon_cost(Schedule(instance, {"t": 0})) == 0
        # Run in the second interval: active power 3 vs budget 1 -> 2 per unit
        # for 4 units = 8.
        assert carbon_cost(Schedule(instance, {"t": 5})) == 8

    def test_task_straddling_interval_boundary(self):
        profile = PowerProfile([5, 5], [3, 0])
        instance = single_task_instance(4, p_idle=0, p_work=3, profile=profile)
        schedule = Schedule(instance, {"t": 3})
        # 2 units in the first interval (cost 0), 2 units in the second
        # (cost 3 each) = 6.
        assert carbon_cost(schedule) == 6


class TestEvaluatorEquivalence:
    def test_asap_and_alap_agree_with_reference(self, tiny_multi_instance):
        for schedule in (asap_schedule(tiny_multi_instance), alap_schedule(tiny_multi_instance)):
            assert carbon_cost(schedule) == carbon_cost_per_time_unit(schedule)

    def test_single_instance_agreement(self, tiny_single_instance):
        schedule = asap_schedule(tiny_single_instance)
        assert carbon_cost(schedule) == carbon_cost_per_time_unit(schedule)

    def test_costs_are_non_negative(self, tiny_multi_instance):
        assert carbon_cost(asap_schedule(tiny_multi_instance)) >= 0


def _drawn_schedule(instance, offsets):
    """Start times from *offsets*: ``-1`` ends the node exactly at ``T``,
    anything else is the start itself (possibly finishing past ``T``)."""
    durations = instance.dag.duration_map()
    deadline = instance.deadline
    return Schedule(
        instance,
        {
            node: max(0, deadline - durations[node]) if offset < 0 else offset
            for node, offset in zip(instance.dag.nodes(), offsets)
        },
    )


class TestSweepParity:
    """The NumPy sweep against the original Python sweep and the literal
    per-time-unit definition, on arbitrary (also infeasible) start times."""

    @given(
        spec=st.tuples(
            st.sampled_from(["atacseq", "eager", "forkjoin", "chain"]),
            st.integers(6, 20),
            st.sampled_from(["S1", "S2", "S3", "S4"]),
            st.sampled_from([1.0, 1.5, 3.0]),
            st.integers(0, 10**6),
            # (0, 0): links drawing no working power.
            st.sampled_from([(1, 2), (0, 1), (0, 0)]),
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_oracles(self, spec, data):
        instance = build_random_instance(*spec)
        deadline = instance.deadline
        offsets = data.draw(
            st.lists(
                st.integers(-1, deadline + 3),
                min_size=instance.num_tasks,
                max_size=instance.num_tasks,
            )
        )
        schedule = _drawn_schedule(instance, offsets)
        expected = oracle_carbon_cost(schedule)
        assert carbon_cost(schedule) == expected == carbon_cost_per_time_unit(schedule)

    def test_every_task_ending_at_the_deadline(self, tiny_multi_instance):
        schedule = _drawn_schedule(tiny_multi_instance, [-1] * tiny_multi_instance.num_tasks)
        assert schedule.makespan == tiny_multi_instance.deadline
        expected = oracle_carbon_cost(schedule)
        assert carbon_cost(schedule) == expected == carbon_cost_per_time_unit(schedule)

    @pytest.mark.parametrize("start", [0, 3, 7, 12])
    def test_zero_work_power_processor(self, start):
        # No node enters the sweep: only the idle power against the budgets,
        # past the horizon against the last budget.
        profile = PowerProfile([4, 6], [1, 3])
        instance = single_task_instance(5, p_idle=2, p_work=0, profile=profile)
        schedule = Schedule(instance, {"t": start})
        assert instance.cost_rows.nodes == ()
        expected = oracle_carbon_cost(schedule)
        assert carbon_cost(schedule) == expected == carbon_cost_per_time_unit(schedule)

    def test_past_horizon_uses_the_last_budget(self):
        profile = PowerProfile([5, 5], [9, 1])
        instance = single_task_instance(4, p_idle=1, p_work=2, profile=profile)
        # Runs [8, 12): power 3 against budget 1 for 4 units, 2 of them past
        # T = 10; idle 1 against 9 then 1 costs nothing elsewhere.
        schedule = Schedule(instance, {"t": 8})
        assert carbon_cost(schedule) == 8 == oracle_carbon_cost(schedule)

    def test_rows_are_built_once_and_read_only(self, tiny_multi_instance):
        rows = tiny_multi_instance.cost_rows
        assert tiny_multi_instance.cost_rows is rows
        with pytest.raises(ValueError):
            rows.excess_delta[0] = 0


class TestPowerEvents:
    def test_events_balance_to_zero(self, tiny_multi_instance):
        events = power_events(asap_schedule(tiny_multi_instance))
        assert sum(delta for _, delta in events) == 0

    def test_events_sorted_by_time(self, tiny_multi_instance):
        events = power_events(asap_schedule(tiny_multi_instance))
        times = [time for time, _ in events]
        assert times == sorted(times)


class TestBrownEnergyBreakdown:
    def test_breakdown_sums_to_total(self, tiny_multi_instance):
        schedule = asap_schedule(tiny_multi_instance)
        breakdown = brown_energy_breakdown(schedule)
        assert sum(breakdown.values()) == carbon_cost(schedule)
        assert set(breakdown) == set(range(tiny_multi_instance.profile.num_intervals))

    def test_zero_cost_breakdown(self):
        instance = single_task_instance(3, p_idle=0, p_work=1, profile=PowerProfile([10], [5]))
        breakdown = brown_energy_breakdown(Schedule(instance, {"t": 0}))
        assert all(value == 0 for value in breakdown.values())
