"""Tests for the local-search hill climber."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.scheduler as scheduler_module
import repro.schedule.instance as instance_module
from random_instances import LS_SPEC_STRATEGY, build_random_instance, ls_seed
from repro.api import Job
from repro.api.execute import execute_job
from repro.carbon.intervals import PowerProfile
from repro.core.greedy import greedy_schedule
from repro.core.local_search import local_search
from repro.core.variants import LS_VARIANTS
from repro.experiments.instances import InstanceSpec, make_instance
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.mapping import Mapping
from repro.platform_.presets import single_processor_cluster
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import is_feasible
from repro.workflow.dag import Workflow


@pytest.fixture
def improvable_instance() -> ProblemInstance:
    """A single task that ASAP places in a brown interval; shifting it a few
    units to the right makes it free."""
    wf = Workflow("one")
    wf.add_task("t", work=3)
    cluster = single_processor_cluster(p_idle=0, p_work=5)
    mapping = Mapping(wf, cluster, {"t": "p0"})
    dag = build_enhanced_dag(mapping, rng=0)
    profile = PowerProfile([4, 6], [0, 10])
    return ProblemInstance(dag, profile)


class TestLocalSearchBehaviour:
    def test_never_increases_cost(self, tiny_multi_instance):
        for base in ("slack", "pressure"):
            greedy = greedy_schedule(tiny_multi_instance, base=base)
            improved = local_search(greedy)
            assert carbon_cost(improved) <= carbon_cost(greedy)

    def test_result_is_feasible(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="pressure", refined=True)
        improved = local_search(greedy)
        assert is_feasible(improved)

    def test_finds_obvious_improvement(self, improvable_instance):
        asap = asap_schedule(improvable_instance)
        assert carbon_cost(asap) == 15  # 3 units × power 5 over budget 0
        improved = local_search(asap, window=10)
        assert carbon_cost(improved) == 0
        assert improved.start("t") >= 4

    def test_window_zero_changes_nothing(self, improvable_instance):
        asap = asap_schedule(improvable_instance)
        unchanged = local_search(asap, window=0)
        assert unchanged.start_times() == asap.start_times()

    def test_small_window_single_round_limits_moves(self, improvable_instance):
        # With window 2 and a single round the task can only reach start 2:
        # still 2 units in the brown interval, cost 10 instead of 15.
        asap = asap_schedule(improvable_instance)
        improved = local_search(asap, window=2, max_rounds=1)
        assert carbon_cost(improved) == 10

    def test_small_window_drifts_over_rounds(self, improvable_instance):
        # Repeated rounds let the task drift further than the window per
        # round, eventually leaving the brown interval entirely.
        asap = asap_schedule(improvable_instance)
        improved = local_search(asap, window=2)
        assert carbon_cost(improved) == 0

    def test_max_rounds_cap(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="slack")
        capped = local_search(greedy, max_rounds=1)
        assert carbon_cost(capped) <= carbon_cost(greedy)

    def test_best_improvement_not_worse_than_first(self, improvable_instance):
        asap = asap_schedule(improvable_instance)
        first = local_search(asap, best_improvement=False)
        best = local_search(asap, best_improvement=True)
        assert carbon_cost(best) <= carbon_cost(first)

    def test_algorithm_name_suffix(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="slack", refined=True)
        improved = local_search(greedy)
        assert improved.algorithm == "slackR-LS"
        named = local_search(greedy, algorithm_name="custom")
        assert named.algorithm == "custom"

    def test_negative_window_rejected(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="slack")
        with pytest.raises(ValueError):
            local_search(greedy, window=-1)

    def test_moves_respect_precedence(self, tiny_multi_instance):
        greedy = greedy_schedule(tiny_multi_instance, base="pressure")
        improved = local_search(greedy, window=50)
        dag = tiny_multi_instance.dag
        for source, target in dag.edges():
            assert improved.start(target) >= improved.start(source) + dag.duration(source)


class TestLocalSearchProperties:
    @given(
        spec=LS_SPEC_STRATEGY,
        kind=st.sampled_from(["ASAP", "slack", "pressure"]),
        best=st.booleans(),
        window=st.sampled_from([1, 3, 10]),
    )
    @settings(max_examples=40, deadline=None)
    def test_idempotent_pure_and_never_worse(self, spec, kind, best, window):
        seed = ls_seed(build_random_instance(*spec), kind, refined=True)
        before = list(seed.start_times().items())
        improved = local_search(seed, window=window, best_improvement=best)
        # The input schedule is left as it was.
        assert list(seed.start_times().items()) == before
        assert carbon_cost(improved) <= carbon_cost(seed)
        # A local optimum is a fixed point.
        again = local_search(improved, window=window, best_improvement=best)
        assert again.start_times() == improved.start_times()


class TestSearchArrays:
    def test_instance_is_collectable_after_local_search(self):
        instance = build_random_instance("eager", 20, "S2", 1.5, seed=5)
        improved = local_search(greedy_schedule(instance, base="slack"))
        assert improved.instance is instance
        reference = weakref.ref(instance)
        del instance, improved
        gc.collect()
        assert reference() is None

    def test_arrays_are_read_only(self):
        instance = build_random_instance("eager", 20, "S2", 1.5, seed=5)
        arrays = instance.search_arrays
        assert arrays is instance.search_arrays
        assert sorted(arrays.nodes, key=str) == sorted(instance.dag.nodes(), key=str)
        with pytest.raises(ValueError):
            arrays.base_excess[0] = 0

    def test_one_build_shared_by_every_local_search_run_of_a_job(self, monkeypatch):
        builds = []
        build = instance_module._build_search_arrays
        seen = []
        search = scheduler_module.local_search

        def build_spy(instance):
            builds.append(build(instance))
            return builds[-1]

        def search_spy(schedule, **kwargs):
            seen.append(schedule.instance.search_arrays)
            return search(schedule, **kwargs)

        monkeypatch.setattr(instance_module, "_build_search_arrays", build_spy)
        monkeypatch.setattr(scheduler_module, "local_search", search_spy)
        instance = make_instance(InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=1))
        results, _ = execute_job(Job.from_instance(instance))
        assert len(results) == 17
        assert len(seen) == len(LS_VARIANTS) == 8
        assert len(builds) == 1
        assert all(arrays is builds[0] for arrays in seen)
