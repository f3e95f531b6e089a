"""One greedy seed per configuration, one greedy preparation per call.

A job that runs both ``X`` and ``X-LS`` computes the greedy schedule of
``X``'s configuration once: ``X`` returns it and ``X-LS`` improves it.  The
8 configurations share one :class:`GreedyPreparation`: one initial EST/LST
sweep, one score order per ``(base, weighted)`` and one subdivision per
``refined``.  These tests pin that sharing changes nothing observable —
every result equals a lone run of its variant — and that the work really is
shared.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from random_instances import GRID_INSTANCES
import repro.core.greedy as greedy_module
import repro.core.scheduler as scheduler_module
from repro.api import Job
from repro.api.execute import execute_job, record_for
from repro.api.registry import AlgorithmCapabilities, AlgorithmRegistry
from repro.core.greedy import GreedyPreparation, greedy_schedule
from repro.core.local_search import local_search
from repro.core.scheduler import CaWoSched
from repro.core.variants import GREEDY_VARIANTS, variant_names
from repro.experiments.instances import InstanceSpec, make_instance
from repro.schedule.asap import asap_schedule

THIRD_PARTY = "asap-polished"
NAMES = variant_names()


def _asap_polished(instance, scheduler):
    """A third-party algorithm: ASAP followed by the local search."""
    return local_search(
        asap_schedule(instance), window=scheduler.window, algorithm_name=THIRD_PARTY
    )


def _private_registry() -> AlgorithmRegistry:
    registry = AlgorithmRegistry()
    registry.register(
        THIRD_PARTY,
        _asap_polished,
        capabilities=AlgorithmCapabilities(
            phases=("baseline", "local-search"),
            score=None,
            weighted=False,
            refined=False,
            supports_deadline=True,
            cost_model="carbon",
        ),
    )
    return registry


@st.composite
def variant_lists(draw):
    """Built-in names in any order and with repeats (``X-LS`` before ``X``
    included), sometimes with the third-party algorithm in between."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=24))
    if draw(st.booleans()):
        middle = draw(st.integers(0, len(names)))
        names = names[:middle] + [THIRD_PARTY] + names[middle:]
    return names


def _lone(instance, name, registry):
    return registry.run(instance, name, scheduler=CaWoSched())


def _assert_same(result, lone):
    assert result.variant == lone.variant
    assert list(result.schedule.start_times().items()) == list(
        lone.schedule.start_times().items()
    )
    assert result.schedule.algorithm == lone.schedule.algorithm
    assert result.carbon_cost == lone.carbon_cost
    assert result.makespan == lone.makespan


def _untimed(record):
    return dataclasses.replace(record, runtime_seconds=0.0)


SMALL_SPEC = InstanceSpec("atacseq", 20, "small", "S1", 2.0, seed=0)


@given(instance=GRID_INSTANCES, names=variant_lists())
@example(instance=make_instance(SMALL_SPEC), names=["pressWR-LS", "pressWR"])
@example(instance=make_instance(SMALL_SPEC), names=["slack", "slack", "slack-LS", "slack"])
@example(
    instance=make_instance(SMALL_SPEC),
    names=["slackR-LS", "ASAP", THIRD_PARTY, "slackR", "slackR-LS"],
)
@settings(max_examples=60, deadline=None)
def test_shared_seeds_match_lone_runs(instance, names):
    registry = _private_registry()
    lone = {name: _lone(instance, name, registry) for name in set(names)}

    builtin = [name for name in names if name != THIRD_PARTY]
    for name, result in CaWoSched().run_many(instance, builtin).items():
        _assert_same(result, lone[name])

    results, records = execute_job(
        Job.from_instance(instance, variants=names), registry=registry
    )
    assert [result.variant for result in results] == names
    assert [record.variant for record in records] == names
    # Checked after the whole job ran, so an X placed before its X-LS is
    # also checked for being left untouched by the local search.
    for result, record in zip(results, records):
        _assert_same(result, lone[result.variant])
        assert _untimed(record) == _untimed(record_for(instance, lone[result.variant]))


def test_local_search_leaves_the_shared_seed_untouched():
    instance = make_instance(SMALL_SPEC)
    run = CaWoSched().runner(instance)
    greedy = run("pressWR")
    before = list(greedy.schedule.start_times().items())
    improved = run("pressWR-LS")
    assert list(greedy.schedule.start_times().items()) == before
    assert greedy.carbon_cost == CaWoSched().run(instance, "pressWR").carbon_cost
    assert improved.carbon_cost <= greedy.carbon_cost


# --------------------------------------------------------------------------- #
# Work counts and runtime attribution
# --------------------------------------------------------------------------- #
@pytest.fixture
def greedy_calls(monkeypatch):
    calls = []
    original = GreedyPreparation.run

    def spy(self, base, weighted=False, refined=False, algorithm_name=None):
        calls.append({"base": base, "weighted": weighted, "refined": refined})
        return original(self, base, weighted, refined, algorithm_name)

    monkeypatch.setattr(GreedyPreparation, "run", spy)
    return calls


def test_full_job_computes_each_greedy_configuration_once(greedy_calls):
    instance = make_instance(SMALL_SPEC)
    results, _ = execute_job(Job.from_instance(instance))
    assert len(results) == 17
    assert len(greedy_calls) == len(GREEDY_VARIANTS) == 8
    configurations = {
        (call["base"], call["weighted"], call["refined"]) for call in greedy_calls
    }
    assert len(configurations) == 8


def test_greedy_and_local_search_pair_share_one_seed(greedy_calls):
    instance = make_instance(SMALL_SPEC)
    execute_job(Job.from_instance(instance, variants=("pressWR", "pressWR-LS")))
    assert len(greedy_calls) == 1
    CaWoSched().run_many(instance, ["pressWR-LS", "pressWR"])
    assert len(greedy_calls) == 2


def test_each_call_starts_with_an_empty_memo(greedy_calls):
    instance = make_instance(SMALL_SPEC)
    scheduler = CaWoSched()
    scheduler.run(instance, "slack")
    scheduler.run(instance, "slack-LS")
    scheduler.run_many(instance, ["slack"])
    assert len(greedy_calls) == 3


PIECES = ("EstLstTracker", "task_order", "original_subdivision", "refined_subdivision")


@pytest.fixture
def pieces(monkeypatch):
    """Count the builds of each shared greedy piece and of preparations."""
    counts = Counter()

    def counting(name, build):
        def counted(*args, **kwargs):
            counts[name] += 1
            return build(*args, **kwargs)

        return counted

    for name in PIECES:
        monkeypatch.setattr(greedy_module, name, counting(name, getattr(greedy_module, name)))
    monkeypatch.setattr(
        scheduler_module,
        "GreedyPreparation",
        counting("GreedyPreparation", GreedyPreparation),
    )
    return counts


def test_full_job_builds_each_shared_piece_once(pieces):
    instance = make_instance(SMALL_SPEC)
    results, _ = execute_job(Job.from_instance(instance))
    assert len(results) == 17
    assert pieces == Counter(
        GreedyPreparation=1,
        EstLstTracker=1,
        task_order=4,
        original_subdivision=1,
        refined_subdivision=1,
    )


def test_lone_slack_run_builds_only_what_it_uses(pieces):
    instance = make_instance(SMALL_SPEC)
    CaWoSched().run(instance, "slack")
    expected = Counter(EstLstTracker=1, task_order=1, original_subdivision=1)
    assert pieces == expected + Counter(GreedyPreparation=1)
    pieces.clear()
    greedy_schedule(instance, base="slack")
    assert pieces == expected


def test_each_call_prepares_afresh(pieces):
    instance = make_instance(SMALL_SPEC)
    scheduler = CaWoSched()
    scheduler.run(instance, "slack")
    scheduler.run(instance, "slack")
    scheduler.run_many(instance, ["slack", "slackW", "slack"])
    assert pieces["GreedyPreparation"] == 3
    assert pieces["EstLstTracker"] == 3
    assert pieces["task_order"] == 4


@pytest.fixture
def step_clock(monkeypatch):
    """Replace the scheduler's and the greedy phase's clock with one that
    advances 1 s per reading."""
    ticks = iter(range(10**6))

    def clock():
        return float(next(ticks))

    monkeypatch.setattr(scheduler_module, "perf_counter", clock)
    monkeypatch.setattr(greedy_module, "perf_counter", clock)


#: Clock steps of a greedy seed: the initial EST/LST state, the score order,
#: the subdivision and the placement loop each span one.
GREEDY_STEPS = 4.0


@pytest.mark.parametrize(
    "names", [("pressWR", "pressWR-LS"), ("pressWR-LS", "pressWR")]
)
def test_local_search_runtime_includes_the_shared_greedy_time(step_clock, names):
    instance = make_instance(SMALL_SPEC)
    results = CaWoSched().run_many(instance, names)
    # The greedy seed is computed once, then each variant's own local search
    # + validation spans one more step.
    own_step = 1.0
    assert results["pressWR"].runtime_seconds == GREEDY_STEPS + own_step
    assert results["pressWR-LS"].runtime_seconds == GREEDY_STEPS + own_step
    assert results["pressWR-LS"].runtime_seconds > own_step


def test_each_configuration_is_charged_the_pieces_it_uses(step_clock):
    # Later configurations reuse the pieces built by earlier ones, yet every
    # runtime equals that of a lone run, which builds all of them itself.
    instance = make_instance(SMALL_SPEC)
    results = CaWoSched().run_many(instance)
    for name, result in results.items():
        expected = 1.0 if name == "ASAP" else GREEDY_STEPS + 1.0
        assert result.runtime_seconds == expected, name
        assert CaWoSched().run(instance, name).runtime_seconds == expected, name


def test_baseline_runtime_has_no_greedy_share(step_clock):
    instance = make_instance(SMALL_SPEC)
    assert CaWoSched().run(instance, "ASAP").runtime_seconds == 1.0
    results = CaWoSched().run_many(instance, ["pressWR", "ASAP"])
    assert results["ASAP"].runtime_seconds == 1.0
