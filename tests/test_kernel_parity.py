"""Parity suite for the vectorized scheduling kernels.

Each hot path is pinned *byte-identical* to a straightforward reference:

* ``PowerTimeline.gain_profile`` equals a loop of scalar ``move_gain`` calls,
* ``local_search`` returns the same start times as the per-candidate hill
  climber kept in :mod:`local_search_oracle`,
* ``EstLstTracker`` produces the EST/LST maps of the full two-sweep
  recompute kept in :mod:`estlst_oracle` after every fix,
* the lag-difference form of ``block_alignment_points`` equals the original
  per-(block, alignment, task) enumeration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from estlst_oracle import RecomputeTracker
from greedy_oracle import oracle_greedy_schedule
from local_search_oracle import oracle_local_search
from random_instances import LS_SPEC_STRATEGY, build_random_instance, ls_seed
from repro.core.estlst import EstLstTracker
from repro.core.greedy import greedy_schedule
from repro.core.local_search import local_search
from repro.core.subdivision import block_alignment_points
from repro.platform_.presets import scaled_large_cluster
from repro.schedule.asap import asap_schedule
from repro.schedule.instance import ProblemInstance
from repro.schedule.timeline import PowerTimeline
from repro.utils.rng import ensure_rng

INSTANCE_STRATEGY = st.builds(
    build_random_instance,
    family=st.sampled_from(["atacseq", "eager", "forkjoin", "chain"]),
    num_tasks=st.integers(6, 25),
    scenario=st.sampled_from(["S1", "S2", "S3", "S4"]),
    deadline_factor=st.sampled_from([1.5, 2.0, 3.0]),
    seed=st.integers(0, 10**6),
)


class TestGainProfileParity:
    @given(instance=INSTANCE_STRATEGY, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gain_profile_equals_scalar_move_gain_loop(self, instance, data):
        schedule = greedy_schedule(instance, base="slack")
        timeline = PowerTimeline(instance, schedule)
        dag = instance.dag
        node = data.draw(st.sampled_from(dag.nodes()), label="node")
        duration = dag.duration(node)
        start = timeline.start_of(node)
        limit = instance.deadline - duration
        lo = data.draw(st.integers(0, min(start, limit)), label="lo")
        hi = data.draw(st.integers(lo, limit), label="hi")

        profile = timeline.gain_profile(node, lo, hi)
        expected = [
            timeline.move_gain(node, candidate) if candidate != start else 0
            for candidate in range(lo, hi + 1)
        ]
        assert profile.dtype == np.int64
        assert profile.tolist() == expected
        # The timeline itself is untouched by the evaluation.
        assert timeline.start_of(node) == start

    @given(instance=INSTANCE_STRATEGY)
    @settings(max_examples=10, deadline=None)
    def test_empty_window_yields_empty_profile(self, instance):
        schedule = greedy_schedule(instance, base="pressure")
        timeline = PowerTimeline(instance, schedule)
        node = instance.dag.nodes()[0]
        start = timeline.start_of(node)
        assert timeline.gain_profile(node, start, start - 1).size == 0


class TestLocalSearchParity:
    @given(
        spec=LS_SPEC_STRATEGY,
        kind=st.sampled_from(["ASAP", "slack", "pressure"]),
        refined=st.booleans(),
        best=st.booleans(),
        window=st.sampled_from([0, 1, 3, 10, 25]),
        max_rounds=st.sampled_from([None, 1, 2]),
    )
    # An entry task between other tasks in one chunk (its window must not
    # borrow a neighbour's predecessor bound).
    @example(
        spec=("atacseq", 6, "S2", 1.25, 35, (1, 2)), kind="ASAP", refined=False,
        best=False, window=1, max_rounds=None,
    )
    @settings(max_examples=200, deadline=None)
    def test_local_search_byte_identical_between_kernels(
        self, spec, kind, refined, best, window, max_rounds
    ):
        seed = ls_seed(build_random_instance(*spec), kind, refined)
        options = dict(window=window, best_improvement=best, max_rounds=max_rounds)
        kernel = local_search(seed, **options)
        oracle = oracle_local_search(seed, **options)
        assert list(kernel.start_times().items()) == list(oracle.start_times().items())
        assert kernel.algorithm == oracle.algorithm

    @pytest.mark.parametrize("best", [False, True])
    def test_multi_chunk_instance_matches_oracle(self, best):
        # Several 64-task chunks per round, and moves that reset verdicts
        # evaluated ahead of the walk.
        instance = build_random_instance(
            "atacseq", 200, "S2", 1.5, seed=3, cluster=scaled_large_cluster(4)
        )
        assert instance.num_tasks >= 200
        for seed in (
            asap_schedule(instance),
            greedy_schedule(instance, base="pressure", weighted=True, refined=True),
        ):
            kernel = local_search(seed, best_improvement=best)
            oracle = oracle_local_search(seed, best_improvement=best)
            assert kernel.start_times() == oracle.start_times()
            assert kernel.start_times() != seed.start_times()

    def test_seed_grid_byte_identity(self):
        from repro.core.scheduler import CaWoSched
        from repro.core.variants import get_variant
        from repro.experiments.instances import default_grid, make_instance

        scheduler = CaWoSched()
        specs = default_grid(sizes=(24,), seed=0)[::6]
        variants = ["slack-LS", "press-LS", "slackWR-LS", "pressWR-LS"]
        for spec in specs:
            instance = make_instance(spec, master_seed=0)
            for variant in variants:
                fast = scheduler.schedule(instance, variant)
                config = get_variant(variant)
                # Reference: the oracle greedy (full EST/LST recompute), then
                # the oracle hill climber.
                seed = oracle_greedy_schedule(
                    instance,
                    base=config.base,
                    weighted=config.weighted,
                    refined=config.refined,
                    block_size=scheduler.block_size,
                )
                slow = oracle_local_search(
                    seed, window=scheduler.window, algorithm_name=variant
                )
                assert fast.start_times() == slow.start_times(), (spec, variant)


class TestEstLstParity:
    @given(instance=INSTANCE_STRATEGY, seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_incremental_fix_matches_full_recompute(self, instance, seed):
        dag = instance.dag
        incremental = EstLstTracker(dag, instance.deadline)
        reference = RecomputeTracker(dag, instance.deadline)
        assert incremental.est_map() == reference.est_map()
        assert incremental.lst_map() == reference.lst_map()

        rng = ensure_rng(seed)
        for node in dag.topological_order():
            lo, hi = incremental.est(node), incremental.lst(node)
            start = int(rng.integers(lo, hi + 1)) if hi > lo else lo
            incremental.fix(node, start)
            reference.fix(node, start)
            assert incremental.est_map() == reference.est_map()
            assert incremental.lst_map() == reference.lst_map()


class TestSubdivisionParity:
    @given(instance=INSTANCE_STRATEGY, block_size=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_block_alignment_points_match_naive_enumeration(
        self, instance, block_size
    ):
        expected = _naive_block_alignment_points(instance, block_size)
        assert block_alignment_points(instance, block_size=block_size) == expected


def _naive_block_alignment_points(instance: ProblemInstance, block_size: int) -> set:
    """The original per-(block, alignment, task) enumeration, kept as oracle."""
    dag = instance.dag
    profile = instance.profile
    horizon = profile.horizon
    boundaries = profile.boundaries()
    points = set()
    for processor in dag.processors_with_tasks():
        tasks = dag.tasks_on(processor)
        durations = [dag.duration(task) for task in tasks]
        num_tasks = len(tasks)
        for begin_index in range(num_tasks):
            block_duration = 0
            offsets = []
            for end_index in range(begin_index, min(begin_index + block_size, num_tasks)):
                offsets.append(block_duration)
                block_duration += durations[end_index]
                for boundary in boundaries:
                    for block_start in (boundary, boundary - block_duration):
                        if block_start < 0:
                            continue
                        for offset in offsets:
                            candidate = block_start + offset
                            if 0 <= candidate < horizon:
                                points.add(candidate)
    return points
