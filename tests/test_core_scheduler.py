"""Tests for the CaWoSched facade."""

from __future__ import annotations

import pytest

from repro.core.scheduler import CaWoSched, run_all_variants, run_variant
from repro.core.variants import variant_names
from repro.schedule.cost import carbon_cost
from repro.schedule.validation import is_feasible
from repro.utils.errors import CaWoSchedError


class TestCaWoSched:
    def test_run_returns_consistent_result(self, tiny_multi_instance):
        result = CaWoSched().run(tiny_multi_instance, "pressWR-LS")
        assert result.variant == "pressWR-LS"
        assert result.carbon_cost == carbon_cost(result.schedule)
        assert result.makespan == result.schedule.makespan
        assert result.runtime_seconds >= 0

    def test_all_variants_feasible(self, tiny_multi_instance):
        results = CaWoSched().run_many(tiny_multi_instance)
        assert set(results) == set(variant_names())
        for result in results.values():
            assert is_feasible(result.schedule)

    def test_ls_variant_never_worse_than_greedy(self, tiny_multi_instance):
        results = CaWoSched().run_many(tiny_multi_instance)
        for greedy_name in ("slack", "slackW", "slackR", "slackWR",
                            "press", "pressW", "pressR", "pressWR"):
            assert results[f"{greedy_name}-LS"].carbon_cost <= results[greedy_name].carbon_cost

    def test_asap_schedule_matches_baseline(self, tiny_multi_instance):
        from repro.schedule.asap import asap_schedule

        result = CaWoSched().run(tiny_multi_instance, "ASAP")
        assert result.schedule.start_times() == asap_schedule(tiny_multi_instance).start_times()

    def test_unknown_variant_rejected(self, tiny_multi_instance):
        with pytest.raises(CaWoSchedError):
            CaWoSched().run(tiny_multi_instance, "not-a-variant")

    def test_run_subset(self, tiny_multi_instance):
        results = run_all_variants(tiny_multi_instance, variants=["ASAP", "slack-LS"])
        assert set(results) == {"ASAP", "slack-LS"}

    def test_run_variant_convenience(self, tiny_multi_instance):
        result = run_variant(tiny_multi_instance, "slackR")
        assert result.variant == "slackR"

    def test_parameters_are_stored(self):
        scheduler = CaWoSched(block_size=2, window=5, validate=False)
        assert scheduler.block_size == 2
        assert scheduler.window == 5
        assert scheduler.validate is False

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"block_size": 0}, ValueError),
            ({"block_size": 2.5}, TypeError),
            ({"window": -1}, ValueError),
            ({"validate": "false"}, TypeError),
            ({"validate": 1}, TypeError),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs, error):
        with pytest.raises(error):
            CaWoSched(**kwargs)

    def test_window_zero_allowed(self):
        assert CaWoSched(window=0).window == 0

    def test_validation_can_be_disabled(self, tiny_multi_instance):
        # With validation disabled the run must still succeed and produce the
        # same schedule.
        a = CaWoSched(validate=True).schedule(tiny_multi_instance, "pressR")
        b = CaWoSched(validate=False).schedule(tiny_multi_instance, "pressR")
        assert a.start_times() == b.start_times()
