"""Parity of the prepared greedy phase with the original one.

:class:`GreedyPreparation` shares the initial EST/LST state, the score
orders and the subdivisions between configurations and keeps the budgets in
Python lists.  Every configuration must still return exactly the start times
of the original ``greedy_schedule`` (:mod:`greedy_oracle`, which also keeps
EST/LST by full recompute), in the same fixing order, whether run alone or
after other configurations on the same preparation or in a ``CaWoSched`` job.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_oracle import BudgetIntervals as OracleBudgetIntervals
from greedy_oracle import oracle_greedy_schedule
from random_instances import GRID_INSTANCES
from repro.carbon.intervals import PowerProfile
from repro.core.greedy import BudgetIntervals, GreedyPreparation, greedy_schedule
from repro.core.scheduler import CaWoSched
from repro.core.variants import GREEDY_VARIANTS, get_variant

CONFIGURATIONS = list(itertools.product(("slack", "pressure"), (False, True), (False, True)))
NAMES = {
    (spec.base, spec.weighted, spec.refined): spec.name
    for spec in map(get_variant, GREEDY_VARIANTS)
}


def _items(schedule):
    return list(schedule.start_times().items())


@given(
    instance=GRID_INSTANCES,
    block_size=st.integers(1, 4),
    order=st.permutations(CONFIGURATIONS),
)
@settings(max_examples=60, deadline=None)
def test_every_configuration_matches_the_original(instance, block_size, order):
    preparation = GreedyPreparation(instance, block_size=block_size)
    job = CaWoSched(block_size=block_size).run_many(
        instance, [NAMES[configuration] for configuration in order]
    )
    for base, weighted, refined in order:
        options = dict(base=base, weighted=weighted, refined=refined, block_size=block_size)
        oracle = oracle_greedy_schedule(instance, **options)
        lone = greedy_schedule(instance, **options)
        shared, seconds = preparation.run(base, weighted, refined)
        assert _items(lone) == _items(oracle)
        assert _items(shared) == _items(oracle)
        assert _items(job[NAMES[base, weighted, refined]].schedule) == _items(oracle)
        assert lone.algorithm == shared.algorithm == oracle.algorithm
        assert seconds >= 0.0


@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_budget_intervals_match_the_original(lengths, data):
    budgets = data.draw(
        st.lists(st.integers(0, 9), min_size=len(lengths), max_size=len(lengths))
    )
    profile = PowerProfile(lengths, budgets)
    horizon = profile.horizon
    points = data.draw(st.lists(st.integers(-2, horizon + 2), max_size=6))
    template = BudgetIntervals(profile, points)
    lists, row = template.copy(), OracleBudgetIntervals(profile, points)
    assert lists.intervals() == row.intervals()
    for _ in range(data.draw(st.integers(0, 8))):
        earliest = data.draw(st.integers(-1, horizon + 1))
        latest = data.draw(st.integers(earliest - 1, horizon + 1))
        assert lists.best_start(earliest, latest) == row.best_start(earliest, latest)
        begin = data.draw(st.integers(-2, horizon + 2))
        end = data.draw(st.integers(begin - 1, horizon + 3))
        power = data.draw(st.integers(0, 7))
        lists.consume(begin, end, power)
        row.consume(begin, end, power)
        assert lists.intervals() == row.intervals()
    # The template is left as it was.
    assert template.intervals() == OracleBudgetIntervals(profile, points).intervals()
