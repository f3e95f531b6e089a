"""The CaWoSched facade: run named variants and collect results.

:class:`CaWoSched` bundles the greedy phase, the local search and the ASAP
baseline behind a single entry point keyed by the paper's variant names
(``slack``, ``pressWR-LS``, ``ASAP``, ...).  Every run produces a
:class:`ScheduleResult` with the schedule, its carbon cost and the wall-clock
time spent, which is what the experiment harness records.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, Optional, Tuple

# perfbench/tracer.py resolves its ``core.greedy`` hook at this binding, so
# ``greedy_schedule`` stays imported; the runner itself calls
# ``GreedyPreparation.run``.
from repro.core.greedy import GreedyPreparation, greedy_schedule  # noqa: F401
from repro.core.local_search import DEFAULT_WINDOW, local_search
from repro.core.subdivision import DEFAULT_BLOCK_SIZE
from repro.core.variants import get_variant, variant_names
from repro.schedule.asap import asap_schedule
from repro.schedule.cost import carbon_cost
from repro.schedule.instance import ProblemInstance
from repro.schedule.schedule import Schedule
from repro.schedule.validation import check_schedule
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["ScheduleResult", "CaWoSched", "run_variant", "run_all_variants"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of running one algorithm variant on one instance.

    Attributes
    ----------
    variant:
        Name of the algorithm variant.
    schedule:
        The produced (feasible) schedule.
    carbon_cost:
        Total carbon cost of the schedule.
    runtime_seconds:
        Wall-clock time of the run.
    makespan:
        Makespan of the schedule.
    """

    variant: str
    schedule: Schedule
    carbon_cost: int
    runtime_seconds: float
    makespan: int


class CaWoSched:
    """Carbon-aware workflow scheduler with a fixed mapping and deadline.

    Parameters
    ----------
    block_size:
        Maximum block size ``k`` of the refined interval subdivision
        (paper default: 3).
    window:
        Local-search window ``µ`` (paper default: 10).
    validate:
        Check every produced schedule for feasibility (adds a small overhead;
        enabled by default).

    Examples
    --------
    >>> scheduler = CaWoSched()
    >>> result = scheduler.run(instance, "pressWR-LS")   # doctest: +SKIP
    >>> result.carbon_cost                                # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        window: int = DEFAULT_WINDOW,
        validate: bool = True,
    ) -> None:
        if not isinstance(validate, bool):
            raise TypeError(f"validate must be a bool, got {type(validate).__name__}")
        self.block_size = check_positive_int(block_size, "block_size")
        self.window = check_non_negative_int(window, "window")
        self.validate = validate

    # ------------------------------------------------------------------ #
    def config_dict(self) -> Dict[str, object]:
        """Return the scheduler configuration as a plain dictionary.

        Used by the scheduling service and the parallel grid runner to ship
        the configuration across process boundaries and to fingerprint
        requests (see :mod:`repro.service`).
        """
        return {
            "block_size": self.block_size,
            "window": self.window,
            "validate": self.validate,
        }

    @classmethod
    def from_config(cls, config: Optional[Dict[str, object]] = None) -> "CaWoSched":
        """Rebuild a scheduler from :meth:`config_dict` output.

        Raises
        ------
        TypeError, ValueError
            If a value has the wrong type or is out of range.
        """
        config = dict(config or {})
        return cls(
            block_size=config.get("block_size", DEFAULT_BLOCK_SIZE),
            window=config.get("window", DEFAULT_WINDOW),
            validate=config.get("validate", True),
        )

    # ------------------------------------------------------------------ #
    def schedule(self, instance: ProblemInstance, variant: str) -> Schedule:
        """Return the schedule produced by *variant* on *instance*."""
        return self._producer(instance)(variant)[0]

    def run(self, instance: ProblemInstance, variant: str) -> ScheduleResult:
        """Run *variant* on *instance* and return a timed, costed result."""
        return self.runner(instance)(variant)

    def run_many(
        self,
        instance: ProblemInstance,
        variants: Optional[Iterable[str]] = None,
    ) -> Dict[str, ScheduleResult]:
        """Run several variants (default: all 17) on *instance*.

        The variants share one :meth:`runner`, so each greedy configuration
        is computed once per call and ``X-LS`` starts from the schedule
        ``X`` returns.  ``runtime_seconds`` keeps its per-variant meaning:
        greedy (+ local search) + validation.

        .. deprecated::
            As a *submission* entry point, prefer
            :class:`repro.api.client.Client` with a
            :class:`repro.api.jobs.Job` — it adds caching, deduplication
            and pluggable execution with byte-identical results.  Direct
            use remains supported for algorithm-level work.
        """
        names = list(variants) if variants is not None else variant_names()
        run = self.runner(instance)
        return {name: run(name) for name in names}

    def runner(self, instance: ProblemInstance) -> Callable[[str], ScheduleResult]:
        """Return a function running built-in variants on *instance*.

        Every call of the returned function yields a validated, costed
        :class:`ScheduleResult` identical to a lone :meth:`run`, except that
        each greedy configuration ``(base, weighted, refined)`` is computed
        at most once per runner and shared: ``X`` returns that schedule and
        ``X-LS`` improves it.  The configurations share one
        :class:`~repro.core.greedy.GreedyPreparation` (initial EST/LST, score
        orders, subdivisions).  The greedy wall time, including the build
        time of each shared piece the configuration uses, is charged to every
        variant using the seed, so ``runtime_seconds`` is greedy + validation
        for ``X`` and greedy + local search + validation for ``X-LS``.
        """
        produce = self._producer(instance)

        def run(variant: str) -> ScheduleResult:
            produced, elapsed = produce(variant)
            return ScheduleResult(
                variant=variant,
                schedule=produced,
                carbon_cost=carbon_cost(produced),
                runtime_seconds=elapsed,
                makespan=produced.makespan,
            )

        return run

    def _producer(
        self, instance: ProblemInstance
    ) -> Callable[[str], Tuple[Schedule, float]]:
        """Return ``variant -> (schedule, seconds)`` with one greedy seed per configuration."""
        preparation = GreedyPreparation(instance, block_size=self.block_size)
        seeds: Dict[Tuple[Optional[str], bool, bool], Tuple[Schedule, float]] = {}

        def produce(variant: str) -> Tuple[Schedule, float]:
            spec = get_variant(variant)
            seed_seconds = 0.0
            if spec.is_baseline:
                begin = perf_counter()
                produced = asap_schedule(instance)
            else:
                key = (spec.base, spec.weighted, spec.refined)
                if key not in seeds:
                    seeds[key] = preparation.run(*key)
                produced, seed_seconds = seeds[key]
                begin = perf_counter()
                if spec.local_search:
                    produced = local_search(
                        produced, window=self.window, algorithm_name=spec.name
                    )
            if self.validate:
                check_schedule(produced)
            return produced, seed_seconds + (perf_counter() - begin)

        return produce


def run_variant(
    instance: ProblemInstance,
    variant: str,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    window: int = DEFAULT_WINDOW,
) -> ScheduleResult:
    """Convenience wrapper: run a single variant with default parameters.

    .. deprecated::
        As a *submission* entry point, prefer
        :meth:`repro.api.client.Client.solve`, which serves repeated plans
        from the canonical fingerprint cache with byte-identical results.
    """
    return CaWoSched(block_size=block_size, window=window).run(instance, variant)


def run_all_variants(
    instance: ProblemInstance,
    *,
    variants: Optional[Iterable[str]] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    window: int = DEFAULT_WINDOW,
) -> Dict[str, ScheduleResult]:
    """Convenience wrapper: run a set of variants with default parameters.

    .. deprecated::
        As a *submission* entry point, prefer
        :meth:`repro.api.client.Client.submit` with a
        :class:`repro.api.jobs.Job`, which adds caching, deduplication and
        pluggable execution with byte-identical results.
    """
    return CaWoSched(block_size=block_size, window=window).run_many(instance, variants)
