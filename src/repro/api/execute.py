"""In-process job execution shared by every backend.

:func:`execute_job` is the single place where a :class:`~repro.api.jobs.Job`
turns into schedules: it materialises the instance, rebuilds the scheduler
from the job's configuration, runs the built-in variants through one
:meth:`~repro.core.scheduler.CaWoSched.runner` and third-party algorithms
through an :class:`~repro.api.registry.AlgorithmRegistry`, and derives the flat
:class:`~repro.experiments.runner.RunRecord` rows exactly as the classic
:func:`repro.experiments.runner.run_instance` did — so results are
byte-identical between the facade and the legacy entry points.

Within one job each greedy configuration ``(base, weighted, refined)`` is
computed at most once: ``X`` returns that schedule and ``X-LS`` improves it.
``runtime_seconds`` keeps its per-variant meaning — greedy + validation for
``X``, the same greedy time + local search + validation for ``X-LS`` — so the
running-time figures keep their meaning.

:func:`execute_job_payload` is the module-level worker function of the
process backend: it receives a job as plain wire data and returns record
dictionaries, so only JSON-shaped data crosses the process boundary.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.api.jobs import Job
from repro.api.registry import DEFAULT_REGISTRY, AlgorithmRegistry
from repro.core.scheduler import CaWoSched, ScheduleResult
from repro.experiments.runner import RunRecord
from repro.schedule.instance import ProblemInstance

__all__ = ["record_for", "execute_job", "execute_job_payload"]


def record_for(instance: ProblemInstance, result: ScheduleResult) -> RunRecord:
    """Flatten one :class:`ScheduleResult` into a :class:`RunRecord`.

    The instance metadata (family, cluster, scenario, deadline factor) is
    denormalised into the record so downstream grouping never needs the
    instance again.  Field-for-field identical to the rows
    ``run_instance`` has always produced.
    """
    meta = instance.metadata
    return RunRecord(
        instance=instance.name,
        variant=result.variant,
        carbon_cost=result.carbon_cost,
        runtime_seconds=result.runtime_seconds,
        makespan=result.makespan,
        deadline=instance.deadline,
        num_tasks=instance.num_tasks,
        family=str(meta.get("family", meta.get("workflow", ""))),
        cluster=str(meta.get("cluster", "")),
        scenario=str(meta.get("scenario", "")),
        deadline_factor=float(meta.get("deadline_factor", 0.0)),
    )


def execute_job(
    job: Job, *, registry: Optional[AlgorithmRegistry] = None
) -> Tuple[Tuple[ScheduleResult, ...], Tuple[RunRecord, ...]]:
    """Run every variant of *job* and return (full results, flat records).

    Variants run in job order.  Built-in variants share one
    :meth:`CaWoSched.runner <repro.core.scheduler.CaWoSched.runner>` (one
    greedy seed per configuration); third-party algorithms go through
    :meth:`AlgorithmRegistry.run` unchanged.
    """
    registry = registry or DEFAULT_REGISTRY
    instance = job.instance()
    scheduler = CaWoSched.from_config(job.scheduler)
    run_builtin = scheduler.runner(instance)
    results: List[ScheduleResult] = []
    records: List[RunRecord] = []
    for name in job.variants:
        if registry.get(name).builtin:
            result = run_builtin(name)
        else:
            result = registry.run(instance, name, scheduler=scheduler)
        results.append(result)
        records.append(record_for(instance, result))
    return tuple(results), tuple(records)


def execute_job_payload(job_data: Mapping[str, object]) -> List[Dict[str, object]]:
    """Run one job shipped as plain data and return its records as dicts.

    Module-level so the process pool can pickle it; input and output are
    wire-format plain data only.  Workers dispatch through their own
    process's :data:`DEFAULT_REGISTRY`.
    """
    job = Job.from_dict(job_data)
    _, records = execute_job(job)
    return [record.to_dict() for record in records]
