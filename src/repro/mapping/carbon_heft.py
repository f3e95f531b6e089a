"""Carbon-aware HEFT — the two-pass extension sketched in the paper's §7.

The paper's future-work section envisions a carbon-aware extension of HEFT:
a first pass that produces the mapping and ordering while already accounting
for power, and a second pass that optimises the schedule with CaWoSched.  This
module implements the first pass as a drop-in alternative to
:func:`repro.mapping.heft.heft_mapping`:

* the rank phase is identical to HEFT (upward ranks);
* the processor-selection phase runs HEFT's own placement loop
  (:func:`repro.mapping.heft.place_tasks`) but, among the insertion-policy
  candidates, picks the one minimising a convex combination of the task's
  earliest finish time and the *energy* the task would draw on the candidate
  processor (duration × (idle + working power), normalised by the
  platform-wide maxima), controlled by ``power_weight ∈ [0, 1]``:
  ``0`` reproduces plain HEFT, ``1`` ignores finish times entirely (a
  GreenHEFT-style energy-greedy mapping).

The produced :class:`~repro.mapping.mapping.Mapping` feeds directly into
:func:`repro.mapping.enhanced_dag.build_enhanced_dag` and the CaWoSched
scheduler, realising the two-pass approach end to end (see the
``ablation_carbon_heft`` benchmark).
"""

from __future__ import annotations

from typing import List

from repro.mapping.heft import Candidate, HeftResult, place_tasks, rank_phase
from repro.platform_.cluster import Cluster
from repro.utils.errors import InvalidMappingError
from repro.utils.validation import check_probability
from repro.workflow.dag import Workflow

__all__ = ["carbon_aware_heft_mapping"]


def carbon_aware_heft_mapping(
    workflow: Workflow,
    cluster: Cluster,
    *,
    power_weight: float = 0.3,
    bandwidth: float = 1.0,
) -> HeftResult:
    """Run the carbon-aware HEFT first pass.

    Parameters
    ----------
    workflow:
        The workflow to map.
    cluster:
        The heterogeneous compute cluster.
    power_weight:
        Weight of the energy term in the processor-selection objective
        (0 = plain HEFT, 1 = energy only).
    bandwidth:
        Normalised network bandwidth (as in HEFT).

    Returns
    -------
    HeftResult
        Mapping, start/finish times of the first-pass schedule, makespan and
        ranks — the same structure :func:`heft_mapping` returns, so the two
        passes are interchangeable in every downstream pipeline.
    """
    power_weight = check_probability(power_weight, "power_weight")
    if bandwidth <= 0:
        raise InvalidMappingError(f"bandwidth must be positive, got {bandwidth}")
    workflow.validate()
    durations, ranks = rank_phase(workflow, cluster, bandwidth)

    processors = cluster.processors()
    total_power = [spec.total_power for spec in processors]
    max_active_power = max(total_power) or 1
    # Normalise the finish-time term by a crude serial upper bound so both
    # objective terms live on comparable scales.
    slowest = min(spec.speed for spec in processors)
    horizon_scale = max(
        1.0, workflow.total_work() / slowest + workflow.total_data() / bandwidth
    )

    def objective(candidate: Candidate):
        finish, start, proc = candidate
        energy = (finish - start) * total_power[proc]
        score = (1.0 - power_weight) * (finish / horizon_scale) + power_weight * (
            energy / (horizon_scale * max_active_power)
        )
        return score, finish, start

    def choose(candidates: List[Candidate]) -> Candidate:
        # min() keeps the first of equal keys: ties go to the processor
        # declared first.
        return min(candidates, key=objective)

    return place_tasks(workflow, cluster, durations, ranks, bandwidth, choose)
