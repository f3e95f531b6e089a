"""Random problem instances shared by the parity and local-search tests."""

from __future__ import annotations

from typing import Optional

from hypothesis import strategies as st

from repro.carbon.scenarios import generate_power_profile
from repro.core.greedy import greedy_schedule
from repro.experiments.instances import InstanceSpec, make_instance
from repro.mapping.enhanced_dag import build_enhanced_dag
from repro.mapping.heft import heft_mapping
from repro.platform_.cluster import Cluster
from repro.platform_.presets import cluster_from_table1
from repro.schedule.asap import asap_makespan, asap_schedule
from repro.schedule.instance import ProblemInstance
from repro.workflow.generators import WORKFLOW_FAMILIES, generate_workflow


def build_random_instance(family: str, num_tasks: int, scenario: str,
                          deadline_factor: float, seed: int, link_power_range=(1, 2),
                          *, cluster: Optional[Cluster] = None) -> ProblemInstance:
    workflow = generate_workflow(family, num_tasks, rng=seed)
    cluster = cluster or cluster_from_table1(1, name="parity")
    mapping = heft_mapping(workflow, cluster).mapping
    dag = build_enhanced_dag(mapping, rng=seed, link_power_range=link_power_range)
    deadline = max(1, int(deadline_factor * asap_makespan(dag)))
    profile = generate_power_profile(
        scenario, deadline,
        idle_power=dag.platform.total_idle_power(),
        work_power=dag.platform.total_work_power(),
        num_intervals=8, rng=seed,
    )
    return ProblemInstance(dag, profile)


#: ``build_random_instance`` arguments for the local-search tests: tight
#: deadlines (factor 1.0 leaves most tasks no room to move) and links drawing
#: no working power (zero-power nodes).  Drawn as a plain tuple so a shrunk
#: failure can be pinned with ``@example``.
LS_SPEC_STRATEGY = st.tuples(
    st.sampled_from(["atacseq", "eager", "forkjoin", "chain"]),
    st.integers(6, 25),
    st.sampled_from(["S1", "S2", "S3", "S4"]),
    st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]),
    st.integers(0, 10**6),
    st.sampled_from([(1, 2), (0, 1), (0, 0)]),
)


#: Paper-grid instances: every family, the small and large scaled clusters,
#: S1–S4 and deadline factors 1–3.
GRID_INSTANCES = st.builds(
    InstanceSpec,
    family=st.sampled_from(sorted(WORKFLOW_FAMILIES)),
    num_tasks=st.integers(min_value=6, max_value=30),
    cluster=st.sampled_from(["small", "large"]),
    scenario=st.sampled_from(["S1", "S2", "S3", "S4"]),
    deadline_factor=st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**16),
).map(make_instance)


def ls_seed(instance: ProblemInstance, kind: str, refined: bool):
    """The schedule a local search starts from: ASAP or a greedy schedule."""
    if kind == "ASAP":
        return asap_schedule(instance)
    return greedy_schedule(instance, base=kind, refined=refined)
