"""Parity of both HEFT passes with the reference implementation.

:mod:`heft_oracle` holds the straightforward HEFT loops (a linear gap scan
per processor, predecessor facts and durations recomputed per processor).
The library's placement bisects over merged busy intervals and shares
per-task predecessor facts and per-speed durations; these properties pin
that every observable of the result is unchanged.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import heft_oracle
from repro.mapping.carbon_heft import carbon_aware_heft_mapping
from repro.mapping.heft import HeftResult, heft_mapping
from repro.platform_.presets import scaled_large_cluster, scaled_small_cluster
from repro.workflow.generators import WORKFLOW_FAMILIES, generate_workflow

CLUSTERS = {"small": scaled_small_cluster(), "large": scaled_large_cluster()}

WORKFLOWS = st.builds(
    generate_workflow,
    st.sampled_from(sorted(WORKFLOW_FAMILIES)),
    st.integers(min_value=2, max_value=300),
    rng=st.integers(min_value=0, max_value=2**16),
)
CLUSTER_NAMES = st.sampled_from(sorted(CLUSTERS))
BANDWIDTHS = st.sampled_from([1.0, 2.5, 0.75])


def assert_same_result(actual: HeftResult, expected: HeftResult) -> None:
    # Dict order is compared too: it fixes the order of everything built
    # from these results downstream (wire payloads, schedule digests).
    assert list(actual.mapping.assignment().items()) == list(
        expected.mapping.assignment().items()
    )
    assert list(actual.mapping.processor_order().items()) == list(
        expected.mapping.processor_order().items()
    )
    assert list(actual.mapping.communication_order().items()) == list(
        expected.mapping.communication_order().items()
    )
    assert list(actual.start_times.items()) == list(expected.start_times.items())
    assert list(actual.finish_times.items()) == list(expected.finish_times.items())
    assert actual.makespan == expected.makespan
    assert list(actual.ranks.items()) == list(expected.ranks.items())


@given(workflow=WORKFLOWS, cluster=CLUSTER_NAMES, bandwidth=BANDWIDTHS)
@settings(max_examples=40, deadline=None)
def test_heft_matches_oracle(workflow, cluster, bandwidth):
    assert_same_result(
        heft_mapping(workflow, CLUSTERS[cluster], bandwidth=bandwidth),
        heft_oracle.heft_mapping(workflow, CLUSTERS[cluster], bandwidth=bandwidth),
    )


@given(
    workflow=WORKFLOWS,
    cluster=CLUSTER_NAMES,
    bandwidth=BANDWIDTHS,
    power_weight=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_carbon_heft_matches_oracle(workflow, cluster, bandwidth, power_weight):
    assert_same_result(
        carbon_aware_heft_mapping(
            workflow, CLUSTERS[cluster], power_weight=power_weight, bandwidth=bandwidth
        ),
        heft_oracle.carbon_aware_heft_mapping(
            workflow, CLUSTERS[cluster], power_weight=power_weight, bandwidth=bandwidth
        ),
    )

