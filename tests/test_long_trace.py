"""A trace of about 1000 instances: the overlap sweep and the repair's ENT
column must equal their O(k^2) references. No wall time is asserted."""
from __future__ import annotations

import pytest

from startrepair import (
    ConcurrencyRelation,
    GenSpec,
    count_directly_follows,
    discover_from_log,
    generate,
    repair_start_times,
)

from .test_concurrency import pairwise_directly_follows
from .test_repair import brute_force_ent

SPEC = GenSpec(seed=7, trace_count=1, stages=(("A", "B"),) * 500)


@pytest.fixture(scope="module")
def long_trace():
    return generate(SPEC)[1]


def test_counts_equal_pairwise_reference(long_trace):
    assert len(long_trace) == 1000
    assert count_directly_follows(long_trace) == pairwise_directly_follows(
        long_trace)


@pytest.mark.parametrize("relation", [None, ConcurrencyRelation()],
                         ids=["discovered", "empty"])
def test_enablement_equals_brute_force(long_trace, relation):
    if relation is None:
        relation = discover_from_log(long_trace)
        assert relation == SPEC.concurrency_pairs()
    ents = repair_start_times(long_trace, relation).ents
    for instance, ent in zip(long_trace.instances, ents):
        assert ent == brute_force_ent(instance, long_trace, relation)
