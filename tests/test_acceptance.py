"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
from __future__ import annotations

import io
import itertools
import random
import time
from datetime import timedelta

import numpy as np
import pytest

from startrepair import (
    ActivityInstance,
    ActivityInstanceLog,
    ConcurrencyRelation,
    GenSpec,
    RepairConfig,
    discover_from_log,
    evaluate_logs,
    generate,
    read_instance_log,
    repair_start_times,
    timestamp_histogram,
    typical_repaired_duration,
    wasserstein_1d,
    write_activity_instance_log,
)

from .conftest import histogram, resource_buckets, row_of, shipping_instances, ts
from .emd_oracles import flow_enumeration_cost, monotone_matching_cost
from .test_repair import brute_force_ent, brute_force_rat


def report(criterion: str, passed: bool = True) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture(scope="module")
def shipping():
    return ActivityInstanceLog(shipping_instances())


def random_spec(rng: random.Random, **overrides) -> GenSpec:
    templates = (
        (("Register",), ("Pack", "Invoice"), ("Deliver",)),
        (("A",), ("B",), ("C",), ("D",)),
        (("A", "B"), ("C",)),
        (("A",), ("B", "C", "D"), ("E",)),
    )
    params = dict(
        seed=rng.randrange(1 << 30),
        trace_count=rng.randint(2, 10),
        stages=rng.choice(templates),
        resource_count=rng.randint(1, 4),
        duration_range=(1, rng.choice((60, 3600))),
        delay_range=(0, rng.choice((0, 300, 7200))),
        missing_resource_rate=rng.choice((0.0, 0.0, 0.2)),
        multitasking=rng.random() < 0.2,
    )
    params.update(overrides)
    return GenSpec(**params)


def test_criterion_1_running_example_fidelity(shipping):
    began = time.perf_counter()
    relation = discover_from_log(shipping)
    deliver = row_of(shipping, "24", "Deliver Package")
    outcome = repair_start_times(shipping, relation)
    assert outcome.rats[deliver] == ts("2021-03-07 16:34:10")
    assert outcome.ents[deliver] == ts("2021-03-08 11:11:05")
    assert outcome.repaired_log.starts[deliver] == ts("2021-03-08 11:11:05")
    elapsed = time.perf_counter() - began
    assert elapsed < 1.0
    report("1 running-example fidelity (rat/ent/repaired start, "
           f"{elapsed * 1000:.0f} ms)")


def test_criterion_2_enablement_concurrency_fidelity(shipping):
    relation = discover_from_log(shipping)
    assert relation.concurrent("Prepare Package", "Prepare Invoice")
    ents = repair_start_times(shipping, relation).ents
    assert ents[row_of(shipping, "24", "Prepare Package")] == ts("2021-03-07 13:12:11")
    report("2 enablement/concurrency fidelity")


def test_criterion_3_repair_invariants_property_suite():
    rng = random.Random(0xC3)
    failures = 0
    for _ in range(1000):
        spec = random_spec(rng)
        _, corrupted = generate(spec)
        relation = spec.concurrency_pairs()
        outcome = repair_start_times(corrupted, relation)
        for rule, before, after in zip(
            outcome.rules, corrupted.instances,
            outcome.repaired_log.instances,
        ):
            ok = (
                after.start <= after.end
                and after.start <= before.start
                and (after.trace_id, after.activity, after.end, after.resource)
                == (before.trace_id, before.activity, before.end, before.resource)
                and (rule != "no_evidence"
                     or after.start == before.start)
            )
            if not ok:
                failures += 1
    assert failures == 0
    report("3 repair invariants over 1000 randomized generated logs")


def test_criterion_4_ground_truth_recovery():
    missed = recovered = 0
    for seed in range(100):
        spec = GenSpec(
            seed=seed,
            trace_count=6 + seed % 5,
            stages=(("Register",), ("Pack", "Invoice"), ("Deliver",)),
            resource_count=1 + seed % 3,
        )
        truth, corrupted = generate(spec)
        outcome = repair_start_times(corrupted, spec.concurrency_pairs())
        resource_firsts = {
            id(bucket[0]) for bucket in resource_buckets(corrupted).values()
        }
        first_stage = set(spec.stages[0])
        for true_inst, rat, ent, corrupt_inst, repaired in zip(
            truth.instances, outcome.rats, outcome.ents, corrupted.instances,
            outcome.repaired_log.instances,
        ):
            if corrupt_inst.activity in first_stage:
                continue  # first in trace: no enablement anchor
            if id(corrupt_inst) in resource_firsts:
                continue  # first for resource: no availability anchor
            assert rat is not None and ent is not None
            if repaired.start == true_inst.start:
                recovered += 1
            else:
                missed += 1
    assert missed == 0 and recovered > 0
    report(f"4 ground-truth recovery: {recovered}/{recovered + missed} "
           "recoverable starts exact over 100 seeds")


def test_criterion_5_outlier_cap():
    rng = random.Random(0xC5)
    slack = timedelta(seconds=1)
    checked = 0
    configurations = [
        RepairConfig(statistic=stat, outlier_threshold=eta)
        for stat in ("median", "mode")
        for eta in (None, 5.0, 2.0)  # MED/MED-5/MED-2/MOD/MOD-5/MOD-2
    ]
    for _ in range(100):
        spec = random_spec(rng)
        _, corrupted = generate(spec)
        relation = spec.concurrency_pairs()
        pass1 = repair_start_times(corrupted, relation).estimates  # before any cap
        for config in configurations:
            if config.outlier_threshold is None:
                continue
            durations: dict[str, list[timedelta]] = {}
            for inst, anchor in zip(corrupted.instances, pass1):
                if anchor is not None:
                    durations.setdefault(inst.activity, []).append(inst.end - anchor)
            typical = {
                activity: typical_repaired_duration(values, config.statistic)
                for activity, values in durations.items()
            }
            outcome = repair_start_times(corrupted, relation, config)
            for estimate, inst in zip(outcome.estimates, corrupted.instances):
                bound = typical.get(inst.activity)
                if estimate is None or bound is None:
                    continue
                assert (inst.end - estimate
                        <= config.outlier_threshold * bound + slack)
                checked += 1
    assert checked > 0
    report(f"5 outlier cap honored for eta in {{2, 5}} x {{median, mode}} "
           f"({checked} capped-config checks, 0 violations)")


def test_criterion_6_emd_oracle_equivalence():
    # tier 1: true exhaustive flow enumeration validates the monotone
    # atom-matching oracle and the implementation on all 3-bin, mass<=2 pairs
    small = [
        dict(enumerate(v))
        for v in itertools.product(range(3), repeat=3)
        if sum(v) > 0
    ]
    for a, b in itertools.product(small, repeat=2):
        expected = flow_enumeration_cost(a, b)
        assert monotone_matching_cost(a, b) == pytest.approx(expected, abs=1e-12)
        assert wasserstein_1d(histogram(a), histogram(b)) == (
            pytest.approx(expected, abs=1e-9)
        )

    # tier 2: exhaustive 6-bin, mass<=4 sweep over all equal-total pairs,
    # comparing the CDF formula against atom matching in exact integers
    vectors = np.array(list(itertools.product(range(5), repeat=6)), dtype=np.int16)
    totals = vectors.sum(axis=1, dtype=np.int64)
    equal_total_pairs = 0
    for total in range(1, 25):
        group = vectors[totals == total]
        cums = np.cumsum(group, axis=1, dtype=np.int64)[:, :5]
        atoms = np.empty((len(group), total), dtype=np.int16)
        bins = np.arange(6, dtype=np.int16)
        for i, v in enumerate(group):
            atoms[i] = np.repeat(bins, v)
        chunk = 128
        for low in range(0, len(group), chunk):
            rows = slice(low, min(low + chunk, len(group)))
            cdf_cost = np.abs(
                cums[rows, None, :] - cums[None, :, :]
            ).sum(axis=2)
            atom_cost = np.abs(
                atoms[rows, None, :].astype(np.int64) - atoms[None, :, :]
            ).sum(axis=2)
            assert (cdf_cost == atom_cost).all()
            equal_total_pairs += cdf_cost.size

    # tier 3: the public function itself against the validated oracle on all
    # 3-bin mass<=4 pairs (unequal totals included) plus a randomized 6-bin
    # sample
    tri = [
        dict(enumerate(v))
        for v in itertools.product(range(5), repeat=3)
        if sum(v) > 0
    ]
    for a, b in itertools.product(tri, repeat=2):
        assert wasserstein_1d(histogram(a), histogram(b)) == (
            pytest.approx(monotone_matching_cost(a, b), abs=1e-9)
        )
    rng = random.Random(0xC6)
    six = [dict(enumerate(v)) for v in vectors.tolist() if sum(v) > 0]
    for _ in range(5000):
        a, b = rng.choice(six), rng.choice(six)
        assert wasserstein_1d(histogram(a), histogram(b)) == (
            pytest.approx(monotone_matching_cost(a, b), abs=1e-9)
        )
    report("6 EMD oracle equivalence: flow enumeration tier, "
           f"{equal_total_pairs} exhaustive equal-total pairs, "
           f"{len(tri) ** 2 + 5000} direct function checks")


def test_criterion_7_emd_metric_properties():
    rng = random.Random(0xC7)
    logs = []
    for _ in range(40):
        spec = random_spec(rng, trace_count=rng.randint(3, 8))
        logs.append(generate(spec)[1])
    origin = min(
        inst.start for log in logs for inst in log.instances
    ).replace(minute=0, second=0, microsecond=0)
    histograms = [timestamp_histogram(log, origin) for log in logs]
    for hist in histograms:
        assert wasserstein_1d(hist, hist) == 0.0
    for a, b in itertools.combinations(histograms, 2):
        assert abs(wasserstein_1d(a, b) - wasserstein_1d(b, a)) <= 1e-12
    for a, b, c in itertools.combinations(histograms[:12], 3):
        assert wasserstein_1d(a, c) <= (
            wasserstein_1d(a, b) + wasserstein_1d(b, c) + 1e-9
        )
    for log in logs[:10]:
        hours = rng.randint(1, 48)
        moved = ActivityInstanceLog(
            ActivityInstance(i.trace_id, i.activity,
                             i.start + timedelta(hours=hours),
                             i.end + timedelta(hours=hours), i.resource)
            for i in log.instances
        )
        result = evaluate_logs(log, moved)
        assert result.timestamp_emd == pytest.approx(hours, abs=1e-9)
    report("7 EMD metric properties (identity, symmetry, triangle, translation)")


def exhaustive_instance_universe():
    times = [ts("2021-03-01 08:00:00"), ts("2021-03-01 09:00:00"),
             ts("2021-03-01 10:00:00")]
    spans = [(s, e) for s in times for e in times if s <= e]
    return [
        ActivityInstance(trace, activity, start, end, resource)
        for trace in ("t1", "t2")
        for activity in ("a", "b", "c", "d")
        for resource in ("r1", None)
        for start, end in spans
    ]


def assert_brute_force_agreement(log: ActivityInstanceLog,
                                 relations) -> None:
    for relation in relations:
        outcome = repair_start_times(log, relation)
        for inst, rat, ent in zip(log.instances, outcome.rats, outcome.ents):
            assert rat == brute_force_rat(inst, log)
            assert ent == brute_force_ent(inst, log, relation)


def test_criterion_8_brute_force_rat_ent_equivalence():
    full = ConcurrencyRelation(
        itertools.combinations(("a", "b", "c", "d"), 2)
    )
    universe = exhaustive_instance_universe()
    swept = 0
    for inst in universe:
        log = ActivityInstanceLog([inst])
        assert_brute_force_agreement(log, (ConcurrencyRelation(), full))
        swept += 1
    reduced = [i for i in universe if i.activity in ("a", "b")]
    for pair in itertools.product(reduced, repeat=2):
        log = ActivityInstanceLog(pair)
        assert_brute_force_agreement(
            log, (full, discover_from_log(log))
        )
        swept += 1

    rng = random.Random(0xC8)
    times = [ts("2021-03-01 00:00:00") + timedelta(seconds=s)
             for s in range(0, 36_000, 600)]
    for _ in range(1000):
        instances = []
        for _ in range(rng.randint(1, 12)):
            start, end = sorted((rng.choice(times), rng.choice(times)))
            instances.append(
                ActivityInstance(
                    rng.choice(("t1", "t2", "t3")),
                    rng.choice(("a", "b", "c", "d")),
                    start, end,
                    rng.choice(("r1", "r2", None)),
                )
            )
        log = ActivityInstanceLog(instances)
        assert_brute_force_agreement(log, (full, discover_from_log(log)))
    report(f"8 brute-force rat/ent equivalence ({swept} exhaustive logs "
           "+ 1000 random logs)")


def test_criterion_9_determinism_and_round_trip_at_scale():
    began = time.perf_counter()
    spec = GenSpec(seed=99, trace_count=25_000, resource_count=20)
    _, corrupted = generate(spec)
    assert len(corrupted) == 100_000
    relation = discover_from_log(corrupted)

    def run() -> bytes:
        outcome = repair_start_times(corrupted, relation)
        sink = io.StringIO()
        write_activity_instance_log(outcome.repaired_log, sink)
        return sink.getvalue().encode()

    first, second = run(), run()
    assert first == second

    reread = read_instance_log(io.StringIO(first.decode()))
    sink = io.StringIO()
    write_activity_instance_log(reread, sink)
    assert sink.getvalue().encode() == first

    elapsed = time.perf_counter() - began
    assert elapsed < 60.0
    report(f"9 determinism and round trip on 100k instances ({elapsed:.1f} s)")
