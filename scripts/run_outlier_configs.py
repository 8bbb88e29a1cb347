#!/usr/bin/env python3
"""Compare the six repair configurations (median/mode x no cap/5x/2x) on a
synthetic log with known ground truth.

For each configuration the corrupted log is repaired and scored against the
ground-truth log with timestamp and cycle-time EMD; lower is better. The
corrupted log itself is scored first as the baseline.

`--seed` takes one seed `N` or a range `A-B`. Each row gives the seed, the
configuration, both EMDs, the capped share (outlier-capped instances over all
instances), the mean absolute error of the starts against the ground truth's,
in seconds, and the share of starts exactly recovered.
"""
from __future__ import annotations

import argparse

from startrepair import (
    GenSpec,
    RepairConfig,
    evaluate_logs,
    generate,
    repair_start_times,
)
from startrepair.repair import RULE_CAPPED

CONFIGURATIONS = [
    ("MED", RepairConfig(statistic="median")),
    ("MED-5", RepairConfig(statistic="median", outlier_threshold=5.0)),
    ("MED-2", RepairConfig(statistic="median", outlier_threshold=2.0)),
    ("MOD", RepairConfig(statistic="mode")),
    ("MOD-5", RepairConfig(statistic="mode", outlier_threshold=5.0)),
    ("MOD-2", RepairConfig(statistic="mode", outlier_threshold=2.0)),
]


def _seed_range(text: str) -> range:
    first, dash, last = text.partition("-")
    try:
        seeds = range(int(first), int(last if dash else first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A-B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def start_errors(truth, log) -> tuple[float, float]:
    """The mean absolute error of `log`'s starts against `truth`'s, in seconds,
    and the share of starts equal to the truth's; the rows are aligned."""
    errors = [abs((start - true).total_seconds())
              for start, true in zip(log.starts, truth.starts)]
    return sum(errors) / len(errors), errors.count(0) / len(errors)


def score(spec: GenSpec):
    """Yield (configuration, EmdReport, capped share, start errors), the
    unrepaired log first as RAW with no capped share."""
    truth, corrupted = generate(spec)
    relation = spec.concurrency_pairs()
    yield "RAW", evaluate_logs(truth, corrupted), None, start_errors(truth, corrupted)
    for name, config in CONFIGURATIONS:
        outcome = repair_start_times(corrupted, relation, config)
        capped = outcome.rule_counts()[RULE_CAPPED] / len(corrupted)
        repaired = outcome.repaired_log
        yield (name, evaluate_logs(truth, repaired), capped,
               start_errors(truth, repaired))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=_seed_range, default="7",
                        help="one seed N, or every seed of the range A-B")
    parser.add_argument("--traces", type=int, default=500)
    parser.add_argument("--resources", type=int, default=5)
    parser.add_argument("--max-delay", type=int, default=7200,
                        help="max injected start delay, seconds")
    args = parser.parse_args()

    def spec(seed: int) -> GenSpec:
        return GenSpec(
            seed=seed,
            trace_count=args.traces,
            resource_count=args.resources,
            delay_range=(0, args.max_delay),
        )

    print(f"{'seed':>6} {'config':8} {'timestamp EMD':>14} {'cycle-time EMD':>15} "
          f"{'capped share':>13} {'start MAE s':>12} {'exact share':>12}")
    for seed in args.seed:
        for name, result, capped, (mae, exact) in score(spec(seed)):
            share = "-" if capped is None else f"{capped:.4f}"
            print(f"{seed:6} {name:8} {result.timestamp_emd:14.4f} "
                  f"{result.cycle_time_emd:15.4f} {share:>13} {mae:12.1f} {exact:12.4f}")


if __name__ == "__main__":
    main()
