"""Seeded closed-loop benchmark of the `startrepair` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload short-traces --seed 7 --seconds 30 --trace 0

One process and one thread run one job at a time, each started after the
previous one ended: a `startrepair repair` job on the generated input, then a
`startrepair evaluate` job comparing the ground truth with its output. Each job
is an in-process `startrepair.cli.main([...])` call on CSV files. Outputs are
checked by `check.py`; a job whose output fails the check counts as failed.
Times are reported at nominal host speed, as `speed.py` explains.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. The line before it holds provenance
and sample details. See README.md.
"""
import argparse
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout

import speed  # standard library only; the benchmark's modules sit beside this file

PROCESS_START = time.perf_counter()  # set-up time counts from here

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 7
HOLDOUT_SEED = 1009  # for checking a claim on data not used while making it
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("short-traces", "long-traces", "event-rows-capped")
UNITS = {"repair_s": "s", "evaluate_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "timestamp_emd_h": "h", "cycle_time_emd_bins": "bins"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HOLDOUT_SEED} "
                             "is kept for checking claims on unseen data)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the job loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def import_program():
    """Import `startrepair` from this checkout's `src`, never from elsewhere."""
    sys.path.insert(0, SOURCE)
    import startrepair
    if os.path.dirname(os.path.dirname(os.path.abspath(startrepair.__file__))) != SOURCE:
        raise ImportError(f"startrepair imported from {startrepair.__file__}, "
                          f"not from {SOURCE}")


def digest(*paths: str) -> str:
    hasher = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as source:
            hasher.update(source.read())
    return hasher.hexdigest()


def summary(samples: list[float]) -> dict:
    """Median, quartiles, sample count, the samples in run order and the
    highest percentile that has at least ten samples beyond it (none when the
    run has too few samples)."""
    ordered = sorted(samples)
    result = {"samples": len(ordered), "median": statistics.median(ordered),
              "values": samples}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        result.update(q1=q1, q3=q3)
    for percentile in (99.9, 99, 95, 90, 75, 50):
        if len(ordered) * (100 - percentile) / 100 >= 10:
            rank = math.ceil(percentile / 100 * len(ordered))
            result["tail"] = {"percentile": percentile, "value": ordered[rank - 1]}
            break
    return result


def provenance(seed: int, inputs) -> dict:
    git = {"sha": None, "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def run_git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git = {"sha": run_git("rev-parse", "HEAD"),
               "dirty": bool(run_git("status", "--porcelain", "--untracked-files=no"))}
    return {"git": git, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "input": {**inputs.size,
                      "csv_bytes": os.path.getsize(inputs.input_csv)
                      + os.path.getsize(inputs.truth_csv)}}


class Loop:
    """Runs jobs one after another, timing each and checking its output
    against the first job of its kind."""

    def __init__(self, cli_main, inputs, tracer):
        self.cli_main = cli_main
        self.inputs = inputs
        self.tracer = tracer
        # scaled to the nominal host speed (speed.py); `raw` keeps wall seconds
        self.times = {"repair": [], "traced_repair": [], "evaluate": []}
        self.raw = {"repair": [], "traced_repair": [], "evaluate": []}
        self.factors = {}  # job id -> speed factor, for the traced spans
        self.attempted = {"repair": 0, "evaluate": 0}
        self.failed = {"repair": 0, "evaluate": 0}
        self.first = {}  # kind -> digest or stdout of the first successful job
        self.first_output = (os.path.join(os.path.dirname(inputs.output_csv), "first.csv"),
                             os.path.join(os.path.dirname(inputs.output_csv),
                                          "first.json"))

    def _run(self, kind: str, label: str, argv: list[str], traced: bool) -> tuple[int, str]:
        gc.collect()
        stdout = io.StringIO()
        job_id = f"{kind}-{self.attempted[kind]}"
        codes = []

        def job():
            with self.tracer.job(f"cli.{kind}", job_id) if traced else nullcontext():
                codes.append(self.cli_main(argv))

        with self.tracer.installed() if traced else nullcontext(), redirect_stdout(stdout):
            seconds, factor = speed.scale(job)
        self.raw[label].append(seconds)
        self.times[label].append(seconds * factor)
        self.factors[job_id] = factor
        return codes[0], stdout.getvalue()

    def _record(self, kind: str, code: int, result: str) -> None:
        self.attempted[kind] += 1
        if code != 0:
            self.failed[kind] += 1
        elif kind not in self.first:
            self.first[kind] = result
            if kind == "repair":
                shutil.copyfile(self.inputs.output_csv, self.first_output[0])
                shutil.copyfile(self.inputs.report_json, self.first_output[1])
        elif result != self.first[kind]:
            self.failed[kind] += 1  # output differs from the first repeat

    def repair(self, traced: bool) -> None:
        code, _ = self._run("repair", "traced_repair" if traced else "repair",
                            self.inputs.repair_argv(), traced)
        result = digest(self.inputs.output_csv, self.inputs.report_json) if code == 0 else ""
        self._record("repair", code, result)

    def evaluate(self, traced: bool) -> None:
        code, stdout = self._run("evaluate", "evaluate", self.inputs.evaluate_argv(), traced)
        self._record("evaluate", code, stdout)


def set_up(workload, seed: int, workdir: str, tracer, traced: bool):
    """Make the inputs SETUP_REPEATS times; return them, each repeat's wall
    seconds and each repeat's speed factor."""
    made, times, factors = [], [], []

    def make(job_id):
        with (tracer.job("bench.setup", job_id) if traced else nullcontext(),
              tracer.installed() if traced else nullcontext()):
            made.append(workload.set_up(seed, workdir))

    for repeat in range(SETUP_REPEATS):
        gc.collect()
        seconds, factor = speed.scale(lambda: make(f"setup-{repeat}"))
        times.append(seconds)
        factors.append(factor)
    return made[-1], times, factors


def check_outputs(check, loop: Loop, seed: int, workdir: str) -> tuple[dict, bool]:
    """Check the first outputs in full and mark every job failed when one is
    wrong (every later job matched it). Return the problems and whether the
    negative self-test, one corrupted start, was caught."""
    problems = {"repair": [], "evaluate": []}
    detected = False
    if "repair" in loop.first:
        expectation = check.Expectation(loop.inputs, seed)
        problems["repair"] = expectation.check_repair(*loop.first_output)
        corrupted = os.path.join(workdir, "corrupted.csv")
        check.corrupt_one_start(loop.first_output[0], corrupted, seed)
        detected = bool(expectation.check_repair(corrupted, loop.first_output[1]))
    if "evaluate" in loop.first:
        problems["evaluate"] = check.check_evaluate(loop.inputs, loop.first_output[0],
                                                    loop.first["evaluate"])
    for kind, found in problems.items():
        if found:
            loop.failed[kind] = loop.attempted[kind]
            print(f"perfbench: {kind} output is wrong: {found[:5]}", file=sys.stderr)
    return problems, detected


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
        import check
        import tracing
        from startrepair import cli
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SOURCE}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    load_before = os.getloadavg()[0]
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = tracing.Tracer()
    traced = bool(args.trace)
    try:
        inputs, setup_times, setup_factors = set_up(WORKLOADS[args.workload], args.seed,
                                                    workdir, tracer, traced)
        # import time is scaled by the first set-up's factor, the nearest one
        setup_s = import_s * setup_factors[0] + statistics.median(
            t * f for t, f in zip(setup_times, setup_factors))
        loop = Loop(cli.main, inputs, tracer)
        loop_start = time.perf_counter()
        for iteration in itertools.count():
            # a traced run alternates which repair job goes first, so that
            # trace.overhead_s carries no order effect
            order = (False, True) if iteration % 2 == 0 else (True, False)
            for traced_repair in (order if traced else (False,)):
                loop.repair(traced=traced_repair)
            loop.evaluate(traced=traced)
            if time.perf_counter() - loop_start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems, detected = check_outputs(check, loop, args.seed, workdir)
        detail = {
            "workload": args.workload, "trace": args.trace,
            "provenance": {**provenance(args.seed, inputs),
                           "loadavg_1m": [load_before, os.getloadavg()[0]]},
            "jobs": {kind: summary(times) for kind, times in loop.times.items() if times},
            "jobs_wall_s": {kind: summary(t) for kind, t in loop.raw.items() if t},
            "setup": {"import_s": import_s, "repeats_wall_s": setup_times,
                      "repeats_speed_factor": setup_factors},
            "attempted": loop.attempted, "failed": loop.failed,
            "problems": {k: v[:5] for k, v in problems.items() if v},
            "negative_self_test": {"attempted": 1, "failed": int(detected)},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        factors = {**loop.factors,
                   **{f"setup-{i}": f for i, f in enumerate(setup_factors)}}
        metrics = tracing.per_layer_metrics(tracer.spans, factors, loop.times["repair"],
                                            loop.times["traced_repair"])
        units = {name: _layer_unit(name) for name in metrics}
        detail["layer_self_s"] = tracing.layer_self_seconds(tracer.spans, factors)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        evaluated = json.loads(loop.first.get("evaluate", "{}"))
        metrics = {
            "repair_s": statistics.median(loop.times["repair"]),
            "evaluate_s": statistics.median(loop.times["evaluate"]),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "timestamp_emd_h": evaluated.get("timestamp_emd"),
            "cycle_time_emd_bins": evaluated.get("cycle_time_emd"),
        }
        units = UNITS
    attempted, failed = sum(loop.attempted.values()), sum(loop.failed.values())
    correct = failed == 0 and detected
    for name, value in metrics.items():
        shown = f"{value:14.6g}" if value is not None else f"{'n/a':>14}"
        print(f"{name:40} {shown} {units[name]}")
    print(f"{'failed/attempted':40} {failed:>7}/{attempted}"
          f"   negative self-test {'detected' if detected else 'MISSED'}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
