#!/usr/bin/env python3
"""Benchmark of fltrans: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload in turn

One run builds the workload's op list from the seed, then makes whole
passes over it until --seconds have gone by, checking every op.  It prints
the inputs, the ops attempted and failed (each failed op with its identity
and reason) and every metric by name and unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 makes one
untraced reference pass, then traced passes, and reports the per-layer
metrics and the tracing overhead, writing the spans under .bench_out/.

The program is imported from src/ next to this directory and nowhere else;
without it the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9   # fewest set-up probes in a run
WORKLOAD_NAMES = ("paper_grid", "wave", "roundtrip")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("goodput_ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("digits_p50", "digits"),
    ("peak_rss_mb", "MB"),
)
FAULT_NOTE = "inverse_laplace contour fault"


def import_program() -> None:
    """Put src/ first on the path and make sure fltrans comes from there."""
    sys.path.insert(0, str(SRC))
    try:
        import fltrans
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import fltrans from {SRC}: {exc}")
    if Path(fltrans.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: fltrans imported from {fltrans.__file__}, "
                         f"not from {SRC}")


class Tally:
    """What the passes of one run did and measured."""

    def __init__(self) -> None:
        self.pass_s: list[float] = []
        self.op_ms: list[list[float]] = []   # latencies of op i, one per pass
        self.digits: list[float] = []
        self.attempted = 0
        self.passed = 0
        self.failed = 0
        self.fault_failed = 0
        self.points_per_pass = 0
        self.failures: dict[str, list] = {}   # op identity -> [reason, fault, count]

    @property
    def correct(self) -> bool:
        """True when every failure is the named inverse_laplace fault."""
        return self.failed == self.fault_failed

    def record(self, op, outcome) -> None:
        self.attempted += 1
        if outcome.err is not None:
            err = outcome.err
            self.digits.append(min(16.0, max(0.0, -math.log10(err))) if err > 0 else 16.0)
        elif not outcome.ok:
            self.digits.append(0.0)
        if outcome.ok:
            self.passed += 1
            return
        self.failed += 1
        self.fault_failed += outcome.fault
        entry = self.failures.setdefault(op.ident, [outcome.reason, outcome.fault, 0])
        entry[2] += 1


def run_passes(workload, seconds: float, tally: Tally, tracer=None,
               after_pass=None) -> None:
    """Whole passes over the op list until `seconds` of wall time are used."""
    from workloads import Outcome

    clock = time.perf_counter
    start = clock()
    while True:
        workload.begin_pass()
        points = 0
        if not tally.op_ms:
            tally.op_ms = [[] for _ in workload.ops]
        p0 = clock()
        for i, op in enumerate(workload.ops):
            t0 = clock()
            try:
                out = tracer.run_op(i, op.span, op.run) if tracer else op.run()
            except Exception as exc:  # one op's error must not end the run
                latency = clock() - t0
                outcome = Outcome(False, None, f"raised {exc!r}")
            else:
                latency = clock() - t0
                try:
                    outcome = op.check(out)
                except Exception as exc:
                    outcome = Outcome(False, None, f"check raised {exc!r}")
            points += outcome.points
            tally.op_ms[i].append(1e3 * latency)
            tally.record(op, outcome)
        tally.pass_s.append(clock() - p0)
        tally.points_per_pass = points
        if after_pass is not None:
            after_pass()
        if clock() - start >= seconds:
            return


def setup_probe(args) -> float:
    """Time from starting a fresh process to the point of its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"bench: set-up probe failed (status {proc.returncode})")
    return elapsed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_s: float) -> dict:
    # an op's latency is its median over the passes, so a pass that the
    # machine slowed for a moment does not reach the percentiles
    op_ms = [statistics.median(samples) for samples in tally.op_ms]
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(tally.pass_s),
        "goodput_ops_per_s": tally.passed / sum(tally.pass_s),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8],
        "digits_p50": statistics.median(tally.digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def traced_run(workload, args, tally: Tally) -> dict:
    from tracing import Tracer, layer_metrics, per_pass

    reference = Tally()
    run_passes(workload, 0.25 * args.seconds, reference)
    tracer = Tracer()
    figures, last = [], [None]

    def after_pass():
        tracer.keep_spans = False  # spans of the first traced pass only
        snap = tracer.snapshot()
        figures.append(per_pass(last[0] or {}, snap))
        last[0] = snap

    tracer.install()
    try:
        run_passes(workload, 0.75 * args.seconds, tally, tracer, after_pass)
    finally:
        tracer.uninstall()
    overhead = 100.0 * (statistics.median(tally.pass_s)
                        / statistics.median(reference.pass_s) - 1.0)
    metrics, unsteady = layer_metrics(figures, tally.points_per_pass, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}.json"  # the latest run's only
    count = tracer.write_spans(path)
    print(f"  traced {len(tally.pass_s)} passes after {len(reference.pass_s)} "
          f"untraced; {count} spans of the first traced pass in "
          f"{path.relative_to(ROOT)}")
    if unsteady:
        print(f"  WARNING: counters differ between passes: {', '.join(unsteady)}")
    # the reference passes are attempts too
    tally.attempted += reference.attempted
    tally.passed += reference.passed
    tally.failed += reference.failed
    tally.fault_failed += reference.fault_failed
    return metrics


def run_one(args) -> dict:
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {workload.name}, seed {args.seed}: {len(workload.ops)} ops per pass")
    for note in workload.notes:
        print(f"  input: {note}")
    tally = Tally()
    if args.trace:
        metrics = traced_run(workload, args, tally)
    else:
        # one set-up probe after every pass, so the probes sample the
        # machine over the whole run as the passes do
        setup = []
        run_passes(workload, args.seconds, tally,
                   after_pass=lambda: setup.append(setup_probe(args)))
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_probe(args))
        metrics = end_to_end(tally, statistics.median(setup))
    print(f"  {len(tally.pass_s)} passes: attempted {tally.attempted}, failed "
          f"{tally.failed} ({tally.fault_failed} through the {FAULT_NOTE})")
    for ident, (reason, fault, count) in tally.failures.items():
        tag = f" [{FAULT_NOTE}]" if fault else " [UNEXPECTED]"
        print(f"  FAILED x{count} {ident}: {reason}{tag}")
    for name, m in metrics.items():
        value = m["value"]
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, so peak memory stays per workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} failed (status {proc.returncode})")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric_name, m in one["metrics"].items():
            result["metrics"][f"{name}.{metric_name}"] = m
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print 'ready' and exit "
                             "(the set-up time probe)")
    args = parser.parse_args()
    if args.setup_only:
        import_program()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
