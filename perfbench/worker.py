"""One workload in one fresh process: set up, time whole rounds, check.

Started by run.py with BLAS threads pinned and `src` on PYTHONPATH.
Prints one JSON line as its last line of output.  `--t0` is the
parent's time.monotonic() at spawn (a system-wide clock on Linux), so
setup_s covers interpreter start, imports, inputs and the warm-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS


def run_round(workload, tracer, outputs: dict, prints: dict, failures: list) -> tuple[float, list[float], int]:
    """All operations of one round; returns (round seconds, op seconds, failed ops).

    The round time is the sum of its operations, so fingerprinting the
    outputs between operations is not counted.
    """
    op_times, failed = [], 0
    if tracer is not None:
        tracer.install()
    try:
        for label, op in workload.ops():
            # drop the previous round's output first, so peak memory does
            # not depend on how many rounds fit in the run
            outputs.pop(label, None)
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # an operation that fails is counted, not fatal
                op_times.append(time.perf_counter() - t0)
                failed += 1
                failures.append(f"{label}: operation failed: {exc!r}")
                continue
            op_times.append(time.perf_counter() - t0)
            outputs[label] = out
            fp = workload.fingerprint(out)
            if prints.setdefault(label, fp) != fp:
                failures.append(f"{label}: output differs from the first round's")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return sum(op_times), op_times, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs, prints, failures = {}, {}, []
    rounds, traced_rounds, layer_rounds, op_times = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall, ops, bad = run_round(workload, None, outputs, prints, failures)
        rounds.append(wall)
        op_times += ops
        attempted, failed = attempted + len(ops), failed + bad
        if args.trace:
            tracer = tracing.Tracer()
            wall, ops, bad = run_round(workload, tracer, outputs, prints, failures)
            traced_rounds.append(wall)
            layer_rounds.append(tracing.layer_metrics(tracer))
            attempted, failed = attempted + len(ops), failed + bad
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    self_tests = []
    try:
        failures += workload.check(outputs)
        for what, rejected in workload.self_test():
            self_tests.append({"corruption": what, "rejected": bool(rejected)})
            if not rejected:
                failures.append(f"self-test: the check accepted a {what}")
    except Exception:
        failures.append("check raised:\n" + traceback.format_exc())

    result = {
        "setup_s": setup_s,
        "wall_s": statistics.median(rounds),
        "op_s.p50": statistics.median(op_times),
        "peak_rss_mb": peak_rss_mb,
        "round_s": rounds,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "self_tests": self_tests,
    }
    if args.trace:
        layers = tracing.median_metrics(layer_rounds)
        layers["trace.overhead_s"] = statistics.median(traced_rounds) - statistics.median(rounds)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
