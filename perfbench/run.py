"""Benchmark of the stochshift package: one workload per call.

    python3 perfbench/run.py --workload cluster-set3 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout (the directory holding
`src/stochshift`).  The workload runs in a fresh process with BLAS
pinned to one thread and `src` on PYTHONPATH, after two set-up-only
processes that measure set-up time again.  With `--trace 0`
the last line of output is a JSON object with the end-to-end metrics
(wall_s, op_s.p50, setup_s, peak_rss_mb); with `--trace 1` it holds the
per-layer metrics of a traced run instead.  `--workload all` runs every
workload in turn and prints one such line each.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
TIME_LIMIT_S = 170.0
SETUPS = 3  # set-up measurements per run; setup_s is their median


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer"."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _worker(args, root: Path, workdir: Path, env: dict, deadline: float, setup_only: bool) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
           "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    # subprocess.run kills and reaps the worker when the time limit passes
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_one(args, root: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = root / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    threads = str(args.blas_threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    setups = []
    if not args.trace:
        for j in range(SETUPS - 1):
            setups.append(_worker(args, root, workdir / f"setup{j}", env, deadline, True)["setup_s"])
    res = _worker(args, root, workdir / "run", env, deadline, False)
    setups.append(res["setup_s"])

    if args.trace:
        units, values = _units("per_layer"), res["layers"]
    else:
        units = _units("end_to_end")
        values = {"wall_s": res["wall_s"], "op_s.p50": res["op_s.p50"],
                  "setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json names {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"{args.workload} seed={args.seed}: {len(res['round_s'])} round(s) {['%.2f' % r for r in res['round_s']]}, {res['attempted']} operations, "
          f"{res['failed']} failed, setups {['%.3f' % s for s in setups]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for t in res["self_tests"]:
        print(f"  self-test: {t['corruption']}: {'rejected' if t['rejected'] else 'ACCEPTED'}")
    for msg in res["failures"]:
        print(f"  CHECK FAILED: {msg}", file=sys.stderr)
    if not res["failures"]:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            workdir.parent.rmdir()
    return {"correct": not res["failures"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1, help="OpenBLAS threads in the worker (default 1)")
    args = ap.parse_args()
    if args.blas_threads < 1:
        ap.error("--blas-threads must be >= 1")

    root = Path.cwd()
    if not (root / "src" / "stochshift" / "__init__.py").is_file():
        print(f"perfbench: no src/stochshift under {root}; run from the root of a stochshift checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            args.workload = name
            print(json.dumps(run_one(args, root)), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
