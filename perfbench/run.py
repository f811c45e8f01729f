"""lagcheck benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ident-cn-heavy --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median of
several set-ups in fresh processes), ``wall_s`` and ``op_p50_s`` (sum and
median of the op latencies), ``peak_rss_mb`` of the workload process and
``ok_share``.  With ``--trace 1`` it runs half as many ops, each untraced and
then traced, and prints the per-layer metrics of the traced runs plus
``trace.overhead_share``.  Every op's output is verified; a failed op is
counted, never raised.  The last line of stdout is the result.

The program is lagcheck from ``src/`` of the checkout this file sits in.
Without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 7
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args, extra: list[str], deadline: float, seconds: float | None = None) -> dict:
    """Run one worker process to completion and return its result line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic_ns()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds or args.seconds), "--spawn-ns", str(t0), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out: {' '.join(extra) or 'measured run'}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def measure(args, deadline: float) -> dict:
    if args.trace == 0:
        setups = [spawn(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        res = spawn(args, [], deadline)
        setups.append(res["setup_s"])
        ok = (res["attempted"] - res["failed"]) / res["attempted"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (res["wall_s"], "s"),
            "op_p50_s": (res["op_p50_s"], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "ok_share": (ok, "share"),
        }
    else:
        # Each op runs twice, untraced and traced, so the run has half the ops.
        res = spawn(args, ["--trace", "1"], deadline, args.seconds / 2)
        metrics = {name: (value, "s" if name.endswith("_s") else "count")
                   for name, value in res["layers"].items()}
        metrics["identities.worst_headroom"] = (res["worst_headroom"], "ratio")
        metrics["trace.overhead_share"] = (res["overhead_share"], "share")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lagcheck" / "cli.py").is_file():
        print(f"no lagcheck sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    m = result["metrics"]
    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops, {result['failed']} failed; "
          + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in m.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
