"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...] [--trace 1]
                                [--out summary.json]

For each workload and metric it prints the median over the runs and the
interquartile range as a share of the median (``statistics.quantiles`` with
n=4), next to the metric's bound from BENCHMARK.json.  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="a workload of workloads.py (default: those in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the medians and spreads to this JSON file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform(),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "trace": args.trace,
        "workloads": {},
    }
    ok = True
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in summary["seeds"]:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= res["correct"]
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        print(f"{name}  ({args.runs} runs, trace {args.trace})")
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(metric)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {metric:32s} median {med:<14.6g} spread {spread:8.4f}  bound {bound}{flag}")
        summary["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
