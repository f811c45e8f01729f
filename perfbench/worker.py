"""One workload in one fresh process: set up, run the ops, verify them.

Started by ``run.py``; prints one JSON line with the op latencies, failures,
peak RSS and, when traced, the per-layer metrics.  The load is one closed-loop
client: ops run one after another in this process, each through the public
entry point ``lagcheck.cli.main``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import verify
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def import_cli():
    """Import lagcheck from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lagcheck.cli

    if src not in Path(lagcheck.cli.__file__).resolve().parents:
        raise ImportError(f"lagcheck imported from {lagcheck.cli.__file__}, not from {src}")
    return lagcheck.cli


def run_op(cli, op) -> tuple[int | None, bytes | None]:
    """Run one op; an exception is reported as a failed op, not raised."""
    op.out_path.unlink(missing_ok=True)
    try:
        code = cli.main(op.argv)
    except Exception:  # the run goes on; the op counts as failed
        traceback.print_exc()
        code = None
    report = op.out_path.read_bytes() if op.out_path.exists() else None
    return code, report


def headroom(report: bytes | None) -> float:
    """Largest residual / tolerance of an identities report (0 otherwise)."""
    if report is None:
        return 0.0
    checks = json.loads(report).get("checks", [])
    return max((c["max_residual"] / c["tolerance"] for c in checks), default=0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before it started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    cli = import_cli()
    from lagcheck.jets import jet_space

    workdir = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops = workloads.generate(args.workload, args.seed, wl.op_count(args.seconds), workdir)
        for nvars, order in wl.jet_tables:
            jet_space(nvars, order)
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer() if args.trace else None
        latencies, untraced, failed, worst = [], [], 0, 0.0
        first_report, first_ok = None, False

        def passed(op, code, report) -> bool:
            nonlocal worst
            bad = verify.problems(op, code, report)
            if bad:
                print(f"op {op.index} failed ({op.config}): {'; '.join(bad)}", file=sys.stderr)
            else:
                worst = max(worst, headroom(report))
            return not bad

        for op in ops:
            if tracer:
                # The same op untraced, just before the traced run, gives the
                # tracing overhead under the same machine load.
                t0 = time.perf_counter()
                code, report = run_op(cli, op)
                untraced.append(time.perf_counter() - t0)
                failed += not passed(op, code, report)
                tracer.op = op.index
                tracer.install()
            t0 = time.perf_counter()
            code, report = run_op(cli, op)
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
            ok = passed(op, code, report)
            failed += not ok
            if op.index == 0:
                first_report, first_ok = report, ok

        # Determinism: the untimed re-run of the first op writes the same bytes.
        _, again = run_op(cli, ops[0])
        if first_ok and again != first_report:
            failed += 1
            print("op 0 failed: re-run wrote different report bytes", file=sys.stderr)

        result = {
            "setup_s": setup_s,
            "latencies": latencies,
            "attempted": len(ops) + len(untraced),
            "failed": failed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "worst_headroom": worst,
            "wall_s": sum(latencies),
            "op_p50_s": statistics.median(latencies),
        }
        if tracer:
            result["layers"] = tracer.layer_metrics(len(ops))
            result["overhead_share"] = sum(latencies) / sum(untraced) - 1.0
            result["missing"] = tracer.missing
            tracer.dump(OUT / f"spans-{args.workload}.json")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
