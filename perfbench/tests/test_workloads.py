import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_config_bytes(tmp_path, name):
    a = workloads.generate(name, 5, 4, tmp_path / "a")
    b = workloads.generate(name, 5, 4, tmp_path / "b")
    c = workloads.generate(name, 6, 4, tmp_path / "c")
    read = lambda ops: [op.config_path.read_bytes() for op in ops]  # noqa: E731
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_op_count_depends_on_seconds_only():
    wl = workloads.WORKLOADS["energy-wide"]
    assert wl.op_count(1) == len(wl.bodies)
    assert wl.op_count(20) == round(20 / wl.nominal_op_s)


def test_run_without_sources_fails_without_a_result(tmp_path):
    """Copied out of the repository, the benchmark has nothing to measure."""
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for f in ("run.py", "worker.py", "workloads.py", "verify.py", "tracer.py"):
        (dest / f).write_bytes((BENCH / f).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "energy-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
