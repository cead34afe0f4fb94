"""The benchmark's smoke check (perfbench/smoke.py) passes at tiny bounds:
every workload prints every metric BENCHMARK.json names, traced and not."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_status():
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


def test_bench_smoke():
    before = git_status()
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # its output goes to the ignored .perfbench_out/ only
    assert git_status() == before
