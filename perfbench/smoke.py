"""Smoke check for the benchmark, at tiny bounds.

    python3 perfbench/smoke.py

Runs ``run.py --tiny`` for every workload in BENCHMARK.json with tracing off
and on, and checks that the last stdout line is the result object and that
it prints every metric BENCHMARK.json names for that mode, each with its
unit.  Then runs the benchmark in a copy holding only BENCHMARK.json and the
benchmark's own files, where it must fail without printing a result.
Exits 1 on the first workload or mode that breaks one of these checks.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 180
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(spec, cwd, workload, trace, *extra):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def problems(spec, trace, proc):
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode,
                                      proc.stderr.strip()[-500:])]
    result = last_json(proc.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["last line is not a result object: %r"
                % proc.stdout.strip().splitlines()[-1:]]
    out = []
    if result["correct"] is not True:
        out.append("correct is %r" % (result["correct"],))
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            out.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        out.append("attempted < 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        out.append("metrics missing %s, extra %s"
                   % (sorted(names - set(got)), sorted(set(got) - names)))
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            out.append("%s has unit %r, not %r"
                       % (m["name"], entry.get("unit"), m["unit"]))
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            out.append("%s value %r is not a number" % (m["name"], value))
        elif not trace and value <= 0:
            out.append("end-to-end metric %s is %r" % (m["name"], value))
    return out


def bare_copy_problems(spec):
    """Without the package sources the benchmark must fail, quietly."""
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    out = []
    if proc.returncode == 0:
        out.append("exit code 0 without the package")
    result = last_json(proc.stdout)
    if isinstance(result, dict) and "metrics" in result:
        out.append("printed a result without the package")
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(spec, ROOT, wl["name"], trace, "--tiny")
            found = problems(spec, trace, proc)
            print("%-18s trace %d: %s" % (wl["name"], trace,
                                          "; ".join(found) or "ok"))
            failed = failed or bool(found)
    found = bare_copy_problems(spec)
    print("%-18s        : %s" % ("bare copy", "; ".join(found) or "ok"))
    failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
