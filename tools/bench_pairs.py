"""Compare two checkouts on the benchmark in alternating pairs.

Run from anywhere, naming both checkouts:

    python3 tools/bench_pairs.py --parent ../parent --change . --label 18

Before the first pair it copies what a run reads of each checkout
(``SNAPSHOT``) into a temporary directory, so an edit made to either
checkout while the pairs run is not measured.  Each of ten pairs runs
``perfbench/run.py --trace 0`` once in each copy for the ``run_seconds``
of the change's ``BENCHMARK.json``, the parent first on even pairs (0, 2,
...) and the change first on odd ones, one process at a time.  The runs
of every workload are written to
``BENCH_<label>.json`` in the change's checkout, under ``workloads`` for
the default seed and ``workloads_seed_<n>`` for any other, keeping
whatever else the file holds.  Per metric it records both sides' raw
values, their medians, ``change_pct`` (change median against the
parent's), ``pairs_change_better`` (pairs in which the change's value is
strictly better, ties counting for neither) and both sides' interquartile
ranges; for an end-to-end metric also its ``bound_pct`` and
``worse_than_bound``, whether ``change_pct`` is worse than the bound.  Per
side it records ``correct``, ``attempted`` and ``failed`` of every run,
each run's mean ``host_speed`` (from perfbench's ``timed repetitions``
line) and the distinct summary lines perfbench printed about the counts
it checks.  Which way is better and the bounds come from the change's
``BENCHMARK.json``.  After each workload it prints every end-to-end
metric's ``change_pct`` against its bound, flagging any that is worse.
The tool only reads perfbench's output; it changes nothing under
``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
PAIRS = 10
DEFAULT_SEED = 1
# perfbench lines that name the exact counts a run checked
ECHO = ("pool:", "check_upper:", "mutations caught:")
HOST_SPEED = re.compile(r"^timed repetitions: .* host speed ([0-9.]+);")
# what a benchmark run reads of a checkout
SNAPSHOT = ("src", "perfbench", "BENCHMARK.json")


def snapshot(checkout, into):
    """Copy ``SNAPSHOT`` of `checkout` into the new directory `into` and
    return `into`."""
    os.makedirs(into)
    for name in SNAPSHOT:
        path = os.path.join(checkout, name)
        if os.path.isdir(path):
            shutil.copytree(path, os.path.join(into, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(path, into)
    return into


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run in `checkout`: (its JSON result, the
    distinct ECHO lines it printed, its mean host speed)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                       text=True, check=False)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s in %s exited %d: %s"
                           % (" ".join(cmd), checkout, p.returncode,
                              p.stderr.strip()[-500:]))
    echo = [l for l in lines if l.startswith(ECHO)]
    speeds = [float(m.group(1)) for m in map(HOST_SPEED.match, lines) if m]
    if len(speeds) != 1:
        raise RuntimeError("%s in %s printed %d host speed lines"
                           % (" ".join(cmd), checkout, len(speeds)))
    return json.loads(lines[-1]), echo, speeds[0]


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(runs, better, bounds):
    """The workload's entry from `runs`: side -> list of (result, echo,
    host speed)."""
    out = {"pairs": len(runs["parent"]), "metrics": {}}
    names = runs["parent"][0][0]["metrics"]
    for name, first in names.items():
        vals = {s: [r["metrics"][name]["value"] for r, _e, _h in runs[s]]
                for s in SIDES}
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for p, c in zip(vals["parent"], vals["change"])
                   if (c < p if lower else c > p))
        med = {s: statistics.median(vals[s]) for s in SIDES}
        pct = round(100 * med["change"] / med["parent"] - 100, 1)
        entry = out["metrics"][name] = {
            "unit": first["unit"],
            "parent": [round(v, 4) for v in vals["parent"]],
            "change": [round(v, 4) for v in vals["change"]],
            "parent_median": round(med["parent"], 4),
            "change_median": round(med["change"], 4),
            "change_pct": pct,
            "pairs_change_better": wins,
            "parent_iqr": quartiles(vals["parent"]),
            "change_iqr": quartiles(vals["change"]),
        }
        if name in bounds:
            entry["bound_pct"] = round(100 * bounds[name], 1)
            entry["worse_than_bound"] = (pct if lower else -pct) \
                > entry["bound_pct"]
    for s in SIDES:
        results = [r for r, _e, _h in runs[s]]
        out[s] = {"correct": [r["correct"] for r in results],
                  "attempted": results[0]["attempted"],
                  "failed": [r["failed"] for r in results],
                  "host_speed": [h for _r, _e, h in runs[s]],
                  "printed": sorted({l for _r, echo, _h in runs[s]
                                     for l in echo})}
    return out


def report(workload, entry):
    """Print each end-to-end metric's change against its bound."""
    for name, m in entry["metrics"].items():
        if "bound_pct" in m:
            print("%s %s: change %+.1f%%, bound %.1f%%%s"
                  % (workload, name, m["change_pct"], m["bound_pct"],
                     "  WORSE THAN BOUND" if m["worse_than_bound"] else ""))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="changed checkout")
    p.add_argument("--label", required=True, help="writes BENCH_<label>")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload of "
                        "BENCHMARK.json")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        copies = {s: snapshot(getattr(args, s), os.path.join(tmp, s))
                  for s in SIDES}
        return run_pairs(args, copies)


def run_pairs(args, copies):
    """Run the pairs in `copies` (side -> its checkout's snapshot) and
    write ``BENCH_<label>.json`` into the ``--change`` checkout."""
    with open(os.path.join(copies["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    path = os.path.join(args.change, "BENCH_%s.json" % args.label)
    doc = {}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc.setdefault("command", "python3 perfbench/run.py --workload W "
                   "--seed S --seconds %g --trace 0" % seconds)
    doc.setdefault("order", "parent and change alternate: even pairs run "
                   "the parent first, odd pairs the change first, one "
                   "process at a time, each side from a copy of its "
                   "checkout taken before the first pair")
    section = doc.setdefault(
        "workloads" if args.seed == DEFAULT_SEED
        else "workloads_seed_%d" % args.seed, {})
    for w in workloads:
        runs = {s: [] for s in SIDES}
        for i in range(PAIRS):
            for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[s].append(run_once(copies[s], w, args.seed, seconds))
            print("%s seed %d: pair %d of %d done"
                  % (w, args.seed, i + 1, PAIRS), flush=True)
        section[w] = dict(summarize(runs, better, bounds), seed=args.seed,
                          seconds=seconds)
        report(w, section[w])
        # written after each workload, so a cut run keeps what finished
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
