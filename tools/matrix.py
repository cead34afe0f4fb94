"""Run the fixed matrix of checker cells and record their exact counts.

    python3 tools/matrix.py [--cell NAME ...] [--out MATRIX.json]
                            [--compare OLD.json]

Each cell is one ``check_upper`` run (``--por``, frontier dedup) of a
declared configuration:

* ``base/...``: the baseline rows of ROADMAP.md;
* ``mut/<mutation>/<impl>/<model>``: the ``mutation_check_config``
  cells, 25 distinct ones: ``skip-validate`` has one scripted cell
  whatever the impl and model, so it is the one cell ``mut/skip-validate``;
* ``race/<impl>``: the scripted three-transaction cell whose oracles
  disagree (ROADMAP item 10, ``explorer.ORACLE_RACE``), on TML and NOrec.

Cells run one at a time, each in a fresh process (this script with
``--run NAME``) under the state budget ``DEFAULT_MAX_STATES`` and the
wall-clock timeout ``TIMEOUT_S``.  Per cell the matrix records the exact
fields ``states``, ``transitions``, ``histories``, ``violations``,
``violations_sha256`` (of the sorted violations, one ``repr`` a line),
``exit_code`` (as ``check upper``: 0 no violation, 1 violations, 2
budget exceeded), ``cut`` (the budget cut the cell short; its counts are
then the partial ones) and ``timed_out`` (the timeout killed it; its
counts are then null), and the informational ``cpu_s``, ``wall_s`` and
``peak_rss_mb``.  The exact fields repeat run to run; the timings do
not.  The result goes to ``--out``.  With ``--compare OLD.json`` every
change of an exact field against OLD's cell of the same name is printed
as an error, and the exit code is 1 if there is one; a cell OLD lacks is
noted, and OLD's cells not run are skipped.  Before the closing tally a
line splits the changes into those of the verdict fields
(``violations``, ``violations_sha256``, ``exit_code``) and those of the
count fields (the other exact fields), so a change meant to move counts
shows at a glance whether a verdict moved too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from pmtxcheck.explorer import (DEFAULT_MAX_STATES,  # noqa: E402
                                ORACLE_RACE, BudgetExceeded, Config,
                                check_upper, mutation_check_config)
from pmtxcheck.pmdk import MUTATIONS  # noqa: E402
from pmtxcheck.pmem import MODELS  # noqa: E402
from pmtxcheck.stm import IMPLS  # noqa: E402

EXACT = ("states", "transitions", "histories", "violations",
         "violations_sha256", "exit_code", "cut", "timed_out")
# the exact fields that carry a cell's verdict; the others are its counts
VERDICT = ("violations", "violations_sha256", "exit_code")
TIMEOUT_S = 600


def cells():
    """Cell name -> the Config keywords (impl and model included), or the
    arguments of a mutation_check_config cell."""
    base = dict(locs=2, vals=2, buf=2, ops=2, por=True)
    out = {
        "base/tml-psc-2txn-1crash": dict(base, impl="pmdk-tml", model="psc",
                                         txns=2, max_crashes=1),
        "base/tml-psc-2txn-2crash": dict(base, impl="pmdk-tml", model="psc",
                                         txns=2, max_crashes=2),
        "base/seq-psc-3txn-1crash": dict(base, impl="pmdk-seq", model="psc",
                                         txns=3, max_crashes=1),
        "base/norec-ptso-2txn-1crash": dict(base, impl="pmdk-norec",
                                            model="ptso", txns=2,
                                            max_crashes=1),
        "base/tml-psc-3txn-ops1": dict(base, impl="pmdk-tml", model="psc",
                                       txns=3, ops=1),
        "base/tml-psc-3txn": dict(base, impl="pmdk-tml", model="psc",
                                  txns=3),
    }
    # ROADMAP item 18: the cells where a last crash leaves a transaction
    # yet to begin
    for impl in ("tml", "norec"):
        for model in MODELS:
            out["base/%s-%s-3txn-1crash-ops1" % (impl, model)] = dict(
                base, impl="pmdk-" + impl, model=model, txns=3,
                max_crashes=1, ops=1)
    out["mut/skip-validate"] = ("skip-validate",)
    for name in MUTATIONS:
        if name == "skip-validate":
            continue
        for impl in IMPLS:
            for model in MODELS:
                out["mut/%s/%s/%s" % (name, impl, model)] = \
                    (name, impl, model)
    for impl in ("pmdk-tml", "pmdk-norec"):
        out["race/%s" % impl] = dict(base, impl=impl, model="psc", txns=3,
                                     scripts=ORACLE_RACE)
    return out


def run_cell(name, max_states):
    """Run cell `name` in this process; its exact fields (timed_out
    aside) and its cpu_s and peak_rss_mb."""
    spec = cells()[name]
    if isinstance(spec, tuple):
        cfg = mutation_check_config(*spec)
        cfg.max_states = max_states
    else:
        cfg = Config(max_states=max_states, **spec)
    try:
        res = check_upper(cfg)
        cut = False
    except BudgetExceeded as exc:
        res, cut = exc.result, True
    found = sorted(res.violations)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "states": res.states,
        "transitions": res.transitions,
        "histories": res.history_count(),
        "violations": len(found),
        "violations_sha256": hashlib.sha256(
            "\n".join(map(repr, found)).encode()).hexdigest(),
        "exit_code": 2 if cut else 1 if found else 0,
        "cut": cut,
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        # Linux reports kilobytes
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
    }


def spawn_cell(name):
    """Cell `name` run in a fresh process: its matrix entry."""
    cmd = [sys.executable, os.path.abspath(__file__), "--run", name]
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        entry = dict.fromkeys(EXACT)
        entry.update(cut=False, timed_out=True, cpu_s=None, peak_rss_mb=None)
    else:
        lines = p.stdout.splitlines()
        if not lines:
            raise RuntimeError("cell %s exited %d: %s"
                               % (name, p.returncode, p.stderr.strip()[-500:]))
        entry = json.loads(lines[-1])
        if p.returncode != entry["exit_code"]:
            raise RuntimeError("cell %s exited %d, not %d: %s"
                               % (name, p.returncode, entry["exit_code"],
                                  p.stderr.strip()[-500:]))
        entry["timed_out"] = False
    entry["wall_s"] = round(time.monotonic() - t0, 3)
    return {k: entry[k] for k in EXACT + ("cpu_s", "wall_s", "peak_rss_mb")}


def compare(old, new):
    """The errors, one line per exact-field change of a cell of matrix
    `new` against `old`'s cell of the same name, the notes, one line per
    cell of `new` that `old` lacks, and how many of the errors are in
    ``VERDICT`` fields."""
    errors, notes = [], []
    verdict = 0
    for name, b in new["cells"].items():
        a = old["cells"].get(name)
        if a is None:
            notes.append("note: %s is not in the old matrix" % name)
            continue
        for field in EXACT:
            if a.get(field) != b.get(field):
                errors.append("error: %s %s: %r -> %r"
                              % (name, field, a.get(field), b.get(field)))
                verdict += field in VERDICT
    return errors, notes, verdict


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--cell", action="append", metavar="NAME",
                   help="repeatable; default: every cell")
    p.add_argument("--out", default="MATRIX.json")
    p.add_argument("--compare", metavar="OLD.json")
    p.add_argument("--run", metavar="NAME", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    known = cells()
    if args.run:
        entry = run_cell(args.run, DEFAULT_MAX_STATES)
        print(json.dumps(entry))
        return entry["exit_code"]
    names = args.cell or list(known)
    unknown = [n for n in names if n not in known]
    if unknown:
        p.error("unknown cell(s): %s" % ", ".join(unknown))
    doc = {"command": "check_upper, --por, frontier dedup", "cells": {}}
    for name in names:
        entry = doc["cells"][name] = spawn_cell(name)
        print("%s: %s" % (name, " ".join("%s=%s" % (k, entry[k])
                                        for k in EXACT[:4] + ("wall_s",))),
              flush=True)
        # written after each cell, so a cut run keeps what finished
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    if args.compare:
        with open(args.compare) as f:
            errors, notes, verdict = compare(json.load(f), doc)
        for line in errors + notes:
            print(line)
        print("%d in verdict fields (%s), %d in count fields"
              % (verdict, ", ".join(VERDICT), len(errors) - verdict))
        print("%d exact-field change(s) against %s"
              % (len(errors), args.compare))
        return 1 if errors else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
