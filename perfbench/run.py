"""pmtxcheck benchmark: time to verdict on three workloads.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload upper-tml-crash --seed 1 \\
        --seconds 12 --trace 0

Workloads (each one process, one thread, a closed loop with one client):

* ``upper-tml-crash``  -- ``check_upper`` on pmdk-tml/psc with one crash.
* ``upper-norec-ptso`` -- ``check_upper`` on pmdk-norec/ptso, crash-free.
* ``ddo-oracles``      -- a seeded sample of implementation histories, each
  decided by ``events_of_records``, ``refspec.accepts_history`` and
  ``opacity.check_history_ddo``.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without it the run exits with code 2 and prints no result.
Progress goes to stdout; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, with every time scaled to the host's full
speed by ``hostspeed.py``; ``--trace 1`` the per-layer metrics of a
run whose layer calls are wrapped from outside the package (see
``tracer.py``); the per-(layer, parent) table is also written to
``.perfbench_out/`` in the checkout.  ``--tiny`` shrinks every bound for
the smoke check in ``smoke.py``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracer import LayerTracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# The known oracle disagreement (ROADMAP open item 1): positions in the
# sorted pool of the histories the spec accepts and dDO rejects.  They count
# as failed operations; any other outcome than the pinned one is an error.
# pin.py writes the file.
KNOWN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "known_disagreements.json")

MODULES = ("explorer", "engine", "pmdk", "stm", "pmem", "refspec",
           "opacity", "histories")

# How often an untraced run sets up and repeats its timed operation.  The
# counts are fixed per workload rather than "as many as fit", so they do not
# depend on the speed of the code under test.  workload -> (set-ups, scaled
# seconds one timed repetition took when the benchmark was defined); a run
# makes max(MIN_REPS, round(--seconds / that)) timed repetitions.
RUNS = {
    "upper-tml-crash": (30, 10.0),
    "upper-norec-ptso": (30, 4.0),
    "ddo-oracles": (3, 2.0),
}
MIN_REPS = 3

# Bounds shared by every cell; --tiny swaps in the second set.
BOUNDS = {False: dict(vals=2, buf=2, ops=2), True: dict(vals=2, buf=2, ops=1)}

UPPER = {  # workload -> (impl, model, txns, locs, max_crashes)
    "upper-tml-crash": ("pmdk-tml", "psc", 2, 2, 1),
    "upper-norec-ptso": ("pmdk-norec", "ptso", 2, 2, 0),
}
UPPER_TINY_LOCS = 1

# ddo-oracles draws its sample from the histories of these two cells.
POOL_CELLS = {
    False: (("pmdk-seq", "psc", 2, 2, 1), ("pmdk-tml", "psc", 2, 1, 0)),
    True: (("pmdk-seq", "psc", 2, 1, 1), ("pmdk-tml", "psc", 2, 1, 0)),
}
SAMPLE = {False: 4000, True: 1000}

# sha256 of the pool's sorted history sets.  Reductions must preserve
# history sets, so a correct change to the explorer never moves these.
POOL_DIGEST = {
    False: "844ecd63cea0ba8db6e8aee3c6baee3b1cee17826a8e36729eb6c045b0009c21",
    True: "666c8b3195c9be7d8ede3186be35fdada473a6534cf64609e2796f1ff1d029d9",
}

class PackageMissing(Exception):
    pass


def load_package():
    """Import pmtxcheck afresh from the checkout; return its modules."""
    if not os.path.isfile(os.path.join(SRC, "pmtxcheck", "__init__.py")):
        raise PackageMissing("no pmtxcheck sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == "pmtxcheck" or n.startswith("pmtxcheck.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pmtxcheck")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise PackageMissing("pmtxcheck imported from %s, not from %s"
                             % (pkg.__file__, SRC))
    return types.SimpleNamespace(
        **{m: importlib.import_module("pmtxcheck." + m) for m in MODULES})


def tail_latency(values):
    """Nearest-rank 99th percentile when at least ten samples lie beyond
    it.  With fewer samples no tail can be measured and the median stands
    in."""
    rank = math.ceil(0.99 * len(values))
    if len(values) - rank < 10:
        return statistics.median(values)
    return sorted(values)[rank - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Rep(types.SimpleNamespace):
    """One timed call: `start` and `end` are HostSpeed.now() readings,
    `cpu` its CPU seconds, `out` its result."""


def timed(hs, fn, *args):
    gc.collect()
    start, c0 = hs.now(), hs.cpu()
    out = fn(*args)
    return Rep(start=start, end=hs.now(), cpu=hs.cpu() - c0, out=out)


def timing_metrics(hs, reps, latencies):
    """End-to-end timings of a run's repetitions, each scaled to the host's
    full speed by `hs` (see hostspeed.py).  `latencies(rep)` lists one
    repetition's decisions as (start, seconds); every repetition decides
    the same inputs in the same order.  verdict_s and cpu_s are medians over
    the repetitions; each decision's latency is its median over the
    repetitions, and decide_ms_* are percentiles of those."""
    walls = [hs.speed(r.start, r.end) * (r.end - r.start) for r in reps]
    cpus = [hs.speed(r.start, r.end) * r.cpu for r in reps]
    lat = [statistics.median(per) for per in zip(*(
        [hs.speed(t, t + dt) * dt for t, dt in latencies(r)] for r in reps))]
    print("timed repetitions: %d, wall s: %s; scaled s: %s; "
          "host speed %.3f; %d decision(s) each"
          % (len(reps), ", ".join("%.3f" % (r.end - r.start) for r in reps),
             ", ".join("%.3f" % w for w in walls), hs.mean_speed(),
             len(lat)))
    return {
        "verdict_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "decide_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "decide_ms_p99": (tail_latency(lat) * 1e3, "ms"),
    }


# ---------------------------------------------------------------------------
# upper-* workloads: one operation is one check_upper verdict
# ---------------------------------------------------------------------------

class Upper:
    def __init__(self, name, tiny):
        self.impl, self.model, self.txns, locs, self.crashes = UPPER[name]
        self.locs = UPPER_TINY_LOCS if tiny else locs
        self.bounds = BOUNDS[tiny]

    def setup(self, pk, seed):
        del seed  # deterministic: the seed is recorded and ignored
        return self.config(pk)

    def config(self, pk):
        return pk.explorer.Config(self.impl, self.model, txns=self.txns,
                                  locs=self.locs,
                                  max_crashes=self.crashes, por=True,
                                  **self.bounds)

    @staticmethod
    def verdict(pk, cfg):
        """Exact counts of one clean check, or the exception it raised
        (BudgetExceeded included)."""
        try:
            r = pk.explorer.check_upper(cfg)
        except Exception as e:  # a failed operation, reported below
            return {"error": "%s: %s" % (type(e).__name__, e)}
        return {"explorer.states": r.states,
                "explorer.transitions": r.transitions,
                "explorer.histories": len(r.complete | r.cut),
                "violations": len(r.violations)}

    @staticmethod
    def failed(out):
        return "error" in out or out["violations"] > 0

    @staticmethod
    def mutation_failures(pk):
        """Untimed gate: every registry mutation must still be caught on
        its own mutation_check_config cell."""
        missed = []
        for name in pk.pmdk.MUTATIONS:
            cfg = pk.explorer.mutation_check_config(name)
            try:
                r = pk.explorer.check_upper(cfg, stop_on_violation=True)
            except Exception as e:  # counted as a missed mutation
                missed.append("%s (%s)" % (name, type(e).__name__))
                continue
            if not r.violations:
                missed.append(name)
        return missed

    def gate(self, pk, out):
        """(attempted, failed) of one check_upper verdict plus the untimed
        mutation checks."""
        missed = self.mutation_failures(pk)
        print("mutations caught: %d of %d%s"
              % (len(pk.pmdk.MUTATIONS) - len(missed), len(pk.pmdk.MUTATIONS),
                 "; missed: " + ", ".join(missed) if missed else ""))
        return (1 + len(pk.pmdk.MUTATIONS),
                int(self.failed(out)) + len(missed))

    def run(self, pk, cfg, hs, reps):
        runs = [timed(hs, self.verdict, pk, cfg) for _ in range(reps)]
        outs = [r.out for r in runs]
        for out in outs:
            print("check_upper: %s" % json.dumps(out, sort_keys=True))
        # every repetition must give the same verdict, so one is counted
        attempted, failed = self.gate(pk, outs[0])
        steady = all(out == outs[0] for out in outs)
        if not steady:
            print("ERROR: exact counts differ between calls")
        # one check_upper call decides one verdict
        return (runs, lambda r: [(r.start, r.end - r.start)],
                attempted, failed, failed == 0 and steady)

    def run_traced(self, pk, cfg, hs):
        u = timed(hs, self.verdict, pk, cfg)
        with LayerTracer() as tr:
            tr.instrument_modules(pk)
            cfg_t = self.config(pk)
            t = timed(hs, self.verdict, pk, cfg_t)
        out_u, out_t = u.out, t.out
        attempted, failed = self.gate(pk, out_t)
        same = out_t == out_u
        if not same:
            print("ERROR: traced counts %s differ from untraced %s"
                  % (out_t, out_u))
        counts = {k: v for k, v in out_u.items() if k.startswith("explorer.")}
        wall_u = u.end - u.start
        metrics = layer_metrics(tr, counts, wall_u,
                                (t.end - t.start) / wall_u, rejects=0)
        return tr, metrics, attempted, failed, failed == 0 and same


# ---------------------------------------------------------------------------
# ddo-oracles: one operation decides one history with both oracles
# ---------------------------------------------------------------------------

class DdoOracles:
    def __init__(self, tiny):
        self.cells = POOL_CELLS[tiny]
        self.bounds = BOUNDS[tiny]
        self.size = SAMPLE[tiny]
        self.digest = POOL_DIGEST[tiny]
        self.pin = "tiny" if tiny else "full"
        self.builds = []   # (exact counts, digest) of every pool built

    def build_pool(self, pk):
        """Histories of every pool cell, with the explorer's exact counts,
        the explore time and the digest of the sorted history sets."""
        pool = []
        counts = Counter()
        explore_s = 0.0
        h = hashlib.sha256()
        for impl, model, txns, locs, crashes in self.cells:
            cfg = pk.explorer.Config(impl, model, txns=txns, locs=locs,
                                     max_crashes=crashes, por=True,
                                     **self.bounds)
            t0 = time.perf_counter()
            r = pk.explorer.explore(cfg, check=False, dedup="history")
            explore_s += time.perf_counter() - t0
            hists = r.histories()
            counts["explorer.states"] += r.states
            counts["explorer.transitions"] += r.transitions
            counts["explorer.histories"] += len(hists)
            h.update(repr((impl, model, txns, locs, crashes)).encode())
            for recs in hists:
                h.update(repr(recs).encode())
                h.update(b"\n")
                pool.append((txns, locs, recs))
        return pool, dict(counts), explore_s, h.hexdigest()

    def setup(self, pk, seed):
        pool, counts, explore_s, digest = self.build_pool(pk)
        self.builds.append((counts, digest))
        # the same draw as sampling the pool itself, keeping pool positions
        index = random.Random(seed).sample(range(len(pool)), self.size)
        return types.SimpleNamespace(sample=[pool[i] for i in index],
                                     index=index, counts=counts,
                                     explore_s=explore_s, digest=digest)

    @staticmethod
    def decide_all(pk, sample, clock=time.perf_counter):
        """Decide every history of the sample; per-history (start, seconds)
        by `clock`, and outcomes: (spec accepts, dDO accepts), or the name
        of the exception raised."""
        events_of_records = pk.histories.events_of_records
        accepts_history = pk.refspec.accepts_history
        check_history_ddo = pk.opacity.check_history_ddo
        lat = []
        outcomes = []
        for txns, locs, recs in sample:
            t0 = clock()
            try:
                events = events_of_records(recs)
                accepted = accepts_history(recs, txns, locs)
                opaque = check_history_ddo(events)[0]
            except Exception as e:  # a failed operation, reported below
                outcomes.append("raised " + type(e).__name__)
            else:
                outcomes.append((accepted, opaque))
            lat.append((t0, clock() - t0))
        return lat, outcomes

    def expected(self, st):
        """The outcome each sampled history must have: both oracles accept,
        except the pool histories pinned in KNOWN_FILE, which the spec
        accepts and dDO rejects."""
        with open(KNOWN_FILE) as f:
            known = set(json.load(f)[self.pin])
        return [(True, i not in known) for i in st.index]

    def check_outcomes(self, expected, passes):
        """Every pass gives the pinned outcomes; print the first that does
        not."""
        for n, outcomes in enumerate(passes):
            if outcomes != expected:
                diff = Counter((want, got) for want, got
                               in zip(expected, outcomes) if want != got)
                print("ERROR: pass %d: (pinned, got) outcomes differ: %s"
                      % (n, dict(diff)))
                return False
        return True

    def check_pool(self):
        """Every pool built in this run has the pinned digest and the same
        exact counts."""
        ok = True
        for counts, digest in self.builds:
            if digest != self.digest:
                print("ERROR: pool digest %s, expected %s"
                      % (digest, self.digest))
                ok = False
            if counts != self.builds[0][0]:
                print("ERROR: pool counts vary: %s" % self.builds)
                ok = False
        return ok

    def report(self, st, outcomes):
        """(attempted, failed) of one pass: every pass must give the same
        outcomes, so one is counted."""
        tally = Counter(outcomes)
        print("pool: %s, digest %s"
              % (json.dumps(st.counts, sort_keys=True), st.digest))
        print("outcomes of one pass of %d decisions "
              "(spec accepts, dDO accepts): %s" % (len(outcomes), dict(tally)))
        return len(outcomes), len(outcomes) - tally[(True, True)]

    def run(self, pk, st, hs, reps):
        runs = [timed(hs, self.decide_all, pk, st.sample, hs.now)
                for _ in range(reps)]
        passes = [r.out[1] for r in runs]
        attempted, failed = self.report(st, passes[0])
        correct = (self.check_outcomes(self.expected(st), passes)
                   and self.check_pool())
        return runs, lambda r: r.out[0], attempted, failed, correct

    def run_traced(self, pk, st, hs):
        u = timed(hs, self.decide_all, pk, st.sample)
        with LayerTracer() as tr:
            tr.instrument_modules(pk)
            _pool, counts_t, _e, digest_t = self.build_pool(pk)
            self.builds.append((counts_t, digest_t))
            t = timed(hs, self.decide_all, pk, st.sample)
        out_u, out_t = u.out[1], t.out[1]
        wall_u, wall_t = u.end - u.start, t.end - t.start
        attempted, failed = self.report(st, out_t)
        if counts_t != st.counts:
            print("ERROR: traced pool counts %s differ from untraced %s"
                  % (counts_t, st.counts))
        rejects = sum(1 for k in out_t if isinstance(k, tuple) and not k[1])
        metrics = layer_metrics(tr, st.counts, st.explore_s, wall_t / wall_u,
                                rejects=rejects)
        correct = (self.check_outcomes(self.expected(st), [out_u, out_t])
                   and counts_t == st.counts and self.check_pool())
        return tr, metrics, attempted, failed, correct


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric prefix, tracer layers whose calls and self time it sums)
LAYERS = (
    ("explorer", ("explorer",)),
    ("explorer.fingerprint", ("explorer.pickle", "explorer.blake2b")),
    ("engine.successors", ("engine.successors",)),
    ("engine.crash_machine", ("engine.crash_machine",)),
    ("pmdk.recovery", ("pmdk.recovery",)),
    ("pmdk.steps", ("pmdk.steps",)),
    ("stm.steps", ("stm.steps",)),
    ("pmem", None),  # every pmem.* method
    ("refspec.advance_frontier", ("refspec.advance_frontier",)),
    ("refspec.accepts_history", ("refspec.accepts_history",)),
    ("histories.events_of_records", ("histories.events_of_records",)),
    ("opacity.check_history_ddo", ("opacity.check_history_ddo",)),
    ("opacity.find_witness", ("opacity.find_witness",)),
    ("opacity.graph_check", ("opacity.graph_check",)),
)


def layer_metrics(tr, counts, explore_s, overhead, rejects):
    """Per-layer metrics: exact counts from the untraced work, calls and
    self time from the tracer.  `explore_s` is the untraced time the
    counted states took, `overhead` the traced over untraced time of the
    repetition run both ways, `rejects` the dDO rejections traced."""
    totals = tr.totals()
    m = {}
    for name in ("explorer.states", "explorer.transitions",
                 "explorer.histories"):
        m[name] = (counts[name], "count")
    m["explorer.new_state_ratio"] = (
        counts["explorer.states"] / max(1, counts["explorer.transitions"]),
        "ratio")
    m["explorer.states_per_s"] = (counts["explorer.states"] / explore_s,
                                  "1/s")
    for prefix, layers in LAYERS:
        if layers is None:
            layers = [l for l in totals if l.startswith(prefix + ".")]
        # one blake2b call per fingerprint; pickle.dumps adds only time
        calls = sum(totals.get(l, (0, 0.0))[0] for l in layers
                    if l != "explorer.pickle")
        self_s = sum(totals.get(l, (0, 0.0))[1] for l in layers)
        if prefix != "explorer":
            m[prefix + ".calls"] = (calls, "count")
        m[prefix + ".self_s"] = (self_s, "s")
    m["pmem.propagate.calls"] = (sum(
        c for l, (c, _s) in totals.items()
        if l.startswith("pmem.propagate")), "count")
    m["pmem.crash_nvm_candidates.calls"] = (
        totals.get("pmem.crash_nvm_candidates", (0, 0.0))[0], "count")
    checks = m.pop("opacity.graph_check.calls")[0]
    m["opacity.graph_checks"] = (checks, "count")
    m["opacity.witness_hit_ratio"] = (
        tr.hits.get("opacity.find_witness", 0) / checks if checks else 0.0,
        "ratio")
    m["opacity.rejects"] = (rejects, "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def write_trace(args, tr, metrics):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                        % (args.workload, args.seed))
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tr.table(),
                   "metrics": {k: v for k, (v, _u) in metrics.items()}},
                  f, indent=1)
    print("per-(layer, parent) spans written to %s"
          % os.path.relpath(path, ROOT))


def set_up(wl, args, hs, n):
    """Set up n times, each from an empty heap; the last set-up's package
    and state, and the (start, end) of each.  The first is timed from the
    first line of run.py, the others from just before the import."""
    spans = []
    for i in range(n):
        pk = state = None
        gc.collect()
        start = hs.now() if i else T_START
        pk = load_package()
        state = wl.setup(pk, args.seed)
        spans.append((start, hs.now()))
    return pk, state, spans


def run(args):
    if args.workload in UPPER:
        wl = Upper(args.workload, args.tiny)
    else:
        wl = DdoOracles(args.tiny)
    setups, rep_s = RUNS[args.workload]
    hs = HostSpeed()
    if args.trace:  # the tracer's spans are not scaled: no sampling
        pk, state, _spans = set_up(wl, args, hs, 1)
        print_workload(args)
        tr, metrics, attempted, failed, correct = wl.run_traced(pk, state, hs)
        write_trace(args, tr, metrics)
    else:
        reps = max(MIN_REPS, round(args.seconds / rep_s))
        with hs:
            pk, state, spans = set_up(wl, args, hs, setups)
            print_workload(args)
            runs, latencies, attempted, failed, correct = wl.run(
                pk, state, hs, reps)
        metrics = timing_metrics(hs, runs, latencies)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        setup_s = [hs.speed(a, b) * (b - a) for a, b in spans]
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        print("setup_s: median of %d scaled set-ups, first %.4f s, "
              "fastest %.4f s" % (len(setup_s), setup_s[0], min(setup_s)))
    print("failed_share: %d of %d operations (%.4f)"
          % (failed, attempted, failed / attempted))
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def print_workload(args):
    print("workload %s, seed %d (%s)" % (args.workload, args.seed,
          "ignored: deterministic" if args.workload in UPPER else "sample"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(UPPER) + ["ddo-oracles"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test bounds (see smoke.py)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except PackageMissing as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
