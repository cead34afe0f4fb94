"""Command-line front end.

Exit codes are the machine contract: 0 all checks pass, 1 a violation was
found (counterexample written when a path was given), 2 usage, budget or
trace errors (a --history file unreadable or malformed).  A budget error
is followed by the counts of the search it cut short, each labelled partial.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import explorer, pmem, stm, traces
from .fixtures import fig4_suite
from .histories import events_of_records, wf_violations
from .opacity import check_history_ddo, check_opacity_execution


def _at_least(lo):
    """An int option type that argparse rejects (exit 2) below `lo`."""
    def count(text):
        if int(text) < lo:
            raise argparse.ArgumentTypeError("must be >= %d" % lo)
        return int(text)
    return count


POSITIVE, NATURAL = _at_least(1), _at_least(0)


def _add_bounds(p):
    """The bounds both `check upper` and `check lower` pass on; `check
    lower` fixes the crashes, reductions and allocation branching."""
    p.add_argument("--impl", default="pmdk-seq", choices=stm.IMPLS)
    p.add_argument("--model", default=pmem.PSC, choices=pmem.MODELS)
    p.add_argument("--txns", type=POSITIVE, default=2)
    p.add_argument("--locs", type=POSITIVE, default=2)
    p.add_argument("--vals", type=POSITIVE, default=2)
    p.add_argument("--buf", type=POSITIVE, default=2)
    p.add_argument("--ops", type=NATURAL, default=2,
                   help="client operations per transaction")
    p.add_argument("--retry-bound", type=NATURAL, default=1)
    p.add_argument("--mutate", metavar="NAME", default=None,
                   choices=explorer.MUTATIONS,
                   help="run a registry mutation: %s"
                        % ", ".join(explorer.MUTATIONS))
    p.add_argument("--max-states", type=NATURAL,
                   default=explorer.DEFAULT_MAX_STATES)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pmtxcheck",
        description="Bounded checker for crash-consistent persistent-memory "
                    "transactions")
    sub = ap.add_subparsers(dest="command", required=True)
    chk = sub.add_parser("check", help="run a check")
    what = chk.add_subparsers(dest="what", required=True)

    upper = what.add_parser(
        "upper", help="implementation refines the spec",
        description="Check that every history of the implementation is a "
                    "trace of the spec.  A state is skipped when the same "
                    "machine, up to a renaming of transaction ids, was "
                    "explored with no more crashes used and a subset of "
                    "its spec frontier, renamed alike, so 'histories "
                    "checked' counts representative histories of the "
                    "minimal (crashes used, frontier) pairs per machine "
                    "up to txid renaming, plus every history ending in a "
                    "fault and, with --por, every history ending in a "
                    "crash after which no transaction is left to begin; "
                    "violations are real histories.  "
                    "With --emit-traces every history is explored, counted "
                    "and written.")
    _add_bounds(upper)
    upper.add_argument("--crashes", type=NATURAL, default=0)
    upper.add_argument("--por", action="store_true",
                       help="enable partial-order reductions")
    upper.add_argument("--branch-alloc", action="store_true",
                       help="allocation branches over every free location")
    upper.add_argument("--emit-traces", metavar="DIR", default=None,
                       help="write every history, one JSONL file each")
    upper.add_argument("--counterexample", metavar="PATH",
                       default="counterexample.jsonl")

    lower = what.add_parser("lower",
                            help="sequential spec histories are producible")
    _add_bounds(lower)

    opac = what.add_parser("opacity", help="history-level opacity checks")
    source = opac.add_mutually_exclusive_group(required=True)
    source.add_argument("--history", metavar="PATH")
    source.add_argument("--fixtures", choices=("fig4",),
                        help="run a built-in fixture suite")

    wf = what.add_parser("wf", help="history well-formedness")
    wf.add_argument("--history", metavar="PATH", required=True)
    return ap


def _cfg_from_args(args):
    muts = (args.mutate,) if args.mutate else ()
    return explorer.Config(
        args.impl, args.model, txns=args.txns, locs=args.locs,
        vals=args.vals, buf=args.buf, max_crashes=args.crashes,
        ops=args.ops, retry_bound=args.retry_bound,
        branch_alloc=args.branch_alloc, por=args.por, mutations=muts,
        max_states=args.max_states)


def _print_budget_error(exc):
    """The budget error, then the counts of the search it cut short."""
    res = exc.result
    print("budget error: %s" % exc)
    print("partial states explored: %d" % res.states)
    print("partial transitions:     %d" % res.transitions)
    print("partial violations:      %d" % len(res.violations))
    print("partial wall time:       %.2fs" % res.seconds)


def cmd_upper(args):
    if args.mutate == "skip-validate":
        cfg = explorer.mutation_check_config(args.mutate, por=args.por)
        print("skip-validate runs its scripted cell (%s/%s, %d txns, "
              "%d locs, %d crashes); the bound flags are ignored"
              % (cfg.impl, cfg.model, cfg.txns, cfg.locs, cfg.max_crashes))
    else:
        cfg = _cfg_from_args(args)
    # frontier dedup keeps, per machine up to txid renaming, histories of
    # the minimal (crashes used, spec frontier) pairs only; the traces are
    # the whole history set
    dedup = "history" if args.emit_traces else "frontier"
    try:
        res = explorer.check_upper(cfg, dedup=dedup)
    except explorer.BudgetExceeded as exc:
        _print_budget_error(exc)
        return 2
    print("states explored:   %d" % res.states)
    print("transitions:       %d" % res.transitions)
    print("histories checked: %d" % res.history_count())
    print("violations:        %d" % len(res.violations))
    print("wall time:         %.2fs" % res.seconds)
    if args.emit_traces:
        os.makedirs(args.emit_traces, exist_ok=True)
        for i, records in enumerate(res.histories()):
            traces.emit_trace(records,
                              os.path.join(args.emit_traces,
                                           "trace-%05d.jsonl" % i))
        print("traces written to %s" % args.emit_traces)
    if res.violations:
        shortest = min(res.violations, key=len)
        traces.emit_trace(shortest, args.counterexample)
        print("counterexample written to %s" % args.counterexample)
        return 1
    return 0


def cmd_lower(args):
    muts = (args.mutate,) if args.mutate else ()
    try:
        res = explorer.check_lower(
            args.impl, model=args.model, txns=args.txns, locs=args.locs,
            vals=args.vals, buf=args.buf, ops=args.ops,
            retry_bound=args.retry_bound, mutations=muts,
            max_states=args.max_states)
    except explorer.BudgetExceeded as exc:
        _print_budget_error(exc)
        return 2
    print("sequential histories: %d" % res.total)
    print("unproducible:         %d" % len(res.unproducible))
    print("wall time:            %.2fs" % res.seconds)
    for h in res.unproducible[:5]:
        print("  missing: %s" % (h,))
    return 0 if res.ok else 1


def cmd_opacity(args):
    if args.fixtures:
        t0 = time.monotonic()
        ok = True
        for fx in fig4_suite():
            verdict, axiom = check_opacity_execution(fx.graph)
            mark = "ok" if verdict else "not opaque (%s)" % axiom
            expected = (verdict == fx.expect_opaque
                        and axiom == fx.expect_axiom)
            ok = ok and expected
            print("fixture %s: %s%s" % (fx.name, mark,
                                        "" if expected else "  [UNEXPECTED]"))
        print("wall time: %.3fs" % (time.monotonic() - t0))
        return 0 if ok else 1
    events = events_of_records(traces.parse_trace(args.history))
    try:
        verdict, failing, _w = check_history_ddo(events)
    except ValueError as exc:   # ill-formed; the message names the clauses
        print(exc)
        return 1
    if verdict:
        print("dynamically durably opaque")
        return 0
    print("NOT dynamically durably opaque (first failing prefix: %d events)"
          % failing)
    return 1


def cmd_wf(args):
    bad = wf_violations(events_of_records(traces.parse_trace(args.history)))
    if not bad:
        print("well-formed")
        return 0
    for name in bad:
        print("violation(%s)" % name)
    return 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    commands = {"upper": cmd_upper, "lower": cmd_lower,
                "opacity": cmd_opacity, "wf": cmd_wf}
    try:
        return commands[args.what](args)
    except traces.TraceError as exc:    # a --history file
        print("trace error: %s" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
