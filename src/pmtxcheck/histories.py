"""Transactional events, histories and well-formedness checks.

An event is ``Ev(eid, tid, txid, kind, loc, val)`` with kind one of:

* ``B`` begin, ``A`` abort, ``M`` alloc (yields loc, initialised to 0),
  ``R`` read, ``W`` write, ``C`` commit (start of the commit phase),
  ``S`` success (committed), ``X`` crash marker (tid/txid are None).

A history is a tuple of events in total (temporal) order.  Histories are
extracted from explorer runs as inv/res/crash records; ``events_of_records``
performs that mapping (responses plus commit invocations become events,
threads and transactions are conflated).
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Ev(NamedTuple):
    eid: int
    tid: Optional[int]
    txid: Optional[int]
    kind: str
    loc: Optional[int] = None
    val: Optional[int] = None


EVENT_KINDS = ("B", "A", "M", "R", "W", "C", "S")
CRASH = "X"


def crash_marker(eid):
    return Ev(eid, None, None, CRASH)


def events_of_records(records):
    """Map explorer inv/res/crash records to the ordered event history.

    Keeps responses, commit invocations and crash markers; fault notes and
    all other invocations are dropped.
    """
    out = []
    for rec in records:
        kind = rec[0]
        if kind == "crash":
            out.append(crash_marker(len(out)))
            continue
        if kind == "fault":
            continue
        _k, txid, op = rec[0], rec[1], rec[2]
        loc = rec[3]
        val = rec[4]
        if kind == "inv":
            if op == "commit":
                out.append(Ev(len(out), txid, txid, "C"))
            continue
        if op == "begin":
            out.append(Ev(len(out), txid, txid, "B"))
        elif op == "alloc":
            out.append(Ev(len(out), txid, txid, "M", loc, 0))
        elif op == "read":
            out.append(Ev(len(out), txid, txid, "R", loc, val))
        elif op == "write":
            out.append(Ev(len(out), txid, txid, "W", loc, val))
        elif op == "commit":
            out.append(Ev(len(out), txid, txid, "S"))
        elif op == "abort":
            out.append(Ev(len(out), txid, txid, "A"))
        else:
            raise ValueError("unknown op in record: %r" % (rec,))
    return tuple(out)


def strip_crash_markers(events):
    """The history without crash markers, eids renumbered to positions; a
    history that already is one is returned as it is."""
    if all(e.eid == i and e.kind != CRASH for i, e in enumerate(events)):
        return events
    return tuple(e._replace(eid=i)
                 for i, e in enumerate(e for e in events if e.kind != CRASH))


def txn_statuses(events):
    """txid -> 'pending' | 'commit-pending' | 'aborted' | 'success'."""
    kinds = {}
    for e in events:
        if e.txid is not None:
            kinds[e.txid] = kinds.get(e.txid, "") + e.kind
    return {tx: "success" if "S" in ks else "aborted" if "A" in ks
            else "commit-pending" if "C" in ks else "pending"
            for tx, ks in kinds.items()}


def client_order(events):
    """Real-time precedence between transactions: tx1 -> tx2 when tx1's
    terminal (abort/success) event comes before tx2's begin event."""
    clo = set()
    terminals = [e for e in events if e.kind in ("A", "S")]
    begins = [e for e in events if e.kind == "B"]
    for t in terminals:
        for b in begins:
            if t.eid < b.eid and t.txid != b.txid:
                clo.add((t.txid, b.txid))
    return frozenset(clo)


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

WF_CLAUSES = ("wf:event-ids", "wf:same-thread", "wf:contiguous", "wf:begin",
              "wf:terminal-unique", "wf:commit-tail", "wf:live-last",
              "wf:alloc-once", "wf:era-threads")


def wf_violations(events):
    """Check history well-formedness; returns the violated clause names in
    ``WF_CLAUSES`` order.

    Clauses: event ids are unique; same-transaction events share a thread
    and form a contiguous block; exactly one begin per transaction, first in
    its transaction; at most one abort/commit/success, with abort and success
    last; after a commit only abort or success, and success immediately
    after its commit; per thread at most one pending or commit-pending
    transaction, which is the thread's last; each location allocated at most
    once across successful transactions; thread ids are not reused across
    crash markers.  Crash markers have no thread or transaction.

    One pass over the events keeps per transaction its thread and kinds so
    far, per thread its era, its transactions, the last one it began and its
    last event.  The two clauses that need final statuses (live-last,
    alloc-once) are decided from that state after the pass.
    """
    bad, eids, kinds, owner, threads, allocs, era = (set(), set(), {}, {},
                                                     {}, [], 0)
    # (tid, txid) pairs with a commit, and with a commit that the thread's
    # next event does not answer with the transaction's success
    committed, late = set(), set()
    superseded = set()  # txids whose thread began another after them
    for e in events:
        if e.eid in eids:
            bad.add("wf:event-ids")
        eids.add(e.eid)
        k, tid, tx = e.kind, e.tid, e.txid
        if k == CRASH:
            era += 1
            continue
        ks = kinds.get(tx)
        if ks is None:
            ks = ""
            owner[tx] = tid
            if k != "B":
                bad.add("wf:begin")
        else:
            if owner[tx] != tid:
                bad.add("wf:same-thread")
            if k == "B":        # a second begin, or the first is not first
                bad.add("wf:begin")
            if "A" in ks or "S" in ks or (k == "C" and "C" in ks):
                bad.add("wf:terminal-unique")
            if "C" in ks and k not in "AS" and (tid, tx) in committed:
                bad.add("wf:commit-tail")
        kinds[tx] = ks + k
        th = threads.get(tid)
        if th is None:      # [era, transactions, newest, last event]
            threads[tid] = [era, {tx}, tx, e]
        else:
            t_era, txs, newest, prev = th
            if t_era != era:
                bad.add("wf:era-threads")
            if tx != prev.txid:
                if tx in txs:
                    bad.add("wf:contiguous")
                else:
                    txs.add(tx)
                    superseded.add(newest)
                    th[2] = tx
            if prev.kind == "C" and (k != "S" or tx != prev.txid):
                late.add((tid, prev.txid))
            th[3] = e
        if k == "C":
            committed.add((tid, tx))
        elif k == "S" and (tid, tx) in late:
            bad.add("wf:commit-tail")
        elif k == "M":
            allocs.append((tx, e.loc))
    if any("A" not in kinds[tx] and "S" not in kinds[tx] for tx in superseded):
        bad.add("wf:live-last")
    locs = [loc for tx, loc in allocs if "S" in kinds[tx]]
    if len(set(locs)) < len(locs):
        bad.add("wf:alloc-once")
    return [c for c in WF_CLAUSES if c in bad]


def check_wellformed(events):
    """True plus [] when well-formed, else False plus violation names."""
    bad = wf_violations(events)
    return (not bad, bad)
