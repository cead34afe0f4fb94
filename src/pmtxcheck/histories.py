"""Transactional events, histories, and one step over a history's facts.

An event is ``Ev(eid, tid, txid, kind, loc, val)`` with kind one of:

* ``B`` begin, ``A`` abort, ``M`` alloc (yields loc, initialised to 0),
  ``R`` read, ``W`` write, ``C`` commit (start of the commit phase),
  ``S`` success (committed), ``X`` crash marker (tid/txid are None).

A history is a tuple of events in total (temporal) order.  Histories are
extracted from explorer runs as inv/res/crash records; ``events_of_records``
maps each record by one rule, ``event_of_record`` (responses plus commit
invocations become events, threads and transactions are conflated).

Every fact a check reads off a history is kept by one step,
``advance(facts, e)``, from ``EMPTY``, the facts of the empty history.  The
facts are a tuple ``(ctx, events, era, bad, wf)``:

* ``ctx`` is what the axiom core of ``opacity`` reads: ``(tx, tid, kind,
  status, clo)``, the txid, thread id and kind of each event of the
  markerless history by position, each transaction's status, and client
  order as (txid, txid) pairs.  Positions are eids, so a is po-before b
  when tid[a] == tid[b] and a < b;
* ``events`` is the markerless history, eids renumbered to positions, and
  ``era`` the number of crash markers;
* ``bad`` the well-formedness clauses found so far and ``wf`` the state
  that finds them (``advance``).  Every clause but two is found as the
  events arrive; live-last and alloc-once need final statuses, and
  ``wf_clauses`` decides them.

A transaction's status is success if it has an ``S``, else aborted if it
has an ``A``, else commit-pending if it has a ``C``, else pending.  Client
order has tx1 -> tx2 when tx1 ended before tx2 began.

The facts are a value: a step builds new tuples, replaces rather than
changes a dict or set, and shares every part it leaves alone, so the facts
of a prefix can be advanced along any number of continuations, as a history
trie or an enumeration of spec histories does.  They are plain tuples, not
NamedTuples, because a step builds three per event and a NamedTuple costs
several times as much to build.  ``fold`` advances ``EMPTY`` along a
history; ``wf_violations``, ``txn_statuses`` and ``client_order`` read its
result.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Optional


class Ev(NamedTuple):
    eid: int
    tid: Optional[int]
    txid: Optional[int]
    kind: str
    loc: Optional[int] = None
    val: Optional[int] = None


CRASH = "X"


def crash_marker(eid):
    return Ev(eid, None, None, CRASH)


# (record kind, op) -> kind of the event the record leaves; a crash record
# has no op, and rec[:3:2] keys it by its kind alone
_EVENT = {("inv", "commit"): "C", ("res", "begin"): "B",
          ("res", "alloc"): "M", ("res", "read"): "R", ("res", "write"): "W",
          ("res", "commit"): "S", ("res", "abort"): "A", ("crash",): CRASH}

# Ev from a tuple of its fields, skipping the NamedTuple's Python __new__
_ev = tuple.__new__


def event_of_record(rec, eid):
    """The event numbered `eid` that explorer record `rec` leaves, or None.
    Responses, commit invocations and crashes leave one; fault notes and
    all other invocations none."""
    k = _EVENT.get(rec[:3:2])
    if k is None:
        if rec[0] == "res":
            raise ValueError("unknown op in record: %r" % (rec,))
        return None
    if k == CRASH:
        return _ev(Ev, (eid, None, None, CRASH, None, None))
    # an allocation's response carries no value: it is initialised to 0
    t = rec[1]
    return _ev(Ev, (eid, t, t, k, rec[3], 0 if k == "M" else rec[4]))


def events_of_records(records):
    """Map explorer inv/res/crash records to the ordered event history."""
    out = []
    for rec in records:
        e = event_of_record(rec, len(out))
        if e is not None:
            out.append(e)
    return tuple(out)


WF_CLAUSES = ("wf:event-ids", "wf:same-thread", "wf:contiguous", "wf:begin",
              "wf:terminal-unique", "wf:commit-tail", "wf:live-last",
              "wf:alloc-once", "wf:era-threads")

# each status's precedence, and the status each kind of event sets (any
# other kind: pending)
_RANK = {"pending": 0, "commit-pending": 1, "aborted": 2, "success": 3}
_STATUS = {"C": "commit-pending", "A": "aborted", "S": "success"}
_ENDED = ("aborted", "success")

EMPTY = (((), (), (), {}, frozenset()), (), 0, frozenset(),
         (None, {}, frozenset(), frozenset(), frozenset(), ()))


def advance(facts, e):
    """The facts of a history extended by event `e`.

    The well-formedness state ``wf`` holds ``ids``, None while every eid
    equals its position, else the eids so far; ``threads``, tid -> (era of
    its first event, its transactions, the newest of them, the txid of its
    last event, whether that event is a commit); ``committed``, (tid, txid)
    pairs with a commit; ``late``, those whose commit the thread's next
    event does not answer with the transaction's success; ``superseded``,
    transactions whose thread began another after them; and ``allocs``,
    (txid, loc) per allocation."""
    ctx, events, era, bad, wf = facts
    tx, tid, kind, status, clo = ctx
    ids, threads, committed, late, superseded, allocs = wf
    k, t, x = e.kind, e.tid, e.txid
    n = len(events)
    if ids is not None or e.eid != n + era:
        ids = ids or frozenset(range(n + era))
        if e.eid in ids:
            bad |= {"wf:event-ids"}
        ids |= {e.eid}
    if k == CRASH:
        return ctx, events, era + 1, bad, (
            ids, threads, committed, late, superseded, allocs)
    old = status.get(x)
    st = _STATUS.get(k, "pending")
    if old is None or _RANK[st] > _RANK[old]:
        status = {**status, x: st}
    if (k == "B") != (old is None):   # a begin is first, and only first
        bad |= {"wf:begin"}
    if old is not None and old != "pending":
        if k == "C" or old in _ENDED:
            bad |= {"wf:terminal-unique"}
        if k != "A" and k != "S" and (t, x) in committed:
            bad |= {"wf:commit-tail"}
    t_era, txs, newest, last, after_commit = (
        threads.get(t) or (era, frozenset(), None, None, False))
    if t_era != era:
        bad |= {"wf:era-threads"}
    if x != last:
        if x in txs:
            bad |= {"wf:contiguous"}
        else:
            if old is not None:     # x has an event on another thread
                bad |= {"wf:same-thread"}
            if newest is not None:
                superseded |= {newest}
            txs, newest = txs | {x}, x
    if after_commit and (k != "S" or x != last):
        late |= {(t, last)}
    if x != last or after_commit or k == "C":
        threads = {**threads, t: (t_era, txs, newest, x, k == "C")}
    if k == "B":
        clo = clo.union([(u, x) for u, s in status.items()
                         if s in _ENDED and u != x])
    elif k == "C":
        committed |= {(t, x)}
    elif k == "S" and (t, x) in late:
        bad |= {"wf:commit-tail"}
    elif k == "M":
        allocs += ((x, e.loc),)
    if e.eid != n:
        e = e._replace(eid=n)
    return ((tx + (x,), tid + (t,), kind + (k,), status, clo),
            events + (e,), era, bad,
            (ids, threads, committed, late, superseded, allocs))


def wf_clauses(facts):
    """The well-formedness clauses a history violates, in ``WF_CLAUSES``
    order, from its facts.

    Clauses: event ids are unique; same-transaction events share a thread
    and form a contiguous block; exactly one begin per transaction, first in
    its transaction; at most one abort/commit/success, with abort and success
    last; after a commit only abort or success, and success immediately
    after its commit; per thread at most one pending or commit-pending
    transaction, which is the thread's last; each location allocated at most
    once across successful transactions; thread ids are not reused across
    crash markers.  Crash markers have no thread or transaction.

    The step finds every clause but two as it goes; the two that need final
    statuses, live-last and alloc-once, are decided here."""
    ctx, _events, _era, bad, wf = facts
    status = ctx[3]
    _ids, _threads, _committed, _late, superseded, allocs = wf
    if any(status[x] not in _ENDED for x in superseded):
        bad |= {"wf:live-last"}
    locs = [loc for x, loc in allocs if status[x] == "success"]
    if len(set(locs)) < len(locs):
        bad |= {"wf:alloc-once"}
    return [c for c in WF_CLAUSES if c in bad]


def fold(events):
    """The facts of a history."""
    return reduce(advance, events, EMPTY)


def wf_violations(events):
    """The well-formedness clauses `events` violate (``wf_clauses``)."""
    return wf_clauses(fold(events))


def txn_statuses(events):
    """txid -> 'pending' | 'commit-pending' | 'aborted' | 'success'."""
    return dict(fold(events)[0][3])


def client_order(events):
    """Real-time precedence between transactions: tx1 -> tx2 when tx1's
    terminal (abort/success) event comes before tx2's begin event."""
    return fold(events)[0][4]
