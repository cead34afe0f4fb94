"""Opacity, dynamic opacity and serializability over execution graphs.

An execution graph couples an event set with program order (per thread),
client order (between transactions), a reads-from relation (total and
functional on reads, value- and location-matching) and a per-location
modification order over writes and allocations.  One axiom core,
``_violation``, checks a candidate (rf, mo) against a history's facts
(``_ctx``: txid, thread and kind per event, each transaction's status,
client order) and names the first axiom violated, in this order:

* ``vis-rf``: every transaction read from by another is visible, i.e. it
  succeeded or is commit-pending and read from (``_vis``).
* ``int``: intra-transaction rf, mo and rb edges follow program order.
* ``ext``: client order, lifted rf, lifted mo and lifted rb-into-visible
  form an acyclic relation on transactions.
* ``dyn-alloc`` (dynamic opacity only): every visible write is mo-preceded
  by a visible allocation of its location.

The graph-level checks build the facts from a ``Graph`` once;
serializability is the core on all-successful input, where every
transaction is visible.  History-level checks need a witness (rf, mo) for
every prefix: ``history_opaque`` advances the facts event by event, and each
prefix first extends the witness of the one before it (revalidate it,
insert the new write or allocation into mo, or pick the new read's source)
and only when that fails runs the complete search ``find_witness`` (every rf
choice times every po-respecting mo order).  No candidate builds a graph.
Durable opacity first erases crash markers.  Allocations count as writes of
0 for rf and mo purposes.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple

from .histories import (CRASH, client_order, strip_crash_markers,
                        txn_statuses, wf_violations)


class Graph(NamedTuple):
    events: tuple            # Ev tuples, no crash markers
    po: dict                 # tid -> tuple of eids in thread order
    rf: dict                 # read eid -> write/alloc eid
    mo: dict                 # loc -> tuple of write/alloc eids in order
    clo: frozenset           # (txid, txid) pairs

    def ev(self, eid):
        return self.events[eid]


def graph_from_events(events, rf, mo, clo=None):
    """Build a Graph from a totally ordered (markerless) event history plus
    chosen rf and mo; eids must equal positions."""
    po = {}
    for e in events:
        po.setdefault(e.tid, []).append(e.eid)
    if clo is None:
        clo = client_order(events)
    return Graph(tuple(events), {t: tuple(v) for t, v in po.items()},
                 dict(rf), {l: tuple(v) for l, v in mo.items()}, clo)


def _ctx(events, status, clo):
    """A history's facts for the axiom core: (tx, tid, kind, status, clo),
    the txid, thread id and kind of each eid, txid -> status as in
    ``txn_statuses``, and client order as (txid, txid) pairs.  Event ids
    are positions, so a is po-before b when tid[a] == tid[b] and a < b.
    A tuple, not a class: perfbench imports the package afresh at each
    set-up, and a NamedTuple class costs set-up time and memory there."""
    return ([e.txid for e in events], [e.tid for e in events],
            [e.kind for e in events], status, clo)


def _vis(status, tx, rf):
    """Successful transactions plus commit-pending ones read externally."""
    vis = {t for t, st in status.items() if st == "success"}
    for r, w in rf.items():
        if tx[w] != tx[r] and status.get(tx[w]) == "commit-pending":
            vis.add(tx[w])
    return vis


def _cyclic(edges):
    """Whether a set of (a, b) pairs forms a cyclic digraph: peel off edges
    leaving nodes nothing enters until no edge goes."""
    while edges:
        heads = {b for _a, b in edges}
        rest = {(a, b) for a, b in edges if a in heads}
        if len(rest) == len(edges):
            return True
        edges = rest
    return False


def _violation(ctx, rf, mo, dynamic):
    """The first axiom (rf, mo) violates on ctx's history, in the order
    vis-rf, int, ext, dyn-alloc (the last only if `dynamic`); else None."""
    tx, tid, kind, status, clo = ctx
    vis = _vis(status, tx, rf)
    # ext: clo plus lifted rf, mo and rb-into-vis; self-loops never count
    edges = {(a, b) for a, b in clo if a != b}
    why = None
    for r, w in rf.items():
        if tx[w] != tx[r]:
            if tx[w] not in vis:
                return "vis-rf"
            edges.add((tx[w], tx[r]))
        elif not (tid[w] == tid[r] and w < r):  # po-before
            why = "int"
    if why:
        return why
    pos = {}
    for seq in mo.values():
        for i, a in enumerate(seq):
            pos[a] = seq, i
            for b in seq[i + 1:]:
                if tx[a] != tx[b]:
                    edges.add((tx[a], tx[b]))
                elif not (tid[a] == tid[b] and a < b):
                    return "int"
    for r, w in rf.items():  # rb = rf^-1 ; mo
        if w in pos:
            seq, i = pos[w]
            for b in seq[i + 1:]:
                if tx[r] != tx[b]:
                    if tx[b] in vis:
                        edges.add((tx[r], tx[b]))
                elif not (tid[r] == tid[b] and r < b):
                    return "int"
    if _cyclic(edges):
        return "ext"
    if dynamic:              # visible writes need a visible alloc mo-before
        for seq in mo.values():
            alloc = False
            for e in seq:
                if tx[e] in vis:
                    if kind[e] == "M":
                        alloc = True
                    elif kind[e] == "W" and not alloc:
                        return "dyn-alloc"
    return None


def _graph_violation(g, dynamic):
    ctx = _ctx(g.events, txn_statuses(g.events), g.clo)
    return _violation(ctx, g.rf, g.mo, dynamic)


def check_opacity_execution(g):
    """(opaque?, violated axiom name or None)."""
    why = _graph_violation(g, False)
    return why is None, why


def check_dynamic_opacity_execution(g):
    """Opacity plus: visible writes are mo-preceded by a visible alloc."""
    why = _graph_violation(g, True)
    return why is None, why


def check_serializability_execution(g):
    """Both SER axioms; input must contain only successful transactions,
    so every transaction is visible."""
    statuses = txn_statuses(g.events)
    if any(st != "success" for st in statuses.values()):
        raise ValueError("serializability requires all transactions complete")
    why = _graph_violation(g, False)
    return why is None, why and "ser-" + why


# ---------------------------------------------------------------------------
# History-level checks: existential (rf, mo) search per prefix
# ---------------------------------------------------------------------------

class Witness(NamedTuple):
    rf: dict
    mo: dict


def _sources(events, r):
    """Reads-from candidates of read `r`: same-location writes of its value
    and, when it read 0, same-location allocations."""
    return [w.eid for w in events if w.loc == r.loc
            and ((w.kind == "W" and w.val == r.val)
                 or (w.kind == "M" and r.val == 0))]


def _mo_orders(ctx, loc_events):
    """Candidate per-location orders: permutations respecting intra-txn po.
    ``permutations`` yields event order (the natural witness) first."""
    tx, tid = ctx[:2]
    return [perm for perm in permutations(loc_events)
            if all(tx[a] != tx[b] or (tid[a] == tid[b] and a < b)
                   for i, a in enumerate(perm) for b in perm[i + 1:])]


def find_witness(events, dynamic=True, ctx=None):
    """Search rf and mo making the (markerless) history opaque; None if no
    witness exists.  `ctx` holds the history's facts (built from `events`
    when None).  Candidate mo orders are filtered per location and rf
    choices by the core on rf alone, then combined with a global check."""
    if ctx is None:
        ctx = _ctx(events, txn_statuses(events), client_order(events))
    cands = [(e.eid, _sources(events, e)) for e in events if e.kind == "R"]
    if not all(opts for _eid, opts in cands):
        return None

    locs = sorted({e.loc for e in events if e.kind in ("W", "M")})
    per_loc = [_mo_orders(ctx, [e.eid for e in events
                                if e.kind in ("W", "M") and e.loc == l])
               for l in locs]
    if not all(per_loc):
        return None

    read_ids = [eid for eid, _opts in cands]
    for rf_choice in product(*[opts for _eid, opts in cands]):
        rf = dict(zip(read_ids, rf_choice))
        if _violation(ctx, rf, {}, False):   # no mo order can repair it
            continue
        for mo_choice in product(*per_loc):
            mo = dict(zip(locs, mo_choice))
            if _violation(ctx, rf, mo, dynamic) is None:
                return Witness(rf, mo)
    return None


def _extend(events, w, ctx, dynamic):
    """Extend `w`, a witness of events[:-1], to one of `events`, or None.
    A status event only revalidates `w`; a write or allocation tries every
    insertion point in its location's mo, last first; a read tries every
    source."""
    e = events[-1]
    if e.kind in ("W", "M"):
        seq = w.mo.get(e.loc, ())
        cands = (Witness(w.rf, {**w.mo, e.loc: seq[:i] + (e.eid,) + seq[i:]})
                 for i in range(len(seq), -1, -1))
    elif e.kind == "R":
        cands = (Witness({**w.rf, e.eid: src}, w.mo)
                 for src in _sources(events, e))
    else:
        cands = (w,)
    for c in cands:
        if _violation(ctx, c.rf, c.mo, dynamic) is None:
            return c
    return None


_STATUS = {"B": "pending", "C": "commit-pending", "A": "aborted",
           "S": "success"}


def history_opaque(events, dynamic=True):
    """Prefix-closed history opacity: every prefix must admit a witness.

    The history's facts (``_ctx``) are read once and advanced one event at a
    time: a status event updates its transaction's status and a begin adds
    client order from every ended transaction.  Each prefix first tries to
    extend the previous prefix's witness and runs the complete search
    ``find_witness`` only when no extension works, so every prefix gets the
    verdict of a search from scratch.  Input must be crash-marker free.
    Returns (ok, failing_prefix_len, witnesses) where witnesses maps prefix
    length -> Witness.
    """
    if any(e.kind == CRASH for e in events):
        raise ValueError("history_opaque expects a crashless history")
    bad = wf_violations(events)
    if bad:
        raise ValueError("ill-formed history: %s" % ", ".join(bad))
    status, clo, ended = {}, set(), []
    ctx = _ctx(events, status, clo)
    w = Witness({}, {})              # the empty history's only witness
    witnesses = {0: w}
    for n, e in enumerate(events, 1):
        if e.kind in _STATUS:
            status[e.txid] = _STATUS[e.kind]
        if e.kind == "B":
            clo.update((u, e.txid) for u in ended)
        elif e.kind in ("A", "S"):
            ended.append(e.txid)
        prefix = events[:n]
        w = (_extend(prefix, w, ctx, dynamic)
             or find_witness(prefix, dynamic, ctx))
        if w is None:
            return False, n, witnesses
        witnesses[n] = w
    return True, None, witnesses


def check_history_ddo(events):
    """Dynamic durable opacity of a history: erase crash markers, then
    require a dynamic-opacity witness for every prefix."""
    stripped = strip_crash_markers(events)
    return history_opaque(stripped, dynamic=True)
