"""Opacity, dynamic opacity and serializability over execution graphs.

An execution graph couples an event set with program order (per thread),
client order (between transactions), a reads-from relation (total and
functional on reads, value- and location-matching) and a per-location
modification order over writes and allocations.  The axioms checked:

* ``vis-rf``: every transaction read from by another is visible, i.e. it
  succeeded or is commit-pending and read from.
* ``int``: intra-transaction rf, mo and rb edges follow program order.
* ``ext``: client order, lifted rf, lifted mo and lifted rb-into-visible
  form an acyclic relation on transactions.

Dynamic opacity additionally requires every visible write to be mo-preceded
by a visible allocation of its location.  History-level checks need a
witness (rf, mo) for every prefix: each prefix first extends the witness of
the one before it (revalidate it, insert the new write or allocation into
mo, or pick the new read's source) and only when that fails runs the
complete search ``find_witness`` (every rf choice times every po-respecting
mo order).  Durable opacity first erases crash markers.  Allocations count
as writes of 0 for rf and mo purposes.
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


def _po_index(g):
    idx = {}
    for tid, eids in g.po.items():
        for i, eid in enumerate(eids):
            idx[eid] = (tid, i)
    return idx


def _po_before(idx, a, b):
    ta, ia = idx[a]
    tb, ib = idx[b]
    return ta == tb and ia < ib


def _mo_pos(g):
    pos = {}
    for loc, eids in g.mo.items():
        for i, eid in enumerate(eids):
            pos[eid] = (loc, i)
    return pos


def visible_txns(g):
    """Successful transactions plus commit-pending ones read externally."""
    statuses = txn_statuses(g.events)
    vis = {tx for tx, st in statuses.items() if st == "success"}
    for r, w in g.rf.items():
        wtx = g.ev(w).txid
        rtx = g.ev(r).txid
        if wtx != rtx and statuses.get(wtx) == "commit-pending":
            vis.add(wtx)
    return vis


def _rb_edges(g):
    """rb = rf^-1 ; mo  (read -> every write mo-after the one it read)."""
    mo_pos = _mo_pos(g)
    edges = []
    for r, w in g.rf.items():
        if w not in mo_pos:
            continue
        loc, i = mo_pos[w]
        for w2 in g.mo[loc][i + 1:]:
            edges.append((r, w2))
    return edges


def _txn_cycle(edges):
    """Cycle detection on a transaction-level digraph given as pairs."""
    succ = {}
    for a, b in edges:
        if a != b:
            succ.setdefault(a, set()).add(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {}
    for start in succ:
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            for nxt in it:
                c = color.get(nxt, WHITE)
                if c == GREY:
                    return True
                if c == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
            else:
                color[node] = BLACK
                stack.pop()
    return False


def _ext_edges(g, vis, restrict_rb_to_vis=True):
    """Transaction-level edges of the ext axiom relation."""
    edges = list(g.clo)
    for r, w in g.rf.items():
        wtx, rtx = g.ev(w).txid, g.ev(r).txid
        if wtx != rtx:
            edges.append((wtx, rtx))
    for eids in g.mo.values():
        for i, a in enumerate(eids):
            for b in eids[i + 1:]:
                ta, tb = g.ev(a).txid, g.ev(b).txid
                if ta != tb:
                    edges.append((ta, tb))
    for r, w2 in _rb_edges(g):
        ta, tb = g.ev(r).txid, g.ev(w2).txid
        if ta != tb and (not restrict_rb_to_vis or tb in vis):
            edges.append((ta, tb))
    return edges


def _int_ok(g):
    idx = _po_index(g)
    for r, w in g.rf.items():
        if g.ev(r).txid == g.ev(w).txid and not _po_before(idx, w, r):
            return False
    for eids in g.mo.values():
        for i, a in enumerate(eids):
            for b in eids[i + 1:]:
                if g.ev(a).txid == g.ev(b).txid and not _po_before(idx, a, b):
                    return False
    for r, w2 in _rb_edges(g):
        if g.ev(r).txid == g.ev(w2).txid and not _po_before(idx, r, w2):
            return False
    return True


def check_opacity_execution(g):
    """(opaque?, violated axiom name or None)."""
    vis = visible_txns(g)
    for r, w in g.rf.items():
        if g.ev(w).txid != g.ev(r).txid and g.ev(w).txid not in vis:
            return False, "vis-rf"
    if not _int_ok(g):
        return False, "int"
    if _txn_cycle(_ext_edges(g, vis)):
        return False, "ext"
    return True, None


def check_dynamic_opacity_execution(g):
    """Opacity plus: visible writes are mo-preceded by a visible alloc."""
    ok, why = check_opacity_execution(g)
    if not ok:
        return False, why
    vis = visible_txns(g)
    for loc, eids in g.mo.items():
        alloc_seen = False
        for eid in eids:
            e = g.ev(eid)
            if e.kind == "M" and e.txid in vis:
                alloc_seen = True
            elif e.kind == "W" and e.txid in vis and not alloc_seen:
                return False, "dyn-alloc"
    return True, None


def check_serializability_execution(g):
    """Both SER axioms; input must contain only successful transactions."""
    statuses = txn_statuses(g.events)
    if any(st != "success" for st in statuses.values()):
        raise ValueError("serializability requires all transactions complete")
    if not _int_ok(g):
        return False, "ser-int"
    if _txn_cycle(_ext_edges(g, vis=set(), restrict_rb_to_vis=False)):
        return False, "ser-ext"
    return True, None


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


def _mo_orders(events, loc_events, po_idx):
    """Candidate per-location orders: permutations respecting intra-txn po.
    ``permutations`` yields event order (the natural witness) first."""
    return [perm for perm in permutations(loc_events)
            if all(events[a].txid != events[b].txid
                   or _po_before(po_idx, a, b)
                   for i, a in enumerate(perm) for b in perm[i + 1:])]


def find_witness(events, dynamic=True):
    """Search rf and mo making the (markerless) history opaque; None if no
    witness exists.  Candidate mo orders are filtered per location, then
    combined with a global acyclicity check."""
    g0 = graph_from_events(events, {}, {})
    po_idx = _po_index(g0)
    cands = [(e.eid, _sources(events, e)) for e in events if e.kind == "R"]
    if not all(opts for _eid, opts in cands):
        return None

    locs = sorted({e.loc for e in events if e.kind in ("W", "M")})
    per_loc = [_mo_orders(events, [e.eid for e in events
                                   if e.kind in ("W", "M") and e.loc == l],
                          po_idx) for l in locs]
    if not all(per_loc):
        return None

    check = (check_dynamic_opacity_execution if dynamic
             else check_opacity_execution)
    read_ids = [eid for eid, _opts in cands]
    for rf_choice in product(*[opts for _eid, opts in cands]):
        rf = dict(zip(read_ids, rf_choice))
        vis = visible_txns(g0._replace(rf=rf))
        if not all(_po_before(po_idx, w, r)
                   if events[w].txid == events[r].txid
                   else events[w].txid in vis for r, w in rf.items()):
            continue
        for mo_choice in product(*per_loc):
            mo = dict(zip(locs, mo_choice))
            if check(g0._replace(rf=rf, mo=mo))[0]:
                return Witness(rf, mo)
    return None


def _extend(events, w, check):
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
    g = graph_from_events(events, {}, {})
    for c in cands:
        if check(g._replace(rf=c.rf, mo=c.mo))[0]:
            return c
    return None


def history_opaque(events, dynamic=True):
    """Prefix-closed history opacity: every prefix must admit a witness.

    Each prefix first tries to extend the previous prefix's witness and
    runs the complete search ``find_witness`` only when no extension works,
    so every prefix gets the verdict of a search from scratch.  Input must
    be crash-marker free.  Returns (ok, failing_prefix_len, witnesses)
    where witnesses maps prefix length -> Witness.
    """
    if any(e.kind == CRASH for e in events):
        raise ValueError("history_opaque expects a crashless history")
    bad = wf_violations(events)
    if bad:
        raise ValueError("ill-formed history: %s" % ", ".join(bad))
    check = (check_dynamic_opacity_execution if dynamic
             else check_opacity_execution)
    w = Witness({}, {})              # the empty history's only witness
    witnesses = {0: w}
    for n in range(1, len(events) + 1):
        prefix = events[:n]
        w = _extend(prefix, w, check) or find_witness(prefix, dynamic)
        if w is None:
            return False, n, witnesses
        witnesses[n] = w
    return True, None, witnesses


def check_history_ddo(events):
    """Dynamic durable opacity of a history: erase crash markers, then
    require a dynamic-opacity witness for every prefix."""
    stripped = strip_crash_markers(events)
    return history_opaque(stripped, dynamic=True)
