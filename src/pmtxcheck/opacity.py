"""Opacity, dynamic opacity and serializability over execution graphs.

An execution graph couples an event set with program order (per thread),
client order (between transactions), a reads-from relation (total and
functional on reads, value- and location-matching) and a per-location
modification order over writes and allocations.  One axiom core,
``_violation``, checks a candidate (rf, mo) against a history's facts
(``ctx`` in ``histories``: txid, thread and kind per event, each
transaction's status, client order) and names the first axiom violated,
in this order:

* ``vis-rf``: every transaction read from by another is visible, i.e. it
  succeeded or is commit-pending and read from (``_vis``).
* ``int``: intra-transaction rf, mo and rb edges follow program order.
* ``ext``: client order, lifted rf, lifted mo and lifted rb-into-visible
  form an acyclic relation on transactions.
* ``dyn-alloc`` (dynamic opacity only): every visible write is mo-preceded
  by a visible allocation of its location.

The graph-level checks build the facts from a ``Graph`` once;
serializability is the core on all-successful input, where every
transaction is visible.

History-level checks need a witness (rf, mo) for every prefix.  dDO is one
step, ``advance(state, e)`` from ``START``, and a ``verdict`` read off the
final state; ``check_history_ddo`` folds the step over a history, and plain
opacity folds the same step with ``dynamic=False``.  The state is
``(facts, witnesses, failing)``: the history's facts
(``histories.advance``: the core's facts, the markerless history and the
well-formedness state), the witness of every prefix so far, and the first
failing prefix length or None.  It is a value, like the facts: a step
builds a new tuple and never changes a witness, so one prefix's state can
be advanced along several continuations.

Each event advances the facts.  Then, unless a prefix has failed, the event
is a crash marker or the history is already ill-formed, the new prefix
first extends the witness of the one before it (``_extend``) and only when
that fails runs the complete search ``find_witness`` (every rf choice times
every po-respecting mo order).  No candidate builds a graph, and only an
accepted one becomes a ``Witness``.  The extension runs the core only
where the new event can break the witness:

* ``B`` keeps it: the new transaction has no other event and is not
  visible, and client order only enters it, so it closes no cycle.
* ``C`` keeps it: a pending transaction read by another would already have
  failed ``vis-rf``, so the visible transactions stay the same.
* ``A`` keeps it unless another transaction reads from the aborting one
  (``vis-rf`` then fails); otherwise that transaction was not visible.
* ``S`` is checked: the transaction becomes visible, which adds rb edges
  into it and its writes' allocation duties.
* ``W`` and ``M`` try every insertion point in their location's mo, last
  first, and ``R`` every source, each checked by the core.

The verdict raises on an ill-formed history, naming every violated clause;
live-last and alloc-once, which need final statuses, are decided there.
Well-formedness sees the crash markers and the witnesses do not.
Allocations count as writes of 0 for rf and mo purposes.
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations, product
from typing import NamedTuple

from .histories import (CRASH, EMPTY, advance as advance_facts,
                        client_order, fold, txn_statuses, wf_clauses)


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


def _vis(status, lifted):
    """Successful transactions plus commit-pending ones read externally;
    `lifted` holds the (writer, reader) transactions of each external
    read."""
    vis = {t for t, st in status.items() if st == "success"}
    for w, _r in lifted:
        if status.get(w) == "commit-pending":
            vis.add(w)
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
    # one rf pass: external reads lifted to transactions, for vis and ext
    lifted = []
    why = None
    for r, w in rf.items():
        if tx[w] != tx[r]:
            lifted.append((tx[w], tx[r]))
        elif not (tid[w] == tid[r] and w < r):  # po-before
            why = "int"
    vis = _vis(status, lifted)
    for w, _r in lifted:
        if w not in vis:
            return "vis-rf"
    if why:
        return why
    # ext: clo plus lifted rf, mo and rb-into-vis; self-loops never count
    edges = set(lifted)
    if clo:
        edges.update([(a, b) for a, b in clo if a != b])
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
    if len(edges) > 1 and _cyclic(edges):     # a cycle takes two edges
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


def _graph_check(g, dynamic):
    tx, tid, kind, status, _clo = fold(g.events)[0]
    why = _violation((tx, tid, kind, status, g.clo), g.rf, g.mo, dynamic)
    return why is None, why


def check_opacity_execution(g):
    """(opaque?, violated axiom name or None)."""
    return _graph_check(g, False)


def check_dynamic_opacity_execution(g):
    """Opacity plus: visible writes are mo-preceded by a visible alloc."""
    return _graph_check(g, True)


def check_serializability_execution(g):
    """Both SER axioms; input must contain only successful transactions,
    so every transaction is visible."""
    if any(st != "success" for st in txn_statuses(g.events).values()):
        raise ValueError("serializability requires all transactions complete")
    ok, why = _graph_check(g, False)
    return ok, why and "ser-" + why


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


def find_witness(events, dynamic, ctx):
    """Search rf and mo making the (markerless) history opaque; None if no
    witness exists.  `ctx` holds the history's facts.  Rf choices are
    filtered by the core on rf alone and, under `dynamic`, by allocation:
    rf fixes vis, so a location with a visible write and no visible
    allocation fails dyn-alloc under every mo.  Only the choices left are
    combined with the candidate mo orders, filtered per location and built
    once one is needed, under a global check."""
    reads = [e.eid for e in events if e.kind == "R"]
    sources = [_sources(events, events[r]) for r in reads]
    if not all(sources):
        return None

    tx, status = ctx[0], ctx[3]
    mods = [e for e in events if e.kind in ("W", "M")]
    locs = sorted({e.loc for e in mods})
    if dynamic:   # per location, its writing and its allocating txns
        duty = {l: (set(), set()) for l in locs}
        for e in mods:
            duty[e.loc][e.kind == "M"].add(e.txid)
    per_loc = None
    for rf_choice in product(*sources):
        rf = dict(zip(reads, rf_choice))
        if _violation(ctx, rf, {}, False):   # no mo order can repair it
            continue
        if dynamic:
            vis = _vis(status, [(tx[w], tx[r]) for r, w in rf.items()
                                if tx[w] != tx[r]])
            if any(wr & vis and not al & vis for wr, al in duty.values()):
                continue
        if per_loc is None:
            per_loc = [_mo_orders(ctx, [e.eid for e in mods if e.loc == l])
                       for l in locs]
        for mo_choice in product(*per_loc):
            mo = dict(zip(locs, mo_choice))
            if _violation(ctx, rf, mo, dynamic) is None:
                return Witness(rf, mo)
    return None


def _extend(events, w, ctx, dynamic):
    """Extend `w`, a witness of events[:-1], to one of `events`, or None,
    by the rule in the module docstring.  The candidates overwrite the new
    event's entry in one copy of the relation they change."""
    e = events[-1]
    k = e.kind
    rf, mo = w
    if k == "A":
        tx = ctx[0]
        readers = {tx[r] for r, s in rf.items() if tx[s] == e.txid}
        return None if readers - {e.txid} else w
    if k == "S":
        return w if _violation(ctx, rf, mo, dynamic) is None else None
    if k == "R":
        rf = rf.copy()
        for src in _sources(events, e):
            rf[e.eid] = src
            if _violation(ctx, rf, mo, dynamic) is None:
                return Witness(rf, mo)
        return None
    seq = mo.get(e.loc, ())        # W and M
    mo = mo.copy()
    for i in range(len(seq), -1, -1):
        mo[e.loc] = seq[:i] + (e.eid,) + seq[i:]
        if _violation(ctx, rf, mo, dynamic) is None:
            return Witness(rf, mo)
    return None


# the dDO state of the empty history: its facts, its only witness, and no
# failing prefix
START = (EMPTY, (Witness({}, {}),), None)


def advance(state, e, dynamic=True):
    """The dDO state of a history extended by event `e` (the module
    docstring), with plain opacity's witnesses when not `dynamic`."""
    facts, witnesses, failing = state
    facts = advance_facts(facts, e)
    k = e.kind
    if failing is not None or k == CRASH or facts[3]:   # a clause found
        return facts, witnesses, failing
    w = witnesses[-1]
    if k != "B" and k != "C":      # which keep it without the core
        ctx, events = facts[:2]
        w = (_extend(events, w, ctx, dynamic)
             or find_witness(events, dynamic, ctx))
        if w is None:
            return facts, witnesses, len(events)
    return facts, witnesses + (w,), None


def verdict(state):
    """(ok, failing_prefix_len, witnesses) of the history `state` was
    advanced along, witnesses mapping prefix length -> Witness; ValueError
    naming every violated clause when the history is ill-formed."""
    facts, witnesses, failing = state
    bad = wf_clauses(facts)
    if bad:
        raise ValueError("ill-formed history: %s" % ", ".join(bad))
    return failing is None, failing, dict(enumerate(witnesses))


def check_history_ddo(events):
    """Dynamic durable opacity of a history, crash markers included."""
    return verdict(reduce(advance, events, START))
