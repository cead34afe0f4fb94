"""Opacity axioms over execution graphs and history-level witness search."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtxcheck.explorer import Config, explore
from pmtxcheck.fixtures import fig4_suite
from pmtxcheck.histories import (Ev, check_wellformed, events_of_records,
                                 strip_crash_markers, txn_statuses)
from pmtxcheck.opacity import (check_dynamic_opacity_execution,
                               check_history_ddo, check_opacity_execution,
                               check_serializability_execution,
                               find_witness, graph_from_events,
                               history_opaque)


def ev(seq):
    return tuple(Ev(i, *e) for i, e in enumerate(seq))


# ---------------------------------------------------------------------------
# litmus fixture suite
# ---------------------------------------------------------------------------

def test_fixture_verdicts():
    suite = fig4_suite()
    verdicts = {fx.name: check_opacity_execution(fx.graph) for fx in suite}
    assert verdicts["a"] == (False, "vis-rf")
    assert verdicts["b"] == (True, None)
    assert verdicts["c"] == (False, "ext")


def test_fixture_variants_share_verdicts():
    for fx in fig4_suite():
        for g in fx.variants:
            ok, _why = check_opacity_execution(g)
            assert ok == fx.expect_opaque


def test_fixture_runtime_under_a_second():
    import time
    t0 = time.monotonic()
    for fx in fig4_suite():
        check_opacity_execution(fx.graph)
        for g in fx.variants:
            check_opacity_execution(g)
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# graph-level checks
# ---------------------------------------------------------------------------

def test_single_committed_txn_serializable():
    events = ev([(1, 1, "M", 0, 0), (1, 1, "W", 0, 1), (1, 1, "C"),
                 (1, 1, "S")])
    events = ev([(1, 1, "B"), (1, 1, "M", 0, 0), (1, 1, "W", 0, 1),
                 (1, 1, "C"), (1, 1, "S")])
    g = graph_from_events(events, rf={}, mo={0: [1, 2]})
    assert check_serializability_execution(g) == (True, None)


def _write_skew():
    # both read the other's location's initial write, then write their own:
    # a reads-before cycle between the two committed transactions
    events = ev([
        (0, 0, "B"), (0, 0, "M", 0, 0), (0, 0, "M", 1, 0),
        (0, 0, "C"), (0, 0, "S"),
        (1, 1, "B"), (1, 1, "R", 0, 0), (1, 1, "W", 1, 1),
        (1, 1, "C"), (1, 1, "S"),
        (2, 2, "B"), (2, 2, "R", 1, 0), (2, 2, "W", 0, 1),
        (2, 2, "C"), (2, 2, "S"),
    ])
    rf = {6: 1, 11: 2}           # each reads the allocation's initial 0
    mo = {0: [1, 12], 1: [2, 7]}
    return events, rf, mo


def test_write_skew_not_serializable():
    events, rf, mo = _write_skew()
    g = graph_from_events(events, rf, mo)
    ok, why = check_serializability_execution(g)
    assert not ok and why == "ser-ext"


def test_write_skew_confirmed_by_serialization_search():
    # brute-force oracle: no total order of the three transactions explains
    # both reads (each read of 0 must precede the other's write)
    events, rf, mo = _write_skew()
    txns = [0, 1, 2]
    explained = False
    for order in itertools.permutations(txns):
        mem = {0: None, 1: None}
        ok = True
        for tx in order:
            if tx == 0:
                mem[0], mem[1] = 0, 0
            elif tx == 1:
                ok = ok and mem[0] == 0
                mem[1] = 1
            else:
                ok = ok and mem[1] == 0
                mem[0] = 1
        if ok:
            explained = True
    assert not explained


def test_serializability_rejects_incomplete_input():
    events = ev([(1, 1, "B"), (1, 1, "W", 0, 1)])
    g = graph_from_events(events, rf={}, mo={0: [1]})
    with pytest.raises(ValueError):
        check_serializability_execution(g)


def test_dynamic_opacity_needs_visible_alloc_before_write():
    # successful writer, location never allocated anywhere
    events = ev([(1, 1, "B"), (1, 1, "W", 0, 1), (1, 1, "C"), (1, 1, "S")])
    g = graph_from_events(events, rf={}, mo={0: [1]})
    assert check_opacity_execution(g) == (True, None)
    ok, why = check_dynamic_opacity_execution(g)
    assert not ok and why == "dyn-alloc"


def test_dynamic_opacity_alloc_then_write_in_one_txn():
    events = ev([(1, 1, "B"), (1, 1, "M", 0, 0), (1, 1, "W", 0, 1),
                 (1, 1, "C"), (1, 1, "S")])
    g = graph_from_events(events, rf={}, mo={0: [1, 2]})
    assert check_dynamic_opacity_execution(g) == (True, None)


def test_dynamic_condition_vacuous_for_invisible_txn():
    # an aborted writer of an unallocated location, never read from
    events = ev([(1, 1, "B"), (1, 1, "W", 0, 1), (1, 1, "A")])
    g = graph_from_events(events, rf={}, mo={0: [1]})
    assert check_dynamic_opacity_execution(g) == (True, None)


def test_vis_rf_reported_before_int():
    # T1 reads its own later write (int), T3 reads pending T2 (vis-rf)
    events = ev([(1, 1, "B"), (1, 1, "R", 0, 1), (1, 1, "W", 0, 1),
                 (2, 2, "B"), (2, 2, "W", 0, 1), (3, 3, "B"),
                 (3, 3, "R", 0, 1)])
    g = graph_from_events(events, rf={1: 2, 6: 4}, mo={0: [2, 4]})
    assert check_opacity_execution(g) == (False, "vis-rf")
    g = graph_from_events(events, rf={1: 2}, mo={0: [2, 4]})
    assert check_opacity_execution(g) == (False, "int")


def test_reads_before_follows_program_order():
    # T1 writes 1, then reads the allocation's 0 from before its own write:
    # the rb edge from the read to T1's write points against po
    events = ev([(0, 0, "B"), (0, 0, "M", 0, 0), (0, 0, "C"), (0, 0, "S"),
                 (1, 1, "B"), (1, 1, "W", 0, 1), (1, 1, "R", 0, 0)])
    g = graph_from_events(events, rf={6: 1}, mo={0: [1, 5]})
    assert check_opacity_execution(g) == (False, "int")


def test_client_order_closes_a_stale_read_cycle():
    # T2 begins after T1 committed 1 yet reads the allocation's 0: rb
    # T2 -> T1 against client order T1 -> T2
    events = ev([(0, 0, "B"), (0, 0, "M", 0, 0), (0, 0, "C"), (0, 0, "S"),
                 (1, 1, "B"), (1, 1, "W", 0, 1), (1, 1, "C"), (1, 1, "S"),
                 (2, 2, "B"), (2, 2, "R", 0, 0)])
    g = graph_from_events(events, rf={9: 1}, mo={0: [1, 5]})
    assert check_opacity_execution(g) == (False, "ext")
    assert check_opacity_execution(g._replace(clo=frozenset())) == (True,
                                                                     None)
    assert history_opaque(events)[:2] == (False, 10)


# ---------------------------------------------------------------------------
# history-level checks
# ---------------------------------------------------------------------------

def records_committed_alloc_crash_read():
    # writer commits an allocation with 42, the system crashes, and a later
    # reader observes 42: durably consistent
    return (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "write", 0, 42), ("res", 0, "write", 0, 42),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
        ("crash",),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 0, None), ("res", 1, "read", 0, 42),
        ("inv", 1, "commit", None, None), ("res", 1, "commit", None, None),
    )


def test_history_ddo_accepts_committed_value_across_crash():
    events = events_of_records(records_committed_alloc_crash_read())
    ok, failing, _w = check_history_ddo(events)
    assert ok and failing is None


def test_history_ddo_rejects_rolled_back_value_read():
    # the writer never committed; a post-crash reader still sees its 42
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "write", 0, 42), ("res", 0, "write", 0, 42),
        ("crash",),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 0, None), ("res", 1, "read", 0, 42),
    )
    events = events_of_records(records)
    ok, failing, _w = check_history_ddo(events)
    assert not ok
    assert failing is not None
    # after a committed 42, a post-crash reader sees 7, which nobody wrote:
    # the prefix ending at that read fails
    records = records_committed_alloc_crash_read()[:13]
    records = records[:-1] + (("res", 1, "read", 0, 7),)
    ok, failing, _w = check_history_ddo(events_of_records(records))
    assert (ok, failing) == (False, 7)


def test_prefix_closure_of_accepted_history():
    events = events_of_records(records_committed_alloc_crash_read())
    ok, _f, witnesses = check_history_ddo(events)
    assert ok
    # every prefix was checked and has a stored witness
    stripped = strip_crash_markers(events)
    assert set(witnesses) == set(range(len(stripped) + 1))


def test_crash_marker_erasure_irrelevant():
    base = records_committed_alloc_crash_read()
    variants = [
        base,
        base + (("crash",),),
        (("crash",),) + base,
    ]
    verdicts = set()
    for records in variants:
        events = events_of_records(records)
        ok, _f, _w = check_history_ddo(events)
        verdicts.add(ok)
    assert verdicts == {True}


def test_read_before_any_write_rejected_at_its_prefix():
    records = (
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 0, None), ("res", 1, "read", 0, 1),
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "write", 0, 1), ("res", 0, "write", 0, 1),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
    )
    events = events_of_records(records)
    ok, failing, _w = check_history_ddo(events)
    assert not ok
    assert failing == 2  # the prefix ending at the read has no source


def test_witness_relations_are_well_typed():
    events = events_of_records(records_committed_alloc_crash_read())
    stripped = strip_crash_markers(events)
    w = find_witness(list(stripped), dynamic=True)
    assert w is not None
    reads = [e for e in stripped if e.kind == "R"]
    assert set(w.rf) == {e.eid for e in reads}
    for r, src in w.rf.items():
        re, we = stripped[r], stripped[src]
        assert re.loc == we.loc
        assert re.val == (we.val if we.kind == "W" else 0)
    for loc, order in w.mo.items():
        evs = [stripped[i] for i in order]
        assert all(e.loc == loc and e.kind in ("W", "M") for e in evs)
        assert len(set(order)) == len(order)


def test_non_dynamic_variant_permits_unallocated_writes():
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "write", 0, 1), ("res", 0, "write", 0, 1),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
    )
    events = events_of_records(records)
    ok_plain, _f, _w = history_opaque(events, dynamic=False)
    ok_dyn, _f2, _w2 = history_opaque(events, dynamic=True)
    assert ok_plain and not ok_dyn


def test_ddo_passing_committed_graphs_satisfy_weak_ser_core():
    # every all-committed small execution passing the dynamic check also has
    # an acyclic clo + lifted-rf + lifted-mo core (enumerated exhaustively)
    base = ev([
        (1, 1, "B"), (1, 1, "M", 0, 0), (1, 1, "W", 0, 1),
        (1, 1, "C"), (1, 1, "S"),
        (2, 2, "B"), (2, 2, "R", 0, 1), (2, 2, "W", 0, 0),
        (2, 2, "C"), (2, 2, "S"),
    ])
    writes0 = [1, 2, 7]
    count = 0
    for mo_order in itertools.permutations(writes0):
        for src in (1, 2):
            if base[6].val != base[src].val and not (
                    base[src].kind == "M" and base[6].val == 0):
                continue
            g = graph_from_events(base, rf={6: src}, mo={0: list(mo_order)})
            ok, _why = check_dynamic_opacity_execution(g)
            if not ok:
                continue
            count += 1
            ok2, why2 = check_serializability_execution(g)
            assert ok2, why2
    assert count > 0


# ---------------------------------------------------------------------------
# a test-only reference: the axiom code over a Graph that the axiom core
# replaced, kept verbatim, and a brute-force witness search over it
# ---------------------------------------------------------------------------

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


def ref_check_opacity_execution(g):
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


def ref_check_dynamic_opacity_execution(g):
    """Opacity plus: visible writes are mo-preceded by a visible alloc."""
    ok, why = ref_check_opacity_execution(g)
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


def ref_check_serializability_execution(g):
    """Both SER axioms; input must contain only successful transactions."""
    statuses = txn_statuses(g.events)
    if any(st != "success" for st in statuses.values()):
        raise ValueError("serializability requires all transactions complete")
    if not _int_ok(g):
        return False, "ser-int"
    if _txn_cycle(_ext_edges(g, vis=set(), restrict_rb_to_vis=False)):
        return False, "ser-ext"
    return True, None


def po_orders(events, po_idx, eids):
    """The orders of `eids` that keep each transaction's events in po."""
    return [perm for perm in itertools.permutations(eids)
            if all(events[a].txid != events[b].txid
                   or _po_before(po_idx, a, b)
                   for i, a in enumerate(perm) for b in perm[i + 1:])]


def ref_find_witness(events):
    """Brute force: the first rf choice times po-respecting mo order that
    the reference dynamic check accepts, or None."""
    g0 = graph_from_events(events, {}, {})
    po_idx = _po_index(g0)
    reads = [e for e in events if e.kind == "R"]
    sources = [[w.eid for w in events if w.loc == r.loc
                and ((w.kind == "W" and w.val == r.val)
                     or (w.kind == "M" and r.val == 0))] for r in reads]
    locs = sorted({e.loc for e in events if e.kind in ("W", "M")})
    per_loc = [po_orders(events, po_idx, [e.eid for e in events if e.loc == l
                                          and e.kind in ("W", "M")])
               for l in locs]
    for rf_choice in itertools.product(*sources):
        rf = dict(zip([r.eid for r in reads], rf_choice))
        for mo_choice in itertools.product(*per_loc):
            mo = dict(zip(locs, mo_choice))
            if ref_check_dynamic_opacity_execution(
                    g0._replace(rf=rf, mo=mo))[0]:
                return rf, mo
    return None


# ---------------------------------------------------------------------------
# the prefix-extending search against a from-scratch search per prefix
# ---------------------------------------------------------------------------

def ddo_by_search_per_prefix(events):
    """Reference: (ok, first failing prefix) with the brute-force reference
    search run from scratch on every prefix of the markerless history."""
    stripped = strip_crash_markers(events)
    for n in range(len(stripped) + 1):
        if ref_find_witness(stripped[:n]) is None:
            return False, n
    return True, None


def assert_matches_reference(events):
    ok, failing, witnesses = check_history_ddo(events)
    assert (ok, failing) == ddo_by_search_per_prefix(events)
    stripped = strip_crash_markers(events)
    for n, w in witnesses.items():
        g = graph_from_events(stripped[:n], w.rf, w.mo)
        assert check_dynamic_opacity_execution(g) == (True, None)
        assert ref_check_dynamic_opacity_execution(g) == (True, None)


def test_witness_the_extension_cannot_repair_is_searched_for():
    # T3 first reads 1 from commit-pending T1; when T1 aborts, no extension
    # of that witness is valid and the full search moves the read to T2
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "write", 0, 1), ("res", 1, "write", 0, 1),
        ("inv", 1, "commit", None, None),
        ("inv", 3, "begin", None, None), ("res", 3, "begin", None, None),
        ("inv", 2, "begin", None, None), ("res", 2, "begin", None, None),
        ("inv", 2, "write", 0, 1), ("res", 2, "write", 0, 1),
        ("inv", 2, "commit", None, None), ("res", 2, "commit", None, None),
        ("inv", 3, "read", 0, None), ("res", 3, "read", 0, 1),
        ("res", 1, "abort", None, None),
    )
    events = events_of_records(records)
    ok, _f, witnesses = check_history_ddo(events)
    assert ok
    read, t1_write, t2_write = 12, 5, 9
    assert witnesses[13].rf[read] == t1_write
    assert witnesses[14].rf[read] == t2_write
    assert_matches_reference(events)


@pytest.mark.parametrize("impl,crashes,ops", [
    ("pmdk-seq", 1, 2),
    ("pmdk-tml", 0, 1),
])
def test_history_ddo_matches_per_prefix_search(impl, crashes, ops):
    r = explore(Config(impl, "psc", txns=2, locs=1, max_crashes=crashes,
                       ops=ops, por=True), check=False)
    for records in r.histories():
        assert_matches_reference(events_of_records(records))


def records_from_actions(actions):
    """A well-formed record sequence driven by (txn, op, loc, val) actions:
    a transaction's first action begins it, later ones run at most two
    operations, then commit (a second action decides success or abort);
    a crash ends every begun transaction.  Locations are allocated once."""
    state = {}                  # txn -> [phase, operations run]
    allocated = set()
    records = []
    for t, op, loc, val in actions:
        if op == "crash":
            records.append(("crash",))
            for s in state.values():
                s[0] = "done"
            continue
        s = state.get(t)
        if s is None:
            state[t] = ["live", 0]
            records += [("inv", t, "begin", None, None),
                        ("res", t, "begin", None, None)]
        elif s[0] == "committing":
            records.append(("res", t, "abort" if op == "abort" else "commit",
                            None, None))
            s[0] = "done"
        elif s[0] == "live":
            if op == "commit":
                records.append(("inv", t, "commit", None, None))
                s[0] = "committing"
            elif op == "abort":
                records += [("inv", t, "read", loc, None),
                            ("res", t, "abort", None, None)]
                s[0] = "done"
            elif s[1] < 2 and not (op == "alloc" and loc in allocated):
                s[1] += 1
                if op == "alloc":
                    allocated.add(loc)
                    records += [("inv", t, "alloc", None, None),
                                ("res", t, "alloc", loc, None)]
                else:
                    records += [("inv", t, op, loc, None),
                                ("res", t, op, loc, val)]
    return tuple(records)


ACTIONS = st.lists(st.tuples(st.integers(0, 2),
                             st.sampled_from(("alloc", "read", "write",
                                              "commit", "abort", "crash")),
                             st.integers(0, 1), st.integers(0, 1)),
                   max_size=16)


@settings(max_examples=300, deadline=None)
@given(ACTIONS)
def test_history_ddo_matches_per_prefix_search_on_random_histories(actions):
    events = events_of_records(records_from_actions(actions))
    assert check_wellformed(events) == (True, [])
    assert_matches_reference(events)


def draw_graph(data, events):
    """A graph over `events`: rf draws each read's source from its sources
    or, when a drawn flag says so, from every same-location write and
    allocation (a read with no candidate is left out); mo draws per location
    an order that keeps po or, on a flag, any order.  The axioms never look
    at values, so the flags widen what they are tried on."""
    po_idx = _po_index(graph_from_events(events, {}, {}))
    rf = {}
    for r in (e for e in events if e.kind == "R"):
        any_value = data.draw(st.booleans())
        srcs = [w.eid for w in events if w.loc == r.loc
                and ((w.kind == "W" and (any_value or w.val == r.val))
                     or (w.kind == "M" and (any_value or r.val == 0)))]
        if srcs:
            rf[r.eid] = data.draw(st.sampled_from(srcs))
    mo = {}
    for loc in sorted({e.loc for e in events if e.kind in ("W", "M")}):
        eids = [e.eid for e in events if e.loc == loc and e.kind in ("W", "M")]
        orders = (list(itertools.permutations(eids))
                  if data.draw(st.booleans())
                  else po_orders(events, po_idx, eids))
        mo[loc] = data.draw(st.sampled_from(orders))
    return graph_from_events(events, rf, mo)


# crash-free and longer, so that every axiom shows among the prefixes
GRAPH_ACTIONS = st.lists(st.tuples(st.integers(0, 2),
                                   st.sampled_from(("alloc", "read", "read",
                                                    "write", "write",
                                                    "commit", "abort")),
                                   st.integers(0, 1), st.integers(0, 1)),
                         min_size=8, max_size=24)


@settings(max_examples=300, deadline=None)
@given(GRAPH_ACTIONS, st.data())
def test_axiom_core_matches_reference(actions, data):
    events = events_of_records(records_from_actions(actions))
    g = draw_graph(data, events)
    for n in range(len(events) + 1):      # every prefix, rf and mo cut to it
        gn = graph_from_events(
            events[:n], {r: w for r, w in g.rf.items() if max(r, w) < n},
            {loc: [e for e in seq if e < n] for loc, seq in g.mo.items()})
        assert check_opacity_execution(gn) == ref_check_opacity_execution(gn)
        assert (check_dynamic_opacity_execution(gn)
                == ref_check_dynamic_opacity_execution(gn))
    # serializability on the successful transactions alone
    statuses = txn_statuses(events)
    done = tuple(e._replace(eid=i) for i, e in enumerate(
        e for e in events if statuses[e.txid] == "success"))
    g = draw_graph(data, done)
    assert (check_serializability_execution(g)
            == ref_check_serializability_execution(g))


# ---------------------------------------------------------------------------
# pins over explored cells
# ---------------------------------------------------------------------------

def test_witness_digest_pinned():
    # every history's (ok, failing prefix, witnesses) of two small cells,
    # pinned when the witness search built a graph per candidate
    h = hashlib.sha256()
    count = rejected = 0
    for impl, crashes, ops in (("pmdk-seq", 1, 2), ("pmdk-tml", 0, 1)):
        r = explore(Config(impl, "psc", txns=2, locs=1, max_crashes=crashes,
                           ops=ops, por=True), check=False, dedup="history")
        for records in r.histories():
            ok, failing, ws = check_history_ddo(events_of_records(records))
            h.update(repr((ok, failing, sorted(
                (n, sorted(w.rf.items()), sorted(w.mo.items()))
                for n, w in ws.items()))).encode())
            count += 1
            rejected += not ok
    assert (count, rejected) == (2367, 144)
    assert h.hexdigest() == ("a01b115b5784714ec8b427b44a3050ec"
                             "a0d8a0a68c169bd575a135eb7ca093ef")


def test_faulting_history_events_are_its_pre_fault_prefix():
    # a fault ends the run; its record and the faulting operation's
    # invocation leave no event, so the history is judged as it stood
    # before that invocation
    r = explore(Config("pmdk-tml", "psc", txns=2, locs=1, ops=1, por=True),
                check=False)
    faulting = [h for h in r.histories() if h[-1][0] == "fault"]
    assert faulting
    interleaved = 0
    for records in faulting:
        _f, txid, op = records[-1][:3]
        inv = max(i for i, rec in enumerate(records)
                  if rec[:3] == ("inv", txid, op))
        pre = records[:inv] + records[inv + 1:-1]
        interleaved += inv < len(records) - 2
        events = events_of_records(records)
        assert events == events_of_records(pre)
        assert check_history_ddo(events) == check_history_ddo(
            events_of_records(pre))
    assert interleaved
