"""Event histories: record mapping, well-formedness, client order."""

import copy
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmtxcheck.histories import (CRASH, WF_CLAUSES, Ev, advance,
                                 client_order, crash_marker,
                                 events_of_records, fold, txn_statuses,
                                 wf_clauses, wf_violations)


def ev(seq):
    return tuple(Ev(i, *e) for i, e in enumerate(seq))


GOOD = ev([
    (1, 1, "B"), (1, 1, "M", 0, 0), (1, 1, "W", 0, 1), (1, 1, "C"),
    (1, 1, "S"),
    (2, 2, "B"), (2, 2, "R", 0, 1), (2, 2, "C"), (2, 2, "S"),
])


def test_records_to_events_mapping():
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 1, None),
        ("inv", 0, "write", 1, 4), ("res", 0, "write", 1, 4),
        ("inv", 0, "commit", None, None), ("crash",),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 1, None), ("res", 1, "read", 1, 0),
        ("inv", 1, "commit", None, None), ("res", 1, "abort", None, None),
    )
    events = events_of_records(records)
    kinds = [e.kind for e in events]
    # responses, commit invocations and crashes survive; op invocations drop
    assert kinds == ["B", "M", "W", "C", "X", "B", "R", "C", "A"]
    assert events[1].loc == 1 and events[1].val == 0
    assert events[2].val == 4
    assert events[4].tid is None


def test_events_of_records_builds_each_kind_as_ev():
    # every record kind, each op's invocation and response among them,
    # against events built field by field with Ev(...)
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 1, None),
        ("inv", 0, "write", 1, 4), ("res", 0, "write", 1, 4),
        ("inv", 0, "read", 1, None), ("res", 0, "read", 1, 4),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
        ("crash",),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 0, None), ("res", 1, "abort", None, None),
        ("inv", 1, "frob", None, None),
        ("inv", 1, "write", 0, 1), ("fault", 1, "write", 0),
    )
    want = (Ev(0, 0, 0, "B", None, None), Ev(1, 0, 0, "M", 1, 0),
            Ev(2, 0, 0, "W", 1, 4), Ev(3, 0, 0, "R", 1, 4),
            Ev(4, 0, 0, "C", None, None), Ev(5, 0, 0, "S", None, None),
            Ev(6, None, None, CRASH, None, None),
            Ev(7, 1, 1, "B", None, None), Ev(8, 1, 1, "A", None, None))
    events = events_of_records(records)
    assert len(events) == len(want)
    for got, exp in zip(events, want):
        assert type(got) is Ev
        assert got == exp and got._asdict() == exp._asdict()
    with pytest.raises(ValueError, match="unknown op"):
        events_of_records(records + (("res", 1, "frob", None, None),))


def test_wellformed_accepts_good_history():
    assert wf_violations(GOOD) == []


def test_statuses():
    st = txn_statuses(ev([
        (1, 1, "B"),
        (2, 2, "B"), (2, 2, "C"),
        (3, 3, "B"), (3, 3, "C"), (3, 3, "S"),
        (4, 4, "B"), (4, 4, "A"),
    ]))
    assert st == {1: "pending", 2: "commit-pending", 3: "success",
                  4: "aborted"}


# one negative fixture per well-formedness clause ---------------------------

def test_wf_two_begins():
    h = ev([(1, 1, "B"), (1, 1, "B")])
    assert "wf:begin" in wf_violations(h)


def test_wf_begin_not_first():
    h = ev([(1, 1, "W", 0, 1), (1, 1, "B")])
    assert "wf:begin" in wf_violations(h)


def test_wf_same_transaction_two_threads():
    h = ev([(1, 1, "B"), (2, 1, "W", 0, 1)])
    assert "wf:same-thread" in wf_violations(h)


def test_wf_interleaved_transactions_on_one_thread():
    h = ev([(1, 1, "B"), (1, 1, "C"), (1, 1, "S"),
            (1, 2, "B"), (1, 1, "W", 0, 1)])
    assert "wf:contiguous" in wf_violations(h)


def test_wf_double_success():
    h = ev([(1, 1, "B"), (1, 1, "C"), (1, 1, "S"), (1, 1, "S")])
    assert "wf:terminal-unique" in wf_violations(h)


def test_wf_event_after_abort():
    h = ev([(1, 1, "B"), (1, 1, "A"), (1, 1, "W", 0, 1)])
    assert "wf:terminal-unique" in wf_violations(h)


def test_wf_read_after_commit():
    h = ev([(1, 1, "B"), (1, 1, "C"), (1, 1, "R", 0, 0)])
    assert "wf:commit-tail" in wf_violations(h)


def test_wf_success_not_immediately_after_commit():
    h = ev([(1, 1, "B"), (1, 1, "C"),
            (2, 2, "B"),
            (1, 1, "S")])
    # same-thread immediacy: put an event of the same thread in between
    h2 = ev([(1, 1, "B"), (1, 1, "C"), (1, 1, "A"), (1, 1, "S")])
    assert "wf:commit-tail" in wf_violations(h2) \
        or "wf:terminal-unique" in wf_violations(h2)
    # other-thread events between commit and success are fine
    assert not wf_violations(h)


def test_wf_two_live_transactions_one_thread():
    h = ev([(1, 1, "B"), (1, 2, "B"), (1, 2, "C"), (1, 2, "S"),
            ])
    assert "wf:live-last" in wf_violations(h)


def test_wf_double_alloc_in_successful_txns():
    h = ev([
        (1, 1, "B"), (1, 1, "M", 0, 0), (1, 1, "C"), (1, 1, "S"),
        (2, 2, "B"), (2, 2, "M", 0, 0), (2, 2, "C"), (2, 2, "S"),
    ])
    assert "wf:alloc-once" in wf_violations(h)


def test_wf_double_alloc_fine_when_one_aborted():
    h = ev([
        (1, 1, "B"), (1, 1, "M", 0, 0), (1, 1, "A"),
        (2, 2, "B"), (2, 2, "M", 0, 0), (2, 2, "C"), (2, 2, "S"),
    ])
    assert not wf_violations(h)


def test_wf_thread_reuse_across_crash():
    h = (Ev(0, 1, 1, "B"), Ev(1, 1, 1, "C"), Ev(2, 1, 1, "S"),
         crash_marker(3), Ev(4, 1, 2, "B"))
    assert "wf:era-threads" in wf_violations(h)


def test_wf_duplicate_event_ids():
    h = (Ev(0, 1, 1, "B"), Ev(0, 1, 1, "C"))
    assert "wf:event-ids" in wf_violations(h)


# client order ---------------------------------------------------------------

def test_client_order_sequential():
    clo = client_order(GOOD)
    assert (1, 2) in clo
    assert (2, 1) not in clo


def test_client_order_overlapping_none():
    h = ev([(1, 1, "B"), (2, 2, "B"), (1, 1, "C"), (1, 1, "S"),
            (2, 2, "C"), (2, 2, "S")])
    clo = client_order(h)
    assert (1, 2) not in clo and (2, 1) not in clo


def test_client_order_pending_excluded():
    h = ev([(1, 1, "B"), (1, 1, "W", 0, 1),
            (2, 2, "B"), (2, 2, "C"), (2, 2, "S")])
    assert client_order(h) == frozenset()


def test_facts_drop_crash_markers_and_renumber():
    h = (Ev(0, 1, 1, "B"), crash_marker(1), Ev(2, 2, 2, "B"))
    out = fold(h)[1]
    assert [e.eid for e in out] == [0, 1]
    assert [e.kind for e in out] == ["B", "B"]


def test_facts_keep_events_whose_eids_are_positions():
    out = fold(GOOD)[1]
    assert out == GOOD and all(a is b for a, b in zip(out, GOOD))
    assert fold(())[1] == ()
    # eids that are not positions are still renumbered
    h = (Ev(1, 1, 1, "B"), Ev(0, 1, 1, "M", 0, 0))
    assert [e.eid for e in fold(h)[1]] == [0, 1]


# the one-pass wf_violations against the multi-pass code it replaced --------

def ref_txn_events(events):
    by_tx = {}
    for e in events:
        if e.txid is not None:
            by_tx.setdefault(e.txid, []).append(e)
    return by_tx


def ref_txn_statuses(events):
    """txid -> 'pending' | 'commit-pending' | 'aborted' | 'success'."""
    st = {}
    for tx, evs in ref_txn_events(events).items():
        kinds = {e.kind for e in evs}
        if "S" in kinds:
            st[tx] = "success"
        elif "A" in kinds:
            st[tx] = "aborted"
        elif "C" in kinds:
            st[tx] = "commit-pending"
        else:
            st[tx] = "pending"
    return st


def ref_wf_violations(events):
    """Check history well-formedness; returns the violated clause names.

    Clauses: same-transaction events share a thread and form a contiguous
    block; exactly one begin per transaction, first in its transaction; at
    most one abort/commit/success, with abort and success last; after a
    commit only abort or success, and success immediately after its commit;
    per thread at most one pending or commit-pending transaction, which is
    the thread's last; each location allocated at most once across
    successful transactions; thread ids are not reused across crash markers.
    """
    bad = []
    real = [e for e in events if e.kind != CRASH]
    ids = [e.eid for e in events]
    if len(set(ids)) != len(ids):
        bad.append("wf:event-ids")

    by_tx = ref_txn_events(events)
    by_tid = {}
    for e in real:
        by_tid.setdefault(e.tid, []).append(e)

    # clause 1: one thread per transaction, transactions contiguous in po
    for tx, evs in by_tx.items():
        if len({e.tid for e in evs}) != 1:
            bad.append("wf:same-thread")
            break
    for tid, evs in by_tid.items():
        seen_done = set()
        last_tx = None
        for e in evs:
            if e.txid != last_tx:
                if e.txid in seen_done:
                    if "wf:contiguous" not in bad:
                        bad.append("wf:contiguous")
                if last_tx is not None:
                    seen_done.add(last_tx)
                last_tx = e.txid

    # clause 2: exactly one begin, po-minimal in its transaction
    for tx, evs in by_tx.items():
        begins = [e for e in evs if e.kind == "B"]
        if len(begins) != 1 or evs[0].kind != "B":
            bad.append("wf:begin")
            break

    # clause 3: at most one abort/commit/success; abort and success maximal
    for tx, evs in by_tx.items():
        for k in ("A", "C", "S"):
            if sum(1 for e in evs if e.kind == k) > 1:
                bad.append("wf:terminal-unique")
                break
        else:
            for e in evs[:-1]:
                if e.kind in ("A", "S"):
                    bad.append("wf:terminal-unique")
                    break
            else:
                continue
        break

    # clause 4: after commit only abort/success; success immediately after
    for tid, evs in by_tid.items():
        for i, e in enumerate(evs):
            if e.kind == "C":
                rest = [x for x in evs[i + 1:] if x.txid == e.txid]
                if any(x.kind not in ("A", "S") for x in rest):
                    bad.append("wf:commit-tail")
                    break
                succ = [x for x in evs[i + 1:] if x.kind == "S"
                        and x.txid == e.txid]
                if succ and evs[i + 1] is not succ[0]:
                    bad.append("wf:commit-tail")
                    break
        else:
            continue
        break

    # clause 5: at most one live (pending/commit-pending) txn per thread,
    # and it is the thread's last transaction
    statuses = ref_txn_statuses(events)
    for tid, evs in by_tid.items():
        txs = []
        for e in evs:
            if e.txid not in txs:
                txs.append(e.txid)
        live = [tx for tx in txs if statuses[tx] in ("pending",
                                                     "commit-pending")]
        if len(live) > 1 or (live and txs[-1] != live[0]):
            bad.append("wf:live-last")
            break

    # clause 6: each location allocated at most once among successful txns
    alloc_locs = {}
    for e in real:
        if e.kind == "M" and statuses[e.txid] == "success":
            alloc_locs.setdefault(e.loc, 0)
            alloc_locs[e.loc] += 1
    if any(n > 1 for n in alloc_locs.values()):
        bad.append("wf:alloc-once")

    # era discipline: no thread id on both sides of a crash marker
    era = 0
    tid_era = {}
    for e in events:
        if e.kind == CRASH:
            era += 1
            continue
        if e.tid in tid_era and tid_era[e.tid] != era:
            bad.append("wf:era-threads")
            break
        tid_era[e.tid] = era

    return bad


@st.composite
def edited_histories(draw):
    """A well-formed history of up to three transactions, one thread each,
    with crash markers, after up to three edits: swap two events, drop one,
    copy one (its eid repeating the one before it, or not), or redraw one
    event's thread, transaction or kind."""
    phase, out = {}, []
    for t in draw(st.lists(st.integers(0, 3), max_size=14)):
        p = phase.get(t, "new")
        if t == 3:
            out.append((None, None, CRASH, False))
            phase = dict.fromkeys(phase, "done")
        elif p != "done":
            k = {"new": "B", "live": draw(st.sampled_from("MRWCA")),
                 "committing": draw(st.sampled_from("SA"))}[p]
            out.append((t, t, k, False))
            phase[t] = {"B": "live", "C": "committing", "A": "done",
                        "S": "done"}.get(k, "live")
    for _ in range(draw(st.integers(0, 3))):
        if not out:
            break
        i = draw(st.integers(0, len(out) - 1))
        j = draw(st.integers(0, len(out) - 1))
        edit = draw(st.sampled_from(("swap", "drop", "copy", "tid", "txid",
                                     "kind")))
        tid, tx, k, dup = out[i]
        if edit == "swap":
            out[i], out[j] = out[j], out[i]
        elif edit == "drop":
            del out[i]
        elif edit == "copy":
            out.insert(j, (tid, tx, k, draw(st.booleans())))
        elif k != CRASH:
            v = draw(st.integers(0, 2))
            out[i] = {"tid": (v, tx, k, dup), "txid": (tid, v, k, dup),
                      "kind": (tid, tx, draw(st.sampled_from("BAMRWCS")),
                               dup)}[edit]
    return tuple(crash_marker(i - dup) if k == CRASH
                 else Ev(i - dup, tid, tx, k, 0, 0)
                 for i, (tid, tx, k, dup) in enumerate(out))


# short sequences over two threads and transactions, where every clause
# meets the others
RAW_HISTORIES = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                                   st.sampled_from("BAMCSX"), st.booleans()),
                         max_size=8).map(lambda seq: tuple(
                             crash_marker(i) if k == CRASH
                             else Ev(i - dup, tid, tx, k, 0, 0)
                             for i, (tid, tx, k, dup) in enumerate(seq)))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(edited_histories(), RAW_HISTORIES))
def test_wf_violations_matches_multi_pass_reference(h):
    bad = wf_violations(h)
    assert bad == ref_wf_violations(h)
    assert bad == [c for c in WF_CLAUSES if c in bad]
    assert list(txn_statuses(h).items()) == list(ref_txn_statuses(h).items())


@settings(max_examples=500, deadline=None)
@given(st.one_of(edited_histories(), RAW_HISTORIES),
       st.one_of(edited_histories(), RAW_HISTORIES), st.integers(0, 8))
def test_facts_advance_along_any_continuation(h, other, cut):
    # ill-formed input included: the facts of h's prefix, advanced along
    # h's rest and along another history's tail, are each history's own
    # facts, and the prefix's facts are unchanged afterwards
    prefix = h[:cut]
    facts = fold(prefix)
    before = copy.deepcopy(facts)
    for whole in (h, prefix + other[len(prefix):]):
        end = reduce(advance, whole[len(prefix):], facts)
        assert end == fold(whole)
        assert wf_clauses(end) == wf_violations(whole)
    assert facts == before
