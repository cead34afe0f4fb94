"""Operational reference spec: transitions, membership, sequential bound,
equivariance under a renaming of transaction ids, and the exactness of the
frontier's canonical form."""

import hashlib
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pmtxcheck import refspec
from pmtxcheck.explorer import ORACLE_RACE, Config, explore
from pmtxcheck.refspec import (ACCEPT_ALL, BOT, COMMITTED, RDY,
                               accepts_history, advance_frontier, canonical,
                               crash_step, eps_successors, fault_possible,
                               initial_frontier, initial_state, match_record,
                               rename_frontier, sequential_histories,
                               valid_idx)


def drive(records, txns=2, locs=2):
    return accepts_history(records, txns, locs)


def test_read_own_write_value():
    st = initial_state(1, 2)
    st = match_record(st, ("inv", 0, "begin", None, None))
    st = match_record(st, ("res", 0, "begin", None, None))
    st = match_record(st, ("inv", 0, "alloc", None, None))
    st = match_record(st, ("res", 0, "alloc", 0, None))
    st = match_record(st, ("inv", 0, "write", 0, 4))
    st = match_record(st, ("res", 0, "write", 0, 4))
    st = match_record(st, ("inv", 0, "read", 0, None))
    assert match_record(st, ("res", 0, "read", 0, 4))
    assert not match_record(st, ("res", 0, "read", 0, 3))


def test_read_own_alloc_returns_zero():
    st = initial_state(1, 2)
    for rec in (("inv", 0, "begin", None, None),
                ("res", 0, "begin", None, None),
                ("inv", 0, "alloc", None, None),
                ("res", 0, "alloc", 1, None),
                ("inv", 0, "read", 1, None)):
        st = match_record(st, rec)
    assert match_record(st, ("res", 0, "read", 1, 0))
    assert not match_record(st, ("res", 0, "read", 1, 1))


def test_crash_resets_memories_and_aborts_live():
    st = initial_state(2, 1)
    for rec in (("inv", 0, "begin", None, None),
                ("res", 0, "begin", None, None),
                ("inv", 0, "alloc", None, None),
                ("res", 0, "alloc", 0, None),
                ("inv", 0, "commit", None, None)):
        st = match_record(st, rec)
    st = eps_successors(st)[0]      # the commit lands a new memory
    mems, txs = st
    assert len(mems) == 2
    st2 = crash_step(st)
    mems2, txs2 = st2
    assert mems2 == (mems[-1],)
    assert txs2[0][0] == ("ab",)    # live transaction dies silently
    assert txs2[1][0] == ("ns",)    # unstarted one survives


def test_valid_idx_checks_reads_and_allocs():
    mems = ((BOT, BOT), (0, BOT))
    tx_ok = (RDY, 0, (0, -1), (-1, -1), 0)
    assert valid_idx(1, tx_ok, mems)
    assert not valid_idx(0, tx_ok, mems)       # read set inconsistent
    tx_alloc = (RDY, 0, (-1, -1), (-1, -1), 1)  # allocated loc 0
    assert valid_idx(0, tx_alloc, mems)
    assert not valid_idx(1, tx_alloc, mems)     # loc 0 taken at index 1


def test_accepts_empty_history():
    assert drive(())


def test_accepts_commit_crash_read():
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "write", 0, 1), ("res", 0, "write", 0, 1),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
        ("crash",),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 0, None), ("res", 1, "read", 0, 1),
    )
    ok, chain = accepts_history(records, 2, 2, witness=True)
    assert ok and chain is not None and len(chain) == len(records)


def test_rejects_write_to_unallocated_without_fault():
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "write", 0, 1), ("res", 0, "write", 0, 1),
    )
    assert not drive(records)


def test_fault_matches_only_at_invalid_access():
    prefix = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "read", 0, None),
    )
    assert drive(prefix + (("fault", 0, "read", 0),))
    # after a committed allocation the location is valid everywhere, so the
    # spec cannot fault on it
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
        ("crash",),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 0, None), ("fault", 1, "read", 0),
    )
    assert not drive(records)


BEGIN_0 = (("inv", 0, "begin", None, None), ("res", 0, "begin", None, None))


@pytest.mark.parametrize("txid", [2, 5, -1])
def test_rejects_transaction_out_of_range(txid):
    # no spec step matches a record naming a transaction at or past `txns`:
    # the search and the fold reject it instead of indexing past the
    # transactions (or, for -1, stepping the last one)
    for records in ((("inv", txid, "begin", None, None),),
                    BEGIN_0 + (("res", txid, "begin", None, None),),
                    BEGIN_0 + (("inv", 0, "read", 0, None),
                               ("fault", txid, "read", 0))):
        assert accepts_history(records, 2, 1) is False
        assert accepts_history(records, 2, 1, witness=True) == (False, None)
        assert fold_accepts(records, 2, 1) is False


@pytest.mark.parametrize("records", [
    (("inv", 0, "read", 3, None), ("fault", 0, "read", 3)),
    (("inv", 0, "read", 1, None), ("res", 0, "read", 1, 0)),
    (("inv", 0, "write", 1, 0), ("res", 0, "write", 1, 0)),
    (("inv", 0, "write", 1, 0), ("fault", 0, "write", 1)),
    (("inv", 0, "read", 0, None), ("fault", 0, "read", -1)),
], ids=["fault-read", "read", "write", "fault-write", "negative"])
def test_rejects_location_out_of_range(records):
    # likewise a read, write or fault of a location at or past `locs`, in
    # the search and in the fold; the same access in range is matched, by a
    # fault or by a response
    assert accepts_history(BEGIN_0 + records, 2, 1) is False
    assert accepts_history(BEGIN_0 + records, 2, 1, witness=True) \
        == (False, None)
    assert fold_accepts(BEGIN_0 + records, 2, 1) is False
    inv, last = records
    in_range = (inv[:3] + (0,) + inv[4:],) if inv[3] != 0 else (inv,)
    assert accepts_history(BEGIN_0 + in_range + (last[:3] + (0,)
                                                 + last[4:],), 2, 1,
                           prealloc=last[0] == "res") is True


def test_matched_fault_accepts_any_continuation():
    # as in the frontier fold, a matched fault accepts whatever follows,
    # a record out of range included
    records = BEGIN_0 + (("inv", 0, "read", 0, None), ("fault", 0, "read", 0),
                         ("inv", 5, "begin", None, None))
    assert accepts_history(records, 2, 1) is True


def test_fault_frontier_accepts_everything_after():
    f = initial_frontier(1, 1)
    for rec in (("inv", 0, "begin", None, None),
                ("res", 0, "begin", None, None),
                ("inv", 0, "read", 0, None),
                ("fault", 0, "read", 0)):
        f = advance_frontier(f, rec)
    assert f == ACCEPT_ALL
    assert advance_frontier(f, ("res", 0, "read", 0, 1)) == ACCEPT_ALL


def test_no_abort_after_commit_applied():
    # a writing commit that internally landed its memory cannot abort:
    # its only response is success
    records_abort = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "commit", None, None), ("res", 0, "abort", None, None),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 0, None), ("res", 1, "read", 0, 0),
    )
    # aborting the commit is fine, but then the reader must fault/fail
    assert not drive(records_abort)
    records_commit = records_abort[:5] + (
        ("res", 0, "commit", None, None),) + records_abort[6:]
    assert drive(records_commit)


def test_reader_abort_always_available_in_flight():
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "read", 0, None), ("res", 0, "abort", None, None),
    )
    assert drive(records)


def test_no_abort_answers_begin():
    # a begin responds only with success; histories.wf_violations calls an
    # abort there wf:begin
    assert not drive((("inv", 0, "begin", None, None),
                      ("res", 0, "abort", None, None)))


def test_pending_operations_accepted():
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None),
    )
    assert drive(records)


def test_long_trace_accepted_in_both_modes():
    # one alloc, then 3,000 read pairs: a search that recursed per record
    # overflowed the interpreter stack past about 1,000 records
    records = (("inv", 0, "begin", None, None),
               ("res", 0, "begin", None, None),
               ("inv", 0, "alloc", None, None),
               ("res", 0, "alloc", 0, None),
               *(("inv", 0, "read", 0, None), ("res", 0, "read", 0, 0))
               * 3000,
               ("inv", 0, "commit", None, None),
               ("res", 0, "commit", None, None))
    assert len(records) == 6006
    assert accepts_history(records, 1, 1)
    ok, chain = accepts_history(records, 1, 1, witness=True)
    assert ok and len(chain) == len(records)
    assert replays(records, chain, 1, 1)


# ---------------------------------------------------------------------------
# the membership search against the frontier fold, the reference oracle
# ---------------------------------------------------------------------------

def fold_accepts(records, txns, locs):
    f = initial_frontier(txns, locs)
    for rec in records:
        f = advance_frontier(f, rec)
    return bool(f)


def raw_closure(states):
    """All states reachable through commit steps as the search takes them,
    not in canonical form (``refspec.closure`` puts them in it)."""
    seen, work = set(states), list(states)
    while work:
        for st2 in eps_successors(work.pop()):
            if st2 not in seen:
                seen.add(st2)
                work.append(st2)
    return seen


def replays(records, chain, txns, locs):
    """Each chain state is reached from the one before it (the initial
    state first) by raw commit steps, then by matching its record; a
    trailing ACCEPT_ALL by commit steps, then a possible fault."""
    state = initial_state(txns, locs)
    for rec, nxt in zip(records, chain):
        pre = raw_closure({state})
        if nxt == ACCEPT_ALL:
            return nxt is chain[-1] and rec[0] == "fault" and any(
                fault_possible(s, *rec[1:]) for s in pre)
        if not any(nxt == match_record(s, rec) for s in pre):
            return False
        state = nxt
    return len(chain) == len(records)


def alphabet(txns, locs, vals):
    recs = [("crash",)]
    for t in range(txns):
        for op in ("begin", "commit"):
            recs += [("inv", t, op, None, None), ("res", t, op, None, None)]
        recs += [("res", t, "abort", None, None),
                 ("inv", t, "alloc", None, None)]
        recs += [("res", t, "alloc", l, None) for l in range(locs)]
        for l in range(locs):
            recs += [("inv", t, "read", l, None), ("fault", t, "read", l),
                     ("fault", t, "write", l)]
            for v in range(vals):
                recs += [("res", t, "read", l, v), ("inv", t, "write", l, v),
                         ("res", t, "write", l, v)]
    return recs


@st.composite
def record_sequences(draw):
    """A walk that mostly takes records the spec allows next and sometimes
    any record of the alphabet: crashes, faults and aborts included."""
    txns, locs = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    every = alphabet(txns, locs, 2)
    f, records = initial_frontier(txns, locs), []
    for _ in range(draw(st.integers(0, 24))):
        allowed = [r for r in every if advance_frontier(f, r)]
        perturb = not allowed or draw(st.integers(0, 9)) == 0
        rec = draw(st.sampled_from(every if perturb else allowed))
        records.append(rec)
        f = advance_frontier(f, rec)
    return txns, locs, tuple(records)


@settings(max_examples=300, deadline=None)
@given(record_sequences())
def test_search_agrees_with_frontier_fold(case):
    txns, locs, records = case
    want = fold_accepts(records, txns, locs)
    event("accepted" if want else "rejected")
    assert accepts_history(records, txns, locs) == want
    ok, chain = accepts_history(records, txns, locs, witness=True)
    assert ok == want and (chain is None) == (not want)
    if ok:
        assert replays(records, chain, txns, locs)


def test_witness_chain_digest_pinned():
    # every history's accepting run of a cell with crashes and faults,
    # pinned before the search opened frames only where it can branch: the
    # run is the first the search finds, so the digest pins its order
    r = explore(Config("pmdk-tml", "psc", txns=2, locs=1, max_crashes=1,
                       ops=1, por=True), check=False, dedup="history")
    h = hashlib.sha256()
    count = Counter()
    for records in sorted(r.histories()):
        ok, chain = accepts_history(records, 2, 1, witness=True)
        h.update(repr((records, ok, chain)).encode())
        count["histories"] += 1
        count["accepted"] += ok
        count["crash"] += ("crash",) in records
        count["fault"] += records[-1][0] == "fault"
    assert count == {"histories": 6682, "accepted": 6682, "crash": 5046,
                     "fault": 1300}
    assert h.hexdigest() == ("c68bd3d20b53f02b97851d19ea8f9581"
                             "68b086f973d7db87851ff2958252f400")


def test_commit_response_takes_commit_steps_first(monkeypatch):
    # a commit response matches only once its commit step applied, so the
    # search takes the node's commit steps without trying the record
    # first: here each record is matched once, where trying it first cost
    # one more match per commit response
    calls = []

    def counted(st, rec):
        calls.append(rec)
        return match_record(st, rec)

    monkeypatch.setattr(refspec, "match_record", counted)
    records = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "write", 0, 1), ("res", 0, "write", 0, 1),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "read", 0, None), ("res", 1, "read", 0, 1),
        ("inv", 1, "commit", None, None), ("res", 1, "commit", None, None))
    assert accepts_history(records, 2, 1)
    assert calls == list(records)


# ---------------------------------------------------------------------------
# sequential lower-bound generator
# ---------------------------------------------------------------------------

def test_sequential_histories_smallest_bound():
    hs = sequential_histories(1, 1, 1, 1)
    assert (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 0, None),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
    ) in hs
    # reads/writes of unallocated memory and aborts never appear
    for h in hs:
        assert all(rec[2] != "abort" for rec in h)


def test_sequential_histories_are_serial():
    for h in sequential_histories(2, 2, 2, 1):
        active = None
        done = set()
        for rec in h:
            t = rec[1]
            assert t not in done
            if active is None:
                active = t
            assert t == active
            if rec[:3] == ("res", t, "commit"):
                done.add(t)
                active = None


def test_sequential_histories_all_accepted():
    for h in sorted(sequential_histories(2, 2, 2, 1)):
        assert accepts_history(h, 2, 2)


@pytest.mark.parametrize("txns,locs,vals,ops,count", [
    (2, 2, 2, 1, 13), (2, 1, 2, 2, 57), (3, 2, 2, 1, 67)])
def test_sequential_count_matches_independent_enumeration(txns, locs, vals,
                                                          ops, count):
    # oracle: enumerate serial candidate histories syntactically and filter
    # by spec membership; the generator must produce exactly that set, of
    # the size the hand-written generator it replaced produced
    ops_pool = ([("read", l, None) for l in range(locs)]
                + [("write", l, v) for l in range(locs)
                   for v in range(vals)]
                + [("alloc", None, None)])

    def histories_for(t, mems_unused, prefix, out):
        if t == txns:
            out.add(tuple(prefix))
            return
        base = prefix + [("inv", t, "begin", None, None),
                         ("res", t, "begin", None, None)]

        def with_ops(seq, k):
            tails = [seq + [("inv", t, "commit", None, None),
                            ("res", t, "commit", None, None)]]
            if k < ops:
                for op, loc, val in ops_pool:
                    if op == "read":
                        for v in range(vals + 1):  # include alloc-zero
                            tails += with_ops(
                                seq + [("inv", t, "read", loc, None),
                                       ("res", t, "read", loc, v)], k + 1)
                    elif op == "write":
                        tails += with_ops(
                            seq + [("inv", t, "write", loc, val),
                                   ("res", t, "write", loc, val)], k + 1)
                    else:
                        for l in range(locs):
                            tails += with_ops(
                                seq + [("inv", t, "alloc", None, None),
                                       ("res", t, "alloc", l, None)], k + 1)
            return tails

        for tail in with_ops(base, 0):
            histories_for(t + 1, None, tail, out)

    candidates = set()
    histories_for(0, None, [], candidates)
    oracle = {h for h in candidates if accepts_history(h, txns, locs)}
    assert oracle == sequential_histories(txns, locs, vals, ops)
    assert len(oracle) == count


# ---------------------------------------------------------------------------
# equivariance: frontier dedup's orbit key (explorer.orbit_keyer) relies on
# renaming ids commuting with advancing the frontier
# ---------------------------------------------------------------------------

def rename_record(pi, rec):
    """`rec` with transaction t renamed pi[t]."""
    return rec if rec[0] == "crash" else rec[:1] + (pi[rec[1]],) + rec[2:]


def inverse(pi):
    return tuple(sorted(range(len(pi)), key=pi.__getitem__))


# 2-txn cells explore every history; the 3-txn cells are scripted and keep
# the frontier representatives: a writer racing two allocating readers,
# recovery interleaved with a crash, and an access that faults
THREE_TXN_CELLS = {
    "race": ("pmdk-tml", dict(locs=2, scripts=ORACLE_RACE)),
    "recovery": ("pmdk-seq", dict(
        locs=1, prealloc=1, max_crashes=2, buf=1, ops=1, scripts=(
            ((("write", 0, 1),), 0), ((("write", 0, 1),), 1),
            ((("read", 0),), 2)))),
    "fault": ("pmdk-norec", dict(locs=2, max_crashes=1, buf=1, scripts=(
        ((("alloc",),), 0), ((("read", 0),), 0), ((("write", 1, 1),), 0)))),
}


def cell_histories(name):
    if name in THREE_TXN_CELLS:
        impl, bounds = THREE_TXN_CELLS[name]
        cfg = Config(impl, "psc", txns=3, por=True, **bounds)
        return cfg, explore(cfg, dedup="frontier").histories()
    impl, ops = name
    cfg = Config(impl, "psc", txns=2, locs=1, max_crashes=1, ops=ops,
                 por=True)
    return cfg, explore(cfg, check=False).histories()


@pytest.mark.parametrize("name", [("pmdk-seq", 2), ("pmdk-tml", 1)]
                         + sorted(THREE_TXN_CELLS),
                         ids=lambda name: "-".join(map(str, name))
                         if isinstance(name, tuple) else name)
def test_advance_frontier_is_equivariant(name):
    cfg, histories = cell_histories(name)
    perms = list(permutations(range(cfg.txns)))
    init = initial_frontier(cfg.txns, cfg.locs, cfg.prealloc)
    assert all(rename_frontier(init, pi) == init for pi in perms)
    frontier = {(): init}
    kinds = set()
    for h in histories:
        for i, rec in enumerate(h):
            if h[:i + 1] in frontier:
                continue
            kinds.add(rec[0])
            f = frontier[h[:i]]
            g = frontier[h[:i + 1]] = advance_frontier(f, rec)
            for pi in perms:
                # rename_record moves t to pi[t]; rename_frontier gathers.
                # A matched fault names no transaction: both sides accept
                back = inverse(pi)
                assert advance_frontier(rename_frontier(f, back),
                                        rename_record(pi, rec)) \
                    == (g if g == ACCEPT_ALL else rename_frontier(g, back)), \
                    (h[:i + 1], pi)
    if name != "race":
        assert "crash" in kinds
    if name in (("pmdk-seq", 2), "fault"):
        assert "fault" in kinds


# ---------------------------------------------------------------------------
# canonical form: the frontier drops what no step reads (refspec.canonical)
# ---------------------------------------------------------------------------

def raw_states(cfg, histories):
    """Every spec state of the raw frontiers along `histories`: advanced
    by ``match_record`` and ``raw_closure``, never put in canonical form."""
    init = initial_state(cfg.txns, cfg.locs, cfg.prealloc)
    frontier = {(): frozenset(raw_closure({init}))}
    out = set(frontier[()])
    for h in histories:
        for i, rec in enumerate(h):
            if rec[0] == "fault":       # a fault ends the run
                break
            if h[:i + 1] not in frontier:
                nxt = {match_record(st, rec) for st in frontier[h[:i]]}
                nxt.discard(None)
                g = frontier[h[:i + 1]] = frozenset(raw_closure(nxt))
                out |= g
    return out


def stale_reader(txns, locs):
    """A state whose live transaction's read set rules out a memory at or
    after its begin index: T0 began at memory 0 and read 0 at location 0,
    T1 committed a write of 1 there, and T0 reads location 0 again."""
    blank = (BOT,) * locs
    mems = ((0,) * locs, (1,) + (0,) * (locs - 1))
    reader = (("d", "read", 0), 0, (0,) + blank[1:], blank, 0)
    writer = (COMMITTED, 0, blank, blank, 0)
    st = mems, (reader, writer) + initial_state(txns, locs)[1][2:]
    assert valid_idx(0, reader, mems) and not valid_idx(1, reader, mems)
    return st


@pytest.mark.parametrize("name", [("pmdk-seq", 2), ("pmdk-tml", 1)]
                         + sorted(THREE_TXN_CELLS),
                         ids=lambda name: "-".join(map(str, name))
                         if isinstance(name, tuple) else name)
def test_canonical_form_is_exact(name):
    # a raw state and its canonical form step alike up to canonical form,
    # by every record and by commit steps, so the canonical frontier fold
    # is the canonical image of the raw one; advance_frontier puts states
    # in canonical form only after commit steps, aborts and crashes, so
    # every other record must keep a canonical state canonical.  The form
    # is a fixed point and commutes with renaming transactions
    cfg, histories = cell_histories(name)
    # the walks may not reach a live read set that rules out a memory, the
    # one field of a live transaction the form must keep beside its pc
    states = raw_states(cfg, histories) | {stale_reader(cfg.txns, cfg.locs)}
    records = alphabet(cfg.txns, cfg.locs, cfg.vals)
    perms = list(permutations(range(cfg.txns)))
    moved = Counter()
    for s in states:
        c = canonical(s)
        moved["state"] += c != s
        moved["memory"] += len(c[0]) < len(s[0])
        assert canonical(c) == c
        assert {canonical(x) for x in eps_successors(s)} \
            == {canonical(x) for x in eps_successors(c)}, s
        for pi in perms:
            assert rename_frontier({c}, pi) \
                == {canonical(x) for x in rename_frontier({s}, pi)}
        for rec in records:
            if rec[0] == "fault":
                assert fault_possible(s, *rec[1:]) \
                    == fault_possible(c, *rec[1:]), (s, rec)
                continue
            t, u = match_record(s, rec), match_record(c, rec)
            assert (t is None) == (u is None), (s, rec)
            if t is None:
                continue
            assert canonical(t) == canonical(u), (s, rec)
            if rec[0] != "crash" and rec[2] != "abort":
                assert canonical(u) == u, (s, rec)
    # the form drops something on every cell: finished transactions'
    # fields, and memories below every live begin index
    assert moved["state"] and moved["memory"], moved
