"""Persistent-memory simulator: buffering, flush, crash semantics."""

import itertools

import pytest

from pmtxcheck.pmem import EXACT, POR, PSC, PTSO, REDUCED, PMem


def fresh(model, ncells=2, nthreads=2, cap=2):
    pm = PMem(ncells, nthreads, cap, model)
    return pm, pm.initial()


def test_psc_store_buffers_before_nvm():
    pm, st = fresh(PSC)
    st = pm.store(st, 0, 0, 1, EXACT)
    assert st[1][0] == (1,)
    assert st[0][0] == 0


def test_ptso_store_invisible_to_other_thread():
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 1, EXACT)
    assert pm.load(st, 0, 0) == 1   # own buffered store
    assert pm.load(st, 1, 0) == 0   # other thread sees NVM


def test_load_order_own_buffer_then_persist_then_nvm():
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 5, EXACT)
    assert pm.load(st, 0, 0) == 5
    st = pm.propagate(st, 0, EXACT)
    assert pm.load(st, 1, 0) == 5   # persistence buffer now visible to all
    st = pm.persist(st, 0)
    assert st[0][0] == 5
    assert pm.load(st, 1, 0) == 5


def test_fresh_load_returns_initial_zero():
    pm, st = fresh(PSC)
    assert pm.load(st, 0, 1) == 0


def test_psc_persist_then_visible_cross_thread():
    pm, st = fresh(PSC)
    st = pm.store(st, 0, 0, 3, EXACT)
    st = pm.persist(st, 0)
    assert pm.load(st, 1, 0) == 3


def test_capacity_blocks_store():
    pm, st = fresh(PSC, cap=2)
    st = pm.store(st, 0, 0, 1, EXACT)
    st = pm.store(st, 0, 0, 2, EXACT)
    assert pm.store(st, 0, 0, 3, EXACT) is None


def test_propagate_fifo_order_is_forced():
    # two same-cell stores propagate in order through every interleaving
    # of the (single-thread) propagate steps
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 1, EXACT)
    st = pm.store(st, 0, 0, 2, EXACT)
    st = pm.propagate(st, 0, EXACT)
    st = pm.propagate(st, 0, EXACT)
    assert st[1][0] == (1, 2)


def test_propagate_empty_buffer_disabled():
    pm, st = fresh(PTSO)
    assert pm.propagate(st, 0, EXACT) is None


def test_propagate_interleaving_matches_persist_buffer_order():
    # per-location persistence order equals the order the propagate steps
    # were scheduled, whatever the interleaving across threads
    pm, st0 = fresh(PTSO)
    st0 = pm.store(st0, 0, 0, 1, EXACT)
    st0 = pm.store(st0, 1, 0, 2, EXACT)
    orders = {(0, 1): None, (1, 0): None}
    for order in orders:
        st = st0
        for tid in order:
            st = pm.propagate(st, tid, EXACT)
        orders[order] = st[1][0]
    assert orders[(0, 1)] == (1, 2)
    assert orders[(1, 0)] == (2, 1)


def test_flush_ready_requires_drained_buffers():
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 1, EXACT)
    assert pm.flush(st, 0, (0,), EXACT) is None
    # the other thread has nothing pending
    assert pm.flush(st, 1, (0,), EXACT) == st
    st = pm.propagate(st, 0, EXACT)
    assert pm.flush(st, 0, (0,), EXACT) is None
    st = pm.persist(st, 0)
    assert pm.flush(st, 0, (0,), EXACT) == st


def test_flush_on_untouched_location_is_ready():
    pm, st = fresh(PSC)
    assert pm.flush(st, 0, (1,), EXACT) == st


def test_crash_discards_buffers_keeps_nvm():
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 1, EXACT)
    st = pm.propagate(st, 0, EXACT)
    st = pm.persist(st, 0)
    st = pm.store(st, 0, 1, 9, EXACT)
    [st] = pm.crash(st, EXACT)
    assert st[0] == (1, 0)
    assert st[1] == ((), ())
    assert st[2] == ((), ())


def test_crash_on_fresh_state_is_identity_on_nvm():
    pm, st = fresh(PSC)
    assert pm.crash(st, EXACT) == [st]


# ---------------------------------------------------------------------------
# enumeration oracles over raw memory steps
# ---------------------------------------------------------------------------

def _reachable(pm, st0):
    """All states reachable by interleaving the enabled system steps, each
    persist a step of its own (``EXACT``)."""
    seen = {st0}
    work = [st0]
    while work:
        st = work.pop()
        for nxt in pm.system_steps(st, EXACT):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def _crashed_nvm(pm, st):
    [crashed] = pm.crash(st, EXACT)
    return crashed[0]


def test_crash_prefix_persistence_by_enumeration():
    # two buffered writes to one location: post-crash NVM is exactly the
    # value after some prefix of the persist history
    pm, st = fresh(PSC, ncells=1, cap=2)
    st = pm.store(st, 0, 0, 1, EXACT)
    st = pm.store(st, 0, 0, 2, EXACT)
    nvms = {_crashed_nvm(pm, s)[0] for s in _reachable(pm, st)}
    assert nvms == {0, 1, 2}


def test_crash_candidates_match_enumerated_prefixes():
    for model in (PSC, PTSO):
        pm, st = fresh(model, ncells=2, cap=2)
        st = pm.store(st, 0, 0, 1, EXACT)
        st = pm.store(st, 0, 1, 2, EXACT)
        if model == PTSO:
            st = pm.store(st, 1, 0, 2, EXACT)
        enumerated = {_crashed_nvm(pm, s) for s in _reachable(pm, st)}
        cands = pm.crash_nvm_candidates(st)
        product = {tuple(pick)
                   for pick in itertools.product(*cands)}
        assert enumerated == product
        # a crash under --por leaves each of them once, without steps
        assert [m[0] for m in pm.crash(st, POR)] == list(
            itertools.product(*cands))


def test_flush_forces_target_only():
    # after flushing x, every completed-flush state has x persisted while
    # y may remain buffered in at least one of them
    pm, st = fresh(PTSO, ncells=2, cap=2)
    st = pm.store(st, 0, 0, 1, EXACT)
    st = pm.store(st, 0, 1, 2, EXACT)
    ready = [s for s in _reachable(pm, st)
             if pm.flush(s, 0, (0,), EXACT) is not None]
    assert ready
    assert all(s[0][0] == 1 for s in ready)
    assert any(s[0][1] == 0 for s in ready)


def _client_outcomes(pm, program):
    """Single-threaded client: all (load results, post-crash nvm) pairs
    reachable by interleaving the program with system steps."""
    results = set()
    seen = set()
    work = [(pm.initial(), (), 0)]
    while work:
        mem, loads, pos = work.pop()
        key = (mem, loads, pos)
        if key in seen:
            continue
        seen.add(key)
        results.add((loads, _crashed_nvm(pm, mem)))
        for mem2 in pm.system_steps(mem, EXACT):
            work.append((mem2, loads, pos))
        if pos < len(program):
            op = program[pos]
            if op[0] == "store":
                mem2 = pm.store(mem, 0, op[1], op[2], EXACT)
                if mem2 is not None:
                    work.append((mem2, loads, pos + 1))
            elif op[0] == "load":
                v = pm.load(mem, 0, op[1])
                work.append((mem, loads + (v,), pos + 1))
    return results


@pytest.mark.parametrize("program", [
    (("store", 0, 1), ("load", 0), ("store", 1, 1), ("load", 1)),
    (("store", 0, 1), ("store", 0, 0), ("load", 0)),
    (("load", 0), ("store", 1, 1), ("load", 1), ("load", 0)),
])
def test_single_thread_outcomes_agree_across_models(program):
    # for race-free (single-threaded) clients the two models expose the
    # same load results and the same reachable post-crash memories
    outcomes = {}
    for model in (PSC, PTSO):
        pm = PMem(2, 1, 2, model)
        outcomes[model] = _client_outcomes(pm, program)
    assert outcomes[PSC] == outcomes[PTSO]


def test_load_never_observes_unwritten_value():
    pm, st = fresh(PTSO, ncells=1, cap=2)
    written = {0, 1, 2}
    st = pm.store(st, 0, 0, 1, EXACT)
    st = pm.store(st, 1, 0, 2, EXACT)
    for s in _reachable(pm, st):
        for tid in range(2):
            assert pm.load(s, tid, 0) in written


# ---------------------------------------------------------------------------
# persist regimes
# ---------------------------------------------------------------------------

def psc(nvm, pbuf):
    """A PSC state of one cell."""
    return ((nvm,), (pbuf,), None)


def ptso(nvm, pbuf, sbuf):
    """A PTSO state of one cell and one thread."""
    return ((nvm,), (pbuf,), (sbuf,))


# (model, operation) -> [(before, {regime: after})] for one cell, one thread
# and capacity 1: thread 0 stores 2 into the cell, flushes it or propagates
# its store-buffer head; after is None when the operation blocks.  PSC has
# no store buffer to propagate from.
REGIME_TABLE = {
    (PSC, "store"): [
        (psc(0, ()), {EXACT: psc(0, (2,)), POR: psc(0, (2,)),
                      REDUCED: psc(2, ())}),
        # a full persistence buffer blocks, or its head persists first
        (psc(0, (1,)), {EXACT: None, POR: psc(1, (2,))}),
    ],
    (PTSO, "store"): [
        # every regime stores through the store buffer, which other
        # threads' loads tell apart, and a full one blocks
        (ptso(0, (), ()), {r: ptso(0, (), ((0, 2),))
                           for r in (EXACT, POR, REDUCED)}),
        (ptso(0, (), ((0, 1),)), {r: None for r in (EXACT, POR, REDUCED)}),
    ],
    (PSC, "flush"): [
        (psc(0, ()), {r: psc(0, ()) for r in (EXACT, POR, REDUCED)}),
        # EXACT waits for the persists; the others drain the buffer
        (psc(0, (1,)), {EXACT: None, POR: psc(1, ()), REDUCED: psc(1, ())}),
    ],
    (PTSO, "flush"): [
        # the thread's own buffered store to the cell blocks in every regime
        (ptso(0, (), ((0, 1),)), {r: None for r in (EXACT, POR, REDUCED)}),
        (ptso(0, (1,), ()), {EXACT: None, POR: ptso(1, (), ()),
                             REDUCED: ptso(1, (), ())}),
    ],
    (PTSO, "propagate"): [
        (ptso(0, (), ()), {r: None for r in (EXACT, POR, REDUCED)}),
        (ptso(0, (), ((0, 2),)), {EXACT: ptso(0, (2,), ()),
                                  POR: ptso(0, (2,), ()),
                                  REDUCED: ptso(2, (), ())}),
        # into a full persistence buffer, as a store under PSC
        (ptso(0, (1,), ((0, 2),)), {EXACT: None, POR: ptso(1, (2,), ())}),
    ],
}


def test_operations_follow_their_regime():
    covered = set()
    for (model, op), cases in REGIME_TABLE.items():
        pm = PMem(1, 1, 1, model)
        run = {"store": lambda st, r: pm.store(st, 0, 0, 2, r),
               "flush": lambda st, r: pm.flush(st, 0, (0,), r),
               "propagate": lambda st, r: pm.propagate(st, 0, r)}[op]
        for before, outcomes in cases:
            for regime, after in outcomes.items():
                assert run(before, regime) == after, \
                    (model, op, regime, before)
                covered.add((model, regime, op))
    assert covered == set(itertools.product(
        (PSC, PTSO), (EXACT, POR, REDUCED),
        ("store", "flush", "propagate"))) - {
            (PSC, r, "propagate") for r in (EXACT, POR, REDUCED)}


# model -> [(before, {regime: (system steps, crash outcomes)})] for two
# cells, two threads and capacity 2, both lists in the order PMem gives.
# PTSO: thread 0 has buffered a store of 3 to cell 1, thread 1 one of 4
# to cell 0; cell 0 holds 1 in NVM and 2 in its persistence buffer.
# REDUCED has empty persistence buffers, since no crash is left to
# discard them
SYSTEM_TABLE = {
    PSC: [
        (((0, 0), ((), ()), None),
         {r: ([], [((0, 0), ((), ()), None)])
          for r in (EXACT, POR, REDUCED)}),
        (((1, 0), ((2,), (1, 2)), None), {
            # persists in cell order, under EXACT only
            EXACT: ([((2, 0), ((), (1, 2)), None),
                     ((1, 1), ((2,), (2,)), None)],
                    [((1, 0), ((), ()), None)]),
            # every choice of each cell's candidate, the last cell fastest
            POR: ([], [((nvm, (0, 1, 2)[k]), ((), ()), None)
                       for nvm in (1, 2) for k in range(3)]),
        }),
    ],
    PTSO: [
        (((1, 0), ((2,), ()), (((1, 3),), ((0, 4),))), {
            # propagations in thread order, then persists
            EXACT: ([((1, 0), ((2,), (3,)), ((), ((0, 4),))),
                     ((1, 0), ((2, 4), ()), (((1, 3),), ())),
                     ((2, 0), ((), ()), (((1, 3),), ((0, 4),)))],
                    [((1, 0), ((), ()), ((), ()))]),
            POR: ([((1, 0), ((2,), (3,)), ((), ((0, 4),))),
                   ((1, 0), ((2, 4), ()), (((1, 3),), ()))],
                  [((nvm, v), ((), ()), ((), ()))
                   for nvm in (1, 2, 4) for v in (0, 3)]),
        }),
        (((1, 0), ((), ()), (((1, 3),), ((0, 4),))), {
            REDUCED: ([((1, 3), ((), ()), ((), ((0, 4),))),
                       ((4, 0), ((), ()), (((1, 3),), ()))],
                      [((nvm, v), ((), ()), ((), ()))
                       for nvm in (1, 4) for v in (0, 3)]),
        }),
    ],
}


def test_system_steps_and_crash_follow_their_regime():
    covered = set()
    for model, cases in SYSTEM_TABLE.items():
        pm = PMem(2, 2, 2, model)
        for before, outcomes in cases:
            for regime, (steps, crashed) in outcomes.items():
                assert pm.system_steps(before, regime) == steps, \
                    (model, regime, before)
                assert pm.crash(before, regime) == crashed, \
                    (model, regime, before)
                covered.add((model, regime))
    assert covered == set(itertools.product((PSC, PTSO),
                                            (EXACT, POR, REDUCED)))


def test_persist_all_commutes_with_every_operation():
    # a machine that enters REDUCED with buffered persists persists them
    # all first (engine.forced).  Persisting then running an operation in
    # REDUCED reaches what running it in POR then persisting reaches, it
    # blocks in the same states, and loads read the same values: so the
    # two regimes emit the same records.  One cell, one thread, capacity 2
    for model in (PSC, PTSO):
        pm = PMem(1, 1, 2, model)
        ops = [lambda st, r: pm.store(st, 0, 0, 2, r),
               lambda st, r: pm.flush(st, 0, (0,), r)]
        sbufs = [None]
        if model == PTSO:
            ops.append(lambda st, r: pm.propagate(st, 0, r))
            sbufs = [((),), (((0, 1),),), (((0, 1), (0, 2)),)]
        for nvm, pbuf, sb in itertools.product(
                (0, 1), ((), (1,), (1, 2)), sbufs):
            st = ((nvm,), (pbuf,), sb)
            flat = pm.persist_all(st)
            assert flat[1] == ((),) and flat[2] == sb
            assert (flat is st) == (pbuf == ())
            assert pm.load(flat, 0, 0) == pm.load(st, 0, 0)
            for op in ops:
                after = op(st, POR)
                want = None if after is None else pm.persist_all(after)
                assert op(flat, REDUCED) == want, (model, st)

