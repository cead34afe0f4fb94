"""Persistent-memory simulator: buffering, flush, crash semantics."""

import itertools

import pytest

from pmtxcheck.pmem import PMem, PSC, PTSO


def fresh(model, ncells=2, nthreads=2, cap=2):
    pm = PMem(ncells, nthreads, cap, model)
    return pm, pm.initial()


def test_psc_store_buffers_before_nvm():
    pm, st = fresh(PSC)
    st = pm.store(st, 0, 0, 1)
    assert st[1][0] == (1,)
    assert st[0][0] == 0


def test_ptso_store_invisible_to_other_thread():
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 1)
    assert pm.load(st, 0, 0) == 1   # own buffered store
    assert pm.load(st, 1, 0) == 0   # other thread sees NVM


def test_load_order_own_buffer_then_persist_then_nvm():
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 5)
    assert pm.load(st, 0, 0) == 5
    st = pm.propagate(st, 0)
    assert pm.load(st, 1, 0) == 5   # persistence buffer now visible to all
    st = pm.persist(st, 0)
    assert st[0][0] == 5
    assert pm.load(st, 1, 0) == 5


def test_fresh_load_returns_initial_zero():
    pm, st = fresh(PSC)
    assert pm.load(st, 0, 1) == 0


def test_psc_persist_then_visible_cross_thread():
    pm, st = fresh(PSC)
    st = pm.store(st, 0, 0, 3)
    st = pm.persist(st, 0)
    assert pm.load(st, 1, 0) == 3


def test_capacity_blocks_store():
    pm, st = fresh(PSC, cap=2)
    st = pm.store(st, 0, 0, 1)
    st = pm.store(st, 0, 0, 2)
    assert pm.store(st, 0, 0, 3) is None


def test_propagate_fifo_order_is_forced():
    # two same-cell stores propagate in order through every interleaving
    # of the (single-thread) propagate steps
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 1)
    st = pm.store(st, 0, 0, 2)
    st = pm.propagate(st, 0)
    st = pm.propagate(st, 0)
    assert st[1][0] == (1, 2)


def test_propagate_empty_buffer_disabled():
    pm, st = fresh(PTSO)
    assert pm.propagate(st, 0) is None


def test_propagate_interleaving_matches_persist_buffer_order():
    # per-location persistence order equals the order the propagate steps
    # were scheduled, whatever the interleaving across threads
    pm, st0 = fresh(PTSO)
    st0 = pm.store(st0, 0, 0, 1)
    st0 = pm.store(st0, 1, 0, 2)
    orders = {(0, 1): None, (1, 0): None}
    for order in orders:
        st = st0
        for tid in order:
            st = pm.propagate(st, tid)
        orders[order] = st[1][0]
    assert orders[(0, 1)] == (1, 2)
    assert orders[(1, 0)] == (2, 1)


def test_flush_ready_requires_drained_buffers():
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 1)
    assert not pm.flush_ready(st, 0, (0,))
    assert pm.flush_ready(st, 1, (0,))  # other thread has nothing pending
    st = pm.propagate(st, 0)
    assert not pm.flush_ready(st, 0, (0,))
    st = pm.persist(st, 0)
    assert pm.flush_ready(st, 0, (0,))


def test_flush_on_untouched_location_is_ready():
    pm, st = fresh(PSC)
    assert pm.flush_ready(st, 0, (1,))


def test_crash_discards_buffers_keeps_nvm():
    pm, st = fresh(PTSO)
    st = pm.store(st, 0, 0, 1)
    st = pm.propagate(st, 0)
    st = pm.persist(st, 0)
    st = pm.store(st, 0, 1, 9)
    st = pm.crash(st)
    assert st[0] == (1, 0)
    assert st[1] == ((), ())
    assert st[2] == ((), ())


def test_crash_on_fresh_state_is_identity_on_nvm():
    pm, st = fresh(PSC)
    assert pm.crash(st)[0] == st[0]


# ---------------------------------------------------------------------------
# enumeration oracles over raw memory steps
# ---------------------------------------------------------------------------

def _reachable(pm, st0, steps):
    """All states reachable by interleaving the enabled system steps."""
    seen = {st0}
    work = [st0]
    while work:
        st = work.pop()
        for nxt in steps(pm, st):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def _system_steps(pm, st):
    out = []
    if st[2] is not None:
        for tid in range(pm.nthreads):
            nxt = pm.propagate(st, tid)
            if nxt is not None:
                out.append(nxt)
    for c in pm.persistable(st):
        out.append(pm.persist(st, c))
    return out


def test_crash_prefix_persistence_by_enumeration():
    # two buffered writes to one location: post-crash NVM is exactly the
    # value after some prefix of the persist history
    pm, st = fresh(PSC, ncells=1, cap=2)
    st = pm.store(st, 0, 0, 1)
    st = pm.store(st, 0, 0, 2)
    nvms = {pm.crash(s)[0][0] for s in _reachable(pm, st, _system_steps)}
    assert nvms == {0, 1, 2}


def test_crash_candidates_match_enumerated_prefixes():
    for model in (PSC, PTSO):
        pm, st = fresh(model, ncells=2, cap=2)
        st = pm.store(st, 0, 0, 1)
        st = pm.store(st, 0, 1, 2)
        if model == PTSO:
            st = pm.store(st, 1, 0, 2)
        enumerated = {pm.crash(s)[0]
                      for s in _reachable(pm, st, _system_steps)}
        cands = pm.crash_nvm_candidates(st)
        product = {tuple(pick)
                   for pick in itertools.product(*cands)}
        assert enumerated == product


def test_flush_forces_target_only():
    # after flushing x, every completed-flush state has x persisted while
    # y may remain buffered in at least one of them
    pm, st = fresh(PTSO, ncells=2, cap=2)
    st = pm.store(st, 0, 0, 1)
    st = pm.store(st, 0, 1, 2)
    ready = [s for s in _reachable(pm, st, _system_steps)
             if pm.flush_ready(s, 0, (0,))]
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
        results.add((loads, pm.crash(mem)[0]))
        for mem2 in _system_steps(pm, mem):
            work.append((mem2, loads, pos))
        if pos < len(program):
            op = program[pos]
            if op[0] == "store":
                mem2 = pm.store(mem, 0, op[1], op[2])
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
    st = pm.store(st, 0, 0, 1)
    st = pm.store(st, 1, 0, 2)
    for s in _reachable(pm, st, _system_steps):
        for tid in range(2):
            assert pm.load(s, tid, 0) in written
