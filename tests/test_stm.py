"""Concurrency layers: lock discipline, validation, recovery reset.

Conflict tests run two transactions over a preallocated heap (the
allocation metadata of the first `prealloc` locations is already durable),
which keeps exhaustive history collection small.
"""

import pytest

from pmtxcheck.engine import (COMM, DEAD, END, M_CRASH, M_FREE, M_GLB, M_MEM,
                              M_REC, M_TXNS, RUN, S_AM, S_IP, S_LOC, S_RD,
                              S_REGS, S_ST, S_WR, fresh_slot, initial_machine,
                              set_mem, slot_upd, spent_slot)
from pmtxcheck.explorer import PRUNED, Config, explore
from pmtxcheck.pmdk import fault_check
from pmtxcheck.pmem import REDUCED


def histories(cfg, **kw):
    r = explore(cfg, **kw)
    return r.histories(), r


def outcome(h, t):
    if any(rec[:2] == ("fault", t) for rec in h):
        return "fault"
    if ("res", t, "commit", None, None) in h:
        return "commit"
    if ("res", t, "abort", None, None) in h:
        return "abort"
    return "incomplete"


def test_two_read_only_transactions_always_commit():
    for impl in ("pmdk-tml", "pmdk-norec"):
        cfg = Config(impl, "psc", txns=2, locs=1, vals=2, buf=2, ops=1,
                     por=True, retry_bound=2, prealloc=1,
                     scripts=(((("read", 0),), 0), ((("read", 0),), 0)))
        hs, r = histories(cfg)
        assert not r.violations
        for h in hs:
            assert outcome(h, 0) == "commit"
            assert outcome(h, 1) == "commit"
            for rec in h:
                if rec[0] == "res" and rec[2] == "read":
                    assert rec[4] == 0


def test_tml_reader_aborts_when_writer_intervenes():
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, vals=2, buf=2, ops=1,
                 por=True, prealloc=1,
                 scripts=(((("write", 0, 1),), 0), ((("read", 0),), 0)))
    hs, r = histories(cfg)
    assert not r.violations
    assert any(outcome(h, 1) == "abort" for h in hs)
    assert any(outcome(h, 1) == "commit" for h in hs)
    # a reader that aborts never returned a value
    for h in hs:
        if outcome(h, 1) == "abort":
            assert not any(rec[:3] == ("res", 1, "read") for rec in h)


def test_tml_writer_reads_own_write_directly():
    cfg = Config("pmdk-tml", "psc", txns=1, locs=1, vals=3, buf=2, ops=2,
                 por=True, prealloc=1,
                 scripts=(((("write", 0, 2), ("read", 0)), 0),))
    hs, r = histories(cfg)
    assert not r.violations
    for h in hs:
        reads = [rec for rec in h if rec[:3] == ("res", 0, "read")]
        assert reads and all(rec[4] == 2 for rec in reads)


def test_norec_read_hits_own_write_buffer():
    cfg = Config("pmdk-norec", "psc", txns=1, locs=1, vals=3, buf=2, ops=2,
                 por=True, prealloc=1,
                 scripts=(((("write", 0, 2), ("read", 0)), 0),))
    hs, r = histories(cfg)
    assert not r.violations
    for h in hs:
        reads = [rec for rec in h if rec[:3] == ("res", 0, "read")]
        assert reads and all(rec[4] == 2 for rec in reads)


def test_norec_validation_aborts_stale_snapshot():
    # one transaction snapshots location 0 and then commits a write to
    # location 1; the other commits a write to location 0 in between
    cfg = Config("pmdk-norec", "psc", txns=2, locs=2, vals=2, buf=2, ops=2,
                 por=True, retry_bound=2, prealloc=2,
                 scripts=(((("read", 0), ("write", 1, 1)), 0),
                          ((("write", 0, 1),), 0)))
    hs, r = histories(cfg)
    assert not r.violations
    assert any(outcome(h, 0) == "abort" for h in hs)
    assert any(outcome(h, 0) == "commit" for h in hs)


@pytest.mark.parametrize("v,end", [(0, "commit"), (1, "abort")])
def test_norec_revalidates_read_set_by_value(v, end):
    # T0 reads location 0, T1 commits a write of v to it, then T0 reads
    # location 1: the moved glb makes T0 revalidate its read set, which
    # passes when the value is still 0 and aborts T0 when it is not
    cfg = Config("pmdk-norec", "psc", txns=2, locs=2, vals=2, buf=2, ops=2,
                 por=True, prealloc=2,
                 scripts=(((("read", 0), ("read", 1)), 0),
                          ((("write", 0, v),), 0)))
    hs, r = histories(cfg)
    assert not r.violations
    commit = ("res", 1, "commit", None, None)
    chosen = [h for h in hs if commit in h
              and ("res", 0, "read", 0, 0) in h[:h.index(commit)]
              and ("inv", 0, "read", 1, None) in h[h.index(commit):]]
    assert len(chosen) == 56
    assert {h[-1] for h in chosen} == {("res", 0, end, None, None)}


def test_write_lock_mutual_exclusion():
    # never two transactions simultaneously past the commit no-return point
    # with buffered writes (NOrec) or holding an odd lock snapshot (TML)
    for impl in ("pmdk-tml", "pmdk-norec"):
        cfg = Config(impl, "psc", txns=2, locs=2, vals=2, buf=2, ops=2,
                     por=True)

        def hook(c, m, hid):
            glb = m[M_GLB]
            if impl == "pmdk-tml":
                # a TML holder's CAS installed glb == its odd snapshot
                holders = [s for s in m[M_TXNS]
                           if s[S_LOC] % 2 and glb == s[S_LOC]]
            else:
                # a NOrec holder's CAS installed glb == snapshot + 1 and it
                # is executing its write-back/commit region
                holders = [s for s in m[M_TXNS]
                           if s[S_ST] == RUN and s[S_IP] in c.noabort_ips
                           and any(v != -1 for v in s[S_WR])
                           and glb == s[S_LOC] + 1]
            assert len(holders) <= 1

        explore(cfg, dedup="frontier", state_hook=hook)


def test_norec_never_reads_unpublished_buffered_write():
    # lazy write-back: a buffered value is invisible to other transactions
    # until the owner's write-back ran
    cfg = Config("pmdk-norec", "psc", txns=2, locs=1, vals=3, buf=2, ops=1,
                 por=True, retry_bound=2, prealloc=1,
                 scripts=(((("write", 0, 2),), 0), ((("read", 0),), 0)))
    hs, r = histories(cfg)
    assert not r.violations
    for h in hs:
        committed = False
        for rec in h:
            if rec[:3] == ("inv", 0, "commit"):
                committed = True
            if rec[:3] == ("res", 1, "read") and not committed:
                assert rec[4] != 2


def test_recovery_resets_lock():
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, vals=2, buf=2,
                 max_crashes=1, ops=1, por=True, prealloc=1,
                 scripts=(((("write", 0, 1),), 0), ((("read", 0),), 1)))

    from pmtxcheck.engine import DEAD, NS

    def hook(c, m, hid):
        # once recovery finished and before any new-era transaction has
        # begun, the lock counter is back to zero
        if m[M_REC] is None and m[M_CRASH] > 0:  # crashes happened
            if all(s[S_ST] in (NS, DEAD) for s in m[M_TXNS]):
                assert m[M_GLB] == 0

    r = explore(cfg, dedup="frontier", state_hook=hook)
    assert not r.violations


def test_era_ids_never_reused():
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, vals=2, buf=2,
                 max_crashes=1, ops=1, por=True)
    hs, r = histories(cfg)
    assert not r.violations
    for h in hs:
        era = 0
        tx_era = {}
        for rec in h:
            if rec == ("crash",):
                era += 1
                continue
            if rec[0] in ("inv", "res", "fault"):
                t = rec[1]
                assert tx_era.setdefault(t, era) == era


def test_crash_during_write_back_rolls_back():
    # writer crashes mid write-back: the post-crash reader sees all of its
    # writes or none, never a torn subset
    cfg = Config("pmdk-norec", "psc", txns=2, locs=2, vals=2, buf=2,
                 max_crashes=1, ops=2, por=True, prealloc=2,
                 scripts=(((("write", 0, 1), ("write", 1, 1)), 0),
                          ((("read", 0), ("read", 1)), 1)))
    hs, r = histories(cfg)
    assert not r.violations
    torn = set()
    for h in hs:
        if ("crash",) not in h:
            continue
        reads = {rec[3]: rec[4] for rec in h
                 if rec[:3] == ("res", 1, "read")}
        if len(reads) == 2:
            assert reads in ({0: 0, 1: 0}, {0: 1, 1: 1})
            torn.add((reads[0], reads[1]))
    assert (0, 0) in torn and (1, 1) in torn


def test_retry_bound_cuts_are_reported_not_violations():
    # with a zero retry bound a contended commit is pruned as a cut
    cfg = Config("pmdk-norec", "psc", txns=2, locs=1, vals=2, buf=2, ops=1,
                 por=True, retry_bound=0, prealloc=1,
                 scripts=(((("write", 0, 1),), 0), ((("write", 0, 1),), 0)))
    hs, r = histories(cfg)
    assert not r.violations
    assert r.histories(PRUNED)


# ---------------------------------------------------------------------------
# an access waits for a committing allocator
# ---------------------------------------------------------------------------

# the five steps that check access validity, each as (impl, step name, its
# registers and further slot fields for an access of location 0): the
# core's load and write guard, and NOrec's read, buffered write and read
# set check
ACCESSES = [
    ("pmdk-tml", "pread.load", (0,), ()),
    ("pmdk-tml", "pwrite.guard", (0, 1), ()),
    ("pmdk-norec", "read.n0", (0,), ()),
    ("pmdk-norec", "write.buffer", (0, 1), ()),
    ("pmdk-norec", "rvalidate.check", (0, 0, 0, 0b1), ((S_RD, (0,)),)),
]


def access_machine(cfg, other, published=False, pairs=()):
    """Two transactions at one location, which thread 1 (slot `other`)
    took off the free list: thread 0 runs, with the slot updates `pairs`.
    With `published`, location 0's allocation metadata is in NVM."""
    mine = slot_upd(fresh_slot(cfg), (S_ST, RUN), *pairs)
    m = initial_machine(cfg)
    m = m[:M_FREE] + (0, (mine, other)) + m[M_TXNS + 1:]
    if published:
        m = set_mem(m, cfg.pmem.store(m[M_MEM], 1, cfg.layout.meta(0), 1,
                                      REDUCED))
    return m


def allocator(cfg, step):
    """Thread 1's running slot at `step`, location 0 in its allocations."""
    return slot_upd(fresh_slot(cfg), (S_ST, RUN), (S_AM, 0b1),
                    (S_IP, cfg.step_names.index(step)))


def test_fault_check_answers_ok_blocked_or_fault():
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, por=True)
    committing = allocator(cfg, "pcommit.pw")
    assert cfg.step_names.index("pcommit.pw") in cfg.noabort_ips
    # another transaction past its point of no return allocated it: wait
    assert fault_check(cfg, access_machine(cfg, committing), 0, 0) is None
    # before its point of no return, or unpublished once it ended: a fault
    for other in (allocator(cfg, "palloc.res"), spent_slot(cfg, DEAD)):
        assert fault_check(cfg, access_machine(cfg, other), 0, 0) is True
    # published, or self-allocated: no fault
    assert fault_check(cfg, access_machine(cfg, spent_slot(cfg, COMM),
                                           published=True), 0, 0) is False
    own = access_machine(cfg, committing, pairs=((S_AM, 0b1),))
    assert fault_check(cfg, own, 0, 0) is False


@pytest.mark.parametrize("impl,step,regs,fields", ACCESSES,
                         ids=[a[1] for a in ACCESSES])
def test_access_waits_while_allocator_commits(impl, step, regs, fields):
    # each caller of fault_check blocks while another running transaction
    # at a no-abort step holds the location in its allocations; once that
    # transaction has left its commit, with the allocation published, the
    # step proceeds, and before its point of no return it faults
    cfg = Config(impl, "psc", txns=2, locs=1, por=True)
    pairs = ((S_IP, cfg.step_names.index(step)), (S_REGS, regs)) + fields

    def run(other, published=False):
        m = access_machine(cfg, other, published, pairs=pairs)
        return cfg.step_table[pairs[0][1]](m, 0, cfg.regime(m))

    for ip in cfg.noabort_ips:
        assert run(allocator(cfg, cfg.step_names[ip])) is None
    op = "write" if len(regs) == 2 else "read"
    assert run(allocator(cfg, "palloc.res")) == [(END, ("fault", 0, op, 0))]
    after = run(spent_slot(cfg, COMM), published=True)
    assert after and all(target != END for target, _rec in after)
