"""Transactional core: undo/redo machinery, commit windows, recovery."""

from pmtxcheck.engine import (DEAD, M_CRASH, M_FREE, M_MEM, M_REC, M_TXNS,
                              NS, RUN, S_AM, S_IP, S_ST, TERMINAL)
from pmtxcheck.explorer import Config, explore
from pmtxcheck.pmdk import Layout, calc_checksum


def cfg_seq(**kw):
    defaults = dict(txns=1, locs=2, vals=2, buf=2, max_crashes=0, ops=2,
                    por=True)
    defaults.update(kw)
    return Config("pmdk-seq", kw.pop("model", "psc"), **defaults)


def histories(cfg, **kw):
    r = explore(cfg, **kw)
    return r.histories(), r


# ---------------------------------------------------------------------------
# checksum
# ---------------------------------------------------------------------------

def test_checksum_deterministic():
    assert calc_checksum(0, 0b01) == calc_checksum(0, 0b01)


def test_checksum_never_matches_invalid_sentinel():
    for uv in (0, 1):
        for mask in range(1 << 4):
            assert calc_checksum(uv, mask) != -1


def test_checksum_injective_at_bound():
    seen = set()
    for uv in (0, 1):
        for mask in range(1 << 4):
            v = calc_checksum(uv, mask)
            assert v not in seen
            seen.add(v)


def test_layout_cells_disjoint():
    lay = Layout(2, 2)
    cells = [lay.val(0), lay.val(1), lay.meta(0), lay.meta(1)]
    for t in range(2):
        cells += [lay.undo(t, 0), lay.undo(t, 1), lay.pa(t), lay.puv(t),
                  lay.pck(t), lay.guv(t)]
    assert len(set(cells)) == lay.ncells == len(cells)


# ---------------------------------------------------------------------------
# sequential transactions, no crash
# ---------------------------------------------------------------------------

def test_write_read_back():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=1, vals=8, buf=2, ops=2,
                 por=True,
                 scripts=(((("alloc",), ("write", 0, 7)), 0),))
    hs, r = histories(cfg)
    assert not r.violations
    assert all(("res", 0, "write", 0, 7) in h for h in hs)


def test_second_write_keeps_first_undo_entry():
    # write 1 then 2 to one location, crash anywhere: a post-crash reader
    # sees the pre-transaction 0 (rollback) or the final 2 (commit landed),
    # never the intermediate 1 -- the undo log keeps the first entry
    cfg = Config("pmdk-seq", "psc", txns=3, locs=1, vals=3, buf=2,
                 max_crashes=1, ops=2, por=True,
                 scripts=(((("alloc",),), 0),
                          ((("write", 0, 1), ("write", 0, 2)), 0),
                          ((("read", 0),), 1)))
    hs, r = histories(cfg)
    assert not r.violations
    seen = set()
    for h in hs:
        crash_at = next((i for i, rec in enumerate(h) if rec == ("crash",)),
                        None)
        read = next((rec for rec in h if rec[:3] == ("res", 2, "read")),
                    None)
        if crash_at is None or read is None:
            continue
        seen.add(read[4])
        inv_begin = next((i for i, rec in enumerate(h)
                          if rec[:3] == ("inv", 1, "begin")), None)
        inv_commit = next((i for i, rec in enumerate(h)
                           if rec[:3] == ("inv", 1, "commit")), None)
        if inv_begin is not None and inv_begin < crash_at and (
                inv_commit is None or crash_at < inv_commit):
            assert read[4] == 0  # rollback guaranteed before the commit
    assert seen == {0, 2}


def test_read_only_commit_leaves_memory_untouched():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=1, vals=2, buf=2, ops=1,
                 por=True, scripts=(((), 0),))
    hs, r = histories(cfg)
    assert not r.violations
    assert hs == [(
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
    )]


def test_alloc_lowest_first_and_distinct():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=2, vals=2, buf=2, ops=2,
                 por=True, scripts=(((("alloc",), ("alloc",)), 0),))
    hs, r = histories(cfg)
    assert not r.violations
    for h in hs:
        allocs = [rec[3] for rec in h if rec[:3] == ("res", 0, "alloc")]
        assert allocs == [0, 1]


def test_alloc_branching_covers_all_free_locations():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=2, vals=2, buf=2, ops=1,
                 por=True, branch_alloc=True,
                 scripts=(((("alloc",),), 0),))
    hs, _r = histories(cfg)
    allocs = {rec[3] for h in hs for rec in h
              if rec[:3] == ("res", 0, "alloc")}
    assert allocs == {0, 1}


def test_alloc_exhaustion_stalls_transaction():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=1, vals=1, buf=2, ops=2,
                 por=True, scripts=(((("alloc",), ("alloc",)), 0),))
    hs, r = histories(cfg)
    assert not r.violations
    # the second allocation never responds
    for h in hs:
        assert sum(rec[:3] == ("inv", 0, "alloc") for rec in h) == 2
        assert sum(rec[:3] == ("res", 0, "alloc") for rec in h) == 1


def test_each_transaction_begins_once():
    cfg = cfg_seq(txns=2, max_crashes=1)
    hs, _r = histories(cfg)
    for h in hs:
        for t in (0, 1):
            assert sum(rec[:3] == ("inv", t, "begin") for rec in h) <= 1


# ---------------------------------------------------------------------------
# crash and recovery
# ---------------------------------------------------------------------------

def test_crash_recover_rolls_back_uncommitted_write():
    # a crash strictly before the commit invocation always rolls back
    from pmtxcheck.explorer import run_intro_cases
    buckets, res = run_intro_cases("psc")
    assert not res.violations
    assert buckets["before-commit"] == {"fault"}
    assert buckets["after-commit"] == {42}
    assert buckets["during-commit"] == {"fault", 42}


def test_recovery_rebuilds_free_list_from_metadata():
    # alloc + commit, crash, then the next transaction must allocate the
    # other location (metadata survived), never the committed one
    cfg = Config("pmdk-seq", "psc", txns=2, locs=2, vals=2, buf=2,
                 max_crashes=1, ops=1, por=True,
                 scripts=(((("alloc",),), 0), ((("alloc",),), 1)))
    hs, r = histories(cfg)
    assert not r.violations
    for h in hs:
        if ("res", 0, "commit", None, None) in h and ("crash",) in h:
            second = [rec for rec in h if rec[:3] == ("res", 1, "alloc")]
            for rec in second:
                assert rec[3] == 1


def test_recovery_idempotent_under_nested_crash():
    # with two crashes available, a crash during recovery reruns it; the
    # final memories and behaviors stay consistent (no violations) and the
    # reader outcome set matches the single-crash run
    outcomes = {}
    for crashes in (1, 2):
        cfg = Config("pmdk-seq", "psc", txns=2, locs=1, vals=43, buf=2,
                     max_crashes=crashes, ops=2, por=True,
                     scripts=(((("alloc",), ("write", 0, 42)), 0),
                              ((("read", 0),), 1)))
        hs, r = histories(cfg)
        assert not r.violations
        vals = set()
        for h in hs:
            for rec in h:
                if rec[:3] == ("res", 1, "read"):
                    vals.add(rec[4])
                elif rec[:3] == ("fault", 1, "read"):
                    vals.add("fault")
        outcomes[crashes] = vals
    assert outcomes[1] == outcomes[2] == {"fault", 42}


def test_torn_redo_log_never_replays():
    # crash points inside the three-cell redo copy leave a stale checksum:
    # recovery must roll back, so a post-crash read of the allocation
    # always faults unless the full commit completed
    cfg = Config("pmdk-seq", "psc", txns=2, locs=1, vals=2, buf=1,
                 max_crashes=1, ops=1, por=True,
                 scripts=(((("alloc",),), 0), ((("read", 0),), 1)))
    hs, r = histories(cfg)
    assert not r.violations
    for h in hs:
        if ("crash",) not in h:
            continue
        read_res = next((rec for rec in h
                         if rec[:3] == ("res", 1, "read")), None)
        faulted = any(rec[:2] == ("fault", 1) for rec in h)
        committed_like = read_res is not None and not faulted
        if committed_like:
            # non-faulting read implies the redo applied: value is the
            # allocation's initial zero
            assert read_res[4] == 0


# ---------------------------------------------------------------------------
# state invariants during exploration
# ---------------------------------------------------------------------------

def test_undo_logged_before_overwrite_invariant():
    cfg = Config("pmdk-seq", "psc", txns=2, locs=2, vals=2, buf=2,
                 max_crashes=1, ops=2, por=False)
    lay = cfg.layout

    def hook(c, m, hid):
        nvm, pbufs, sbufs = m[M_MEM]
        for ti, slot in enumerate(m[M_TXNS]):
            for x in range(c.locs):
                logged = c.pmem.load(m[M_MEM], ti, lay.undo(ti, x))
                if logged == -1:
                    continue
                cur = c.pmem.load(m[M_MEM], ti, lay.val(x))
                if cur != logged:
                    # overwritten: the undo entry must already be in NVM
                    assert nvm[lay.undo(ti, x)] == logged

    cfg2 = Config("pmdk-seq", "psc", txns=1, locs=2, vals=2, buf=2,
                  max_crashes=1, ops=2, por=False)
    explore(cfg2, check=False, state_hook=hook)


def test_matching_persisted_redo_implies_data_persisted():
    # per-trace commit ordering: while a transaction is inside its commit,
    # a persisted redo log whose checksum matches its persisted fields can
    # only appear after every logged data write has fully persisted
    cfg = Config("pmdk-seq", "psc", txns=1, locs=2, vals=2, buf=2,
                 max_crashes=1, ops=2, por=False)
    lay = cfg.layout
    checked = []

    def hook(c, m, hid):
        nvm, pbufs, _sbufs = m[M_MEM]
        for ti, slot in enumerate(m[M_TXNS]):
            if slot[S_ST] != RUN or slot[S_IP] not in c.noabort_ips:
                continue
            if calc_checksum(nvm[lay.puv(ti)], nvm[lay.pa(ti)]) \
                    != nvm[lay.pck(ti)]:
                continue
            checked.append(ti)
            for x in range(c.locs):
                if nvm[lay.undo(ti, x)] != -1:
                    assert not pbufs[lay.val(x)]

    explore(cfg, check=False, state_hook=hook)
    assert checked  # the premise held somewhere: the check is not vacuous


def test_freelist_matches_metadata_after_recovery():
    cfg = Config("pmdk-seq", "psc", txns=2, locs=2, vals=2, buf=2,
                 max_crashes=1, ops=2, por=True)
    lay = cfg.layout

    def hook(c, m, hid):
        # immediately after recovery, before any new-era transaction begins
        # (and outside the abandoned fault regime): the free set equals the
        # unallocated-metadata set
        if m[M_REC] is not None or m[M_CRASH] == 0:
            return
        # every slot DEAD or NS: none faulted
        if any(s[S_ST] not in (DEAD, NS) for s in m[M_TXNS]):
            return
        nvm = m[M_MEM][0]
        expect = 0
        for x in range(c.locs):
            if nvm[lay.meta(x)] == 0:
                expect |= 1 << x
        assert m[M_FREE] == expect

    explore(cfg, check=False, state_hook=hook)
