"""Explorer: dedup modes, reductions, mutations, state-count pins and the
lower-bound check over serial schedules."""

import hashlib

import pytest

from pmtxcheck import cli
from pmtxcheck.engine import (ABRT, AT_REST, COMM, DEAD, M_CRASH, M_MEM,
                              M_REC, M_TXNS, RDY, S_IP, S_RETR, S_ST,
                              _crash_nvms, all_terminal, crash_machine,
                              fresh_slot, initial_machine, slot_upd,
                              spent_slot, successors)
from pmtxcheck.explorer import (BudgetExceeded, Config, check_lower,
                                check_upper, explore, mutation_check_config,
                                run_intro_cases, skip_validate_config,
                                state_keyer)
from pmtxcheck.pmdk import MUTATIONS
from pmtxcheck.refspec import sequential_histories


def hist_set(cfg, **kw):
    r = explore(cfg, **kw)
    return {tuple(r.history_records(h)) for h in r.complete | r.cut}, r


def no_reduced_recovery(cfg, m):
    # the last crash folds recovery into its transition, so the explorer
    # never pops a reduced machine that is still mid-recovery
    assert not (cfg.reduced(m) and m[M_REC] is not None), m


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        Config("pmdk-foo", "psc")
    with pytest.raises(ValueError):
        Config("pmdk-seq", "tso")
    with pytest.raises(ValueError):
        Config("pmdk-seq", "psc", mutations=("drop-everything",))
    with pytest.raises(ValueError):
        explore(Config("pmdk-seq", "psc", txns=1, locs=1, vals=1),
                dedup="magic")


def test_budget_exceeded(capsys):
    cfg = Config("pmdk-seq", "psc", txns=2, locs=2, vals=2, max_crashes=1,
                 por=True, max_states=100)
    with pytest.raises(BudgetExceeded) as exc:
        explore(cfg)
    part = exc.value.result
    assert (part.states, part.transitions, part.violations) == (100, 114, [])
    assert part.seconds > 0
    # the counts so far survive to the CLI, violations included
    assert cli.main(["check", "upper", "--txns", "2", "--locs", "1",
                     "--crashes", "1", "--por", "--mutate",
                     "skip-undo-flush", "--max-states", "1000"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["budget error: state budget exceeded (1000)",
                       "partial states explored: 1000",
                       "partial transitions:     1060",
                       "partial violations:      1"]
    assert out[4].startswith("partial wall time:")


def test_state_key_ignores_object_sharing():
    # initial_machine shares one fresh slot object between its slots; an
    # equal machine with separately built slots is the same state (a pickle
    # digest, which memoizes by identity, told the two apart)
    cfg = Config("pmdk-seq", "psc", txns=2, locs=1)
    m = initial_machine(cfg)
    assert m[M_TXNS][0] is m[M_TXNS][1]
    twin = m[:M_TXNS] + ((fresh_slot(cfg), fresh_slot(cfg)),) \
        + m[M_TXNS + 1:]
    assert twin == m and twin[M_TXNS][0] is not twin[M_TXNS][1]
    key = state_keyer()
    assert key(m, 0) == key(twin, 0)
    # and the key tells apart what differs: the tag, or one slot's status
    ended = m[:M_TXNS] + ((fresh_slot(cfg), spent_slot(cfg, COMM)),) \
        + m[M_TXNS + 1:]
    swapped = m[:M_TXNS] + (ended[M_TXNS][::-1],) + m[M_TXNS + 1:]
    keys = {key(m, 0), key(m, 1), key(ended, 0), key(swapped, 0)}
    assert len(keys) == 4


def test_same_config_explores_identically_twice():
    # the crash-outcome memo lives for one explore call: a second call on
    # the same Config must redo every recovery and count the same states
    cfg = Config("pmdk-seq", "ptso", txns=2, locs=1, max_crashes=1,
                 por=True)
    first, second = explore(cfg), explore(cfg)
    assert (first.states, first.transitions, first.histories()) \
        == (second.states, second.transitions, second.histories())


def test_exploration_deterministic():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=2, vals=2, buf=2,
                 max_crashes=1, ops=2, por=True)
    a, ra = hist_set(cfg)
    b, rb = hist_set(Config("pmdk-seq", "psc", txns=1, locs=2, vals=2,
                            buf=2, max_crashes=1, ops=2, por=True))
    assert a == b
    assert ra.states == rb.states


def history_digest(hs):
    return hashlib.sha256("\n".join(map(repr, sorted(hs))).encode()) \
        .hexdigest()


SEQ_1_CRASH = \
    "7df76bd404ab42380d98c725258312fec0694cbc0d6a1c26675f44c8d7921db8"
SEQ_DOUBLE_ROLLBACK = \
    "0272282082211a6c5359c5a0e8efde6d8b901531c948f2bda18433fcadce6fd6"


# T0 writes in era 0, T1 writes in a later era and T2 reads in a later one
# still: recovery after the second crash must not roll T0 back again
DOUBLE_ROLLBACK = dict(
    txns=3, locs=1, prealloc=1, max_crashes=2, buf=1, ops=1,
    scripts=(((("write", 0, 1),), 0), ((("write", 0, 1),), 1),
             ((("read", 0),), 2)))


@pytest.mark.parametrize("impl,model,base,count,digest", [
    ("pmdk-seq", "psc", dict(locs=2, max_crashes=1), 57, SEQ_1_CRASH),
    ("pmdk-seq", "ptso", dict(locs=2, max_crashes=1), 57, SEQ_1_CRASH),
    # a crash during interleaved recovery, then a folded last crash
    ("pmdk-seq", "psc", dict(locs=2, max_crashes=2), 99,
     "9e7c5aa3a2825f1caed2300d141fc3d05e76e1e94ae28fc4e05bf852cca9b66e"),
    ("pmdk-seq", "ptso", dict(locs=1, max_crashes=2), 63,
     "9a90359bf5c74659e5077e7873d668836ee7d5a23f385ba08a2e5a0cfcd40bcd"),
    # three transactions, recovery interleaved with a crash; pinned once
    # recovery cleared the undo flag it rolled back, before which T2 could
    # read T0's old value over T1's committed write
    ("pmdk-seq", "psc", DOUBLE_ROLLBACK, 64, SEQ_DOUBLE_ROLLBACK),
    ("pmdk-seq", "ptso", DOUBLE_ROLLBACK, 64, SEQ_DOUBLE_ROLLBACK),
], ids=["pmdk-seq-psc-1", "pmdk-seq-ptso-1", "pmdk-seq-psc-2",
        "pmdk-seq-ptso-2", "pmdk-seq-psc-3-scripted",
        "pmdk-seq-ptso-3-scripted"])
def test_reductions_preserve_history_sets(impl, model, base, count, digest):
    # the unreduced explorer is the reference semantics; its history set is
    # pinned as it was before spent slots were made canonical, since that
    # quotient applies to both explorers
    base = dict(dict(txns=1, vals=2, buf=2, ops=2), **base)
    naive, _ = hist_set(Config(impl, model, por=False, **base), check=False)
    assert (len(naive), history_digest(naive)) == (count, digest)
    reduced, _ = hist_set(Config(impl, model, por=True, **base), check=False,
                          state_hook=no_reduced_recovery)
    assert naive == reduced


def test_reductions_preserve_history_sets_concurrent():
    # a writer racing a commit-only transaction exercises the forced
    # private-cell scheduling; the most-general-client variant runs in the
    # acceptance suite
    base = dict(txns=2, locs=1, vals=1, buf=1, max_crashes=0, ops=1,
                prealloc=1,
                scripts=(((("write", 0, 0),), 0), ((), 0)))
    for impl in ("pmdk-tml", "pmdk-norec"):
        naive, _ = hist_set(Config(impl, "psc", por=False, **base),
                            check=False)
        reduced, _ = hist_set(Config(impl, "psc", por=True, **base),
                              check=False)
        assert naive == reduced, impl


@pytest.mark.parametrize("impl,model", [
    ("pmdk-seq", "psc"), ("pmdk-tml", "psc"), ("pmdk-norec", "psc"),
    ("pmdk-seq", "ptso")])
def test_recovery_rolls_back_once(impl, model):
    # recovery clears and flushes the undo flag of what it rolled back, so
    # no later recovery overwrites T1's committed write with T0's old value
    r = explore(Config(impl, model, por=True, **DOUBLE_ROLLBACK),
                dedup="frontier")
    assert not r.violations, r.violations[0]


def test_frontier_and_history_dedup_agree_on_verdict():
    for mutate in (False, True):
        muts = ("skip-undo-flush",) if mutate else ()
        cfg = lambda: Config("pmdk-seq", "psc", txns=2, locs=1, vals=2,
                             buf=2, max_crashes=1, ops=2, por=True,
                             mutations=muts)
        rh = explore(cfg(), dedup="history")
        rf = explore(cfg(), dedup="frontier")
        assert bool(rh.violations) == bool(rf.violations) == mutate


@pytest.mark.parametrize("impl,model,crashes,ops,dedup,counts", [
    ("pmdk-seq", "psc", 1, 2, "frontier", (5_414, 6_303, 238)),
    ("pmdk-tml", "psc", 0, 1, "history", (32_259, 36_587, 1_720)),
    # store buffers are part of the deduplicated memory only under ptso
    ("pmdk-norec", "ptso", 1, 1, "frontier", (26_085, 92_421, 264)),
], ids=[  # the psc rows keep the ids they had before the model parameter
    "pmdk-seq-1-2-frontier-counts0", "pmdk-tml-0-1-history-counts1",
    "pmdk-norec-ptso-1-1-frontier-counts2"])
def test_state_counts_pinned(impl, model, crashes, ops, dedup, counts):
    # exact (states, transitions, histories): a change to the search that
    # moves them on purpose updates the pins and says why in CHANGES.md
    r = explore(Config(impl, model, txns=2, locs=1, max_crashes=crashes,
                       ops=ops, por=True), dedup=dedup)
    assert (r.states, r.transitions, len(r.complete | r.cut)) == counts
    assert not r.violations


@pytest.mark.parametrize("impl,count,digest", [
    ("pmdk-tml", 6_682,
     "956422fcb79160ba4977afabdb07faa61749babb81bb6b47113906f3dbf31aee"),
    ("pmdk-norec", 6_778,
     "adfff3de88d4619136e677cb5abd31bbcf337fbd82722a91f66dbc77b910c0a7"),
], ids=["pmdk-tml", "pmdk-norec"])
def test_por_history_sets_pinned(impl, count, digest):
    # sorted-history sha256 taken before recovery was folded into the last
    # crash; the unreduced explorer is out of reach on these cells, so the
    # pin stands in for the naive-vs-por comparison
    r = explore(Config(impl, "psc", txns=2, locs=1, vals=2, buf=2,
                       max_crashes=1, ops=1, por=True), dedup="history")
    hs = r.histories()
    assert not r.violations
    assert len(hs) == count
    assert history_digest(hs) == digest


@pytest.mark.parametrize("impl,model,crashes,por,ended", [
    ("pmdk-tml", "psc", 1, True, {COMM, ABRT, DEAD}),
    ("pmdk-norec", "ptso", 0, True, {COMM}),
    ("pmdk-seq", "psc", 1, False, {COMM, DEAD}),
], ids=["pmdk-tml-psc", "pmdk-norec-ptso", "pmdk-seq-psc-naive"])
def test_slots_carry_only_live_fields(impl, model, crashes, por, ended):
    cfg = Config(impl, model, txns=2, locs=1, max_crashes=crashes, ops=1,
                 por=por)
    spent = {st: spent_slot(cfg, st) for st in (COMM, ABRT, DEAD)}
    statuses = set()

    def hook(cfg, m):
        for t, s in enumerate(m[M_TXNS]):
            statuses.add(s[S_ST])
            if t == m[M_REC]:
                # the recovering slot carries recovery's ip and registers
                s = slot_upd(s, *AT_REST)
            if s[S_ST] in spent:
                assert s == spent[s[S_ST]], m
            elif s[S_ST] == RDY:
                assert s[S_IP] == s[S_RETR] == 0, m

    r = explore(cfg, dedup="frontier", state_hook=hook)
    assert not r.violations
    assert statuses & {RDY, COMM, ABRT, DEAD} == {RDY} | ended


def stepped_recovery(cfg, m):
    """Recovery from `m` one scheduler step at a time, propagating the
    recovering thread's store buffer whenever a step blocks."""
    while m[M_REC] is not None:
        r = cfg.recovery_step(m)
        if r is None:
            m = (cfg.pmem.propagate_direct(m[M_MEM], m[M_REC]),) + m[1:]
        else:
            [(m, emit)] = r
            assert emit is None
    return m


@pytest.mark.parametrize("impl,model,ops", [
    ("pmdk-seq", "ptso", 2),
    ("pmdk-tml", "psc", 1),
])
def test_last_crash_folds_recovery(impl, model, ops):
    cfg = Config(impl, model, txns=2, locs=1, max_crashes=1, ops=ops,
                 por=True)
    memo = {}
    crashes = []

    def hook(cfg, m):
        no_reduced_recovery(cfg, m)
        if m[M_CRASH] or m[M_REC] is not None or all_terminal(m):
            return
        folded = [m2 for m2, rec, _tag in successors(cfg, m, memo)
                  if rec == ("crash",)]
        if not folded:
            return
        crashed = crash_machine(cfg, m)
        stepped = [stepped_recovery(cfg, ((nvm,) + crashed[M_MEM][1:],)
                                    + crashed[1:])
                   for nvm in _crash_nvms(cfg, m)]
        assert folded == list(dict.fromkeys(stepped))
        assert len(set(folded)) == len(folded)
        crashes.append((m[M_MEM], len(folded), len(stepped)))

    r = explore(cfg, state_hook=hook)
    assert not r.violations
    pre = [k for k in memo if len(k) == 2]   # (last, pre-crash memory)
    post = [k for k in memo if len(k) == 3]  # a post-crash memory
    # both memos were hit: more states crashed than pre-crash memories
    # were seen, and more crash outcomes were enumerated than recovered
    assert len(crashes) > len(pre) == len({mem for mem, _, _ in crashes})
    assert sum(n for _, _, n in crashes) > len(post) > 0
    # recoveries from distinct post-crash memories do coincide
    assert sum(n for _, n, _ in crashes) < sum(n for _, _, n in crashes)


def test_emit_traces_writes_every_history(tmp_path, capsys):
    out = tmp_path / "traces"
    assert cli.main(["check", "upper", "--txns", "2", "--locs", "1",
                     "--crashes", "1", "--por",
                     "--emit-traces", str(out)]) == 0
    cfg = Config("pmdk-seq", "psc", txns=2, locs=1, max_crashes=1, por=True)
    n = len(explore(cfg, dedup="history").histories())
    assert len(list(out.iterdir())) == n
    assert "histories checked: %d\n" % n in capsys.readouterr().out


def test_fault_ends_trace():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=1, vals=1, buf=2, ops=1,
                 por=True, scripts=(((("read", 0),), 0),))
    hs, r = hist_set(cfg)
    assert not r.violations
    for h in hs:
        assert h[-1][:2] == ("fault", 0)


def test_script_era_gating():
    cfg = Config("pmdk-seq", "psc", txns=2, locs=1, vals=2, buf=2,
                 max_crashes=1, ops=1, por=True,
                 scripts=(((("alloc",),), 0), ((("read", 0),), 1)))
    hs, _r = hist_set(cfg)
    for h in hs:
        first_t1 = next((i for i, rec in enumerate(h) if rec[1:2] == (1,)),
                        None)
        if first_t1 is not None:
            assert ("crash",) in h[:first_t1]


@pytest.mark.parametrize("model", ["psc", "ptso"])
@pytest.mark.parametrize("impl", ["pmdk-seq", "pmdk-tml", "pmdk-norec"])
def test_check_lower_default_bounds(impl, model):
    res = check_lower(impl, model)
    assert res.total == 281 and res.unproducible == []
    # so this history was produced: txn 0 allocating location 1, which
    # needs branch-alloc (the default allocator takes the lowest free one)
    alloc_1 = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 1, None),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "commit", None, None), ("res", 1, "commit", None, None),
    )
    assert alloc_1 in sequential_histories(2, 2, 2, 2)


def test_check_lower_holds_under_every_mutation():
    # each mutation breaks crash recovery or concurrent validation, which a
    # crash-free serial schedule never exercises
    for name in MUTATIONS:
        res = check_lower("pmdk-norec", mutations=(name,))
        assert (res.total, res.unproducible) == (281, []), name


def test_check_lower_enforces_state_budget(capsys):
    with pytest.raises(BudgetExceeded) as exc:
        check_lower("pmdk-seq", max_states=10)
    part = exc.value.result
    assert (part.states, part.transitions, part.violations) == (10, 16, [])
    assert cli.main(["check", "lower", "--max-states", "10"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["budget error: state budget exceeded (10)",
                       "partial states explored: 10",
                       "partial transitions:     16",
                       "partial violations:      0"]
    assert out[4].startswith("partial wall time:")


def test_check_lower_smallest_bound():
    res = check_lower("pmdk-seq", txns=1, locs=1, vals=1, ops=1)
    assert res.ok and res.total == 2  # commit-only and alloc-commit


def test_mutation_configs_cover_registry():
    for name in MUTATIONS:
        cfg = mutation_check_config(name)
        assert name in cfg.mutations


def test_mutations_flip_verdicts_fast():
    # stop-at-first keeps each mutated run tiny
    for name in MUTATIONS:
        cfg = mutation_check_config(name)
        r = check_upper(cfg, stop_on_violation=True)
        assert r.violations, name


def test_skip_validate_clean_twin_passes():
    r = check_upper(skip_validate_config(mutate=False))
    assert not r.violations


def test_intro_cases_ptso_matches_psc():
    buckets, res = run_intro_cases("ptso")
    assert not res.violations
    assert buckets["before-commit"] == {"fault"}
    assert buckets["after-commit"] == {42}
    assert buckets["during-commit"] == {"fault", 42}


def test_histories_pass_wellformedness():
    from pmtxcheck.histories import check_wellformed, events_of_records
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, vals=2, buf=2,
                 max_crashes=1, ops=1, por=True)
    hs, r = hist_set(cfg)
    assert not r.violations
    for h in hs:
        ok, bad = check_wellformed(events_of_records(h))
        assert ok, (bad, h)
