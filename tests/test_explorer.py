"""Explorer: dedup modes, reductions, mutations, state-count pins and the
lower-bound check over serial schedules."""

import hashlib
from functools import partial
from graphlib import TopologicalSorter
from itertools import permutations, product

import pytest

from pmtxcheck import cli, engine, explorer, refspec
from pmtxcheck.engine import (ABRT, AT_REST, COMM, DEAD, END, M_CRASH, M_FREE,
                              M_MEM, M_REC, M_TXNS, NS, RDY, RUN, S_IP,
                              S_REGS, S_RETR, S_ST, TERMINAL, crash_tail,
                              ended, fresh_slot, initial_machine, set_mem,
                              set_slot, slot_upd, forced, spent_slot,
                              successors)
from pmtxcheck.explorer import (ORACLE_RACE, PROGRESS, BudgetExceeded, Config,
                                _antichain_add, _covered, check_lower,
                                check_upper, explore, mutation_check_config,
                                orbit_keyer, run_intro_cases,
                                skip_validate_config, state_keyer)
from pmtxcheck.histories import events_of_records
from pmtxcheck.opacity import check_history_ddo
from pmtxcheck.pmdk import MUTATIONS
from pmtxcheck.pmem import POR, REDUCED
from pmtxcheck.refspec import (ACCEPT_ALL, accepts_history, advance_frontier,
                               initial_frontier, rename_frontier,
                               sequential_histories)
from pmtxcheck.stm import IMPLS


def hist_set(cfg, **kw):
    r = explore(cfg, **kw)
    return set(r.histories()), r


def expand_no_reduced_recovery(monkeypatch):
    """Make explore check that it expands no ``REDUCED`` machine that is
    mid-recovery or holds a buffered persist: once no crash is left,
    recovery is a forced chain, and a machine that enters ``REDUCED`` with
    buffered persists persists them as a forced step."""
    def checked(cfg, m):
        if cfg.regime(m) == REDUCED:
            assert m[M_REC] is None and not any(m[M_MEM][1]), m
        return successors(cfg, m)

    monkeypatch.setattr(explorer, "successors", checked)


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
    with pytest.raises(ValueError):
        explore(Config("pmdk-seq", "psc", txns=1, locs=1, vals=1),
                check=False, dedup="frontier")


def test_budget_exceeded(capsys):
    cfg = Config("pmdk-seq", "psc", txns=2, locs=2, vals=2, max_crashes=1,
                 por=True, max_states=100)
    with pytest.raises(BudgetExceeded) as exc:
        explore(cfg)
    part = exc.value.result
    # earlier pins of both runs, and why they moved, are in CHANGES.md
    assert (part.states, part.transitions, part.violations) == (100, 139, [])
    assert part.seconds > 0
    # the counts so far survive to the CLI, violations included
    assert cli.main(["check", "upper", "--txns", "2", "--locs", "1",
                     "--crashes", "1", "--por", "--mutate",
                     "skip-undo-flush", "--max-states", "200"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["budget error: state budget exceeded (200)",
                       "partial states explored: 200",
                       "partial transitions:     318",
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
    assert key(m) == key(twin)
    # the key tells apart what differs: one slot's status, or which slot
    # holds it
    ended = m[:M_TXNS] + ((fresh_slot(cfg), spent_slot(cfg, COMM)),) \
        + m[M_TXNS + 1:]
    swapped = m[:M_TXNS] + (ended[M_TXNS][::-1],) + m[M_TXNS + 1:]
    assert len({key(m), key(ended), key(swapped)}) == 3


def rename_machine(cfg, m, pi):
    """`m` with transaction t renamed pi[t]: its slot, its own log cells
    with their persistence buffers, its store buffer, whose entries for
    its own cells name pi[t]'s, and rec."""
    lay = cfg.layout
    cell = list(range(lay.ncells))
    for t, u in enumerate(pi):
        for a, b in zip(lay.log_cells(t), lay.log_cells(u)):
            cell[a] = b
    nvm, pbufs, sbufs = m[M_MEM]
    nvm2, pbufs2 = [None] * lay.ncells, [None] * lay.ncells
    for c in range(lay.ncells):
        nvm2[cell[c]], pbufs2[cell[c]] = nvm[c], pbufs[c]
    txns2, sbufs2 = [None] * cfg.txns, [None] * cfg.txns
    for t, u in enumerate(pi):
        txns2[u] = m[M_TXNS][t]
        if sbufs is not None:
            sbufs2[u] = tuple((cell[c], v) for c, v in sbufs[t])
    mem = (tuple(nvm2), tuple(pbufs2), None if sbufs is None
           else tuple(sbufs2))
    rec = m[M_REC]
    return (mem,) + m[1:M_TXNS] + (tuple(txns2),
                                   None if rec is None else pi[rec]) \
        + m[M_REC + 1:]


def overwrite_log_cells(cfg, m, threads, v):
    """`m` with `v` in place of every value of each of `threads`' own log
    cells: in NVM and in the thread's store-buffer entries for them."""
    nvm, pbufs, sbufs = m[M_MEM]
    nvm, sbufs = list(nvm), sbufs and list(sbufs)
    for t in threads:
        cells = cfg.layout.log_cells(t)
        for c in cells:
            nvm[c] = v
        if sbufs:
            sbufs[t] = tuple((c, v if c in cells else w) for c, w in sbufs[t])
    return set_mem(m, (tuple(nvm), pbufs, sbufs and tuple(sbufs)))


def ended_threads(m):
    return [t for t, s in enumerate(m[M_TXNS]) if s[S_ST] in TERMINAL]


def dead_threads(cfg, m):
    """The threads of `m` whose log cells are dead (``orbit_keyer``): the
    ended ones, once `m` is ``REDUCED`` outside recovery."""
    if cfg.regime(m) != REDUCED or m[M_REC] is not None:
        return []
    return ended_threads(m)


def blank_dead(cfg, m):
    """`m` up to its dead log cells."""
    return overwrite_log_cells(cfg, m, dead_threads(cfg, m), None)


def explored_states(cfg):
    """Every state frontier dedup pops from `cfg`, with its spec frontier."""
    states = []
    r = explore(cfg, dedup="frontier",
                state_hook=lambda cfg, m, hid: states.append((m, hid)))
    frontiers = {}

    def frontier(hid):
        if hid not in frontiers:
            f = initial_frontier(cfg.txns, cfg.locs, cfg.prealloc)
            for rec in r.history_records(hid):
                f = advance_frontier(f, rec)
            frontiers[hid] = f
        return frontiers[hid]

    return [(m, frontier(hid)) for m, hid in states]


@pytest.mark.parametrize("impl,model,bounds", [
    ("pmdk-tml", "psc", dict(txns=2, max_crashes=1)),
    ("pmdk-norec", "ptso", dict(txns=2)),
    ("pmdk-seq", "psc", dict(txns=3, max_crashes=1, vals=1, buf=1)),
], ids=["pmdk-tml-psc-2", "pmdk-norec-ptso-2", "pmdk-seq-psc-3"])
def test_orbit_key_identifies_renamed_machines(impl, model, bounds):
    # a renamed machine with its renamed frontier is the same state up to
    # renaming: it gets the same key and, renamed as the key's sorted
    # machine, the same frontier.  With two equal views (a renaming that
    # leaves the machine as it is) either orientation may be kept, so only
    # the key is compared
    cfg = Config(impl, model, locs=1, ops=1, por=True, **bounds)
    key = orbit_keyer(cfg, {})
    perms = list(permutations(range(cfg.txns)))
    swaps = [pi for pi in perms
             if sum(t != u for t, u in enumerate(pi)) == 2]
    distinct = tied = 0
    for m, f in explored_states(cfg):
        if m[M_REC] is not None:
            continue
        k, g = key(m, f)
        ties = any(rename_machine(cfg, m, pi) == m for pi in swaps)
        distinct += not ties
        tied += ties
        for pi in perms:
            f2 = rename_frontier(f, sorted(range(cfg.txns),
                                           key=pi.__getitem__))
            k2, g2 = key(rename_machine(cfg, m, pi), f2)
            assert k2 == k, (m, pi)
            if not ties:
                assert g2 == g, (m, pi)
    assert distinct and tied


def test_orbit_key_keeps_ids_during_recovery():
    # recovery visits ids in ascending order: a mid-recovery machine and
    # its renaming are different states, and the frontier is not renamed
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, max_crashes=2, ops=1,
                 por=True)
    key = orbit_keyer(cfg, {})
    apart = 0
    for m, f in explored_states(cfg):
        if m[M_REC] is None:
            continue
        k, g = key(m, f)
        assert g is f, m
        m2 = rename_machine(cfg, m, (1, 0))
        if m2 != m:
            assert key(m2, f)[0] != k, m
            apart += 1
    assert apart


def test_scripted_orbit_key_never_reorders():
    # a script gives each id its own program, so ids keep their order:
    # here T0 is scripted to write and T1 to read.  A machine whose two
    # ended slots differ only in dead log cells is its renaming up to dead
    # data, which gets its key: merging the two is sound (orbit_keyer)
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, prealloc=1, ops=1,
                 scripts=(((("write", 0, 1),), 0), ((("read", 0),), 0)),
                 por=True)
    key = orbit_keyer(cfg, {})
    renamed = merged = 0
    for m, f in explored_states(cfg):
        k, g = key(m, f)
        assert g is f, m
        m2 = rename_machine(cfg, m, (1, 0))
        if blank_dead(cfg, m2) == blank_dead(cfg, m):
            assert key(m2, f)[0] == k, m
            merged += m2 != m
        else:
            assert key(m2, f)[0] != k, m
            renamed += 1
    assert renamed and merged


def chain_ends(cfg, m):
    """`m`'s successors as ``explore`` makes them: a machine target
    replaced by the end of its chain of forced steps."""
    out = []
    for m2, rec in successors(cfg, m):
        if type(m2) is tuple:
            m3 = forced(cfg, m2)
            while m3 is not None:
                m2, m3 = m3, forced(cfg, m3)
        out.append((m2, rec))
    return out


@pytest.mark.parametrize("impl,model", [("pmdk-tml", "psc"),
                                        ("pmdk-norec", "ptso")])
def test_dead_log_cells_change_no_key_or_successor(monkeypatch, impl,
                                                   model):
    # once a machine is REDUCED outside recovery, its ended threads' log
    # cells are dead (orbit_keyer): overwriting their values keeps the
    # orbit key, and the successors, up to those cells
    cfg = Config(impl, model, txns=2, locs=1, max_crashes=1, ops=1,
                 por=True)
    keyed = record_keys(monkeypatch)
    explore(cfg, dedup="frontier")
    key = orbit_keyer(cfg, {})
    f = initial_frontier(cfg.txns, cfg.locs, cfg.prealloc)

    def up_to_dead(succs):
        return [(blank_dead(cfg, m2) if type(m2) is tuple else m2, rec)
                for m2, rec in succs]

    checked = 0
    for m in keyed:
        dead = dead_threads(cfg, m)
        if not dead:
            continue
        machines = [m]
        if model == "ptso":
            # no keyed machine holds an entry in an ended thread's store
            # buffer, so add one for an own cell, whose role stays in the
            # key, and one for a shared cell, whose value does too
            t = dead[0]
            sbufs = list(m[M_MEM][2])
            sbufs[t] += ((cfg.layout.log_cells(t)[0], 1),
                         (cfg.layout.val(0), 1))
            m2 = set_mem(m, m[M_MEM][:2] + (tuple(sbufs),))
            sbufs[t] = sbufs[t][:1] + ((cfg.layout.val(0), 0),)
            m3 = set_mem(m, m[M_MEM][:2] + (tuple(sbufs),))
            assert len({key(m1, f)[0] for m1 in (m, m2, m3)}) == 3
            machines.append(m2)
        for m1 in machines:
            k, succs = key(m1, f)[0], up_to_dead(chain_ends(cfg, m1))
            for v in (-1, 0, 99):
                m2 = overwrite_log_cells(cfg, m1, dead, v)
                assert key(m2, f)[0] == k, (m1, v)
                assert up_to_dead(chain_ends(cfg, m2)) == succs, (m1, v)
        checked += 1
    assert checked


@pytest.mark.parametrize("impl,model,bounds", [
    ("pmdk-tml", "psc", dict(max_crashes=1)),
    ("pmdk-norec", "ptso", dict(max_crashes=1)),
    ("pmdk-seq", "psc", dict(max_crashes=2)),
    ("pmdk-seq", "psc", dict(max_crashes=1, por=False, vals=1, buf=1)),
], ids=["pmdk-tml-psc", "pmdk-norec-ptso", "pmdk-seq-2-crashes",
        "pmdk-seq-unreduced"])
def test_orbit_key_tests_reduced_inline(monkeypatch, impl, model, bounds):
    # the key's inline test equals Config.regime's REDUCED outside
    # recovery: on each keyed machine with an ended slot, overwriting the
    # ended slots' log cells keeps the key exactly when that holds
    cfg = Config(impl, model, **dict(dict(txns=2, locs=1, ops=1, por=True),
                                     **bounds))
    keyed = record_keys(monkeypatch)
    explore(cfg, dedup="frontier")
    key = orbit_keyer(cfg, {})
    f = initial_frontier(cfg.txns, cfg.locs, cfg.prealloc)
    seen = set()
    for m in keyed:
        threads = ended_threads(m)
        if threads:
            reduced = cfg.regime(m) == REDUCED and m[M_REC] is None
            m2 = overwrite_log_cells(cfg, m, threads, 99)
            assert (key(m2, f)[0] == key(m, f)[0]) == reduced, m
            seen.add(reduced)
    assert seen == ({False} if not cfg.por else {False, True})


def test_same_config_explores_identically_twice():
    # an explore call keeps no state on its Config: a second call on the
    # same Config counts the same states
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
    # a crash during interleaved recovery, then a last crash whose
    # recovery is one forced chain
    ("pmdk-seq", "psc", dict(locs=2, max_crashes=2), 99,
     "9e7c5aa3a2825f1caed2300d141fc3d05e76e1e94ae28fc4e05bf852cca9b66e"),
    ("pmdk-seq", "ptso", dict(locs=1, max_crashes=2), 63,
     "9a90359bf5c74659e5077e7873d668836ee7d5a23f385ba08a2e5a0cfcd40bcd"),
    # three transactions, recovery interleaved with a crash; pinned once
    # recovery cleared the undo flag it rolled back, before which T2 could
    # read T0's old value over T1's committed write
    ("pmdk-seq", "psc", DOUBLE_ROLLBACK, 64, SEQ_DOUBLE_ROLLBACK),
    ("pmdk-seq", "ptso", DOUBLE_ROLLBACK, 64, SEQ_DOUBLE_ROLLBACK),
    # two commit-only transactions race their log stores and flushes
    # around a non-final crash, where --por forces the private steps that
    # keep every crash outcome
    ("pmdk-tml", "psc", dict(txns=2, locs=1, vals=1, buf=1, ops=1,
                             prealloc=1, max_crashes=2,
                             scripts=(((), 0), ((), 0))), 301,
     "0309fc68485d327b3ccc52a8ab761517d65d46db8997583c92dab847d6bc659c"),
], ids=["pmdk-seq-psc-1", "pmdk-seq-ptso-1", "pmdk-seq-psc-2",
        "pmdk-seq-ptso-2", "pmdk-seq-psc-3-scripted",
        "pmdk-seq-ptso-3-scripted", "pmdk-tml-psc-2-scripted"])
def test_reductions_preserve_history_sets(monkeypatch, impl, model, base,
                                          count, digest):
    # the unreduced explorer is the reference semantics; its history set is
    # pinned as it was before spent slots were made canonical, since that
    # quotient applies to both explorers
    base = dict(dict(txns=1, vals=2, buf=2, ops=2), **base)
    naive, rn = hist_set(Config(impl, model, por=False, **base), check=False)
    assert (len(naive), history_digest(naive)) == (count, digest)
    expand_no_reduced_recovery(monkeypatch)
    reduced, rr = hist_set(Config(impl, model, por=True, **base), check=False)
    assert naive == reduced
    assert rn.digest() == rr.digest() == ROOT_DIGESTS[digest]


def test_reductions_preserve_history_sets_concurrent():
    # a writer racing a commit-only transaction exercises the forced
    # private-cell scheduling; the most-general-client variant runs in the
    # acceptance suite.  Under ptso two commit-only transactions race their
    # log stores through one-entry buffers: a thread's own log cells are
    # propagated as forced steps with and without a crash, and before the
    # crash a full persistence buffer keeps that step from being forced.
    # A writer racing a commit also runs under ptso and with a crash, at
    # about 1.3M unreduced states each; under pmdk-seq the writer and the
    # commit run one after the other
    base = dict(txns=2, locs=1, vals=1, buf=1, ops=1, prealloc=1)
    writer = (((("write", 0, 0),), 0), ((), 0))
    commits = (((), 0), ((), 0))
    for impl, model, crashes, scripts in (
            ("pmdk-tml", "psc", 0, writer), ("pmdk-norec", "psc", 0, writer),
            ("pmdk-tml", "ptso", 0, writer), ("pmdk-norec", "psc", 1, writer),
            ("pmdk-norec", "ptso", 0, commits),
            ("pmdk-tml", "ptso", 1, commits),
            ("pmdk-seq", "ptso", 1, writer)):
        cfg = dict(base, max_crashes=crashes, scripts=scripts)
        naive, rn = hist_set(Config(impl, model, por=False, **cfg),
                             check=False)
        reduced, rr = hist_set(Config(impl, model, por=True, **cfg),
                               check=False)
        assert naive == reduced, (impl, model, crashes)
        assert rn.digest() == rr.digest(), (impl, model, crashes)


def ptso_machine(cfg, cell, pbuf=()):
    """The initial machine with `cell` := 1 waiting in thread 0's store
    buffer and `pbuf` in that cell's persistence buffer."""
    m = initial_machine(cfg)
    nvm, pbufs, sbufs = m[M_MEM]
    pbufs = pbufs[:cell] + (pbuf,) + pbufs[cell + 1:]
    return ((nvm, pbufs, (((cell, 1),),) + sbufs[1:]),) + m[1:]


@pytest.mark.parametrize("crashes", [0, 1], ids=["reduced", "pre-crash"])
def test_own_log_cell_propagation_is_forced(crashes):
    cfg = Config("pmdk-tml", "ptso", txns=2, locs=1, max_crashes=crashes,
                 por=True)
    pm, lay = cfg.pmem, cfg.layout
    for cell in sorted(lay.log_cells(0)):
        m = ptso_machine(cfg, cell)
        mem = pm.propagate(m[M_MEM], 0, cfg.regime(m))
        assert forced(cfg, m) == (mem,) + m[1:]
    # thread 1's log cells are not thread 0's: its begin may act first
    m = ptso_machine(cfg, lay.pa(1))
    assert forced(cfg, m) is None
    assert len(successors(cfg, m)) > 1


def crash_outcomes(cfg, m):
    return set(engine.crash_machine(cfg, m))


@pytest.mark.parametrize("crashes", [0, 1], ids=["reduced", "pre-crash"])
def test_data_cell_propagation_branches(crashes):
    cfg = Config("pmdk-tml", "ptso", txns=2, locs=1, max_crashes=crashes,
                 por=True)
    for cell in (cfg.layout.val(0), cfg.layout.meta(0)):
        m = ptso_machine(cfg, cell)
        assert forced(cfg, m) is None
        succs = successors(cfg, m)
        # thread 0's begin and the propagation, and no crash: before the
        # crash the propagation only appends to a persistence buffer, so
        # the crash after it has every outcome of the crash it postpones
        assert [rec for _m2, rec in succs] \
            == [("inv", 0, "begin", None, None), None]
        if crashes:
            before = crash_outcomes(cfg, m)
            assert len(before) > 1
            assert before <= crash_outcomes(cfg, succs[1][0])


def test_full_log_cell_propagation_branches_before_last_crash():
    # making room would persist the buffered 2 and drop NVM's 0 as a
    # crash outcome, so the propagation is one branch and a crash may
    # still keep 0, 2 or the stored 1
    cfg = Config("pmdk-tml", "ptso", txns=2, locs=1, buf=1, max_crashes=1,
                 por=True)
    cell = cfg.layout.pa(0)
    m = ptso_machine(cfg, cell, pbuf=(2,))
    assert forced(cfg, m) is None
    succs = successors(cfg, m)
    assert [rec for _m2, rec in succs] \
        == [("inv", 0, "begin", None, None), None] + [("crash",)] * 3
    assert {m2[M_MEM][0][cell] for m2, rec in succs
            if rec == ("crash",)} == {0, 1, 2}


def psc_machine(cfg, step, regs=(), cell=None, pbuf=()):
    """The initial machine with thread 0 running at the entry named `step`
    with `regs`, and `pbuf` in the persistence buffer of `cell`."""
    m = initial_machine(cfg)
    slot = slot_upd(m[M_TXNS][0], (S_ST, RUN),
                    (S_IP, cfg.step_names.index(step)), (S_REGS, regs))
    m = set_slot(m, 0, slot)
    if cell is None:
        return m
    nvm, pbufs, sbufs = m[M_MEM]
    pbufs = pbufs[:cell] + (pbuf,) + pbufs[cell + 1:]
    return ((nvm, pbufs, sbufs),) + m[1:]


def private_cfg(max_crashes=1):
    # one crash left: the private-step rule before the last crash
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, buf=2,
                 max_crashes=max_crashes, por=True)
    assert {cfg.step_names.index(n) for n in (
        "pbegin.puv", "pwrite.flush", "undo.guvf")} <= cfg.private_ips
    return cfg


def test_private_store_with_room_is_forced_before_last_crash():
    cfg = private_cfg()
    cell = cfg.layout.puv(0)
    for pbuf in ((), (0,)):
        m = psc_machine(cfg, "pbegin.puv", cell=cell, pbuf=pbuf)
        m2 = forced(cfg, m)
        assert m2[M_MEM] == cfg.pmem.store(m[M_MEM], 0, cell, 1, POR)
        assert m2[M_TXNS][0][S_IP] == cfg.step_names.index("pbegin.pck")


def test_private_store_into_full_buffer_branches():
    # the store persists the buffered 0 first, which drops NVM's 1 as a
    # crash outcome: thread 1's begin and the crashes stay successors
    cfg = private_cfg()
    m = psc_machine(cfg, "pbegin.puv", cell=cfg.layout.puv(0), pbuf=(0, 0))
    assert forced(cfg, m) is None
    recs = [rec for _m2, rec in successors(cfg, m)]
    assert recs[:2] == [None, ("inv", 1, "begin", None, None)]
    assert ("crash",) in recs[2:]


def test_private_flush_of_buffered_cell_is_not_forced():
    cfg = private_cfg()
    cell = cfg.layout.undo(0, 0)
    m = psc_machine(cfg, "pwrite.flush", regs=(0, 1, 0), cell=cell,
                    pbuf=(0,))
    assert forced(cfg, m) is None
    succs = successors(cfg, m)
    recs = [rec for _m2, rec in succs]
    assert recs[:2] == [None, ("inv", 1, "begin", None, None)]
    # the flush, the one silent step, persists the 0 over NVM's value and
    # so drops a crash outcome: the crash stays, with both outcomes
    assert succs[0][0][M_MEM][0][cell] == 0 != m[M_MEM][0][cell]
    assert {m2[M_MEM][0][cell] for m2, rec in succs
            if rec == ("crash",)} == {0, m[M_MEM][0][cell]}
    # with nothing buffered the flush persists nothing: it is forced
    m = psc_machine(cfg, "pwrite.flush", regs=(0, 1, 0))
    m2 = forced(cfg, m)
    assert m2 is not None and m2[M_MEM] == m[M_MEM]


def recovery_at(cfg, step, pbuf=()):
    """Recovery of id 0 at the entry named `step`, after the first crash,
    with `pbuf` in the persistence buffer of id 0's undo flag."""
    m = initial_machine(cfg)
    slot = slot_upd(spent_slot(cfg, DEAD), (S_IP, cfg.step_names.index(step)))
    m = set_slot(m, 0, slot)
    m = m[:M_REC] + (0, 1) + m[M_CRASH + 1:]
    cell = cfg.layout.guv(0)
    nvm, pbufs, sbufs = m[M_MEM]
    return ((nvm, pbufs[:cell] + (pbuf,) + pbufs[cell + 1:], sbufs),) + m[1:]


def test_private_recovery_step_is_not_forced():
    # recovery of id 0 at its undo-flag flush, after the first of two
    # crashes: the recovery branch forces nothing.  The flush persists
    # nothing, so the crash that may still interrupt recovery is postponed
    # past it: the crash after the flush has every outcome of this one
    cfg = private_cfg(max_crashes=2)
    m = recovery_at(cfg, "undo.guvf")
    assert forced(cfg, m) is None
    succs = successors(cfg, m)
    assert [rec for _m2, rec in succs] == [None]
    assert crash_outcomes(cfg, m) <= crash_outcomes(cfg, succs[0][0])
    # with the flag buffered the flush drains it, which drops NVM's value
    # as a crash outcome: the crash stays a successor
    m = recovery_at(cfg, "undo.guvf", pbuf=(0,))
    recs = [rec for _m2, rec in successors(cfg, m)]
    assert recs[0] is None and len(recs) > 1
    assert set(recs[1:]) == {("crash",)}


def test_crash_postponed_past_silent_load():
    # thread 0 loads an allocated location: a silent step that is not
    # private, so not forced, and keeps every crash outcome.  Thread 1's
    # begin stays a successor; the crash does not
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, buf=2, max_crashes=1,
                 prealloc=1, por=True)
    m = psc_machine(cfg, "pread.load", regs=(0,))
    assert forced(cfg, m) is None
    succs = successors(cfg, m)
    assert [rec for _m2, rec in succs] \
        == [None, ("inv", 1, "begin", None, None)]
    assert succs[0][0][M_MEM] == m[M_MEM]
    # the unreduced explorer crashes everywhere a crash is left
    naive = Config("pmdk-tml", "psc", txns=2, locs=1, buf=2, max_crashes=1,
                   prealloc=1)
    m = psc_machine(naive, "pread.load", regs=(0,))
    assert ("crash",) in [rec for _m2, rec in
                          successors(naive, m)]


@pytest.mark.parametrize("crashes", [1, 2])
@pytest.mark.parametrize("impl,model", [
    (impl, model) for impl in ("pmdk-seq", "pmdk-tml", "pmdk-norec")
    for model in ("psc", "ptso")])
def test_silent_outcome_keeping_steps_form_no_cycle(monkeypatch, impl,
                                                     model, crashes):
    # the premise of postponing a crash past a silent step that keeps every
    # crash outcome, or past any silent step of a machine whose crash ends
    # the run: such steps, forced or expanded, form no cycle, so a
    # postponed crash is taken further down.  Each such step keeps every
    # slot's status, so the crash after it leaves the same crashed tail,
    # or is the same leaf
    cfg = Config(impl, model, txns=2, locs=1, vals=1, buf=1,
                 max_crashes=crashes, ops=1, por=True)
    key = state_keyer()
    edges = {}
    leaves = 0

    def edge(m, m2):
        nonlocal leaves
        leaf = engine._crash_ends_run(cfg, m)
        if leaf or engine._keeps_crash_outcomes(m[M_MEM], m2[M_MEM]):
            assert crash_tail(cfg, m2) == crash_tail(cfg, m)
            assert ended(m2) == ended(m)
            if leaf:
                assert engine._crash_ends_run(cfg, m2)
                leaves += 1
            edges.setdefault(key(m), set()).add(key(m2))

    def counted(cfg, m):
        succs = successors(cfg, m)
        for m2, rec in succs:
            if rec is None and type(m2) is tuple:
                edge(m, m2)
        return succs

    def counted_forced(cfg, m):
        m2 = forced(cfg, m)
        if m2 is not None:
            edge(m, m2)
        return m2

    monkeypatch.setattr(explorer, "successors", counted)
    monkeypatch.setattr(explorer, "forced", counted_forced)
    explore(cfg, check=False)
    assert edges and leaves
    TopologicalSorter(edges).prepare()    # raises CycleError on a cycle


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
    # frontier dedup keeps representatives: the violations it reports are
    # some of the exact ones
    for impl, model, mut in product(
            IMPLS, ("psc", "ptso"),
            (None, "skip-undo-flush", "reorder-commit",
             "skip-flush-commit5", "no-recovery-rollback")):
        cfg = partial(Config, impl, model, txns=2, locs=1, vals=2, buf=2,
                      max_crashes=1, ops=2, por=True,
                      mutations=(mut,) if mut else ())
        rh = explore(cfg(), dedup="history")
        rf = explore(cfg(), dedup="frontier")
        assert bool(rh.violations) == bool(rf.violations) == bool(mut), \
            (impl, model, mut)
        assert set(rf.violations) <= set(rh.violations), (impl, model, mut)


def test_frontier_antichain():
    a, b = frozenset({1}), frozenset({2})
    ab = a | b

    def kept(minimal):
        # a lone frontier may be stored bare
        v = minimal[0]
        return v if type(v) is list else [v]

    # an equal frontier, shared or not, is subsumed
    minimal = {0: ab}
    assert not _antichain_add(minimal, 0, ab)
    assert not _antichain_add(minimal, 0, frozenset({1, 2}))
    assert kept(minimal) == [ab]
    # incomparable frontiers are both pushed and both kept; a subset of
    # all of them replaces them
    minimal = {}
    for f in (a, b, frozenset({3})):
        assert _antichain_add(minimal, 0, f)
    assert kept(minimal) == [a, b, frozenset({3})]
    assert not _antichain_add(minimal, 0, ab)
    assert _antichain_add(minimal, 0, frozenset())
    assert kept(minimal) == [frozenset()]


def test_frontier_antichain_stores_a_lone_survivor_bare():
    # a frontier that replaces every kept one of a list is stored bare,
    # like the first frontier of a key
    a, b, sub = frozenset({1}), frozenset({2}), frozenset()
    minimal = {}
    assert _antichain_add(minimal, 0, a) and _antichain_add(minimal, 0, b)
    assert minimal[0] == [a, b]
    assert _antichain_add(minimal, 0, sub)
    assert minimal[0] is sub


def test_frontier_covered():
    a, b = frozenset({1}), frozenset({2})
    assert not _covered(None, a)
    # a lone frontier covers its supersets only
    assert _covered(a, a | b) and _covered(a, frozenset({1}))
    assert not _covered(a, b) and not _covered(a, frozenset())
    # a list antichain covers what any of its frontiers covers
    kept = [a, b]
    assert _covered(kept, b | {3})
    assert not _covered(kept, frozenset({3}))
    assert kept == [a, b]


def test_crash_of_initial_machine_is_covered(monkeypatch):
    # the crash leaves nothing to recover: its chain ends in the initial
    # machine with one crash used, which the initial machine with none
    # covers, so the crash-free space is not walked again after it
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, max_crashes=1, ops=1,
                 por=True)
    crashed = initial_machine(cfg)[:M_CRASH] + (1,)
    keyed, expanded = record_keys(monkeypatch), []

    def recorded(cfg, m):
        expanded.append(m)
        return successors(cfg, m)

    monkeypatch.setattr(explorer, "successors", recorded)
    r = explore(cfg, dedup="frontier")
    assert not r.violations
    assert crashed in keyed and crashed not in expanded


@pytest.mark.parametrize("impl", ["pmdk-seq", "pmdk-tml"])
def test_era_scripts_keep_reads_after_crash(monkeypatch, impl):
    # T2 waits for era 1, so a machine with a crash used is not covered by
    # itself with none: a crash before T1 begins still leads to T2's read.
    # Frontier dedup keeps representatives, so each bucket is a subset of
    # the exact one: a crash after T1's commit reaches the same machine, with
    # an equal canonical frontier, as the clean crash, and the two merge
    every = run_intro_cases(impl=impl)[0]
    monkeypatch.setattr(explorer, "explore", partial(explore,
                                                     dedup="frontier"))
    buckets, res = run_intro_cases(impl=impl)
    assert not res.violations
    assert all(buckets[b] <= every[b] for b in every)
    assert 42 in buckets["clean"]


@pytest.mark.parametrize("impl,model,locs,crashes,ops,dedup,counts", [
    # each row's earlier counts, and why they moved, are in CHANGES.md
    ("pmdk-seq", "psc", 1, 1, 2, "frontier", (382, 631, 113)),
    ("pmdk-tml", "psc", 1, 0, 1, "history", (10_257, 14_512, 1_720)),
    # store buffers are part of the deduplicated memory only under ptso
    ("pmdk-norec", "ptso", 1, 1, 1, "frontier", (352, 740, 133)),
    # the cells of the benchmark's upper-* workloads
    ("pmdk-tml", "psc", 2, 1, 2, "frontier", (6_628, 13_989, 2_011)),
    ("pmdk-norec", "ptso", 2, 0, 2, "frontier", (7_239, 13_575, 494)),
], ids=[  # the 1-location rows keep the ids they had before the model and
    # locs parameters
    "pmdk-seq-1-2-frontier-counts0", "pmdk-tml-0-1-history-counts1",
    "pmdk-norec-ptso-1-1-frontier-counts2", "upper-tml-crash",
    "upper-norec-ptso"])
def test_state_counts_pinned(impl, model, locs, crashes, ops, dedup, counts):
    # exact (states, transitions, histories): a change to the search that
    # moves them on purpose updates the pins and says why in CHANGES.md
    r = explore(Config(impl, model, txns=2, locs=locs, max_crashes=crashes,
                       ops=ops, por=True), dedup=dedup)
    assert (r.states, r.transitions, r.history_count()) == counts
    assert not r.violations


TML_1_CRASH = \
    "956422fcb79160ba4977afabdb07faa61749babb81bb6b47113906f3dbf31aee"
NOREC_1_CRASH = \
    "adfff3de88d4619136e677cb5abd31bbcf337fbd82722a91f66dbc77b910c0a7"


@pytest.mark.parametrize("impl,model,crashes,count,digest", [
    ("pmdk-tml", "psc", 1, 6_682, TML_1_CRASH),
    ("pmdk-norec", "psc", 1, 6_778, NOREC_1_CRASH),
    # taken before a thread's own log cells were propagated as a forced
    # step; they equal the psc sets at these bounds
    ("pmdk-tml", "ptso", 1, 6_682, TML_1_CRASH),
    ("pmdk-norec", "ptso", 1, 6_778, NOREC_1_CRASH),
    # taken before private steps were forced ahead of a non-final crash
    ("pmdk-tml", "psc", 2, 11_810,
     "851d63b1fd8e9a706653dc96de39814911b2718b3ba8208f47181ead724b7356"),
], ids=["pmdk-tml", "pmdk-norec", "pmdk-tml-ptso", "pmdk-norec-ptso",
        "pmdk-tml-2-crashes"])
def test_por_history_sets_pinned(impl, model, crashes, count, digest):
    # sorted-history sha256 taken before recovery was folded into the last
    # crash; the unreduced explorer is out of reach on these cells, so the
    # pin stands in for the naive-vs-por comparison
    r = explore(Config(impl, model, txns=2, locs=1, vals=2, buf=2,
                       max_crashes=crashes, ops=1, por=True),
                dedup="history")
    hs = r.histories()
    assert not r.violations
    assert len(hs) == r.history_count() == count
    assert history_digest(hs) == digest
    assert r.digest() == ROOT_DIGESTS[digest]


# the root digest (ExploreResult.digest) of each history set pinned above
# by its sorted-history sha256
ROOT_DIGESTS = {
    TML_1_CRASH:
    "a61ee4e8b9da52621765169984fd581ded2fd7ee6a285d81bb513a5325a7f666",
    NOREC_1_CRASH:
    "00f821a0e90380548b5cfbe9114883b55d4e27fda5c9ce20871b72f4b92f25a0",
    "851d63b1fd8e9a706653dc96de39814911b2718b3ba8208f47181ead724b7356":
    "56f584b0674fe1be1d78afeda3971f40c547eb50680b8d5608d540c8b015a1a4",
    SEQ_1_CRASH:
    "f8444ce613e6359ec7b8301274dce60e36190a43eb12b5d904393079277c5e87",
    "9e7c5aa3a2825f1caed2300d141fc3d05e76e1e94ae28fc4e05bf852cca9b66e":
    "a7fad5966afea74b36bd72b1d1f27b5cf0dee68692805635affa3d7479f5a85a",
    "9a90359bf5c74659e5077e7873d668836ee7d5a23f385ba08a2e5a0cfcd40bcd":
    "f91ce3411e3c78bee3024faf933264ef120e477e78d41bea290c662e55a179c9",
    SEQ_DOUBLE_ROLLBACK:
    "90c640ab4c5c7ac201a28d2157cc9bec486e8d3c31da4d6eda3b2c55d8b9249f",
    "0309fc68485d327b3ccc52a8ab761517d65d46db8997583c92dab847d6bc659c":
    "b7958e0eeba58d0a77f90235f7c898525a620635ff0ca54ec8a1d42c6d77b768",
}


def test_root_digests_tell_pinned_sets_apart():
    # equal history sets give equal root digests (each test above that
    # compares two sets compares their digests too), and these distinct
    # sets distinct ones
    assert len(set(ROOT_DIGESTS.values())) == len(ROOT_DIGESTS)


def test_three_txn_psc_and_ptso_history_sets_equal():
    # PSC <= PTSO (ROADMAP item 13) at 3 transactions, where the two sets
    # are equal: a history-set gate that the history trie, at 30M nodes
    # and 1.6 GB, kept out of reach.  The counts are path counts
    runs = [explore(Config("pmdk-tml", model, txns=3, locs=1, vals=2, buf=2,
                           ops=1, por=True))
            for model in ("psc", "ptso")]
    for r in runs:
        assert not r.violations
        assert r.history_count() == 9_848_847
    assert runs[0].digest() == runs[1].digest() == (
        "f53a779fb81bd8b001eff9dc811a18ad590a7b23b23e4fd1f96bea61224cc56c")


def test_history_dedup_expands_each_machine_once(monkeypatch):
    # successors depend on the machine alone, not on the history it was
    # reached with, so history dedup walks (machine set, frontier) pairs: a
    # node carries the set of machines that reach it, each machine is
    # expanded at most once per call and asked once whether it ended, and
    # each pair is popped once, advancing its frontier once per edge.  The
    # counts are still those of (machine, history) states
    expanded, asked, shown, advanced = [], [], [], []

    def counted(cfg, m):
        expanded.append(m)
        return successors(cfg, m)

    def counted_ended(m):
        asked.append(m)
        return ended(m)

    def counted_advance(f, rec):
        advanced.append(rec)
        return advance_frontier(f, rec)

    def hook(cfg, m, node):
        # the hook also sees the machines of each chain but its end, and
        # only those have a forced step
        if forced(cfg, m) is None:
            shown.append(m)

    monkeypatch.setattr(explorer, "successors", counted)
    monkeypatch.setattr(explorer, "ended", counted_ended)
    monkeypatch.setattr(refspec, "advance_frontier", counted_advance)
    r = explore(Config("pmdk-tml", "psc", txns=2, locs=1, vals=2, buf=2,
                       max_crashes=1, ops=1, por=True),
                dedup="history", state_hook=hook)
    assert len(shown) == len(set(shown))
    outside = {m for m in shown if m[M_REC] is None}
    assert len(asked) == len(set(asked)) and set(asked) == outside
    live = {m for m in shown if m not in outside or not ended(m)}
    assert len(expanded) == len(set(expanded)) and set(expanded) == live
    assert outside - live                 # some machine ended
    # a node popped twice would advance its frontier, and add its edges,
    # twice; the states are the path sums of the pair walk's DAG, the
    # count of distinct (machine, history) pairs.  Earlier counts, and why
    # they moved, are in CHANGES.md
    assert len(advanced) == sum(map(len, r._edges))
    assert (len(live), r.states, r.transitions) == (1_095, 21_000, 32_913)
    assert history_digest(r.histories()) == TML_1_CRASH
    assert r.digest() == ROOT_DIGESTS[TML_1_CRASH]


def over_budget(cfg, **kw):
    with pytest.raises(BudgetExceeded) as exc:
        explore(cfg, **kw)
    return exc.value.result


# sha256 of the four whole runs' histories and sorted violations below,
# the same as the history trie gave before history dedup kept a DAG; the
# sorted-history sha256 of the partial run, whose budget cut moves with
# the states the walk expands before it
WHOLE_RUNS = \
    "0ee09884d90277e6e9297606d23a95502cf76d856bb8b3a33822891a8a737209"
PARTIAL_RUN = \
    "643c625e168794fb2349d9f082e771984d183da4530f219167fbc1ea8677207f"


def test_history_dedup_outputs_pinned():
    # what history dedup reports where subtrees repeat: the ddo-oracles
    # pool's tml cell, a cell with hundreds of violations, a mutation cell
    # with and without stop_on_violation, and a partial result.  The four
    # whole runs' sorted histories and sorted violations are those the
    # history trie gave; their states and transitions, pinned beside them,
    # move with the step programs (earlier counts, and why they moved, are
    # in CHANGES.md); the budget counts the states the walk expands
    mut = mutation_check_config("skip-flush-commit5")
    tml = dict(txns=2, locs=1, vals=2, buf=2, ops=2, por=True)
    runs = [explore(Config("pmdk-tml", "psc", **tml), check=False),
            explore(skip_validate_config()),
            explore(mut), explore(mut, stop_on_violation=True),
            over_budget(Config("pmdk-tml", "psc", max_crashes=1,
                               max_states=10_000, **tml))]
    assert [(r.history_count(), len(r.violations), r.states, r.transitions)
            for r in runs] == [
        (22_721, 0, 165_014, 215_768), (1_387, 455, 45_769, 64_742),
        (1_712, 17, 23_617, 25_973), (596, 1, 3_855, 4_466),
        (46_437, 0, 10_000, 18_797)]
    h = hashlib.sha256()
    for r in runs[:4]:
        h.update(repr((r.histories(), sorted(r.violations))).encode())
    assert h.hexdigest() == WHOLE_RUNS
    assert history_digest(runs[4].histories()) == PARTIAL_RUN


def test_history_dedup_shares_repeated_subtrees(monkeypatch):
    # a node's subtree depends only on its machine set and frontier, so
    # history dedup walks one node per pair and links it from every edge
    # into it: the frontier advances once per edge of a walked node, not
    # once per history prefix (196,104 advances when every prefix was
    # walked), while the states are the counts of every prefix
    calls = []

    def counted(f, rec):
        calls.append(rec)
        return advance_frontier(f, rec)

    monkeypatch.setattr(refspec, "advance_frontier", counted)
    r = explore(Config("pmdk-tml", "psc", txns=2, locs=1, vals=2, buf=2,
                       max_crashes=1, ops=2, por=True))
    assert (len(calls), r.states) == (8_064, 333_687)
    assert not r.violations


def record_keys(monkeypatch):
    """Make explore's key functions, under either dedup, append each
    machine they key to the list returned."""
    keyed = []

    def state(*args):
        key = state_keyer(*args)
        return lambda m: keyed.append(m) or key(m)

    def orbit(*args):
        key = orbit_keyer(*args)
        return lambda m, f: keyed.append(m) or key(m, f)

    monkeypatch.setattr(explorer, "state_keyer", state)
    monkeypatch.setattr(explorer, "orbit_keyer", orbit)
    return keyed


@pytest.mark.parametrize("dedup", ["history", "frontier"])
@pytest.mark.parametrize("impl,model,crashes", [
    ("pmdk-tml", "psc", 1), ("pmdk-norec", "ptso", 1)])
def test_explorer_expands_no_machine_with_a_forced_step(impl, model, crashes,
                                                        dedup, monkeypatch):
    # explore runs a successor's forced chain when it makes the successor:
    # the machines it keys, and so dedups, pushes and expands, have no
    # forced step, and the chains did run
    expanded, chained = [], []
    keyed = record_keys(monkeypatch)

    def checked(cfg, m):
        assert forced(cfg, m) is None, m
        expanded.append(m)
        return successors(cfg, m)

    def counted(cfg, m):
        m2 = forced(cfg, m)
        if m2 is not None:
            chained.append(m2)
        return m2

    monkeypatch.setattr(explorer, "successors", checked)
    monkeypatch.setattr(explorer, "forced", counted)
    cfg = Config(impl, model, txns=2, locs=1, max_crashes=crashes, ops=1,
                 por=True)
    r = explore(cfg, dedup=dedup)
    assert not r.violations
    assert expanded and chained
    for m in keyed:
        assert forced(cfg, m) is None, m


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

    def hook(cfg, m, hid):
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


@pytest.mark.parametrize("impl,model,ops", [
    ("pmdk-seq", "ptso", 2),
    ("pmdk-tml", "psc", 1),
])
def test_last_crash_recovery_is_a_forced_chain(monkeypatch, impl, model,
                                               ops):
    # after the last crash recovery is the sole actor: its step is forced,
    # or, when it blocks under ptso, the propagation of the recovering
    # thread's store-buffer head.  Only a crash that leaves a slot yet to
    # begin leaves machines; any other is a leaf
    cfg = Config(impl, model, txns=2, locs=1, max_crashes=1, ops=ops,
                 por=True)
    stepped = propagated = 0

    def hook(cfg, m, hid):
        nonlocal stepped, propagated
        if cfg.regime(m) != REDUCED or m[M_REC] is None:
            return
        assert NS in {s[S_ST] for s in m[M_TXNS]}, m
        r = cfg.recovery_step(m, REDUCED)
        if r is None:
            want = (cfg.pmem.propagate(m[M_MEM], m[M_REC], REDUCED),) + m[1:]
            propagated += 1
        else:
            [(want, emit)] = r
            assert emit is None
            stepped += 1
        assert forced(cfg, m) == want

    expand_no_reduced_recovery(monkeypatch)
    r = explore(cfg, state_hook=hook)
    assert not r.violations
    assert stepped and bool(propagated) == (model == "ptso")


# the ids keep the names earlier counts gave them; those counts, and why
# they moved, are in CHANGES.md
@pytest.mark.parametrize("model,states", [("psc", 7_151), ("ptso", 8_406)],
                         ids=["psc-8397", "ptso-10716"])
def test_blocked_recovery_stalls_under_por(model, states):
    # a recovery that always blocks, with nothing in the recovering
    # thread's store buffer (none exists under psc), has no forced step:
    # the machine is expanded and stalls instead of raising.  The
    # unreduced explorer gives the same 3,499 histories (millions of
    # states, too many for a test)
    cfg = Config("pmdk-tml", model, txns=2, locs=1, vals=1, buf=1, ops=1,
                 max_crashes=1, por=True)
    cfg.recovery_step = lambda m, regime: None
    r = explore(cfg, check=False, dedup="history")
    assert (r.states, len(r.histories())) == (states, 3499)
    assert not check_upper(cfg).violations


def test_crash_machine_makes_every_crash_transition(monkeypatch):
    # patched in engine's globals, as perfbench/tracer.py does: under --por
    # its results are exactly the crash successors that carry a machine,
    # each at the start of recovery, whether or not a crash is left after
    # it; a run-ending crash, which leaves no slot yet to begin, is one
    # leaf and calls it not at all, with a crash left or not
    orig_crash, orig_succ = engine.crash_machine, explorer.successors
    made = []
    full = leaves = early = 0

    def crash_traced(cfg, m):
        assert NS in {s[S_ST] for s in m[M_TXNS]}, m
        out = orig_crash(cfg, m)
        assert {m2[M_REC] for m2 in out} == {0}
        made.append(out)
        return out

    def succ_traced(cfg, m):
        nonlocal full, leaves, early
        n = len(made)
        out = orig_succ(cfg, m)
        crashes = [m2 for m2, rec in out if rec == ("crash",)]
        if len(made) > n:
            assert len(made) == n + 1
            assert crashes == made[-1]
            full += 1
        elif crashes:
            assert crashes == [END]
            assert engine._crash_ends_run(cfg, m)
            leaves += 1
            early += m[M_CRASH] + 1 < cfg.max_crashes
        return out

    monkeypatch.setattr(engine, "crash_machine", crash_traced)
    monkeypatch.setattr(explorer, "successors", succ_traced)
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, ops=1, max_crashes=2,
                 por=True)
    r = check_upper(cfg)
    assert not r.violations
    # some leaves come from a first crash, with a crash left after it
    assert full == len(made) and 0 < early < leaves
    assert sum(map(len, made)) > len(made)


def enumerate_every_crash(monkeypatch):
    """No crash ends the run: each one enumerates and recovers every
    outcome, as before a run-ending crash became a leaf."""
    monkeypatch.setattr(engine, "_crash_ends_run", lambda cfg, m: False)


@pytest.mark.parametrize("crashes", [1, 2])
@pytest.mark.parametrize("impl,model", [
    (impl, model) for impl in ("pmdk-seq", "pmdk-tml", "pmdk-norec")
    for model in ("psc", "ptso")])
def test_run_ending_crash_leaf_keeps_history_sets(monkeypatch, impl, model,
                                                  crashes):
    def run():
        return explore(Config(impl, model, txns=2, locs=1, vals=1, buf=1,
                              max_crashes=crashes, ops=1, por=True),
                       check=False)

    leaf = run()
    enumerate_every_crash(monkeypatch)
    full = run()
    assert full.histories() == leaf.histories()
    assert full.digest() == leaf.digest()
    # the leaf fired: the ended machines it used to leave are not popped
    assert full.states > leaf.states


@pytest.mark.parametrize("name", [n for n in MUTATIONS
                                  if n != "skip-validate"])
def test_run_ending_crash_leaf_keeps_violations(monkeypatch, name):
    # the exact violations of each crash mutation on its criterion-1 cell
    # are kept, and frontier dedup, whose representatives may differ with
    # the leaf on and off, finds some either way
    def run():
        assert check_upper(mutation_check_config(name)).violations
        return sorted(explore(mutation_check_config(name),
                              dedup="history").violations)

    leaf = run()
    assert leaf
    enumerate_every_crash(monkeypatch)
    assert run() == leaf


@pytest.mark.parametrize("name", [n for n in MUTATIONS
                                  if n != "skip-validate"])
@pytest.mark.parametrize("impl", ["pmdk-seq", "pmdk-tml"])
def test_crash_leaf_with_a_crash_left_keeps_violations(monkeypatch, impl,
                                                       name):
    # with 2 crashes a first crash that leaves no slot yet to begin is a
    # leaf too: no further crash can interrupt the recovery it starts.  The
    # exact violations are kept, and frontier dedup finds some either way
    def run():
        cfg = partial(Config, impl, "psc", txns=2, locs=1, max_crashes=2,
                      por=True, mutations=(name,))
        assert check_upper(cfg()).violations
        return sorted(explore(cfg(), dedup="history").violations)

    leaf = run()
    assert leaf
    enumerate_every_crash(monkeypatch)
    assert run() == leaf


def reduce_at_last_crash_only(monkeypatch):
    """``REDUCED`` only once no crash is left, as before a machine whose
    every crash left ends the run ran in it: that rule switched off, the
    run-ending leaf kept."""
    monkeypatch.setattr(engine, "only_leaf_crashes", lambda cfg, m: False)


@pytest.mark.parametrize("crashes", [1, 2])
@pytest.mark.parametrize("impl,model", [
    (impl, model) for impl in ("pmdk-seq", "pmdk-tml", "pmdk-norec")
    for model in ("psc", "ptso")])
def test_reduced_before_last_crash_keeps_history_sets(monkeypatch, impl,
                                                      model, crashes):
    # leave-one-out: --por with every rule against --por with only this one
    # off, on concurrent cells the unreduced explorer cannot reach in time
    def run():
        return explore(Config(impl, model, txns=2, locs=1, vals=1, buf=1,
                              max_crashes=crashes, ops=1, por=True),
                       check=False)

    rule = run()
    reduce_at_last_crash_only(monkeypatch)
    off = run()
    assert off.histories() == rule.histories()
    assert off.digest() == rule.digest()
    # the rule fired
    assert off.states > rule.states


@pytest.mark.parametrize("name", [n for n in MUTATIONS
                                  if n != "skip-validate"])
def test_reduced_before_last_crash_keeps_violations(monkeypatch, name):
    # frontier dedup keeps representatives, so compare what it reports: the
    # violations of each crash mutation on its criterion-1 cell, and on a
    # concurrent cell with a crash left after the first
    cells = (lambda: mutation_check_config(name),
             lambda: Config("pmdk-tml", "psc", txns=2, locs=1, max_crashes=2,
                            por=True, mutations=(name,)))
    rule = [sorted(check_upper(cfg()).violations) for cfg in cells]
    assert all(rule)
    reduce_at_last_crash_only(monkeypatch)
    assert [sorted(check_upper(cfg()).violations) for cfg in cells] == rule


def test_skip_validate_cli_names_its_cell(monkeypatch, capsys):
    # skip-validate runs its scripted cell whatever the bound flags say,
    # and says so
    ran = []

    def fake_check_upper(cfg, dedup):
        ran.append(cfg)
        return explorer.ExploreResult()

    monkeypatch.setattr(explorer, "check_upper", fake_check_upper)
    assert cli.main(["check", "upper", "--mutate", "skip-validate",
                     "--impl", "pmdk-tml", "--txns", "3",
                     "--crashes", "1"]) == 0
    [cfg] = ran
    want = skip_validate_config(mutate=True, por=False)
    assert (cfg.impl, cfg.model, cfg.txns, cfg.max_crashes, cfg.scripts,
            cfg.mutations) == (want.impl, want.model, want.txns,
                               want.max_crashes, want.scripts,
                               want.mutations)
    assert capsys.readouterr().out.splitlines()[0] == (
        "skip-validate runs its scripted cell (pmdk-norec/psc, 2 txns, "
        "2 locs, 0 crashes); the bound flags are ignored")


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


# the status a faulting slot took before a fault became an END leaf
FAULTED = max(TERMINAL + (NS, RUN, RDY)) + 1


def fault_leaves_a_machine(monkeypatch):
    """A fault leaves a machine, as before it became an ``END`` leaf: the
    faulting slot takes the status ``FAULTED``, which ends the run, and
    the explorer keys, pushes and pops that machine and expands it into
    nothing.  Its frontier is ``ACCEPT_ALL``, which names no transaction,
    so frontier dedup renames it to itself."""
    rename = refspec.rename_frontier

    def succ(cfg, m):
        return [(set_slot(m, rec[1], slot_upd(m[M_TXNS][rec[1]],
                                              (S_ST, FAULTED))), rec)
                if m2 is END and rec[0] == "fault" else (m2, rec)
                for m2, rec in successors(cfg, m)]

    monkeypatch.setattr(explorer, "successors", succ)
    monkeypatch.setattr(explorer, "ended", lambda m: ended(m) or any(
        s[S_ST] == FAULTED for s in m[M_TXNS]))
    monkeypatch.setitem(explorer.PROGRESS, FAULTED, 0)
    monkeypatch.setattr(refspec, "rename_frontier", lambda f, perm: (
        f if f == ACCEPT_ALL else rename(f, perm)))


def split_faults(hs):
    """Histories `hs` that end in a fault, and the others."""
    faults = {h for h in hs if h[-1][0] == "fault"}
    return faults, set(hs) - faults


@pytest.mark.parametrize("por", [False, True], ids=["exact", "por"])
@pytest.mark.parametrize("impl,model", [
    (impl, model) for impl in ("pmdk-seq", "pmdk-tml", "pmdk-norec")
    for model in ("psc", "ptso")])
def test_fault_is_an_end_leaf(monkeypatch, impl, model, por):
    # every successor that carries a fault record is an END leaf, so no
    # machine the explorer sees has a faulting slot; history dedup gives
    # the history set it gave while a fault left a machine, and frontier
    # dedup keeps every history that a fault ends, where it used to keep
    # representatives of them.  The unreduced explorer runs one txn
    cfg = lambda: Config(impl, model, txns=2 if por else 1, locs=1, vals=1,
                         buf=1, ops=1, max_crashes=1, por=por)
    faults = 0

    def leaves(cfg, m):
        nonlocal faults
        out = successors(cfg, m)
        for m2, rec in out:
            if rec is not None and rec[0] == "fault":
                assert m2 is END, (m, rec)
                faults += 1
        return out

    def hook(cfg, m, hid):
        assert {s[S_ST] for s in m[M_TXNS]} <= set(PROGRESS), m

    monkeypatch.setattr(explorer, "successors", leaves)
    now = {dedup: explore(cfg(), dedup=dedup, state_hook=hook)
           for dedup in ("history", "frontier")}
    assert faults
    fault_leaves_a_machine(monkeypatch)
    old = {dedup: explore(cfg(), dedup=dedup)
           for dedup in ("history", "frontier")}
    for r in list(now.values()) + list(old.values()):
        assert not r.violations
    assert now["history"].histories() == old["history"].histories()
    assert now["history"].digest() == old["history"].digest()
    assert now["history"].states < old["history"].states
    now_faults, now_rest = split_faults(now["frontier"].histories())
    old_faults, old_rest = split_faults(old["frontier"].histories())
    assert now_rest == old_rest and old_faults <= now_faults
    assert now_faults <= split_faults(now["history"].histories())[0]


@pytest.mark.parametrize("impl,model", [
    (impl, model) for impl in ("pmdk-seq", "pmdk-tml", "pmdk-norec")
    for model in ("psc", "ptso")])
def test_every_stall_is_an_allocation_on_an_empty_heap(monkeypatch, impl,
                                                      model):
    # progress: once faults are leaves, an expanded machine with no
    # successor has either ended or stalled.  The heap is bounded, so an
    # allocation waiting on an empty free list stalls its transaction, and
    # anything awaiting the lock behind it; no other kind of stall shows.
    # Frontier dedup expands every machine up to a renaming of txn ids
    stalls = 0

    def checked(cfg, m):
        nonlocal stalls
        out = successors(cfg, m)
        if not out:
            take = cfg.step_names.index("palloc.take")
            assert m[M_FREE] == 0 and any(
                s[S_ST] == RUN and s[S_IP] == take for s in m[M_TXNS]), m
            stalls += 1
        return out

    monkeypatch.setattr(explorer, "successors", checked)
    for locs in (1, 2):
        stalls = 0
        assert not check_upper(Config(impl, model, txns=2, locs=locs, vals=1,
                                      buf=1, ops=2, max_crashes=1,
                                      por=True)).violations
        assert stalls, locs
    # nor does an access that waits for a committing allocator add a kind:
    # CRASH_ALLOC_RACE is a cell where the wait fires, and it need not
    # stall at all
    if impl != "pmdk-seq":
        assert not check_upper(Config(impl, model, txns=3, locs=1,
                                      max_crashes=1, por=True,
                                      scripts=CRASH_ALLOC_RACE)).violations


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
    # earlier counts, and why they moved, are in CHANGES.md
    assert (part.states, part.transitions, part.violations) == (10, 18, [])
    assert cli.main(["check", "lower", "--max-states", "10"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["budget error: state budget exceeded (10)",
                       "partial states explored: 10",
                       "partial transitions:     18",
                       "partial violations:      0"]
    assert out[4].startswith("partial wall time:")


def test_check_lower_rejects_bounds_it_fixes(capsys):
    # check_lower fixes the crashes, the reductions and allocation
    # branching, so `check lower` takes no option for them
    for opt in (["--crashes", "1"], ["--por"], ["--branch-alloc"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "lower"] + opt)
        assert exc.value.code == 2, opt
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["upper", "lower"])
def test_check_rejects_bounds_outside_the_model(what, capsys):
    # exit 1 means a violation was found, so a bound no model has is a
    # usage error (exit 2), not a traceback from deep in the explorer
    bad = [("--txns", "0"), ("--txns", "-1"), ("--locs", "0"),
           ("--vals", "0"), ("--buf", "0"), ("--ops", "-1"),
           ("--retry-bound", "-1"), ("--max-states", "-1")]
    if what == "upper":
        bad.append(("--crashes", "-1"))
    for opt, val in bad:
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", what, opt, val])
        assert exc.value.code == 2, opt
        assert "argument %s: must be >= " % opt in capsys.readouterr().err


@pytest.mark.parametrize("what", ["upper", "lower"])
def test_check_rejects_unknown_mutation(what, capsys):
    # a name outside the registry is a usage error too
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", what, "--mutate", "bogus"])
    assert exc.value.code == 2
    assert "argument --mutate: invalid choice: 'bogus'" \
        in capsys.readouterr().err


def test_check_lower_smallest_bound():
    res = check_lower("pmdk-seq", txns=1, locs=1, vals=1, ops=1)
    assert res.ok and res.total == 2  # commit-only and alloc-commit


def test_mutation_configs_cover_registry():
    for name in MUTATIONS:
        cfg = mutation_check_config(name)
        assert name in cfg.mutations


def test_mutations_flip_verdicts_fast():
    # stop-at-first keeps each mutated run tiny.  The crash-sensitive
    # mutations must be caught under ptso too, where a thread's own log
    # stores propagate as forced steps
    for name, model in [(name, "psc") for name in MUTATIONS] + [
            (name, "ptso") for name in ("skip-undo-flush", "reorder-commit",
                                        "skip-flush-commit5")]:
        cfg = mutation_check_config(name, model=model)
        r = check_upper(cfg, stop_on_violation=True)
        assert r.violations, (name, model)


def test_mutations_caught_on_concurrent_cell():
    # the orbit key merges renamed machines of two concurrent transactions:
    # every mutation must still be caught on their criterion-1 cell.
    # NOrec's write-back runs the core's logged write, so skip-undo-flush
    # reaches it only through ``pwrite``.  skip-validate has one scripted
    # cell whatever the impl, so it runs once
    cells = [mutation_check_config("skip-validate")] + [
        mutation_check_config(name, impl=impl, model="psc")
        for impl in ("pmdk-tml", "pmdk-norec") for name in MUTATIONS
        if name != "skip-validate"]
    for cfg in cells:
        r = check_upper(cfg, stop_on_violation=True)
        assert r.violations, (cfg.impl, cfg.mutations)


# sorted-history sha256 of the 4 violations, the same for both impls
ORACLE_RACE_VIOLATIONS = \
    "d89b4eaf426c01aa2898578a89ff0c5a8c7167c92b8747bf5979b2a193f19f81"


# the ids keep the names earlier counts gave them; those counts, and why
# they moved, are in CHANGES.md
@pytest.mark.parametrize("impl,states", [("pmdk-tml", 1_750),
                                         ("pmdk-norec", 1_623)],
                         ids=["pmdk-tml-7456", "pmdk-norec-6911"])
def test_three_txn_oracle_disagreement_pinned(impl, states):
    # a known disagreement, not yet judged (ROADMAP item 10): an
    # allocating reader commits without validation after T0 committed its
    # write to the location it read.  refspec linearizes an allocator at
    # its commit, like a writer, so the read is stale there; dDO may order
    # the reader before T0, since the two overlap.  Both outcomes pinned
    r = check_upper(Config(impl, "psc", txns=3, locs=2, por=True,
                           scripts=ORACLE_RACE))
    assert (r.states, len(r.violations)) == (states, 4)
    assert history_digest(r.violations) == ORACLE_RACE_VIOLATIONS
    for records in r.violations:
        assert not accepts_history(records, 3, 2)
        assert check_history_ddo(events_of_records(records))[0]


# ROADMAP item 18's smallest cell: T1 allocates location 0 and invokes
# commit, T0 writes location 0; after the crash T2 writes it
CRASH_ALLOC_RACE = (((("write", 0, 1),), 0), ((("alloc",),), 0),
                    ((("write", 0, 1),), 1))
# the shortest of its 3 violations before an access waited for a
# committing allocator: T0's write of location 0 succeeds while T1's
# allocation of it is commit-pending, and T2's write of it faults after
# the crash.  refspec rejects it and dDO accepts it
CRASH_ALLOC_RACE_SHORTEST = (
    ("inv", 0, "begin", None, None), ("inv", 1, "begin", None, None),
    ("res", 1, "begin", None, None), ("inv", 1, "alloc", None, None),
    ("res", 1, "alloc", 0, None), ("inv", 1, "commit", None, None),
    ("res", 0, "begin", None, None), ("inv", 0, "write", 0, 1),
    ("res", 0, "write", 0, 1), ("crash",), ("inv", 2, "begin", None, None),
    ("res", 2, "begin", None, None), ("inv", 2, "write", 0, 1),
    ("fault", 2, "write", 0))


@pytest.mark.parametrize("impl", ["pmdk-tml", "pmdk-norec"])
def test_three_txn_crash_violations_pinned(impl):
    # an access waits while another transaction past its commit's point of
    # no return holds the location (pmdk.fault_check), so T0's write of
    # location 0 cannot succeed while T1's allocation of it is still
    # commit-pending: the cell's 3 violations, all of that shape, are gone
    # under either dedup, and the exact run has no history that starts
    # with the shortest of them
    cfg = Config(impl, "psc", txns=3, locs=1, max_crashes=1, por=True,
                 scripts=CRASH_ALLOC_RACE)
    assert not accepts_history(CRASH_ALLOC_RACE_SHORTEST, 3, 1)
    assert check_history_ddo(events_of_records(CRASH_ALLOC_RACE_SHORTEST))[0]
    assert not check_upper(cfg).violations
    r = explore(cfg)
    assert not r.violations
    n = len(CRASH_ALLOC_RACE_SHORTEST)
    assert all(h[:n] != CRASH_ALLOC_RACE_SHORTEST for h in r.histories())
    # T0's write still succeeds before the crash, once T1 has committed
    assert any(("res", 0, "write", 0, 1) in h[:h.index(("crash",))]
               for h in r.histories() if ("crash",) in h)


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
    from pmtxcheck.histories import events_of_records, wf_violations
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, vals=2, buf=2,
                 max_crashes=1, ops=1, por=True)
    hs, r = hist_set(cfg)
    assert not r.violations
    for h in hs:
        bad = wf_violations(events_of_records(h))
        assert not bad, (bad, h)
