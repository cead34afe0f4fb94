"""Step programs as data: the reduction sets derived from the declared
footprints, and the footprints checked against what every step does."""

import pytest

from pmtxcheck.engine import (ABRT, M_CRASH, M_FREE, M_GLB, M_MEM, M_REC,
                              M_TXNS, RUN, S_AM, S_IP, S_ST, initial_machine,
                              set_mem, set_slot, slot_upd, spent_slot)
from pmtxcheck.explorer import Config, explore
from pmtxcheck.pmdk import (DATA, FLUSH, FREE, GLB, LOG, META, MUTATIONS,
                            REC, SLOTS, EMIT)
from pmtxcheck.pmem import EXACT, MODELS, PMem
from pmtxcheck.stm import IMPLS

# the private steps every implementation links: the begin's stores, the
# commit's log-only and flush steps and the write's undo log and flush
CORE_PRIVATE = {"pbegin.pa", "pbegin.puv", "pbegin.pck", "pbegin.guv",
                "pcommit.pw", "pcommit.pa", "pcommit.puv", "pcommit.pck",
                "pcommit.fl", "pcommit.apf", "pcommit.guvf", "pcommit.c7",
                "pcommit.c8", "pwrite.log", "pwrite.flush"}
# the rollback's flush tail, linked where a transaction can abort
ABORT_PRIVATE = {"pabort.pwf", "pabort.clear", "pabort.guvf"}
# the commit chain, past the point of no return in every implementation
COMMIT = {"respond.commit"} | {"pcommit." + e for e in (
    "pw", "pa", "puv", "pck", "fl", "ap", "apf", "guvf", "c7", "c8")}
# impl -> (private steps, no-abort steps), listed by hand at 2 txns and 2
# locations, against the sets ``link`` derives from the footprints
HAND_SETS = {
    "pmdk-seq": (CORE_PRIVATE, COMMIT),
    "pmdk-tml": (CORE_PRIVATE | ABORT_PRIVATE, COMMIT | {"release.glb"}),
    "pmdk-norec": (CORE_PRIVATE | ABORT_PRIVATE,
                   COMMIT | {"release.glb", "writeback.wb", "pwrite.guard",
                             "pwrite.log", "pwrite.flush", "pwrite.write"}),
}
# mutation -> the commit step it makes fall through into the apply loop,
# which writes shared metadata: the persist loop under reorder-commit, the
# skipped redo-log flush under skip-flush-commit5
DEMOTED = {"reorder-commit": "pcommit.pw", "skip-flush-commit5": "pcommit.fl"}


@pytest.mark.parametrize("mutation", (None,) + MUTATIONS)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("impl", IMPLS)
def test_reduction_sets_match_hand_lists(impl, model, mutation):
    cfg = Config(impl, model, txns=2, locs=2,
                 mutations=(mutation,) if mutation else ())
    private, noabort = HAND_SETS[impl]
    if mutation in DEMOTED:
        private = private - {DEMOTED[mutation]}
    if mutation == "skip-undo-flush":
        # no step goes to the skipped undo flush, so no flagged block
        # reaches it
        noabort = noabort - {"pwrite.flush"}
    # the recovery blocks come after every transaction's
    txn_ips = set(range(cfg.step_names.index("redo.check")))
    assert {cfg.step_names[ip] for ip in cfg.private_ips & txn_ips} \
        == private
    assert {cfg.step_names[ip] for ip in cfg.noabort_ips} == noabort


# ---------------------------------------------------------------------------
# footprint soundness
# ---------------------------------------------------------------------------

class RecordingPMem(PMem):
    """The simulator, logging every cell a step loads, stores or flushes."""

    __slots__ = ()
    log = []

    def load(self, st, tid, cell):
        self.log.append(("load", cell))
        return PMem.load(self, st, tid, cell)

    def store(self, st, tid, cell, val, regime):
        self.log.append(("store", cell))
        return PMem.store(self, st, tid, cell, val, regime)

    def flush(self, st, tid, cells, regime):
        self.log.extend(("flush", c) for c in cells)
        return PMem.flush(self, st, tid, cells, regime)


class Machine(tuple):
    """A machine that logs reads of glb, of the free list and, through
    `Txns`, of other transactions' slots.  Slices are not reads: the steps
    copy fields into the successor machine by slicing."""

    def __getitem__(self, i):
        v = tuple.__getitem__(self, i)
        if i == M_GLB:
            self.read.add(GLB)
        elif i == M_FREE:
            self.read.add(FREE)
        elif i == M_TXNS:
            v = Txns(v)
            v.ti, v.read = self.ti, self.read
        return v


class Txns(tuple):
    def __getitem__(self, j):
        if isinstance(j, int) and j != self.ti:
            self.read.add(SLOTS)
        return tuple.__getitem__(self, j)

    def __iter__(self):
        self.read.add(SLOTS)
        return tuple.__iter__(self)


def touched(cfg, m, ti, ip):
    """Run step `ip` as thread `ti` on `m`; the footprint classes it
    used.  Asserts that it touches no other thread's log cells, which the
    engine's forced propagation of log cells under --por and ptso needs.
    The step gets its machine's persist regime as the engine passes it,
    asked of the plain machine: the regime is not the step's read."""
    lay = cfg.layout
    own = cfg.log_cells[ti]
    w = Machine(m)
    w.ti, w.read = ti, set()
    del RecordingPMem.log[:]
    r = cfg.step_table[ip](w, ti, cfg.regime(m))
    used = set(w.read)
    others = set().union(*cfg.log_cells) - own
    foreign = [(kind, c) for kind, c in RecordingPMem.log if c in others]
    assert not foreign, (cfg.step_names[ip], ti, foreign)
    for kind, c in RecordingPMem.log:
        if kind == "flush":
            used.add(FLUSH)
        cls = (DATA if c < lay.locs else META if c < 2 * lay.locs
               else LOG if c in own else "another transaction's log")
        if kind != "flush" or cls not in (DATA, META, LOG):
            used.add(cls)
    if r is not None:
        for m2, rec in r:
            if rec is not None:
                used.add(EMIT)
            if type(m2) is not tuple:
                # a leaf tag (engine.CUT or engine.END) leaves no machine
                continue
            if m2[M_GLB] != m[M_GLB]:
                used.add(GLB)
            if m2[M_FREE] != m[M_FREE]:
                used.add(FREE)
            if m2[M_MEM] != m[M_MEM] and not RecordingPMem.log:
                used.add("memory written without the simulator")
            if m2[M_REC] != m[M_REC]:
                used.add(REC)
            if m2[M_CRASH] != m[M_CRASH]:
                used.add("machine field %d" % M_CRASH)
            for j, (s, s2) in enumerate(zip(m[M_TXNS], m2[M_TXNS])):
                if j != ti and s != s2:
                    used.add("another transaction's slot")
    return used


def counted(fn, name, ran):
    def step(m, ti, regime):
        ran.add(name)
        return fn(m, ti, regime)
    return step


# tiny cells with one crash, and one with two.  Frontier dedup visits every reachable
# machine at least once, and the hook sees every machine a forced chain
# reaches, recovery after the last crash included.  The naive explorer runs
# one transaction (two do not fit in a test's time); --por runs two,
# unscripted with one operation, and scripted to race a reader that then
# writes against a writer.  With two crashes a crash may interrupt the
# recovery of any transaction id, run as its thread
SEQUENTIAL = dict(txns=1, locs=1, vals=1, buf=1, ops=2)
CONCURRENT = dict(txns=2, locs=1, vals=2, buf=1, ops=1)
RACE = dict(txns=2, locs=1, vals=2, buf=1, ops=2, prealloc=1,
            scripts=(((("read", 0), ("write", 0, 1)), 0),
                     ((("write", 0, 1),), 0)))


@pytest.mark.parametrize("impl", IMPLS)
def test_footprints_cover_every_step(impl):
    ran = set()
    for model in MODELS:
        for por, crashes, bounds in ((False, 1, SEQUENTIAL),
                                     (True, 1, CONCURRENT), (True, 1, RACE),
                                     (True, 2, CONCURRENT)):
            cfg = Config(impl, model, max_crashes=crashes, por=por, **bounds)
            cfg.pmem.__class__ = RecordingPMem
            table = cfg.step_table
            for ip, fn in enumerate(table):
                table[ip] = counted(fn, cfg.step_names[ip], ran)

            def hook(cfg, m, hid):
                steps = [(ti, slot[S_IP]) for ti, slot in enumerate(m[M_TXNS])
                         if slot[S_ST] == RUN]
                if m[M_REC] is not None:
                    # the recovering thread starts at the checksum test
                    ti = m[M_REC]
                    steps.append((ti, m[M_TXNS][ti][S_IP]
                                  or cfg.step_names.index("redo.check")))
                for ti, ip in steps:
                    used = touched(cfg, m, ti, ip)
                    assert used <= cfg.footprints[ip], \
                        (cfg.step_names[ip], used - cfg.footprints[ip], m)

            r = explore(cfg, dedup="frontier", state_hook=hook)
            assert not r.violations
    # every linked entry ran, at rest or fallen through into
    assert set(cfg.step_names) == ran


@pytest.mark.parametrize("por", [False, True], ids=["exact", "por"])
@pytest.mark.parametrize("model", MODELS)
def test_abort_rolls_back_a_logged_write(model, por):
    # no explored schedule aborts a transaction that holds an undo entry
    # (TML aborts only before its first logged write), so the abort runs
    # here on a hand-built machine, each step within its footprint:
    # transaction 0 logged location 0's old value 1 and flushed it,
    # allocated location 1 and wrote 0 over location 0, a store still
    # buffered
    cfg = Config("pmdk-tml", model, txns=2, locs=2, max_crashes=1,
                 prealloc=1, por=por)
    cfg.pmem.__class__ = RecordingPMem
    lay, pm = cfg.layout, cfg.pmem
    m = initial_machine(cfg)
    nvm, pbufs, sbufs = m[M_MEM]
    nvm = nvm[:lay.val(0)] + (1,) + nvm[lay.val(0) + 1:]
    nvm = nvm[:lay.undo(0, 0)] + (1,) + nvm[lay.undo(0, 0) + 1:]
    if model == "psc":
        pbufs = ((0,),) + pbufs[1:]
    else:
        sbufs = (((lay.val(0), 0),),) + sbufs[1:]
    slot = slot_upd(m[M_TXNS][0], (S_ST, RUN), (S_AM, 0b10),
                    (S_IP, cfg.step_names.index("pabort.rb")))
    m = set_slot(set_mem(m, (nvm, pbufs, sbufs))[:M_FREE] + (0,)
                 + m[M_FREE + 1:], 0, slot)
    assert pm.load(m[M_MEM], 0, lay.val(0)) == 0

    # run transaction 0 alone; when it blocks, its store buffer propagates
    # or, under EXACT, a buffered cell persists
    respond = cfg.step_names.index("respond.abort")
    while m[M_TXNS][0][S_IP] != respond:
        ip = m[M_TXNS][0][S_IP]
        assert touched(cfg, m, 0, ip) <= cfg.footprints[ip], \
            cfg.step_names[ip]
        r = cfg.step_table[ip](m, 0, cfg.regime(m))
        if r is None:
            mem = m[M_MEM]
            if model == "ptso" and mem[2][0]:
                mem = pm.propagate(mem, 0, cfg.regime(m))
            else:
                assert cfg.regime(m) == EXACT
                mem = pm.system_steps(mem, EXACT)[0]
            m = set_mem(m, mem)
        else:
            [(m, rec)] = r
            assert rec is None
    [(m, rec)] = cfg.step_table[respond](m, 0, cfg.regime(m))
    assert rec == ("res", 0, "abort", None, None)
    assert m[M_TXNS][0] == spent_slot(cfg, ABRT)

    # the logged value is restored and persisted, the undo flag is cleared
    # and persisted, and the allocation is free again
    nvm, pbufs, sbufs = m[M_MEM]
    assert nvm[lay.val(0)] == 1 and nvm[lay.guv(0)] == 0
    assert pbufs[lay.val(0)] == pbufs[lay.guv(0)] == ()
    assert sbufs is None or sbufs[0] == ()
    assert m[M_FREE] == 0b10


# ---------------------------------------------------------------------------
# private steps are independent of other threads' access checks
# ---------------------------------------------------------------------------

def fault_view(cfg, slot):
    """What ``pmdk.fault_check`` of another thread reads of `slot`."""
    return slot[S_ST], slot[S_AM], slot[S_IP] in cfg.noabort_ips


# private steps the cell below never runs at rest: a one-operation
# transaction has nothing to roll back, the commit's redo-log store is
# fallen into from its persist loop, and skip-undo-flush skips the undo
# flush ``pwrite.flush``
NOT_AT_REST = {"pabort.pwf", "pabort.clear", "pabort.guvf", "pcommit.pa",
               "pwrite.flush"}


@pytest.mark.parametrize("mutation", (None,) + MUTATIONS)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("impl", IMPLS)
def test_private_steps_keep_fault_view(impl, model, mutation):
    # the engine forces a private step before other threads' steps, and
    # other threads' fault_check reads this slot: no private step may
    # change what it reads
    cfg = Config(impl, model, max_crashes=1, por=True,
                 mutations=(mutation,) if mutation else (), **CONCURRENT)
    ran = set()

    def hook(cfg, m, hid):
        for ti, slot in enumerate(m[M_TXNS]):
            ip = slot[S_IP]
            if slot[S_ST] != RUN or ip not in cfg.private_ips:
                continue
            r = cfg.step_table[ip](m, ti, cfg.regime(m))
            if r is None:
                continue
            ran.add(ip)
            # the explorer follows a forced private step to its one
            # successor (engine.forced)
            assert len(r) == 1, (cfg.step_names[ip], m)
            for m2, rec in r:
                assert rec is None, (cfg.step_names[ip], rec)
                assert fault_view(cfg, m2[M_TXNS][ti]) \
                    == fault_view(cfg, slot), (cfg.step_names[ip], m)

    explore(cfg, dedup="frontier", state_hook=hook)
    txn_private = {ip for ip in cfg.private_ips
                   if ip < cfg.step_names.index("redo.check")}
    assert {cfg.step_names[ip] for ip in txn_private - ran} <= NOT_AT_REST

