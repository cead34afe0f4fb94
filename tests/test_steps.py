"""Step programs as data: the reduction sets derived from the declared
footprints, and the footprints checked against what every step does."""

import pytest

from pmtxcheck.engine import (M_CRASH, M_FLT, M_FREE, M_GLB, M_HIST, M_MEM,
                              M_REC, M_TXNS, RUN, S_IP, S_ST)
from pmtxcheck.explorer import Config, explore
from pmtxcheck.pmdk import (DATA, FLUSH, FREE, GLB, LOG, META, MUTATIONS,
                            REC, SLOTS, EMIT)
from pmtxcheck.pmem import MODELS, PMem
from pmtxcheck.stm import IMPLS

# impl -> (private ips, no-abort ips, the commit step scheduled again under
# reorder-commit and skip-flush-commit5), as the hand-written lists of the
# earlier builders gave them at 2 txns and 2 locations
HAND_SETS = {
    "pmdk-seq": ({6, 7, 9, 10, 11, 12, 17, 18, 20, 21, 22, 23, 24, 26, 27,
                  28, 29}, {3} | set(range(20, 30)), 24),
    "pmdk-tml": ({6, 7, 9, 10, 11, 12, 20, 21, 24, 25, 26, 27, 28, 30, 31,
                  32, 33}, {3} | set(range(23, 34)), 28),
    "pmdk-norec": ({6, 7, 9, 10, 11, 12, 27, 28, 30, 31, 32, 33, 34, 36, 37,
                    38, 39}, {3} | set(range(25, 40)), 34),
}


@pytest.mark.parametrize("mutation", (None,) + MUTATIONS)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("impl", IMPLS)
def test_reduction_sets_match_hand_lists(impl, model, mutation):
    cfg = Config(impl, model, txns=2, locs=2,
                 mutations=(mutation,) if mutation else ())
    private, noabort, demoted = HAND_SETS[impl]
    if mutation in ("reorder-commit", "skip-flush-commit5"):
        # the persist loop falls through into the apply loop, or the
        # skipped redo-log flush does, which writes shared metadata
        private = private - {demoted}
    # the recovery blocks come after every transaction's
    txn_ips = set(range(cfg.step_names.index("redo.check")))
    assert cfg.private_ips & txn_ips == private
    assert cfg.noabort_ips == noabort


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

    def store(self, st, tid, cell, val):
        self.log.append(("store", cell))
        return PMem.store(self, st, tid, cell, val)

    def store_direct(self, st, cell, val):
        self.log.append(("store", cell))
        return PMem.store_direct(self, st, cell, val)

    def persist(self, st, cell):
        self.log.append(("store", cell))
        return PMem.persist(self, st, cell)

    def sbuf_clear_of(self, st, tid, cells):
        self.log.extend(("flush", c) for c in cells)
        return PMem.sbuf_clear_of(self, st, tid, cells)

    def drain_cells(self, st, cells):
        self.log.extend(("flush", c) for c in cells)
        return PMem.drain_cells(self, st, cells)


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
    used."""
    lay = cfg.layout
    own = {lay.undo(ti, x) for x in range(lay.locs)} \
        | {lay.pa(ti), lay.puv(ti), lay.pck(ti), lay.guv(ti)}
    w = Machine(m)
    w.ti, w.read = ti, set()
    del RecordingPMem.log[:]
    r = cfg.step_table[ip](w, ti)
    used = set(w.read)
    for kind, c in RecordingPMem.log:
        if kind == "flush":
            used.add(FLUSH)
        cls = (DATA if c < lay.locs else META if c < 2 * lay.locs
               else LOG if c in own else "another transaction's log")
        if kind != "flush" or cls not in (DATA, META, LOG):
            used.add(cls)
    if isinstance(r, list):
        for m2, rec in r:
            if m2[M_GLB] != m[M_GLB]:
                used.add(GLB)
            if m2[M_FREE] != m[M_FREE]:
                used.add(FREE)
            if rec is not None or m2[M_FLT] != m[M_FLT]:
                used.add(EMIT)
            if m2[M_MEM] != m[M_MEM] and not RecordingPMem.log:
                used.add("memory written without the simulator")
            if m2[M_REC] != m[M_REC]:
                used.add(REC)
            for f in (M_CRASH, M_HIST):
                if m2[f] != m[f]:
                    used.add("machine field %d" % f)
            for j, (s, s2) in enumerate(zip(m[M_TXNS], m2[M_TXNS])):
                if j != ti and s != s2:
                    used.add("another transaction's slot")
    return used


def counted(fn, name, ran):
    def step(m, ti):
        ran.add(name)
        return fn(m, ti)
    return step


# tiny cells with one crash.  Frontier dedup visits every reachable
# machine at least once.  The naive explorer runs one transaction (two do
# not fit in a test's time); --por runs two, unscripted with one operation,
# and scripted to race a reader that then writes against a writer
SEQUENTIAL = dict(txns=1, locs=1, vals=1, buf=1, ops=2)
CONCURRENT = dict(txns=2, locs=1, vals=2, buf=1, ops=1)
RACE = dict(txns=2, locs=1, vals=2, buf=1, ops=2, prealloc=1,
            scripts=(((("read", 0), ("write", 0, 1)), 0),
                     ((("write", 0, 1),), 0)))


@pytest.mark.parametrize("impl", IMPLS)
def test_footprints_cover_every_step(impl):
    ran = set()
    for model in MODELS:
        for por, bounds in ((False, SEQUENTIAL), (True, CONCURRENT),
                            (True, RACE)):
            cfg = Config(impl, model, max_crashes=1, por=por, **bounds)
            cfg.pmem.__class__ = RecordingPMem
            table = cfg.step_table
            for ip, fn in enumerate(table):
                table[ip] = counted(fn, cfg.step_names[ip], ran)

            def hook(cfg, m):
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
    # every entry ran, at rest or fallen through into, but those no
    # transaction of the implementation can reach
    assert set(cfg.step_names) - ran == UNREACHABLE[impl]


UNREACHABLE = {
    # sequential transactions never abort; recovery runs its own copies of
    # the rollback, undo.rb, undo.pwf and undo.guvf
    "pmdk-seq": {"respond.abort", "pabort.rb", "pabort.pwf", "pabort.guvf",
                 "pabort.free"},
    "pmdk-tml": set(),
    # NOrec answers reads and writes itself, not through the core
    "pmdk-norec": {"respond.read", "respond.write"},
}
