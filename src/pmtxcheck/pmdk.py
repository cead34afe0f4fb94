"""PMDK-style failure-atomic transaction core as atomic step programs.

Persistent layout (integer cells over the pmem simulator):

* per data location x: a value cell and an allocated-metadata cell;
* per transaction t: one undo cell per location (-1 = no entry, else the
  logged old value), three redo-log cells (allocs bitmask, undoValid flag,
  checksum) and a global undo-valid flag cell.

Each operation compiles to step functions, one scheduled atomic step per
pseudo-code line; consecutive volatile-only lines are folded into the next
shared-memory or emitting step.  A step takes the machine tuple and a slot
index and returns ``[(machine', record-or-None), ...]``, ``None`` when
blocked on buffer drains, or the cut sentinel.

Write: log the old value on first touch, flush the undo entry, then write
in place.  Commit: persist every written location; invalidate the volatile
redo log and checksum it; copy it field-by-field (allocs, undoValid,
checksum) to the persistent redo cells; flush them; apply the redo log
(persist allocation metadata, then clear and flush the undo flag); finally
invalidate and flush the persistent checksum.  Abort: restore and persist
logged values, clear and flush the undo flag, release allocations back to
the free list.  Recovery: per transaction id, replay the redo log when the
stored checksum matches, roll back when the undo flag survived; then
rebuild the free list from allocation metadata.

Mutation hooks (checker-sensitivity experiments) are compile-time:
``skip-flush-commit5`` drops the redo-log flush, ``reorder-commit`` moves
data-write persistence after the redo-log flush, ``skip-undo-flush`` drops
the undo-entry flush, ``no-recovery-rollback`` skips recovery's rollback.
"""

from __future__ import annotations

from .engine import (FLT, M_FLT, M_FREE, M_GLB, M_MEM, M_REC, M_TXNS, RDY,
                     READY, RUN, S_AM, S_CK, S_IP, S_OP, S_REGS, S_ST, S_UV,
                     lowbit, set_mem, set_mem_slot, set_slot, slot_upd,
                     spent_slot)

MUTATIONS = ("skip-flush-commit5", "reorder-commit", "skip-validate",
             "skip-undo-flush", "no-recovery-rollback")


class Layout:
    """Cell-index arithmetic for the persistent address space."""

    __slots__ = ("locs", "txns", "prealloc", "base_undo", "base_predo",
                 "base_guv", "ncells")

    def __init__(self, locs, txns, prealloc=0):
        self.locs = locs
        self.txns = txns
        self.prealloc = prealloc
        self.base_undo = 2 * locs
        self.base_predo = 2 * locs + txns * locs
        self.base_guv = self.base_predo + 3 * txns
        self.ncells = self.base_guv + txns

    def val(self, x):
        return x

    def meta(self, x):
        return self.locs + x

    def undo(self, t, x):
        return self.base_undo + t * self.locs + x

    def pa(self, t):
        return self.base_predo + 3 * t

    def puv(self, t):
        return self.base_predo + 3 * t + 1

    def pck(self, t):
        return self.base_predo + 3 * t + 2

    def guv(self, t):
        return self.base_guv + t

    def initial_nvm(self):
        nvm = [0] * self.ncells
        for x in range(self.prealloc):
            nvm[self.meta(x)] = 1
        for t in range(self.txns):
            for x in range(self.locs):
                nvm[self.undo(t, x)] = -1
            nvm[self.puv(t)] = 1   # undo flag and redo fields start "valid"
            nvm[self.pck(t)] = -1  # checksum starts at the invalid sentinel
            nvm[self.guv(t)] = 1
        return tuple(nvm)


def calc_checksum(undo_valid, allocs_mask):
    """Idealised injective checksum over the redo-log payload; never -1."""
    return 1 + ((allocs_mask << 1) | (1 if undo_valid else 0))


# ---------------------------------------------------------------------------
# shared step helpers
# ---------------------------------------------------------------------------

def reserve(cfg, n):
    base = len(cfg.step_table)
    cfg.step_table.extend([None] * n)
    return base


def fill(cfg, base, fns):
    for i, fn in enumerate(fns):
        cfg.step_table[base + i] = fn


def run_ip(cfg, m, ti, ip):
    """Fall through into the step at `ip` within the same scheduled step
    (used when a phase change is volatile-only)."""
    return cfg.step_table[ip](m, ti)


def visible_undo_mask(cfg, m, ti, tid):
    lay = cfg.layout
    mem = m[M_MEM]
    load = cfg.pmem.load
    mask = 0
    for x in range(lay.locs):
        if load(mem, tid, lay.undo(ti, x)) != -1:
            mask |= 1 << x
    return mask


def fault_check(cfg, m, ti, loc):
    """Model-level fault: the location is not self-allocated, not
    allocated-visible, and not owned by another transaction that is past
    its commit point of no return (whose allocations will be published,
    though its per-location metadata stores may not all have landed yet)."""
    slot = m[M_TXNS][ti]
    if (slot[S_AM] >> loc) & 1:
        return False
    if cfg.pmem.load(m[M_MEM], ti, cfg.layout.meta(loc)) != 0:
        return False
    for j, u in enumerate(m[M_TXNS]):
        if (j != ti and u[S_ST] == RUN and u[S_IP] in cfg.noabort_ips
                and (u[S_AM] >> loc) & 1):
            return False
    return True


def fault_state(cfg, m, ti, op, loc):
    slot = slot_upd(m[M_TXNS][ti], (S_ST, FLT), (S_OP, None))
    m2 = set_slot(m, ti, slot)
    m2 = m2[:M_FLT] + (1,)
    return [(m2, ("fault", ti, op, loc))]


def store(cfg, m, tid, cell, val):
    """Buffered store; None when blocked.

    Reduced mode (persist timing unobservable): PSC stores land directly in
    NVM; PTSO stores still go through the store buffer (visibility).  In
    the pre-crash --por phase a full persistence buffer is drained on
    demand (the completing schedule forces that drain anyway)."""
    pm = cfg.pmem
    if cfg.reduced(m) and pm.model == "psc":
        return pm.store_direct(m[M_MEM], cell, val)
    mem2 = pm.store(m[M_MEM], tid, cell, val)
    if mem2 is None and cfg.por and pm.model == "psc":
        mem2 = pm.store(pm.make_room(m[M_MEM], cell), tid, cell, val)
    return mem2


def flush_mem(cfg, m, tid, cells):
    """None until the flush may complete, else the post-flush memory.

    Under --por the persistence buffers drain on demand (any schedule in
    which this flush completes performed those persists); the thread's own
    store buffer must still be clear of the flushed cells."""
    pm = cfg.pmem
    if cfg.por:
        if not pm.sbuf_clear_of(m[M_MEM], tid, cells):
            return None
        return pm.drain_cells(m[M_MEM], cells)
    if not pm.flush_ready(m[M_MEM], tid, cells):
        return None
    return m[M_MEM]


def make_respond(cfg, op, status):
    """Response-emitting step; regs carry (loc, val) where applicable.  A
    response into RDY resets the fields RDY does not read (`READY`); one
    into COMM or ABRT ends the transaction, whose slot becomes the spent
    slot of that status."""
    spent = None if status == RDY else spent_slot(cfg, status)

    def s_res(m, ti):
        slot = m[M_TXNS][ti]
        loc = val = None
        if op == "read" or op == "write":
            loc, val = slot[S_REGS][0], slot[S_REGS][1]
        elif op == "alloc":
            loc = slot[S_REGS][0]
        slot = slot_upd(slot, *READY) if spent is None else spent
        return [(set_slot(m, ti, slot), ("res", ti, op, loc, val))]
    return s_res


# ---------------------------------------------------------------------------
# operation builders.  Each reserves its block and returns the entry ip.
# ---------------------------------------------------------------------------

def build_pbegin(cfg, done_ip):
    """Four stores: redo-log cells reset (allocs, undoValid, checksum) and
    the undo flag raised; the volatile redo reset rides on the first."""
    lay = cfg.layout
    base = reserve(cfg, 4)

    def mk(cell_of, val, upd_tredo):
        def s(m, ti):
            slot = m[M_TXNS][ti]
            mem2 = store(cfg, m, ti, cell_of(ti), val)
            if mem2 is None:
                return None
            ip = slot[S_IP] + 1
            if ip == base + 4:
                ip = done_ip
            pairs = [(S_IP, ip)]
            if upd_tredo:
                pairs += [(S_UV, 1), (S_CK, -1), (S_AM, 0)]
            return [(set_mem_slot(m, mem2, ti, slot_upd(slot, *pairs)), None)]
        return s

    fill(cfg, base, [mk(lay.pa, 0, True), mk(lay.puv, 1, False),
                     mk(lay.pck, -1, False), mk(lay.guv, 1, False)])
    cfg.private_ips.update(range(base, base + 4))
    return base


def build_palloc(cfg):
    """Take a free location (lowest, or every choice under branch-alloc),
    record it in the volatile redo log, respond."""
    base = reserve(cfg, 2)

    def s_take(m, ti):
        free = m[M_FREE]
        if free == 0:
            return None  # out of memory: step disabled
        if cfg.branch_alloc:
            choices, mm = [], free
            while mm:
                low = mm & -mm
                choices.append(low.bit_length() - 1)
                mm ^= low
        else:
            choices = [lowbit(free)]
        out = []
        for x in choices:
            slot = m[M_TXNS][ti]
            slot = slot_upd(slot, (S_AM, slot[S_AM] | (1 << x)),
                            (S_REGS, (x, None)), (S_IP, base + 1))
            m2 = (m[M_MEM], m[M_GLB], free & ~(1 << x),
                  m[M_TXNS][:ti] + (slot,) + m[M_TXNS][ti + 1:]) \
                + m[M_TXNS + 1:]
            out.append((m2, None))
        return out

    fill(cfg, base, [s_take, make_respond(cfg, "alloc", RDY)])
    return base


def build_pread(cfg, done_ip):
    """One load of the value cell; regs (l, ...) gains v at index 1."""
    lay = cfg.layout
    base = reserve(cfg, 1)

    def s_read(m, ti):
        slot = m[M_TXNS][ti]
        l = slot[S_REGS][0]
        if fault_check(cfg, m, ti, l):
            return fault_state(cfg, m, ti, "read", l)
        v = cfg.pmem.load(m[M_MEM], ti, lay.val(l))
        regs = (l, v) + slot[S_REGS][2:]
        slot = slot_upd(slot, (S_REGS, regs), (S_IP, done_ip))
        return [(set_slot(m, ti, slot), None)]

    fill(cfg, base, [s_read])
    return base


def build_pwrite(cfg, done_ip):
    """Guard-and-log, undo flush, in-place store.  regs (l, v[, old])."""
    lay = cfg.layout
    base = reserve(cfg, 4)
    skip_flush = "skip-undo-flush" in cfg.mutations

    def s_guard(m, ti):
        slot = m[M_TXNS][ti]
        l, v = slot[S_REGS][0], slot[S_REGS][1]
        if fault_check(cfg, m, ti, l):
            return fault_state(cfg, m, ti, "write", l)
        if cfg.pmem.load(m[M_MEM], ti, lay.undo(ti, l)) != -1:
            mem2 = store(cfg, m, ti, lay.val(l), v)  # already logged
            if mem2 is None:
                return None
            return [(set_mem_slot(m, mem2, ti, slot_upd(slot,
                                                        (S_IP, done_ip))),
                     None)]
        w = cfg.pmem.load(m[M_MEM], ti, lay.val(l))
        slot = slot_upd(slot, (S_REGS, (l, v, w)), (S_IP, base + 1))
        return [(set_slot(m, ti, slot), None)]

    def s_log(m, ti):
        slot = m[M_TXNS][ti]
        l, _v, w = slot[S_REGS][:3]
        mem2 = store(cfg, m, ti, lay.undo(ti, l), w)
        if mem2 is None:
            return None
        ip = base + 3 if skip_flush else base + 2
        return [(set_mem_slot(m, mem2, ti, slot_upd(slot, (S_IP, ip))),
                 None)]

    def s_log_flush(m, ti):
        slot = m[M_TXNS][ti]
        mem2 = flush_mem(cfg, m, ti, (lay.undo(ti, slot[S_REGS][0]),))
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti,
                              slot_upd(slot, (S_IP, base + 3))), None)]

    def s_write(m, ti):
        slot = m[M_TXNS][ti]
        l, v = slot[S_REGS][0], slot[S_REGS][1]
        mem2 = store(cfg, m, ti, lay.val(l), v)
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti, slot_upd(slot, (S_IP, done_ip))),
                 None)]

    fill(cfg, base, [s_guard, s_log, s_log_flush, s_write])
    cfg.private_ips.update((base + 1, base + 2))
    return base


def build_pcommit(cfg, done_ip):
    """The commit chain; regs become ("co", persist_mask, apply_mask)."""
    lay = cfg.layout
    reorder = "reorder-commit" in cfg.mutations
    skip_c5 = "skip-flush-commit5" in cfg.mutations
    order = ["pw", "pa", "puv", "pck", "fl", "ap", "apf", "guvf", "c7", "c8"]
    if reorder:
        order = ["pa", "puv", "pck", "fl", "pw", "ap", "apf", "guvf",
                 "c7", "c8"]
    base = reserve(cfg, len(order))
    cfg.noabort_ips.update(range(base, base + len(order)))
    at = {p: base + i for i, p in enumerate(order)}

    def regs_of(slot):
        regs = slot[S_REGS]
        if regs[:1] != ("co",):
            regs = ("co", None, None)
        return regs

    def s_pw(m, ti):
        slot = m[M_TXNS][ti]
        regs = regs_of(slot)
        mask = regs[1]
        if mask is None:
            mask = visible_undo_mask(cfg, m, ti, ti)
        if mask:
            x = lowbit(mask)
            mem2 = flush_mem(cfg, m, ti, (lay.val(x),))
            if mem2 is None:
                return None
            slot = slot_upd(slot, (S_REGS, ("co", mask & ~(1 << x),
                                            regs[2])))
            return [(set_mem_slot(m, mem2, ti, slot), None)]
        slot = slot_upd(slot, (S_REGS, ("co", 0, regs[2])),
                        (S_IP, at["pw"] + 1))
        return run_ip(cfg, set_slot(m, ti, slot), ti, at["pw"] + 1)

    def s_pa(m, ti):
        slot = m[M_TXNS][ti]
        regs = regs_of(slot)
        ck = calc_checksum(0, slot[S_AM])  # c2/c3 folded in
        mem2 = store(cfg, m, ti, lay.pa(ti), slot[S_AM])
        if mem2 is None:
            return None
        slot = slot_upd(slot, (S_UV, 0), (S_CK, ck), (S_REGS, regs),
                        (S_IP, at["pa"] + 1))
        return [(set_mem_slot(m, mem2, ti, slot), None)]

    def s_puv(m, ti):
        slot = m[M_TXNS][ti]
        mem2 = store(cfg, m, ti, lay.puv(ti), slot[S_UV])
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti,
                              slot_upd(slot, (S_IP, at["puv"] + 1))), None)]

    def s_pck(m, ti):
        slot = m[M_TXNS][ti]
        mem2 = store(cfg, m, ti, lay.pck(ti), slot[S_CK])
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti,
                              slot_upd(slot, (S_IP, at["pck"] + 1))), None)]

    def s_fl(m, ti):
        slot = m[M_TXNS][ti]
        if skip_c5:  # mutation: the redo log is never explicitly persisted
            slot = slot_upd(slot, (S_IP, at["fl"] + 1))
            return run_ip(cfg, set_slot(m, ti, slot), ti, at["fl"] + 1)
        mem2 = flush_mem(cfg, m, ti, (lay.pa(ti), lay.puv(ti), lay.pck(ti)))
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti,
                              slot_upd(slot, (S_IP, at["fl"] + 1))), None)]

    def s_ap(m, ti):
        slot = m[M_TXNS][ti]
        regs = regs_of(slot)
        amask = regs[2]
        if amask is None:
            amask = cfg.pmem.load(m[M_MEM], ti, lay.pa(ti))
        if amask:
            x = lowbit(amask)
            mem2 = store(cfg, m, ti, lay.meta(x), 1)
            if mem2 is None:
                return None
            slot = slot_upd(slot, (S_REGS, ("co", regs[1], amask)),
                            (S_IP, at["apf"]))
            return [(set_mem_slot(m, mem2, ti, slot), None)]
        if cfg.pmem.load(m[M_MEM], ti, lay.puv(ti)) == 0:
            mem2 = store(cfg, m, ti, lay.guv(ti), 0)
            if mem2 is None:
                return None
            slot = slot_upd(slot, (S_REGS, regs), (S_IP, at["guvf"]))
            return [(set_mem_slot(m, mem2, ti, slot), None)]
        slot = slot_upd(slot, (S_REGS, regs), (S_IP, at["c7"]))
        return run_ip(cfg, set_slot(m, ti, slot), ti, at["c7"])

    def s_apf(m, ti):
        slot = m[M_TXNS][ti]
        regs = slot[S_REGS]
        x = lowbit(regs[2])
        mem2 = flush_mem(cfg, m, ti, (lay.meta(x),))
        if mem2 is None:
            return None
        slot = slot_upd(slot, (S_REGS, ("co", regs[1],
                                        regs[2] & ~(1 << x))),
                        (S_IP, at["ap"]))
        return [(set_mem_slot(m, mem2, ti, slot), None)]

    def s_guvf(m, ti):
        slot = m[M_TXNS][ti]
        mem2 = flush_mem(cfg, m, ti, (lay.guv(ti),))
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti,
                              slot_upd(slot, (S_IP, at["c7"]))), None)]

    def s_c7(m, ti):
        slot = m[M_TXNS][ti]
        mem2 = store(cfg, m, ti, lay.pck(ti), -1)
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti,
                              slot_upd(slot, (S_IP, at["c8"]))), None)]

    def s_c8(m, ti):
        slot = m[M_TXNS][ti]
        mem2 = flush_mem(cfg, m, ti, (lay.pck(ti),))
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti, slot_upd(slot, (S_IP, done_ip))),
                 None)]

    impls = {"pw": s_pw, "pa": s_pa, "puv": s_puv, "pck": s_pck, "fl": s_fl,
             "ap": s_ap, "apf": s_apf, "guvf": s_guvf, "c7": s_c7,
             "c8": s_c8}
    fill(cfg, base, [impls[p] for p in order])
    # reduced-mode-private phases: redo-cell stores, no-op flushes, and the
    # persist loop when it falls through into a private store; the apply
    # loop writes shared metadata cells and the mutated variants change the
    # fall-through targets, so those stay scheduled
    private = {"pa", "puv", "pck", "apf", "guvf", "c7", "c8"}
    if not reorder:
        private.add("pw")
    if not skip_c5:
        private.add("fl")
    cfg.private_ips.update(at[p] for p in private)
    return base


def build_pabort(cfg, done_ip):
    """Rollback stores, rollback flushes, clear-and-flush the undo flag,
    release allocations.  regs become ("ab", rb_mask, flush_mask)."""
    lay = cfg.layout
    base = reserve(cfg, 4)

    def s_rb(m, ti):
        slot = m[M_TXNS][ti]
        regs = slot[S_REGS]
        if regs[:1] != ("ab",):
            mask = visible_undo_mask(cfg, m, ti, ti)
            regs = ("ab", mask, mask)
            slot = slot_upd(slot, (S_REGS, regs))
        mask = regs[1]
        if mask:
            x = lowbit(mask)
            w = cfg.pmem.load(m[M_MEM], ti, lay.undo(ti, x))
            mem2 = store(cfg, m, ti, lay.val(x), w)
            if mem2 is None:
                return None
            slot = slot_upd(slot, (S_REGS, ("ab", mask & ~(1 << x),
                                            regs[2])))
            return [(set_mem_slot(m, mem2, ti, slot), None)]
        slot = slot_upd(slot, (S_IP, base + 1))
        return run_ip(cfg, set_slot(m, ti, slot), ti, base + 1)

    def s_pwf(m, ti):
        slot = m[M_TXNS][ti]
        regs = slot[S_REGS]
        mask = regs[2]
        if mask:
            x = lowbit(mask)
            mem2 = flush_mem(cfg, m, ti, (lay.val(x),))
            if mem2 is None:
                return None
            slot = slot_upd(slot, (S_REGS, ("ab", 0, mask & ~(1 << x))))
            return [(set_mem_slot(m, mem2, ti, slot), None)]
        mem2 = store(cfg, m, ti, lay.guv(ti), 0)
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti,
                              slot_upd(slot, (S_IP, base + 2))), None)]

    def s_guvf(m, ti):
        slot = m[M_TXNS][ti]
        mem2 = flush_mem(cfg, m, ti, (lay.guv(ti),))
        if mem2 is None:
            return None
        return [(set_mem_slot(m, mem2, ti,
                              slot_upd(slot, (S_IP, base + 3))), None)]

    def s_free(m, ti):
        slot = slot_upd(m[M_TXNS][ti], (S_IP, done_ip))
        m2 = (m[M_MEM], m[M_GLB], m[M_FREE] | slot[S_AM],
              m[M_TXNS][:ti] + (slot,) + m[M_TXNS][ti + 1:]) \
            + m[M_TXNS + 1:]
        return [(m2, None)]

    fill(cfg, base, [s_rb, s_pwf, s_guvf, s_free])
    cfg.private_ips.update((base + 1, base + 2))
    return base


# ---------------------------------------------------------------------------
# Recovery automaton, driven through the machine's rec field (txid, phase,
# mask).  Phases: 0 checksum check / finish, 1 redo-apply store, 2 redo
# metadata flush, 4 undo-flag flush, 5 rollback check, 6 rollback store,
# 7 rollback flush.  Each step returns one successor and emits nothing, and
# reads and writes only memory; the finishing step also rebuilds the free
# list.  While a crash can still interrupt it, the engine schedules it one
# step at a time; after the last crash under --por, `engine.run_recovery`
# runs it to its end inside the crash transition.
# ---------------------------------------------------------------------------

def build_recovery(cfg):
    lay = cfg.layout
    tid = cfg.txns  # recovery pseudo-thread
    skip_rb = "no-recovery-rollback" in cfg.mutations

    def nvm_undo_mask(m, t):
        load = cfg.pmem.load
        mem = m[M_MEM]
        mask = 0
        for x in range(lay.locs):
            if load(mem, tid, lay.undo(t, x)) != -1:
                mask |= 1 << x
        return mask

    def set_rec(m, rec):
        return m[:M_REC] + (rec,) + m[M_REC + 1:]

    def step(m):
        t, phase, mask = m[M_REC]
        pm = cfg.pmem
        mem = m[M_MEM]
        if phase == 0:
            if t >= cfg.txns:
                free = 0
                for x in range(lay.locs):
                    if pm.load(mem, tid, lay.meta(x)) == 0:
                        free |= 1 << x
                m2 = (m[M_MEM], 0, free) + m[3:M_REC] + (None,) \
                    + m[M_REC + 1:]
                return [(m2, None)]
            pa = pm.load(mem, tid, lay.pa(t))
            puv = pm.load(mem, tid, lay.puv(t))
            pck = pm.load(mem, tid, lay.pck(t))
            if calc_checksum(puv, pa) == pck:
                return step(set_rec(m, (t, 1, pa)))
            return step(set_rec(m, (t, 5, 0)))
        if phase == 1:
            if mask:
                x = lowbit(mask)
                mem2 = store(cfg, m, tid, lay.meta(x), 1)
                if mem2 is None:
                    return None
                return [(set_rec(set_mem(m, mem2), (t, 2, mask)), None)]
            if pm.load(mem, tid, lay.puv(t)) == 0:
                mem2 = store(cfg, m, tid, lay.guv(t), 0)
                if mem2 is None:
                    return None
                return [(set_rec(set_mem(m, mem2), (t, 4, 0)), None)]
            return step(set_rec(m, (t, 5, 0)))
        if phase == 2:
            x = lowbit(mask)
            mem2 = flush_mem(cfg, m, tid, (lay.meta(x),))
            if mem2 is None:
                return None
            return [(set_rec(set_mem(m, mem2), (t, 1, mask & ~(1 << x))),
                     None)]
        if phase == 4:
            mem2 = flush_mem(cfg, m, tid, (lay.guv(t),))
            if mem2 is None:
                return None
            return step(set_rec(set_mem(m, mem2), (t, 5, 0)))
        if phase == 5:
            if not skip_rb and pm.load(mem, tid, lay.guv(t)) == 1:
                rb = nvm_undo_mask(m, t)
                if rb:
                    return [(set_rec(m, (t, 6, rb)), None)]
            return step(set_rec(m, (t + 1, 0, 0)))
        if phase == 6:
            if mask:
                x = lowbit(mask)
                w = pm.load(mem, tid, lay.undo(t, x))
                mem2 = store(cfg, m, tid, lay.val(x), w)
                if mem2 is None:
                    return None
                return [(set_rec(set_mem(m, mem2),
                                 (t, 6, mask & ~(1 << x))), None)]
            return step(set_rec(m, (t, 7, nvm_undo_mask(m, t))))
        if phase == 7:
            if mask:
                x = lowbit(mask)
                mem2 = flush_mem(cfg, m, tid, (lay.val(x),))
                if mem2 is None:
                    return None
                return [(set_rec(set_mem(m, mem2), (t, 7, mask & ~(1 << x))),
                         None)]
            return step(set_rec(m, (t + 1, 0, 0)))
        raise AssertionError("bad recovery phase %r" % (phase,))

    return step
