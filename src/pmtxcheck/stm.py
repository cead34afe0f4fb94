"""Concurrency layers over the transactional core: TML and NOrec step
machines, plus the sequential assembly.

Both layers share a volatile SC counter ``glb`` (odd while a writer holds
the lock, reset to 0 by recovery).  TML writes eagerly: the first write
CAS-acquires the lock and every read by a lock-free transaction validates
that ``glb`` still equals its begin snapshot, aborting otherwise.  NOrec
buffers writes in a transaction-local write set, revalidates its read set
whenever ``glb`` moved, and writes back under the lock at commit.

Busy-wait loops are modeled as guarded steps (enabled when the awaited
condition holds); loops with side effects (read revalidation, validate
retries, the commit CAS loop) count loop-backs against the retry bound and
prune the schedule as a bounded-liveness cut beyond it.

``build_programs`` compiles the step table for one configuration and
installs entry points for begin/read/write/alloc/commit plus the recovery
automaton (every transaction id recovered in ascending order, then
``glb := 0``).
"""

from __future__ import annotations

from .engine import (ABRT, COMM, CUT, M_GLB, M_MEM, M_TXNS, RDY, READY,
                     S_IP, S_LOC, S_RD, S_REGS, S_RETR, S_WR, lowbit,
                     set_mem_slot, set_slot, slot_upd)
from .pmdk import (build_palloc, build_pabort, build_pbegin, build_pcommit,
                   build_pread, build_pwrite, build_recovery, fault_check,
                   fault_state, flush_mem, make_respond, reserve, fill,
                   run_ip, store)

IMPLS = ("pmdk-seq", "pmdk-tml", "pmdk-norec")


def _set_glb(m, g):
    return m[:M_GLB] + (g,) + m[M_GLB + 1:]


def build_programs(cfg):
    cfg.step_table = []
    cfg.entry = {}
    cfg.noabort_ips = set()  # commit steps past the point of no return
    cfg.private_ips = set()  # steps over per-transaction private cells
    cfg.recovery_step = build_recovery(cfg)

    res_begin = reserve(cfg, 1)
    fill(cfg, res_begin, [make_respond(cfg, "begin", RDY)])
    res_read = reserve(cfg, 1)
    fill(cfg, res_read, [make_respond(cfg, "read", RDY)])
    res_write = reserve(cfg, 1)
    fill(cfg, res_write, [make_respond(cfg, "write", RDY)])
    res_commit = reserve(cfg, 1)
    fill(cfg, res_commit, [make_respond(cfg, "commit", COMM)])
    cfg.noabort_ips.add(res_commit)
    res_abort = reserve(cfg, 1)
    fill(cfg, res_abort, [make_respond(cfg, "abort", ABRT)])

    abort_entry = build_pabort(cfg, res_abort)
    pbegin_entry = build_pbegin(cfg, res_begin)
    cfg.entry["alloc"] = build_palloc(cfg)

    if cfg.impl == "pmdk-seq":
        cfg.entry["begin"] = pbegin_entry
        cfg.entry["read"] = build_pread(cfg, res_read)
        cfg.entry["write"] = build_pwrite(cfg, res_write)
        cfg.entry["commit"] = build_pcommit(cfg, res_commit)
    elif cfg.impl == "pmdk-tml":
        _build_tml(cfg, pbegin_entry, abort_entry,
                   res_read, res_write, res_commit)
    elif cfg.impl == "pmdk-norec":
        _build_norec(cfg, pbegin_entry, abort_entry,
                     res_read, res_write, res_commit)
    else:
        raise ValueError("unknown implementation %r" % (cfg.impl,))


def _build_begin_await(cfg, pbegin_entry):
    """Spin until glb is even, snapshotting it; then start the core begin."""
    base = reserve(cfg, 1)

    def s_await(m, ti):
        g = m[M_GLB]
        if g % 2:
            return None
        slot = slot_upd(m[M_TXNS][ti], (S_LOC, g), (S_IP, pbegin_entry))
        return [(set_slot(m, ti, slot), None)]

    fill(cfg, base, [s_await])
    return base


# ---------------------------------------------------------------------------
# TML
# ---------------------------------------------------------------------------

def _build_tml(cfg, pbegin_entry, abort_entry, res_read, res_write,
               res_commit):
    cfg.entry["begin"] = _build_begin_await(cfg, pbegin_entry)

    # read: core read, then (for lock-free readers) a glb validation that
    # aborts when a writer intervened; lock holders return directly
    rv = reserve(cfg, 1)
    cfg.entry["read"] = build_pread(cfg, rv)

    def s_validate(m, ti):
        slot = m[M_TXNS][ti]
        loc = slot[S_LOC]
        if loc % 2:  # lock holder: answer directly
            slot = slot_upd(slot, (S_IP, res_read))
            return run_ip(cfg, set_slot(m, ti, slot), ti, res_read)
        ip = res_read if m[M_GLB] == loc else abort_entry
        return [(set_slot(m, ti, slot_upd(slot, (S_IP, ip))), None)]

    fill(cfg, rv, [s_validate])

    # write: first write CAS-acquires the lock or aborts
    w0 = reserve(cfg, 1)
    pwrite_entry = build_pwrite(cfg, res_write)

    def s_acquire(m, ti):
        slot = m[M_TXNS][ti]
        loc = slot[S_LOC]
        if loc % 2:  # already holds the lock
            slot = slot_upd(slot, (S_IP, pwrite_entry))
            return run_ip(cfg, set_slot(m, ti, slot), ti, pwrite_entry)
        if m[M_GLB] == loc:
            slot = slot_upd(slot, (S_LOC, loc + 1), (S_IP, pwrite_entry))
            return [(set_slot(_set_glb(m, loc + 1), ti, slot), None)]
        return [(set_slot(m, ti, slot_upd(slot, (S_IP, abort_entry))),
                 None)]

    fill(cfg, w0, [s_acquire])
    cfg.entry["write"] = w0

    # commit: the core commit, then release the lock if held
    rel = reserve(cfg, 1)
    cfg.noabort_ips.add(rel)
    cfg.entry["commit"] = build_pcommit(cfg, rel)

    def s_release(m, ti):
        slot = m[M_TXNS][ti]
        loc = slot[S_LOC]
        if loc % 2:
            slot = slot_upd(slot, (S_IP, res_commit))
            return [(set_slot(_set_glb(m, loc + 1), ti, slot), None)]
        slot = slot_upd(slot, (S_IP, res_commit))
        return run_ip(cfg, set_slot(m, ti, slot), ti, res_commit)

    fill(cfg, rel, [s_release])


# ---------------------------------------------------------------------------
# NOrec
# ---------------------------------------------------------------------------

def _rd_mask(slot):
    mask = 0
    for x, v in enumerate(slot[S_RD]):
        if v != -1:
            mask |= 1 << x
    return mask


def _build_validate(cfg, get_tv, set_tv, ok_jump, abort_entry):
    """The validate loop: wait for an even glb (snapshotting it), re-read
    the read set, abort on mismatch, retry if glb moved meanwhile.
    get_tv/set_tv access (time, vmask) in the op's regs; ok_jump installs
    the successful exit."""
    lay = cfg.layout
    base = reserve(cfg, 3)
    v0, v1, v2 = base, base + 1, base + 2

    def s_snap(m, ti):
        g = m[M_GLB]
        if g % 2:
            return None
        slot = m[M_TXNS][ti]
        slot = set_tv(slot, g, _rd_mask(slot))
        return [(set_slot(m, ti, slot_upd(slot, (S_IP, v1))), None)]

    def s_check(m, ti):
        slot = m[M_TXNS][ti]
        _time, vmask = get_tv(slot)
        if vmask:
            x = lowbit(vmask)
            if fault_check(cfg, m, ti, x):
                return fault_state(cfg, m, ti, "read", x)
            vv = cfg.pmem.load(m[M_MEM], ti, lay.val(x))
            if vv != slot[S_RD][x]:
                return [(set_slot(m, ti, slot_upd(slot,
                                                  (S_IP, abort_entry))),
                         None)]
            slot = set_tv(slot, _time, vmask & ~(1 << x))
            return [(set_slot(m, ti, slot), None)]
        slot = slot_upd(slot, (S_IP, v2))
        return run_ip(cfg, set_slot(m, ti, slot), ti, v2)

    def s_stable(m, ti):
        slot = m[M_TXNS][ti]
        time, _vmask = get_tv(slot)
        if m[M_GLB] == time:
            slot = ok_jump(slot, time)
            return [(set_slot(m, ti, slot), None)]
        r = slot[S_RETR] + 1
        if r > cfg.retry_bound:
            return CUT
        return [(set_slot(m, ti, slot_upd(slot, (S_RETR, r), (S_IP, v0))),
                 None)]

    fill(cfg, base, [s_snap, s_check, s_stable])
    return base


def _build_norec(cfg, pbegin_entry, abort_entry, res_read, res_write,
                 res_commit):
    lay = cfg.layout
    cfg.entry["begin"] = _build_begin_await(cfg, pbegin_entry)

    # ---- read: regs (l, v, time, vmask) --------------------------------
    n0 = reserve(cfg, 1)
    n1 = reserve(cfg, 1)
    n2 = reserve(cfg, 1)
    n3 = reserve(cfg, 1)

    def rd_get_tv(slot):
        return slot[S_REGS][2], slot[S_REGS][3]

    def rd_set_tv(slot, t, vm):
        r = slot[S_REGS]
        return slot_upd(slot, (S_REGS, (r[0], r[1], t, vm)))

    def rd_ok(slot, time):
        return slot_upd(slot, (S_LOC, time), (S_IP, n3))

    v0 = _build_validate(cfg, rd_get_tv, rd_set_tv, rd_ok, abort_entry)

    def s_n0(m, ti):
        slot = m[M_TXNS][ti]
        l = slot[S_REGS][0]
        wr = slot[S_WR]
        if wr[l] != -1:  # own buffered write, no memory access
            slot2 = slot_upd(slot, *READY)
            return [(set_slot(m, ti, slot2), ("res", ti, "read", l, wr[l]))]
        if fault_check(cfg, m, ti, l):
            return fault_state(cfg, m, ti, "read", l)
        v = cfg.pmem.load(m[M_MEM], ti, lay.val(l))
        slot2 = slot_upd(slot, (S_REGS, (l, v, None, None)), (S_IP, n1))
        return [(set_slot(m, ti, slot2), None)]

    def s_n1(m, ti):
        slot = m[M_TXNS][ti]
        if m[M_GLB] == slot[S_LOC]:
            return [(set_slot(m, ti, slot_upd(slot, (S_IP, n2))), None)]
        r = slot[S_RETR] + 1
        if r > cfg.retry_bound:
            return CUT
        return [(set_slot(m, ti, slot_upd(slot, (S_RETR, r), (S_IP, v0))),
                 None)]

    def s_n2(m, ti):
        slot = m[M_TXNS][ti]
        l, v = slot[S_REGS][0], slot[S_REGS][1]
        rd = slot[S_RD]
        slot2 = slot_upd(slot, (S_RD, rd[:l] + (v,) + rd[l + 1:]), *READY)
        return [(set_slot(m, ti, slot2), ("res", ti, "read", l, v))]

    def s_n3(m, ti):
        slot = m[M_TXNS][ti]
        l = slot[S_REGS][0]
        if fault_check(cfg, m, ti, l):
            return fault_state(cfg, m, ti, "read", l)
        v = cfg.pmem.load(m[M_MEM], ti, lay.val(l))
        r = slot[S_REGS]
        slot2 = slot_upd(slot, (S_REGS, (l, v, r[2], r[3])), (S_IP, n1))
        return [(set_slot(m, ti, slot2), None)]

    fill(cfg, n0, [s_n0])
    fill(cfg, n1, [s_n1])
    fill(cfg, n2, [s_n2])
    fill(cfg, n3, [s_n3])
    cfg.entry["read"] = n0

    # ---- write: buffer locally and respond.  The access-validity check
    # happens here (the physical write is deferred to write-back, but the
    # client handed over the address now) -------------------------------
    w0 = reserve(cfg, 1)

    def s_buffer(m, ti):
        slot = m[M_TXNS][ti]
        l, v = slot[S_REGS][0], slot[S_REGS][1]
        if fault_check(cfg, m, ti, l):
            return fault_state(cfg, m, ti, "write", l)
        wr = slot[S_WR]
        slot2 = slot_upd(slot, (S_WR, wr[:l] + (v,) + wr[l + 1:]), *READY)
        return [(set_slot(m, ti, slot2), ("res", ti, "write", l, v))]

    fill(cfg, w0, [s_buffer])
    cfg.entry["write"] = w0

    # ---- commit ---------------------------------------------------------
    c0 = reserve(cfg, 1)
    relc = reserve(cfg, 1)
    wb = reserve(cfg, 4)
    cfg.noabort_ips.add(relc)
    cfg.noabort_ips.update(range(wb, wb + 4))
    cfg.private_ips.update((wb + 1, wb + 2))  # undo-log store and flush
    pc_entry = build_pcommit(cfg, relc)

    def cv_get_tv(slot):
        return slot[S_REGS][1], slot[S_REGS][2]

    def cv_set_tv(slot, t, vm):
        return slot_upd(slot, (S_REGS, ("cv", t, vm)))

    def cv_ok(slot, time):
        return slot_upd(slot, (S_LOC, time), (S_REGS, ()), (S_IP, c0))

    if "skip-validate" in cfg.mutations:
        # mutation: the commit loop re-snapshots glb without revalidating
        cv0 = reserve(cfg, 1)

        def s_resnap(m, ti):
            g = m[M_GLB]
            if g % 2:
                return None
            slot = slot_upd(m[M_TXNS][ti], (S_LOC, g), (S_REGS, ()),
                            (S_IP, c0))
            return [(set_slot(m, ti, slot), None)]

        fill(cfg, cv0, [s_resnap])
    else:
        cv0 = _build_validate(cfg, cv_get_tv, cv_set_tv, cv_ok, abort_entry)

    def s_c0(m, ti):
        slot = m[M_TXNS][ti]
        wr = slot[S_WR]
        wmask = 0
        for x, v in enumerate(wr):
            if v != -1:
                wmask |= 1 << x
        if wmask == 0:  # read-only: commit the core directly
            slot2 = slot_upd(slot, (S_REGS, ()), (S_IP, pc_entry))
            return run_ip(cfg, set_slot(m, ti, slot2), ti, pc_entry)
        loc = slot[S_LOC]
        if m[M_GLB] == loc:
            slot2 = slot_upd(slot, (S_REGS, ("wb", wmask)), (S_IP, wb))
            return [(set_slot(_set_glb(m, loc + 1), ti, slot2), None)]
        r = slot[S_RETR] + 1
        if r > cfg.retry_bound:
            return CUT
        slot2 = slot_upd(slot, (S_RETR, r), (S_REGS, ("cv", None, None)),
                         (S_IP, cv0))
        return [(set_slot(m, ti, slot2), None)]

    fill(cfg, c0, [s_c0])
    cfg.entry["commit"] = c0

    # write-back chain: regs ("wb", mask[, old])
    def s_wb0(m, ti):
        slot = m[M_TXNS][ti]
        mask = slot[S_REGS][1]
        if mask == 0:
            slot2 = slot_upd(slot, (S_REGS, ()), (S_IP, pc_entry))
            return run_ip(cfg, set_slot(m, ti, slot2), ti, pc_entry)
        x = lowbit(mask)
        if fault_check(cfg, m, ti, x):
            return fault_state(cfg, m, ti, "write", x)
        if cfg.pmem.load(m[M_MEM], ti, lay.undo(ti, x)) != -1:
            mem2 = store(cfg, m, ti, lay.val(x), slot[S_WR][x])
            if mem2 is None:
                return None
            slot2 = slot_upd(slot, (S_REGS, ("wb", mask & ~(1 << x))))
            return [(set_mem_slot(m, mem2, ti, slot2), None)]
        w = cfg.pmem.load(m[M_MEM], ti, lay.val(x))
        slot2 = slot_upd(slot, (S_REGS, ("wb", mask, w)), (S_IP, wb + 1))
        return [(set_slot(m, ti, slot2), None)]

    def s_wb1(m, ti):
        slot = m[M_TXNS][ti]
        _tag, mask, w = slot[S_REGS]
        x = lowbit(mask)
        mem2 = store(cfg, m, ti, lay.undo(ti, x), w)
        if mem2 is None:
            return None
        ip = wb + 3 if "skip-undo-flush" in cfg.mutations else wb + 2
        slot2 = slot_upd(slot, (S_IP, ip))
        return [(set_mem_slot(m, mem2, ti, slot2), None)]

    def s_wb2(m, ti):
        slot = m[M_TXNS][ti]
        x = lowbit(slot[S_REGS][1])
        mem2 = flush_mem(cfg, m, ti, (lay.undo(ti, x),))
        if mem2 is None:
            return None
        slot2 = slot_upd(slot, (S_IP, wb + 3))
        return [(set_mem_slot(m, mem2, ti, slot2), None)]

    def s_wb3(m, ti):
        slot = m[M_TXNS][ti]
        mask = slot[S_REGS][1]
        x = lowbit(mask)
        mem2 = store(cfg, m, ti, lay.val(x), slot[S_WR][x])
        if mem2 is None:
            return None
        slot2 = slot_upd(slot, (S_REGS, ("wb", mask & ~(1 << x))),
                         (S_IP, wb))
        return [(set_mem_slot(m, mem2, ti, slot2), None)]

    fill(cfg, wb, [s_wb0, s_wb1, s_wb2, s_wb3])

    def s_release(m, ti):
        slot = m[M_TXNS][ti]
        loc = slot[S_LOC]
        # a transaction holds the lock here iff it buffered any write
        if any(v != -1 for v in slot[S_WR]):
            slot2 = slot_upd(slot, (S_IP, res_commit))
            return [(set_slot(_set_glb(m, loc + 2), ti, slot2), None)]
        slot2 = slot_upd(slot, (S_IP, res_commit))
        return run_ip(cfg, set_slot(m, ti, slot2), ti, res_commit)

    fill(cfg, relc, [s_release])
