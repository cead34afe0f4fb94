"""Concurrency layers over the transactional core: TML and NOrec step
programs, plus the sequential assembly.

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

The layers are blocks of named entries in the vocabulary of ``pmdk``, each
with its footprint: shared kinds where a line stores, flushes, loads or
jumps, custom steps where it reads or writes ``glb`` or the read and write
sets.  ``build_programs`` links the core's blocks and the layer's into the
step table (NOrec's write-back, like the core commit, is flagged past the
point of no return); ``pmdk.link`` adds the core's recovery blocks, which
reset ``glb`` to 0 once every transaction id is recovered.
"""

from __future__ import annotations

from .engine import (CUT, M_GLB, M_MEM, M_TXNS, OPS, READY, S_IP, S_LOC,
                     S_RD, S_REGS, S_RETR, S_WR, lowbit, set_mem_slot,
                     set_slot, slot_upd)
from .pmdk import (DATA, EMIT, FAULT, GLB, LOG, Entry, fault_check,
                   fault_state, flush_go, jump, link, load, pabort, palloc,
                   pbegin, pcommit, pread, pwrite, responses, store, store_go)

IMPLS = ("pmdk-seq", "pmdk-tml", "pmdk-norec")


def _set_glb(m, g):
    return m[:M_GLB] + (g,) + m[M_GLB + 1:]


def build_programs(cfg):
    blocks = [responses(), pabort(cfg, "respond.abort"),
              pbegin(cfg, "respond.begin"), palloc()]
    if cfg.impl == "pmdk-seq":
        blocks += [pread("respond.read"), pwrite(cfg, "respond.write"),
                   pcommit(cfg, "respond.commit")]
    elif cfg.impl == "pmdk-tml":
        blocks += _tml_blocks(cfg)
    elif cfg.impl == "pmdk-norec":
        blocks += _norec_blocks(cfg)
    else:
        raise ValueError("unknown implementation %r" % (cfg.impl,))
    ips = link(cfg, blocks)
    # an operation enters the layer's block of its name, else the core's
    cfg.entry = {op: ips[op if op in ips else "p" + op]
                 for op in ("begin",) + OPS}


def _snapshot(*pairs):
    """Spin until glb is even, snapshot it, continue at `go`; `pairs` are
    further slot updates."""
    def make(cfg, go):
        upd = ((S_IP, go),) + pairs

        def step(m, ti):
            g = m[M_GLB]
            if g % 2:
                return None
            slot = slot_upd(m[M_TXNS][ti], (S_LOC, g), *upd)
            return [(set_slot(m, ti, slot), None)]
        return step
    return make


def _retry(cfg, m, ti, slot, ip, *pairs):
    """Loop back to `ip`, counted against the retry bound: a cut beyond."""
    r = slot[S_RETR] + 1
    if r > cfg.retry_bound:
        return CUT
    return [(set_slot(m, ti, slot_upd(slot, (S_RETR, r), (S_IP, ip), *pairs)),
             None)]


def _stable(time_of, ok_pairs=lambda time: ()):
    """Continue at `ok` when glb still equals the snapshot time_of(slot),
    with the slot updates ok_pairs(time); else retry from `again`."""
    def make(cfg, ok, again):
        def s_stable(m, ti):
            slot = m[M_TXNS][ti]
            time = time_of(slot)
            if m[M_GLB] == time:
                slot = slot_upd(slot, (S_IP, ok), *ok_pairs(time))
                return [(set_slot(m, ti, slot), None)]
            return _retry(cfg, m, ti, slot, again)
        return s_stable
    return make


def _release(holds, step):
    """Release the lock when `holds(slot)` (glb := snapshot + step), then
    respond; a transaction without the lock falls through."""
    def make(cfg, go, now):
        table = cfg.step_table

        def s_release(m, ti):
            slot = slot_upd(m[M_TXNS][ti], (S_IP, go))
            if holds(slot):
                return [(set_slot(_set_glb(m, slot[S_LOC] + step), ti, slot),
                         None)]
            return table[now](set_slot(m, ti, slot), ti)
        return s_release
    return ("release", False, [Entry("glb", (GLB,), make,
                                     {"go": "respond.commit"},
                                     {"now": "respond.commit"})])


def _begin():
    return ("begin", False, [Entry("await", (GLB,), _snapshot(),
                                   {"go": "pbegin"})])


# ---------------------------------------------------------------------------
# TML
# ---------------------------------------------------------------------------

def _tml_blocks(cfg):
    def make_acquire(cfg, go, now, abort):
        """The first write CAS-acquires the lock or aborts."""
        table = cfg.step_table

        def s_acquire(m, ti):
            slot = m[M_TXNS][ti]
            loc = slot[S_LOC]
            if loc % 2:  # already holds the lock
                return table[now](set_slot(m, ti, slot_upd(slot, (S_IP, now))),
                                  ti)
            if m[M_GLB] == loc:
                slot = slot_upd(slot, (S_LOC, loc + 1), (S_IP, go))
                return [(set_slot(_set_glb(m, loc + 1), ti, slot), None)]
            return [(set_slot(m, ti, slot_upd(slot, (S_IP, abort))), None)]
        return s_acquire

    return [
        _begin(),
        # a lock holder answers directly; a lock-free reader aborts when a
        # writer intervened since its snapshot
        ("validate", False, [jump(
            "glb", (GLB,), lambda m, ti, s: "own" if s[S_LOC] % 2
            else "ok" if m[M_GLB] == s[S_LOC] else "abort",
            {"ok": "respond.read", "abort": "pabort"},
            {"own": "respond.read"})]),
        pread("validate"),
        ("write", False, [Entry("acquire", (GLB,), make_acquire,
                                {"go": "pwrite", "abort": "pabort"},
                                {"now": "pwrite"})]),
        pwrite(cfg, "respond.write"),
        _release(lambda slot: slot[S_LOC] % 2, 1),
        pcommit(cfg, "release"),
    ]


# ---------------------------------------------------------------------------
# NOrec
# ---------------------------------------------------------------------------

def _mask(vals):
    """The locations a read or write set holds a value for."""
    mask = 0
    for x, v in enumerate(vals):
        if v != -1:
            mask |= 1 << x
    return mask


def _validate(cfg, name, get_tv, set_tv, ok_pairs, ok):
    """The validate loop: wait for an even glb (snapshotting it), re-read
    the read set, abort on mismatch, retry if glb moved meanwhile.
    get_tv/set_tv access (time, vmask) in the op's regs; the successful
    exit continues at `ok` with the slot updates ok_pairs(time)."""
    lay = cfg.layout

    def make_snap(cfg, go):
        def s_snap(m, ti):
            g = m[M_GLB]
            if g % 2:
                return None
            slot = m[M_TXNS][ti]
            slot = set_tv(slot, g, _mask(slot[S_RD]))
            return [(set_slot(m, ti, slot_upd(slot, (S_IP, go))), None)]
        return s_snap

    def make_check(cfg, abort, done):
        table = cfg.step_table

        def s_check(m, ti):
            slot = m[M_TXNS][ti]
            time, vmask = get_tv(slot)
            if vmask:
                x = lowbit(vmask)
                if fault_check(cfg, m, ti, x):
                    return fault_state(cfg, m, ti, "read", x)
                vv = cfg.pmem.load(m[M_MEM], ti, lay.val(x))
                if vv != slot[S_RD][x]:
                    return [(set_slot(m, ti, slot_upd(slot, (S_IP, abort))),
                             None)]
                slot = set_tv(slot, time, vmask & ~(1 << x))
                return [(set_slot(m, ti, slot), None)]
            slot = slot_upd(slot, (S_IP, done))
            return table[done](set_slot(m, ti, slot), ti)
        return s_check

    return (name, False, [
        Entry("snap", (GLB,), make_snap, {"go": "check"}),
        Entry("check", (DATA,) + FAULT, make_check, {"abort": "pabort"},
              {"done": "stable"}),
        Entry("stable", (GLB,), _stable(lambda s: get_tv(s)[0], ok_pairs),
              {"ok": ok, "again": "snap"}),
    ])


def _norec_blocks(cfg):
    lay = cfg.layout

    # ---- read: regs (l, v, time, vmask) --------------------------------
    def make_n0(cfg, go):
        def s_n0(m, ti):
            slot = m[M_TXNS][ti]
            l = slot[S_REGS][0]
            wr = slot[S_WR]
            if wr[l] != -1:  # own buffered write, no memory access
                slot2 = slot_upd(slot, *READY)
                return [(set_slot(m, ti, slot2),
                         ("res", ti, "read", l, wr[l]))]
            if fault_check(cfg, m, ti, l):
                return fault_state(cfg, m, ti, "read", l)
            v = cfg.pmem.load(m[M_MEM], ti, lay.val(l))
            slot2 = slot_upd(slot, (S_REGS, (l, v, None, None)), (S_IP, go))
            return [(set_slot(m, ti, slot2), None)]
        return s_n0

    def add(op, field):
        """Add the registers' (l, v) to the read or write set and respond;
        a write is checked for access validity first (the physical write
        is deferred to write-back, but the client handed over the address
        now)."""
        def make(cfg):
            def s_add(m, ti):
                slot = m[M_TXNS][ti]
                l, v = slot[S_REGS][0], slot[S_REGS][1]
                if op == "write" and fault_check(cfg, m, ti, l):
                    return fault_state(cfg, m, ti, op, l)
                vals = slot[field]
                slot = slot_upd(slot, (field, vals[:l] + (v,) + vals[l + 1:]),
                                *READY)
                return [(set_slot(m, ti, slot), ("res", ti, op, l, v))]
            return s_add
        return make

    def rd_set_tv(slot, t, vm):
        r = slot[S_REGS]
        return slot_upd(slot, (S_REGS, (r[0], r[1], t, vm)))

    # ---- commit ---------------------------------------------------------
    def make_c0(cfg, go, core, validate):
        table = cfg.step_table

        def s_c0(m, ti):
            slot = m[M_TXNS][ti]
            wmask = _mask(slot[S_WR])
            if wmask == 0:  # read-only: commit the core directly
                slot2 = slot_upd(slot, (S_REGS, ()), (S_IP, core))
                return table[core](set_slot(m, ti, slot2), ti)
            loc = slot[S_LOC]
            if m[M_GLB] == loc:
                slot2 = slot_upd(slot, (S_REGS, ("wb", wmask)), (S_IP, go))
                return [(set_slot(_set_glb(m, loc + 1), ti, slot2), None)]
            return _retry(cfg, m, ti, slot, validate,
                          (S_REGS, ("cv", None, None)))
        return s_c0

    # write-back chain under the lock: regs ("wb", mask[, old])
    def make_wb0(cfg, log, core):
        table = cfg.step_table

        def s_wb0(m, ti):
            slot = m[M_TXNS][ti]
            mask = slot[S_REGS][1]
            if mask == 0:
                slot2 = slot_upd(slot, (S_REGS, ()), (S_IP, core))
                return table[core](set_slot(m, ti, slot2), ti)
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
            slot2 = slot_upd(slot, (S_REGS, ("wb", mask, w)), (S_IP, log))
            return [(set_slot(m, ti, slot2), None)]
        return s_wb0

    def make_wb3(cfg, go):
        def s_wb3(m, ti):
            slot = m[M_TXNS][ti]
            mask = slot[S_REGS][1]
            x = lowbit(mask)
            mem2 = store(cfg, m, ti, lay.val(x), slot[S_WR][x])
            if mem2 is None:
                return None
            slot2 = slot_upd(slot, (S_REGS, ("wb", mask & ~(1 << x))),
                             (S_IP, go))
            return [(set_mem_slot(m, mem2, ti, slot2), None)]
        return s_wb3

    def undo(t, s):
        return lay.undo(t, lowbit(s[S_REGS][1]))

    skip_flush = "skip-undo-flush" in cfg.mutations
    if "skip-validate" in cfg.mutations:
        # mutation: the commit loop re-snapshots glb without revalidating
        cvalidate = ("cvalidate", False, [
            Entry("resnap", (GLB,), _snapshot((S_REGS, ())),
                  {"go": "commit"})])
    else:
        cvalidate = _validate(
            cfg, "cvalidate", lambda s: (s[S_REGS][1], s[S_REGS][2]),
            lambda s, t, vm: slot_upd(s, (S_REGS, ("cv", t, vm))),
            lambda t: ((S_LOC, t), (S_REGS, ())), "commit")
    return [
        _begin(),
        ("read", False, [
            Entry("n0", (DATA, EMIT) + FAULT, make_n0, {"go": "n1"}),
            Entry("n1", (GLB,), _stable(lambda s: s[S_LOC]),
                  {"ok": "n2", "again": "rvalidate"}),
            Entry("n2", (EMIT,), add("read", S_RD)),
            load("n3", "n1"),
        ]),
        _validate(cfg, "rvalidate", lambda s: (s[S_REGS][2], s[S_REGS][3]),
                  rd_set_tv, lambda t: ((S_LOC, t),), "read.n3"),
        ("write", False, [Entry("buffer", (EMIT,) + FAULT,
                                add("write", S_WR))]),
        ("commit", False, [
            Entry("c0", (GLB,), make_c0,
                  {"go": "writeback", "validate": "cvalidate"},
                  {"core": "pcommit"})]),
        # a transaction holds the lock here iff it buffered any write
        _release(lambda slot: any(v != -1 for v in slot[S_WR]), 2),
        ("writeback", True, [
            Entry("wb0", (LOG, DATA) + FAULT, make_wb0, {"log": "wb1"},
                  {"core": "pcommit"}),
            store_go("wb1", (LOG,), undo, lambda s: s[S_REGS][2],
                     "wb3" if skip_flush else "wb2"),
            flush_go("wb2", lambda t, s: (undo(t, s),), "wb3"),
            Entry("wb3", (DATA,), make_wb3, {"go": "wb0"}),
        ]),
        pcommit(cfg, "release"),
        cvalidate,
    ]
