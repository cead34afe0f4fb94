"""PMDK-style failure-atomic transaction core and its recovery as step
programs declared as data.

Persistent layout (integer cells over the pmem simulator):

* per data location x: a value cell and an allocated-metadata cell;
* per transaction t: one undo cell per location (-1 = no entry, else the
  logged old value), three redo-log cells (allocs bitmask, undoValid flag,
  checksum) and a global undo-valid flag cell.

Write: log the old value on first touch, flush the undo entry, then write
in place.  Commit: persist every written location; store the redo log field
by field in the persistent redo cells, each computed from the allocation
mask the slot carries: the mask itself, undoValid 0 (the undo log is
invalidated) and the checksum of the two; flush them; apply the redo log
(persist allocation metadata, then clear and flush the undo flag); finally
invalidate and flush the persistent checksum.  Abort: roll back (restore
and persist logged values, clear and flush the undo flag), then release
allocations back to the free list.  Recovery runs each transaction's own
log code again, per transaction id in ascending order: the commit's apply
when the stored checksum matches, then the abort's rollback when the undo
flag survived; after the last id it rebuilds the free list from allocation
metadata and resets ``glb``.  NOrec's write-back (``stm``) is the same
write, run once per buffered location under the lock.

Step programs.  Each operation is a block of named entries, one scheduled
atomic step per pseudo-code line; consecutive volatile-only lines are
folded into the next shared-memory or emitting step.  An entry is a shared
kind -- ``store_go`` or ``flush_go`` (store a cell or flush cells, then go
to an entry), ``bit_loop`` (store or flush the cell of a register mask's
low bit, clear it, loop; fall through once empty), ``jump`` (a guarded
jump), ``load`` or ``respond`` -- or a custom step for a line that fits no
kind.  An entry names the targets it goes to by setting ip apart from those
it falls through into, running them within the same step.  ``link``
numbers the entries in block order, the recovery blocks last, resolves the
names to ips and compiles each entry into a closure
``step(m, ti, regime)`` in ``cfg.step_table``.  A step returns None when
it blocks, else a list of (target, record-or-None) (``engine``
docstring).  The target is the machine the step leaves, or a leaf tag in
place of one: ``engine.END`` with the fault record when the access
faults (``fault_state``), and ``engine.CUT`` with None when a loop-back
passes the retry bound (``stm``).  Steps store and flush through
``cfg.pmem`` in `regime`, the persist regime of their machine
(``EXACT``, ``POR`` or ``REDUCED``), which the engine takes from
``Config.regime`` once per machine and passes in, so no step reads
another slot to learn it; whether a step blocks or persists on demand is
decided in ``pmem`` (its docstring).

Recovery of transaction id t runs as thread t: the machine's rec field
names t, and slot t carries recovery's ip and registers, starting from
those at rest (``engine.AT_REST``).  Buffers are empty after a crash and recovery
flushes every store it makes before it moves to the next id, so thread t's
store buffer is empty again when transaction t can next act.

Footprints.  Each entry declares which classes of state it may touch: its
own transaction's undo and redo-log cells (``LOG``), data value cells
(``DATA``), allocation metadata cells (``META``), flushes of any cell
(``FLUSH``), ``GLB``, the free list (``FREE``), other transactions' slots
(``SLOTS``), emitted records (``EMIT``) and the rec field (``REC``).  A
step's footprint, ``cfg.footprints[ip]``, joins its entry's to those of
the entries it falls through into.  ``link`` derives the reduction sets
from them:

* ``cfg.private_ips``: a step is private when it touches only its own
  log cells, or flushes, and every step it falls through into is private.
  Under --por, outside recovery, the engine schedules one as the state's
  only successor in the ``REDUCED`` regime (no crash left, or every crash
  left ends the run), and otherwise when it keeps NVM and only appends to
  persistence buffers (``engine`` docstring);
* ``cfg.log_cells``, per thread t the cells of class ``LOG`` for t
  (``Layout.log_cells``): no step run as another thread touches them,
  so under --por and PTSO the engine propagates a store-buffer head
  bound for them as a forced step, and frontier dedup's key names them
  by their role, the same for every thread (``explorer.orbit_keyer``);
* ``cfg.noabort_ips``, read by ``fault_check``: the steps of the blocks
  flagged past the commit's point of no return, and every step they go or
  fall to.  Another thread's access to a location that such a step's
  transaction allocated blocks until the transaction leaves its commit.

Mutation hooks (checker-sensitivity experiments) are compile-time:
``skip-flush-commit5`` drops the redo-log flush, ``reorder-commit`` moves
data-write persistence after the redo-log flush, ``skip-undo-flush`` drops
the undo-entry flush, ``no-recovery-rollback`` makes recovery's undo-flag
test always skip the rollback.
"""

from __future__ import annotations

from collections import namedtuple

from .engine import (ABRT, AT_REST, COMM, END, M_FREE, M_MEM, M_REC, M_TXNS,
                     RDY, READY, RUN, S_AM, S_IP, S_REGS, S_ST, bits, lowbit,
                     set_mem_slot, set_slot, slot_upd, spent_slot)

MUTATIONS = ("skip-flush-commit5", "reorder-commit", "skip-validate",
             "skip-undo-flush", "no-recovery-rollback")

# footprint classes
LOG, DATA, META, FLUSH, GLB, FREE, SLOTS, EMIT, REC = (
    "log", "data", "meta", "flush", "glb", "free", "slots", "emit", "rec")
# the access-validity check: it loads a metadata cell, reads the other
# transactions' slots and, on a fault, emits the fault record
FAULT = (META, SLOTS, EMIT)
# all a private step may touch (the rule is in the module docstring)
PRIVATE = frozenset((LOG, FLUSH))


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

    def shared_cells(self):
        """The cells no transaction owns: every location's value and
        metadata cell."""
        return tuple(range(2 * self.locs))

    def log_cells(self, t):
        """Transaction t's undo and redo-log cells and its undo flag, the
        cells of footprint class ``LOG`` when t's steps run as thread t, in
        role order: the cell of one role has the same position for every
        t."""
        return tuple([self.undo(t, x) for x in range(self.locs)]
                     + [self.pa(t), self.puv(t), self.pck(t), self.guv(t)])

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

def visible_undo_mask(cfg, m, ti):
    lay = cfg.layout
    mem = m[M_MEM]
    load = cfg.pmem.load
    mask = 0
    for x in range(lay.locs):
        if load(mem, ti, lay.undo(ti, x)) != -1:
            mask |= 1 << x
    return mask


def fault_check(cfg, m, ti, loc):
    """Access validity of `loc` for thread ti: False when the location is
    self-allocated or its allocation metadata is visible, None (blocked)
    when another running transaction past its commit's point of no return
    (``cfg.noabort_ips``) allocated it, True (a fault) otherwise.

    The blocked case is a choice.  An allocation belongs to its
    transaction until the commit publishes it (the paper's PMDK-TX model),
    and a commit past its point of no return has not published it yet: a
    crash before its metadata persists loses the allocation.  Answering
    "no fault" there let another transaction use the location before it
    was published; once a crash lost the allocation, a later access of it
    faulted.  The spec rejects such histories and dDO some of them, so the
    implementation was at fault, not the spec.  So the access waits until
    the committing transaction leaves its commit, as a lock wait does; a
    crash meanwhile kills the waiter before it responds.  Every caller
    returns None, the blocked step, on None."""
    slot = m[M_TXNS][ti]
    if (slot[S_AM] >> loc) & 1:
        return False
    if cfg.pmem.load(m[M_MEM], ti, cfg.layout.meta(loc)) != 0:
        return False
    for j, u in enumerate(m[M_TXNS]):
        if (j != ti and u[S_ST] == RUN and u[S_IP] in cfg.noabort_ips
                and (u[S_AM] >> loc) & 1):
            return None
    return True


def fault_state(ti, op, loc):
    """The result of a step whose `op` access of `loc` faults: the fault
    record, and the end of the run, which leaves no machine."""
    return [(END, ("fault", ti, op, loc))]


# ---------------------------------------------------------------------------
# entries, the shared kinds and the link pass
# ---------------------------------------------------------------------------

# One named step-table entry: make(cfg, **ips) compiles it once the target
# names in `go` and `falls` (keyword -> name) are linked to ips; `fp` is its
# own footprint.
Entry = namedtuple("Entry", "name fp make go falls", defaults=(None, None))


def store_go(name, fp, cell, val, go, upd=None):
    """Store val(slot) into cell(ti, slot), then continue at `go`; upd(slot)
    gives further slot updates."""
    def make(cfg, go):
        def step(m, ti, regime):
            slot = m[M_TXNS][ti]
            mem2 = cfg.pmem.store(m[M_MEM], ti, cell(ti, slot), val(slot),
                                   regime)
            if mem2 is None:
                return None
            slot = slot_upd(slot, (S_IP, go), *upd(slot)) if upd \
                else slot_upd(slot, (S_IP, go))
            return [(set_mem_slot(m, mem2, ti, slot), None)]
        return step
    return Entry(name, fp, make, {"go": go})


def flush_go(name, cells, go):
    """Flush cells(ti, slot), then continue at `go`."""
    def make(cfg, go):
        def step(m, ti, regime):
            slot = m[M_TXNS][ti]
            mem2 = cfg.pmem.flush(m[M_MEM], ti, cells(ti, slot),
                                   regime)
            if mem2 is None:
                return None
            return [(set_mem_slot(m, mem2, ti, slot_upd(slot, (S_IP, go))),
                     None)]
        return step
    return Entry(name, (FLUSH,), make, {"go": go})


def bit_loop(name, fp, k, cell, val=None, again=None, done=None, init=None):
    """While the register mask regs[k] is not empty, store val(m, ti, x)
    into cell(x) for its low bit x -- or flush that cell when `val` is
    None --, clear the bit and continue at `again` (this entry when None).
    Once it is empty, fall through into `done`.  init(m, ti, regs) gives
    the registers on entry."""
    def make(cfg, again=None, done=None):
        table = cfg.step_table
        upd = () if again is None else ((S_IP, again),)

        def step(m, ti, regime):
            slot = m[M_TXNS][ti]
            regs = slot[S_REGS]
            if init is not None:
                regs = init(m, ti, regs)
            mask = regs[k]
            if mask:
                x = lowbit(mask)
                if val is None:
                    mem2 = cfg.pmem.flush(m[M_MEM], ti, (cell(x),),
                                          regime)
                else:
                    mem2 = cfg.pmem.store(m[M_MEM], ti, cell(x),
                                          val(m, ti, x), regime)
                if mem2 is None:
                    return None
                regs = regs[:k] + (mask & ~(1 << x),) + regs[k + 1:]
                return [(set_mem_slot(m, mem2, ti,
                                      slot_upd(slot, (S_REGS, regs), *upd)),
                         None)]
            slot = slot_upd(slot, (S_REGS, regs), (S_IP, done))
            return table[done](set_slot(m, ti, slot), ti, regime)
        return step
    return Entry(name, fp, make, again and {"again": again},
                 done and {"done": done})


def jump(name, fp, pick, go=None, falls=None):
    """A guarded jump: continue at the target whose keyword
    pick(m, ti, slot) returns, within this step when it is one of
    `falls`."""
    def make(cfg, **ips):
        table = cfg.step_table
        to = {k: (ip, k in (falls or ())) for k, ip in ips.items()}

        def step(m, ti, regime):
            slot = m[M_TXNS][ti]
            ip, now = to[pick(m, ti, slot)]
            m2 = set_slot(m, ti, slot_upd(slot, (S_IP, ip)))
            return table[ip](m2, ti, regime) if now else [(m2, None)]
        return step
    return Entry(name, fp, make, go, falls)


def load(name, done):
    """One load of the value cell, after the access-validity check; regs
    (l, ...) gain v at index 1."""
    def make(cfg, done):
        def step(m, ti, regime):
            slot = m[M_TXNS][ti]
            l = slot[S_REGS][0]
            bad = fault_check(cfg, m, ti, l)
            if bad is not False:  # a fault, or blocked (None)
                return bad and fault_state(ti, "read", l)
            v = cfg.pmem.load(m[M_MEM], ti, cfg.layout.val(l))
            regs = (l, v) + slot[S_REGS][2:]
            slot = slot_upd(slot, (S_REGS, regs), (S_IP, done))
            return [(set_slot(m, ti, slot), None)]
        return step
    return Entry(name, (DATA,) + FAULT, make, {"done": done})


def respond(op, status, name="res"):
    """Response-emitting step; regs carry (loc, val) where applicable.  A
    response into RDY resets the fields RDY does not read (`READY`); one
    into COMM or ABRT ends the transaction, whose slot becomes the spent
    slot of that status."""
    def make(cfg):
        spent = None if status == RDY else spent_slot(cfg, status)

        def step(m, ti, regime):
            slot = m[M_TXNS][ti]
            loc = val = None
            if op == "read" or op == "write":
                loc, val = slot[S_REGS][0], slot[S_REGS][1]
            elif op == "alloc":
                loc = slot[S_REGS][0]
            slot = slot_upd(slot, *READY) if spent is None else spent
            return [(set_slot(m, ti, slot), ("res", ti, op, loc, val))]
        return step
    return Entry(name, (EMIT,), make)


def link(cfg, blocks):
    """Number the entries of `blocks` -- (name, noabort, entries) in ip
    order -- and then of the recovery blocks, and compile them into
    cfg.step_table.  A target name is an entry of the same block, else a
    block (its first entry), else "block.entry".  Derives cfg.footprints,
    cfg.private_ips and cfg.noabort_ips, sets cfg.log_cells, installs
    cfg.recovery_step, and returns the ip of every name."""
    blocks = blocks + recovery(cfg)
    ips, named = {}, []
    for bname, _noabort, entries in blocks:
        assert bname not in ips, bname
        ips[bname] = len(named)
        for e in entries:
            ips[bname + "." + e.name] = len(named)
            named.append((bname, e))

    def resolve(bname, targets):
        out = {k: ips.get(bname + "." + t, ips.get(t))
               for k, t in (targets or {}).items()}
        assert None not in out.values(), (bname, targets)
        return out

    cfg.step_table = table = [None] * len(named)
    cfg.step_names = [b + "." + e.name for b, e in named]
    goes, falls = [], []
    for ip, (bname, e) in enumerate(named):
        go, fall = resolve(bname, e.go), resolve(bname, e.falls)
        table[ip] = e.make(cfg, **go, **fall)
        goes.append(go.values())
        falls.append(fall.values())

    cfg.footprints = [frozenset().union(*(named[i][1].fp
                                          for i in reach([ip], falls)))
                      for ip in range(len(named))]
    cfg.private_ips = {ip for ip, fp in enumerate(cfg.footprints)
                       if fp <= PRIVATE}
    cfg.log_cells = tuple(frozenset(cfg.layout.log_cells(t))
                          for t in range(cfg.txns))
    flagged = {b for b, noabort, _entries in blocks if noabort}
    cfg.noabort_ips = reach([ip for ip, (b, _e) in enumerate(named)
                             if b in flagged], goes, falls)
    cfg.recovery_step = recovery_step(cfg, ips["redo"])
    return ips


def reach(ips, *edges):
    """The ips reachable from `ips` along any of the per-ip `edges`."""
    out = set()
    todo = list(ips)
    while todo:
        ip = todo.pop()
        if ip not in out:
            out.add(ip)
            for e in edges:
                todo.extend(e[ip])
    return out


# ---------------------------------------------------------------------------
# operation blocks; `done` names the entry each continues at
# ---------------------------------------------------------------------------

# the status each response leaves its transaction in
RESPONSES = (("begin", RDY), ("read", RDY), ("write", RDY), ("commit", COMM),
             ("abort", ABRT))


def responses(ops):
    """The core's response entries for `ops`: an implementation links only
    those some step of it goes to."""
    return ("respond", False, [respond(op, status, op)
                               for op, status in RESPONSES if op in ops])


def pbegin(cfg, done):
    """Four stores: redo-log cells reset (allocs, undoValid, checksum) and
    the undo flag raised.  The slot's allocation mask is 0 already: a
    transaction begins from the fresh slot."""
    lay = cfg.layout
    return ("pbegin", False, [
        store_go("pa", (LOG,), lambda t, s: lay.pa(t), lambda s: 0, "puv"),
        store_go("puv", (LOG,), lambda t, s: lay.puv(t), lambda s: 1, "pck"),
        store_go("pck", (LOG,), lambda t, s: lay.pck(t), lambda s: -1,
                 "guv"),
        store_go("guv", (LOG,), lambda t, s: lay.guv(t), lambda s: 1, done),
    ])


def _take(cfg, res):
    """Take a free location (lowest, or every choice under branch-alloc),
    record it in the volatile redo log."""
    def step(m, ti, regime):
        free = m[M_FREE]
        if free == 0:
            return None  # out of memory: step disabled
        out = []
        for x in bits(free) if cfg.branch_alloc else [lowbit(free)]:
            slot = m[M_TXNS][ti]
            slot = slot_upd(slot, (S_AM, slot[S_AM] | (1 << x)),
                            (S_REGS, (x, None)), (S_IP, res))
            m2 = m[:M_FREE] + (free & ~(1 << x),
                               m[M_TXNS][:ti] + (slot,) + m[M_TXNS][ti + 1:]) \
                + m[M_TXNS + 1:]
            out.append((m2, None))
        return out
    return step


def palloc():
    return ("palloc", False, [Entry("take", (FREE,), _take, {"res": "res"}),
                              respond("alloc", RDY)])


def pread(done):
    return ("pread", False, [load("load", done)])


def pwrite(cfg, done):
    """Guard-and-log, undo flush, in-place store.  regs (l, v[, old])."""
    lay = cfg.layout

    def make_guard(cfg, log, done):
        def step(m, ti, regime):
            slot = m[M_TXNS][ti]
            l, v = slot[S_REGS][0], slot[S_REGS][1]
            bad = fault_check(cfg, m, ti, l)
            if bad is not False:
                return bad and fault_state(ti, "write", l)
            if cfg.pmem.load(m[M_MEM], ti, lay.undo(ti, l)) != -1:
                # already logged
                mem2 = cfg.pmem.store(m[M_MEM], ti, lay.val(l), v,
                                      regime)
                if mem2 is None:
                    return None
                return [(set_mem_slot(m, mem2, ti,
                                      slot_upd(slot, (S_IP, done))), None)]
            w = cfg.pmem.load(m[M_MEM], ti, lay.val(l))
            slot = slot_upd(slot, (S_REGS, (l, v, w)), (S_IP, log))
            return [(set_slot(m, ti, slot), None)]
        return step

    def undo(t, s):
        return lay.undo(t, s[S_REGS][0])

    skip_flush = "skip-undo-flush" in cfg.mutations
    return ("pwrite", False, [
        Entry("guard", (LOG, DATA) + FAULT, make_guard,
              {"log": "log", "done": done}),
        store_go("log", (LOG,), undo, lambda s: s[S_REGS][2],
                 "write" if skip_flush else "flush"),
        flush_go("flush", lambda t, s: (undo(t, s),), "write"),
        store_go("write", (DATA,), lambda t, s: lay.val(s[S_REGS][0]),
                 lambda s: s[S_REGS][1], done),
    ])


def _co_regs(regs):
    return regs if regs[:1] == ("co",) else ("co", None, None)


def redo_apply(cfg, done):
    """Apply the redo log: store each logged allocation's metadata and
    flush it, then clear and flush the undo flag if the redo log says so,
    and continue at `done`.  regs become ("co", persist_mask, apply_mask).
    The commit and recovery run these entries."""
    lay = cfg.layout

    def make_ap(cfg, flush, clear, done):
        table = cfg.step_table

        def step(m, ti, regime):
            slot = m[M_TXNS][ti]
            regs = _co_regs(slot[S_REGS])
            amask = regs[2]
            if amask is None:
                amask = cfg.pmem.load(m[M_MEM], ti, lay.pa(ti))
            if amask:
                x = lowbit(amask)
                mem2 = cfg.pmem.store(m[M_MEM], ti, lay.meta(x), 1,
                                      regime)
                if mem2 is None:
                    return None
                slot = slot_upd(slot, (S_REGS, ("co", regs[1], amask)),
                                (S_IP, flush))
                return [(set_mem_slot(m, mem2, ti, slot), None)]
            if cfg.pmem.load(m[M_MEM], ti, lay.puv(ti)) == 0:
                mem2 = cfg.pmem.store(m[M_MEM], ti, lay.guv(ti), 0,
                                      regime)
                if mem2 is None:
                    return None
                slot = slot_upd(slot, (S_REGS, regs), (S_IP, clear))
                return [(set_mem_slot(m, mem2, ti, slot), None)]
            slot = slot_upd(slot, (S_REGS, regs), (S_IP, done))
            return table[done](set_slot(m, ti, slot), ti, regime)
        return step

    return [Entry("ap", (LOG, META), make_ap,
                  {"flush": "apf", "clear": "guvf"}, {"done": done}),
            bit_loop("apf", (FLUSH,), 2, lay.meta, again="ap"),
            flush_go("guvf", lambda t, s: (lay.guv(t),), done)]


def undo_rollback(cfg, done):
    """Roll the undo log back: store, then flush, each logged old value,
    then clear and flush the undo flag, and continue at `done`.  regs
    become ("ab", rb_mask, flush_mask).  The abort and recovery run these
    entries."""
    lay = cfg.layout

    def abort_regs(m, ti, regs):
        if regs[:1] == ("ab",):
            return regs
        mask = visible_undo_mask(cfg, m, ti)
        return ("ab", mask, mask)

    return [bit_loop("rb", (LOG, DATA), 1, lay.val,
                     lambda m, ti, x: cfg.pmem.load(m[M_MEM], ti,
                                                    lay.undo(ti, x)),
                     init=abort_regs, done="pwf"),
            bit_loop("pwf", (FLUSH,), 2, lay.val, done="clear"),
            store_go("clear", (LOG,), lambda t, s: lay.guv(t), lambda s: 0,
                     "guvf"),
            flush_go("guvf", lambda t, s: (lay.guv(t),), done)]


def pcommit(cfg, done):
    """The commit chain; regs become ("co", persist_mask, apply_mask).
    Every step is past the point of no return."""
    lay = cfg.layout
    order = ["pw", "pa", "puv", "pck", "fl", "ap", "apf", "guvf", "c7", "c8"]
    if "reorder-commit" in cfg.mutations:
        order = ["pa", "puv", "pck", "fl", "pw", "ap", "apf", "guvf",
                 "c7", "c8"]

    def after(p):
        return order[order.index(p) + 1]

    def persist_regs(m, ti, regs):
        regs = _co_regs(regs)
        if regs[1] is None:
            regs = ("co", visible_undo_mask(cfg, m, ti), regs[2])
        return regs

    if "skip-flush-commit5" in cfg.mutations:
        # mutation: the redo log is never explicitly persisted
        fl = jump("fl", (), lambda m, ti, s: "next",
                  falls={"next": after("fl")})
    else:
        fl = flush_go("fl", lambda t, s: (lay.pa(t), lay.puv(t), lay.pck(t)),
                      after("fl"))
    entries = {e.name: e for e in [
        bit_loop("pw", (LOG, FLUSH), 1, lay.val, init=persist_regs,
                 done=after("pw")),
        # the redo log is the allocation mask with the undo log invalidated
        # (undoValid 0) and their checksum: each field is computed from the
        # mask as it is stored
        store_go("pa", (LOG,), lambda t, s: lay.pa(t), lambda s: s[S_AM],
                 after("pa"), lambda s: ((S_REGS, _co_regs(s[S_REGS])),)),
        store_go("puv", (LOG,), lambda t, s: lay.puv(t), lambda s: 0,
                 after("puv")),
        store_go("pck", (LOG,), lambda t, s: lay.pck(t),
                 lambda s: calc_checksum(0, s[S_AM]), after("pck")),
        fl,
        *redo_apply(cfg, "c7"),
        store_go("c7", (LOG,), lambda t, s: lay.pck(t), lambda s: -1, "c8"),
        flush_go("c8", lambda t, s: (lay.pck(t),), done),
    ]}
    return ("pcommit", True, [entries[p] for p in order])


def pabort(cfg, done):
    """Roll back, then release allocations.

    No explored schedule reaches the rollback's store and flush loops from
    here (``pabort.rb``, ``pabort.pwf``): TML aborts only before its first
    logged write, and NOrec logs only under the lock.  They stay linked
    because PMDK's abort rolls back, so a layer that aborts after a
    logged write must find it here; recovery's ``undo`` block is built
    from the same entries (``undo_rollback``), and explored schedules run
    it; and ``tests/test_steps.py::test_abort_rolls_back_a_logged_write``
    runs this block's copy on a hand-built machine."""
    def make_free(cfg, done):
        def step(m, ti, regime):
            slot = slot_upd(m[M_TXNS][ti], (S_IP, done))
            m2 = m[:M_FREE] + (m[M_FREE] | slot[S_AM],
                               m[M_TXNS][:ti] + (slot,) + m[M_TXNS][ti + 1:]) \
                + m[M_TXNS + 1:]
            return [(m2, None)]
        return step

    return ("pabort", False, undo_rollback(cfg, "free") + [
        Entry("free", (FREE,), make_free, {"done": done})])


# ---------------------------------------------------------------------------
# recovery: per transaction id, the checksum test jumps into the commit's
# apply, the undo-flag test into the abort's rollback, and `next` moves on
# to the next id.  The engine schedules it one step at a time, interleaved
# with persists and crashes while a crash can still interrupt it; after
# the last crash under --por each step is forced (`engine.forced`), so
# the explorer runs it to its end within one transition.
# ---------------------------------------------------------------------------

def recovery(cfg):
    """The recovery blocks of transaction id ti, run as thread ti."""
    lay = cfg.layout
    skip_rb = "no-recovery-rollback" in cfg.mutations

    def redo_valid(m, ti, slot):
        pa, puv, pck = (cfg.pmem.load(m[M_MEM], ti, c)
                        for c in (lay.pa(ti), lay.puv(ti), lay.pck(ti)))
        return "apply" if calc_checksum(puv, pa) == pck else "undo"

    def undo_valid(m, ti, slot):
        # an id that never began has its flag up and nothing to roll back;
        # its flag stays up, since its begin raises it without a flush
        if skip_rb or cfg.pmem.load(m[M_MEM], ti, lay.guv(ti)) != 1 \
                or not visible_undo_mask(cfg, m, ti):
            return "next"
        return "rollback"

    def make_next(cfg):
        """Put the slot back at rest and move to the next id; after the
        last, rebuild the free list from metadata and reset glb."""
        def step(m, ti, regime):
            m = set_slot(m, ti, slot_upd(m[M_TXNS][ti], *AT_REST))
            if ti + 1 < cfg.txns:
                return [(m[:M_REC] + (ti + 1,) + m[M_REC + 1:], None)]
            free = 0
            for x in range(lay.locs):
                if cfg.pmem.load(m[M_MEM], ti, lay.meta(x)) == 0:
                    free |= 1 << x
            return [((m[M_MEM], 0, free) + m[M_TXNS:M_REC] + (None,)
                     + m[M_REC + 1:], None)]
        return step

    return [
        ("redo", False, [jump("check", (LOG,), redo_valid,
                              falls={"apply": "ap", "undo": "undo"}),
                         *redo_apply(cfg, "undo")]),
        ("undo", False, [jump("flag", (LOG,), undo_valid,
                              falls={"rollback": "rb", "next": "next"}),
                         *undo_rollback(cfg, "next")]),
        ("next", False, [Entry("next", (META, GLB, FREE, REC), make_next)]),
    ]


def recovery_step(cfg, start):
    """One scheduler step of recovery in the persist regime the engine
    gives: the step of the recovering thread, which starts at `start`
    while its slot is at rest."""
    table = cfg.step_table

    def step(m, regime):
        ti = m[M_REC]
        return table[m[M_TXNS][ti][S_IP] or start](m, ti, regime)
    return step
