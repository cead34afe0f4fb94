"""Step-machine engine: machine state layout and successor generation.

A machine is one flat tuple, cheap to hash and copy:

    (mem, glb, free, txns, rec, crashes)

* ``mem``  -- (nvm, pbufs, sbufs) from the pmem simulator
* ``glb``  -- the volatile SC lock/counter used by the concurrency layers
* ``free`` -- volatile free-location bitmask
* ``txns`` -- one slot per transaction:
  (status, ip, regs, tredo_allocs, rdset, wrset, ops_used, retries,
   loc_snapshot).  A slot carries only the fields its status can still
  read, so states that nothing can tell apart are one:

  - ``NS``: none; the slot is the fresh slot of ``initial_machine``.
  - ``RUN``: every field.
  - ``RDY``: all but ip, regs and retries, which are 0, () and 0; the
    next decision step sets each of them.
  - ``COMM``, ``ABRT``, ``DEAD``: the status alone; every other field is
    the fresh slot's (``spent_slot``).  Nothing reads an ended slot but
    its status: ``ended`` and ``_may_begin`` read the status,
    ``pmdk.fault_check`` reads ``RUN`` slots only, and recovery reads
    only the ip and registers it keeps in the slot of the id it recovers,
    which are at rest (``AT_REST``) in every other slot.

  A fault has no status: it ends the run, so its step leaves no machine
  (below).
* ``rec``  -- None, or the transaction id recovery is at
* ``crashes`` -- the crashes so far, which number the current era: a
  script's transaction begins in the era its ``era_min`` names or later

The history a state has emitted is not part of its machine: no step reads
it, and the explorer keeps its id beside the machine on the DFS stack
(``explorer.explore``).

Transactions are driven by client *decision* steps (which emit invocation
records and install an op program) and per-line program steps from the
compiled step table.  The system steps (store-buffer propagations, and
per-cell persists in the ``EXACT`` regime only) and the memories a crash
can leave are ``PMem``'s to decide per persist regime
(``PMem.system_steps``, ``PMem.crash``; ``Config.regime``, whose rules
are in the ``pmem`` docstring).  ``forced`` and ``successors`` ask
``Config.regime`` once per machine and pass the regime to every step they
run; ``crash_machine`` builds the machines of every crash transition but
a run-ending one, which has none.  After a crash, recovery runs before
any transaction step: each transaction id in turn, as the thread of that
id (``pmdk.recovery``); its steps emit nothing.

Every step result and every successor has one shape, (target,
record-or-None), a step returning a list of them (None when it blocks).
The target is the machine the step leaves, or a leaf tag when the run is
explored no further from it:

* ``CUT``: a loop-back beyond the retry bound, with no record; its
  parent history joins the explorer's cut histories;
* ``END``: the run ends, by a fault (``pmdk.fault_state``; its record is
  the fault, after which the rest of the run is not claimed), or by a
  run-ending crash (below).  The history with its record is complete.

Under --por a machine may have one forced step (``forced``): an ample set
of one invisible step independent of every other thread's (Peled, CAV
1993; Godefroid, LNCS 1032, 1996).  In recovery once no crash is left
(``REDUCED``) it is the recovery step, or, when that step blocks under
PTSO, the propagation of the recovering thread's store-buffer head that
it waits on.  Recovery is then the sole actor: no transaction steps
before it ends, the crash emptied every other store buffer, ``REDUCED``
has no persist steps, and no crash can interrupt it.  Its steps emit
nothing, and its flushes wait for its stores to propagate, so every order
of its steps and its thread's propagations ends in the same machine.
Outside recovery a ``REDUCED`` machine with buffered persists, which the
begin that left no slot yet to begin makes (below), first persists them
all (``PMem.persist_all``).  Then two kinds of step qualify, tried in
this order:

* under PTSO, the propagation of the first store-buffer head that targets
  one of its thread's own log cells (``cfg.log_cells``), when that cell's
  persistence buffer has room;
* the enabled private step (``cfg.private_ips``: own log cells and
  flushes only) of the lowest thread for which either the machine is
  ``REDUCED`` (no crash left, or every crash left ends the run; the
  lowest enabled one qualifies) or every successor of the step keeps the
  parent's NVM and only appends to the tails of its persistence buffers.

Both emit nothing and touch only their thread's own log cells, or flush:
only thread t's steps, and recovery of t run as thread t, load, store or
flush t's log cells, and no private step changes what ``pmdk.fault_check``
reads of its own slot (both checked in ``tests/test_steps.py``), so none
makes another thread's access fault, wait or proceed.  A crash
the forced step displaces has the same successors after it: NVM is the
same and every buffered value is still buffered, so each cell's crash
candidates only grow, and the crashed tail is the same, since the slot
dies either way and glb and free are reset.  In ``REDUCED`` the one crash
left is the run-ending leaf, the same after the step, which emits nothing
and keeps every slot's status.  Under ``POR`` a store into a full
persistence buffer persists first and a flush of a non-empty one drains
it; both persist, which takes a buffer's head, so such a step is not
forced while a crash can read memory, and neither is a propagation into
a full persistence buffer.  Forced steps only move a program forward,
recovery's included, shrink a store buffer, or empty the persistence
buffers, so they form no cycle: the explorer runs each chain of them to
its end when it makes the successor the chain starts at (a macro-step),
and keys, pushes and expands only machines with no forced step.  So
recovery after the last crash is one chain, and no ``REDUCED`` machine
the explorer expands is mid-recovery or has a buffered persist.

``REDUCED`` before the last crash.  Once no slot is yet to begin, every
crash left ends the run (below), and its one history is the history so
far and a crash record, whatever memory it finds: as after the last
crash, nothing reads what persisted when.  So ``Config.regime`` gives
such a machine ``REDUCED`` outside recovery (``only_leaf_crashes``; a
machine mid-recovery has a slot yet to begin, or has every slot ended and
makes no crash transition).  The two regimes agree up to the
persist step P (``PMem.persist_all``).  For each memory operation op,
P(op in ``POR``) = (op in ``REDUCED``)(P): a PSC store or a propagation
into cell c appends to c's buffer, making room by persisting its head,
and P leaves c holding the appended value, which the ``REDUCED`` op
writes into NVM; a flush persists its cells' buffers, which P does
anyway; a PTSO store only appends to the store buffer.  An operation
blocks in the same machines in both (neither blocks on a full
persistence buffer), and ``load`` reads the same value at m and at P(m):
a buffer's tail, else NVM (all three checked in ``tests/test_pmem.py``).
So a run from a ``POR`` machine m and the
run from P(m) in ``REDUCED`` emit the same records.  In particular a
private step p of thread t commutes with the begin b that flips the
regime, up to P: from m, p then b then P and b then P then p reach one
machine, since P(p in ``POR``)(m) = (p in ``REDUCED``)(P(m)), and b
writes only its own slot and reads only statuses, which p keeps.  So
forcing p, which the ``POR`` rule may not, drops no history.

Under --por a crash is also postponed (``successors``), in recovery too: a
machine makes no crash transition when one of its successors is silent (a
thread or system step that emits no record and is not cut) and keeps every
crash outcome (``_keeps_crash_outcomes``: the same NVM, and each
persistence buffer a prefix of its own), or, in ``REDUCED``, when any
successor is silent, since its crash is a run-ending leaf that reads no
memory.  This is a persistent set for the crash transition alone
(Godefroid, LNCS 1032, 1996).  A silent step keeps every slot's status
and emits nothing, so the crash after it leaves the same crashed tail and
the same history, with at least the same memories, or is the same leaf:
it covers the crash before it.  The postponed crash is taken further down
unless silent steps of this kind form a cycle.  None is expected:
programs move forward, retry loop-backs raise the retry count, busy-waits
are guarded steps that block, propagations shrink a store buffer, and a
persist empties the persistence buffers.  ``tests/test_explorer.py``
checks that their graph is acyclic on small cells of every
implementation and model with one and two crashes, every silent step of
a machine whose crash ends the run included.

So under --por a crash has one of two shapes.  A crash of a machine with
no ``NS`` slot ends the run (``_crash_ends_run``), whatever crash budget
is left: ``successors`` gives it as one ``END`` leaf, and enumerates,
recovers and keys none of its outcomes; such a machine runs in
``REDUCED``, so it holds no persist for the crash to read.  Sound,
because every outcome leaves one history: the crash makes each ``RUN``
and ``RDY`` slot ``DEAD`` and keeps the ended ones (``crash_tail``), so
with none yet to begin every slot is terminal;
recovery emits nothing and sets no status, and no further crash can
interrupt it, since a machine mid-recovery whose slots have all ended
makes no crash transition (``successors``).  Whatever memory survived,
the run's one history is the history so far followed by the crash
record, which the explorer checks and records as complete at the leaf.
Any other crash, of a ``POR`` machine, leaves a crashed machine per
memory ``PMem.crash`` gives (``crash_machine``), whose recovery the
explorer steps: one step at a time while a crash is left, as one forced
chain once none is.
"""

from __future__ import annotations

from .pmem import REDUCED

# machine tuple layout
M_MEM, M_GLB, M_FREE, M_TXNS, M_REC, M_CRASH = range(6)

# transaction slot layout
S_ST, S_IP, S_REGS, S_AM, S_RD, S_WR, S_USED, S_RETR, S_LOC = range(9)

# slot statuses
NS, RUN, RDY, COMM, ABRT, DEAD = range(6)
TERMINAL = (COMM, ABRT, DEAD)

# leaf targets of a successor, in place of a machine: a step cut at the
# retry bound, and the end of the run, by a fault or a run-ending crash
# (``_crash_ends_run``)
CUT = "cut"
END = "end"

OPS = ("read", "write", "alloc", "commit")


# ip and registers of a slot that no step program runs in
AT_REST = ((S_IP, 0), (S_REGS, ()))

# the response into RDY: the fields RDY does not read take fixed values
READY = ((S_ST, RDY),) + AT_REST + ((S_RETR, 0),)


def fresh_slot(cfg):
    return (NS, 0, (), 0, (-1,) * cfg.locs, (-1,) * cfg.locs, 0, 0, 0)


def spent_slot(cfg, status):
    """The one slot of every transaction that ended with `status` (COMM,
    ABRT or DEAD): the fresh slot with only the status changed."""
    return (status,) + fresh_slot(cfg)[1:]


def initial_machine(cfg):
    free = ((1 << cfg.locs) - 1) & ~((1 << cfg.prealloc) - 1)
    return (cfg.pmem.initial(), 0, free, (fresh_slot(cfg),) * cfg.txns,
            None, 0)


def set_slot(m, ti, slot):
    txns = m[M_TXNS]
    return m[:M_TXNS] + (txns[:ti] + (slot,) + txns[ti + 1:],) \
        + m[M_TXNS + 1:]


def set_mem(m, mem):
    return (mem,) + m[1:]


def set_mem_slot(m, mem, ti, slot):
    txns = m[M_TXNS]
    return (mem,) + m[1:M_TXNS] \
        + (txns[:ti] + (slot,) + txns[ti + 1:],) + m[M_TXNS + 1:]


def slot_upd(slot, *pairs):
    s = list(slot)
    for i, v in pairs:
        s[i] = v
    return tuple(s)


def lowbit(mask):
    return (mask & -mask).bit_length() - 1


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def ended(m):
    """No transaction can act again: each one ended."""
    # a loop, not all() over a generator: frontier dedup asks this of every
    # state it pops
    for s in m[M_TXNS]:
        if s[S_ST] not in TERMINAL:
            return False
    return True


# ---------------------------------------------------------------------------
# successors
# ---------------------------------------------------------------------------

def crash_machine(cfg, m):
    """The machines a crash of `m` leaves, one per memory ``PMem.crash``
    gives: volatile state lost, live transactions dead, recovery at
    transaction id 0 in a fresh era.  ``successors`` calls it for every
    crash but a run-ending one (``_crash_ends_run``), whose machines it
    never builds."""
    tail = crash_tail(cfg, m)
    return [(mem, 0, 0) + tail
            for mem in cfg.pmem.crash(m[M_MEM], cfg.regime(m))]


def crash_tail(cfg, m):
    """The fields of `m` crashed from txns on, with recovery at id 0.
    A dead transaction keeps nothing of its volatile state: its slot
    becomes the spent DEAD slot, and the slots of ended transactions are
    spent already; a crash during recovery puts the recovering slot back
    at rest."""
    dead = spent_slot(cfg, DEAD)
    txns = tuple(dead if s[S_ST] in (RUN, RDY) else s for s in m[M_TXNS])
    t = m[M_REC]
    if t is not None:
        txns = txns[:t] + (slot_upd(txns[t], *AT_REST),) + txns[t + 1:]
    return (txns, 0, m[M_CRASH] + 1)


def _decision_steps(cfg, m, ti, out):
    slot = m[M_TXNS][ti]
    if slot[S_ST] == NS:
        if not _may_begin(cfg, m, ti):
            return
        script = cfg.scripts[ti] if cfg.scripts else None
        if script is not None and m[M_CRASH] < script[1]:
            return
        slot2 = slot_upd(slot, (S_ST, RUN), (S_IP, cfg.entry["begin"]),
                         (S_REGS, ()))
        out.append((set_slot(m, ti, slot2),
                    ("inv", ti, "begin", None, None)))
        return
    if cfg.scripts:
        ops, _era_min = cfg.scripts[ti]
        k = slot[S_USED]
        choice = ops[k] if k < len(ops) else ("commit",)
        choices = [choice]
    else:
        choices = [("commit",)]
        if slot[S_USED] < cfg.ops:
            choices += [("alloc",)]
            choices += [("read", l) for l in range(cfg.locs)]
            choices += [("write", l, v) for l in range(cfg.locs)
                        for v in range(cfg.vals)]
    for ch in choices:
        op = ch[0]
        regs = ()
        loc = val = None
        if op == "read":
            loc = ch[1]
            regs = (loc,)
        elif op == "write":
            loc, val = ch[1], ch[2]
            regs = (loc, val)
        used = slot[S_USED] + (0 if op == "commit" else 1)
        slot2 = slot_upd(slot, (S_ST, RUN), (S_IP, cfg.entry[op]),
                         (S_REGS, regs), (S_USED, used), (S_RETR, 0))
        out.append((set_slot(m, ti, slot2), ("inv", ti, op, loc, val)))


def _may_begin(cfg, m, ti):
    # canonical ascending begin order: the transactions yet to begin are
    # alike, so the lowest stands for any of them.  Frontier dedup's orbit
    # key (explorer.orbit_keyer) would merge the others' begins anyway;
    # history dedup, whose history sets are pinned, still needs this order
    txns = m[M_TXNS]
    for j in range(ti):
        if txns[j][S_ST] == NS:
            return False
    if cfg.serial:
        for j, s in enumerate(txns):
            if j != ti and s[S_ST] in (RUN, RDY):
                return False
    return True


def forced(cfg, m):
    """The machine after `m`'s forced step (module docstring), or None, as
    always without --por or in recovery while a crash is left.  The
    explorer runs a successor's chain of them when it makes the successor
    (``explorer.explore``)."""
    if not cfg.por:
        return None
    regime = cfg.regime(m)
    rec = m[M_REC]
    if rec is not None:
        if regime != REDUCED:
            return None
        r = cfg.recovery_step(m, REDUCED)
        if r is None:
            # blocked: a flush waiting on its own store buffer propagates;
            # with nothing buffered the machine is expanded, and stalls
            sbufs = m[M_MEM][2]
            if not (sbufs and sbufs[rec]):
                return None
            return set_mem(m, cfg.pmem.propagate(m[M_MEM], rec, REDUCED))
        [(m2, _emit)] = r
        return m2
    mem = m[M_MEM]
    if regime == REDUCED and m[M_CRASH] < cfg.max_crashes:
        # entered by the begin that left no slot to begin: persist first.
        # After the last crash nothing is buffered: the crash emptied
        # every buffer, and no REDUCED operation fills one
        mem2 = cfg.pmem.persist_all(mem)
        if mem2 is not mem:
            return set_mem(m, mem2)
    _nvm, pbufs, sbufs = mem
    if cfg.pmem.model == "ptso":
        # a store-buffer head bound for its thread's own log cell, if room
        for tid, buf in enumerate(sbufs):
            if buf and buf[0][0] in cfg.log_cells[tid] \
                    and len(pbufs[buf[0][0]]) < cfg.pmem.cap:
                return set_mem(m, cfg.pmem.propagate(mem, tid, regime))
    for ti in range(cfg.txns):
        slot = m[M_TXNS][ti]
        if slot[S_ST] == RUN and slot[S_IP] in cfg.private_ips:
            r = cfg.step_table[slot[S_IP]](m, ti, regime)
            if r is not None:
                # a private step has one successor and emits nothing
                [(m2, _emit)] = r
                if regime == REDUCED \
                        or _keeps_crash_outcomes(mem, m2[M_MEM]):
                    return m2
    return None


def successors(cfg, m):
    """All scheduler steps from `m` as (target, record-or-None), where the
    target is a machine or a leaf tag, ``CUT`` or ``END`` (module
    docstring): each step's results as it returns them, then the system
    steps and the crashes.  `m` has not ended outside recovery and has no
    forced step, so under --por it is mid-recovery only while a crash is
    left.  Under --por a target machine may have a forced step, whose
    chain the explorer runs at once (``forced``), and there is no crash
    successor when another successor is silent and, unless `m` is
    ``REDUCED``, keeps every crash outcome (module docstring): the crash
    after that step covers this one; and a run-ending crash is the one
    successor (END, ("crash",)).  Any other crash gives a successor per
    machine ``crash_machine`` builds."""
    out = []
    regime = cfg.regime(m)
    if m[M_REC] is not None:
        # recovery steps here are interleavable with propagation, persists
        # and further crashes: under --por, once no crash is left, recovery
        # is a forced chain and never reaches this branch
        r = cfg.recovery_step(m, regime)
        if r is not None:
            out += r
    else:
        for ti in range(cfg.txns):
            slot = m[M_TXNS][ti]
            if slot[S_ST] == RUN:
                r = cfg.step_table[slot[S_IP]](m, ti, regime)
                if r is not None:
                    out += r
            elif slot[S_ST] in (NS, RDY):
                _decision_steps(cfg, m, ti, out)

    # system steps.  Under PTSO, a store-buffer head bound for a data or
    # metadata cell changes what other threads load (TSO visibility); under
    # --por one bound for an own log cell reaches here only when its
    # persistence buffer is full, and making room persists, which drops a
    # crash outcome
    for mem2 in cfg.pmem.system_steps(m[M_MEM], regime):
        out.append((set_mem(m, mem2), None))

    # crash (disabled once every transaction is terminal: a trailing crash
    # marker is accepted whenever the history without it is; outside
    # recovery the explorer has checked that already).  Under --por it is
    # postponed past a silent step that keeps every crash outcome, or past
    # any silent step once the crash is a leaf that reads no memory
    # (``REDUCED``; module docstring)
    if m[M_CRASH] < cfg.max_crashes \
            and (m[M_REC] is None or not ended(m)) \
            and not (cfg.por and _crash_postponed(m[M_MEM], out,
                                                  regime == REDUCED)):
        if _crash_ends_run(cfg, m):
            out.append((END, ("crash",)))
        else:
            for m2 in crash_machine(cfg, m):
                out.append((m2, ("crash",)))

    return out


def _crash_ends_run(cfg, m):
    """True when, under --por, a crash of `m` ends the run: no slot of `m`
    is yet to begin (module docstring)."""
    if not cfg.por:
        return False
    for s in m[M_TXNS]:
        if s[S_ST] == NS:
            return False
    return True


def only_leaf_crashes(cfg, m):
    """True when every crash `m` can still make is a run-ending leaf
    (``_crash_ends_run``) that reads no memory: `m` is outside recovery
    and no slot is yet to begin.  ``Config.regime`` then runs `m` in
    ``REDUCED`` before the last crash (module docstring); this is that
    rule's one switch."""
    return m[M_REC] is None and _crash_ends_run(cfg, m)


def _crash_postponed(mem, out, blind):
    """True when some successor in `out` is silent (no record, and a
    machine, not a leaf) and keeps every crash outcome of memory `mem`,
    or, when the crash is `blind` to memory (a run-ending leaf), is silent
    at all."""
    for m2, emit in out:
        if emit is None and type(m2) is tuple \
                and (blind or _keeps_crash_outcomes(mem, m2[M_MEM])):
            return True
    return False


def _keeps_crash_outcomes(mem, mem2):
    """True when `mem2` keeps the NVM of `mem` and each persistence buffer
    of `mem` as a prefix of its own: then a crash at `mem2` has every
    outcome a crash at `mem` has."""
    nvm, pbufs, _sbufs = mem
    nvm2, pbufs2, _sbufs2 = mem2
    if nvm2 != nvm:
        return False
    if pbufs2 is not pbufs:
        for b, b2 in zip(pbufs, pbufs2):
            if b2 is not b and b2[:len(b)] != b:
                return False
    return True
