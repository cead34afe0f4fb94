"""Step-machine engine: machine state layout and successor generation.

A machine is one flat tuple, cheap to hash and copy:

    (mem, glb, free, txns, rec, crashes, hist, faulted)

* ``mem``  -- (nvm, pbufs, sbufs) from the pmem simulator
* ``glb``  -- the volatile SC lock/counter used by the concurrency layers
* ``free`` -- volatile free-location bitmask
* ``txns`` -- one slot per transaction:
  (status, op, ip, regs, tredo_uv, tredo_ck, tredo_allocs, rdset, wrset,
   ops_used, retries, loc_snapshot).  A slot carries only the fields its
  status can still read, so states that nothing can tell apart are one:

  - ``NS``: none; the slot is the fresh slot of ``initial_machine``.
  - ``RUN``: every field.
  - ``RDY``: all but op, ip, regs and retries, which are None, 0, () and
    0; the next decision step sets each of them.
  - ``COMM``, ``ABRT``, ``DEAD``: the status alone; every other field is
    the fresh slot's (``spent_slot``).  Nothing reads an ended slot but
    its status: ``all_terminal`` and ``_may_begin`` read the status,
    ``pmdk.fault_check`` reads ``RUN`` slots only, and recovery reads
    only the ip and registers it keeps in the slot of the id it recovers,
    which are at rest (``AT_REST``) in every other slot.
  - ``FLT``: ends the run (the machine's faulted flag is set).
* ``rec``  -- None, or the transaction id recovery is at
* ``crashes`` -- the crashes so far, which number the current era: a
  script's transaction begins in the era its ``era_min`` names or later
* ``hist`` -- interned history id (maintained by the explorer)
* ``faulted`` -- 1 once a transaction faulted, which ends the run

Transactions are driven by client *decision* steps (which emit invocation
records and install an op program) and per-line program steps from the
compiled step table.  System steps are store-buffer propagation, per-cell
persists, and crashes.  After a crash, recovery runs before any
transaction step: each transaction id in turn, as the thread of that id
(``pmdk.recovery``); its steps emit nothing.  Under --por the crash that
spends the last unit of the crash budget runs recovery to its end inside
the crash transition (a macro-step): nothing else can act or crash until
recovery ends, so its intermediate states are never explored.  Under --por
the distinct outcomes of a crash depend on the pre-crash memory alone and
are computed once per memory in each exploration.
"""

from __future__ import annotations

# machine tuple layout
M_MEM, M_GLB, M_FREE, M_TXNS, M_REC, M_CRASH, M_HIST, M_FLT = range(8)

# transaction slot layout
(S_ST, S_OP, S_IP, S_REGS, S_UV, S_CK, S_AM, S_RD, S_WR,
 S_USED, S_RETR, S_LOC) = range(12)

# slot statuses
NS, RUN, RDY, COMM, ABRT, DEAD, FLT = range(7)
TERMINAL = (COMM, ABRT, DEAD, FLT)

CUT = "cut"

OPS = ("read", "write", "alloc", "commit")


# ip and registers of a slot that no step program runs in
AT_REST = ((S_IP, 0), (S_REGS, ()))

# the response into RDY: the fields RDY does not read take fixed values
READY = ((S_ST, RDY), (S_OP, None)) + AT_REST + ((S_RETR, 0),)


def fresh_slot(cfg):
    return (NS, None, 0, (), 1, -1, 0,
            (-1,) * cfg.locs, (-1,) * cfg.locs, 0, 0, 0)


def spent_slot(cfg, status):
    """The one slot of every transaction that ended with `status` (COMM,
    ABRT or DEAD): the fresh slot with only the status changed."""
    return (status,) + fresh_slot(cfg)[1:]


def initial_machine(cfg):
    free = ((1 << cfg.locs) - 1) & ~((1 << cfg.prealloc) - 1)
    return (cfg.pmem.initial(), 0, free, (fresh_slot(cfg),) * cfg.txns,
            None, 0, 0, 0)


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


def all_terminal(m):
    return all(s[S_ST] in TERMINAL for s in m[M_TXNS])


# ---------------------------------------------------------------------------
# successors
# ---------------------------------------------------------------------------

def crash_machine(cfg, m):
    """Buffers discarded, volatile state lost, live transactions die,
    recovery starts over from transaction id 0 in a fresh era."""
    return (cfg.pmem.crash(m[M_MEM]), 0, 0) + crash_tail(cfg, m, 0)


def crash_tail(cfg, m, rec):
    """The fields of `m` crashed from txns on, with recovery at id `rec`.
    A dead transaction keeps nothing of its volatile state: its slot
    becomes the spent DEAD slot, and the slots of ended transactions are
    spent already; a crash during recovery puts the recovering slot back
    at rest."""
    dead = spent_slot(cfg, DEAD)
    txns = tuple(dead if s[S_ST] in (RUN, RDY) else s for s in m[M_TXNS])
    t = m[M_REC]
    if t is not None:
        txns = txns[:t] + (slot_upd(txns[t], *AT_REST),) + txns[t + 1:]
    return (txns, rec, m[M_CRASH] + 1, m[M_HIST], m[M_FLT])


def run_recovery(cfg, m):
    """The machine after recovery runs to its end from `m`, stepped one
    line at a time; when a step blocks, the recovering thread's store
    buffer propagates its head.  Valid only in reduced mode, where recovery
    is the sole actor and its persists need no scheduling."""
    step = cfg.recovery_step
    pm = cfg.pmem
    while m[M_REC] is not None:
        r = step(m)
        if r is None:
            m = set_mem(m, pm.propagate_direct(m[M_MEM], m[M_REC]))
        else:
            (m, _emit), = r
    return m


def _decision_steps(cfg, m, ti, out):
    slot = m[M_TXNS][ti]
    if slot[S_ST] == NS:
        if not _may_begin(cfg, m, ti):
            return
        script = cfg.scripts[ti] if cfg.scripts else None
        if script is not None and m[M_CRASH] < script[1]:
            return
        slot2 = slot_upd(slot, (S_ST, RUN), (S_OP, "begin"),
                         (S_IP, cfg.entry["begin"]), (S_REGS, ()))
        out.append((set_slot(m, ti, slot2),
                    ("inv", ti, "begin", None, None), None))
        return
    if slot[S_ST] != RDY:
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
        slot2 = slot_upd(slot, (S_ST, RUN), (S_OP, op),
                         (S_IP, cfg.entry[op]), (S_REGS, regs),
                         (S_USED, used), (S_RETR, 0))
        out.append((set_slot(m, ti, slot2), ("inv", ti, op, loc, val), None))


def _may_begin(cfg, m, ti):
    txns = m[M_TXNS]
    for j in range(ti):
        if txns[j][S_ST] == NS:
            return False  # canonical ascending begin order
    if cfg.serial:
        for j, s in enumerate(txns):
            if j != ti and s[S_ST] in (RUN, RDY):
                return False
    return True


def successors(cfg, m, memo):
    """All scheduler steps from `m` as (machine', record|None, tag) where
    tag is None or "cut".  `m` is not complete: the explorer expands no
    faulted machine and, outside recovery, none whose transactions have all
    ended.  `memo` is a dict memoizing crash outcomes (see the crash
    branch); the caller owns it and must not share it between Configs."""
    out = []
    pm = cfg.pmem
    if m[M_FLT]:
        return out
    reduced = cfg.reduced(m)

    if m[M_REC] is not None:
        # recovery steps here are interleavable with propagation, persists
        # and further crashes: reduced mode never reaches this branch,
        # because the last crash folds recovery into its transition
        r = cfg.recovery_step(m)
        if r is not None:
            for m2, emit in r:
                out.append((m2, emit, None))
    else:
        if reduced:
            # steps over per-transaction private cells are invisible to
            # every other component and there is no crash left to observe
            # them: schedule the first enabled one deterministically
            for ti in range(cfg.txns):
                slot = m[M_TXNS][ti]
                if slot[S_ST] == RUN and slot[S_IP] in cfg.private_ips:
                    r = cfg.step_table[slot[S_IP]](m, ti)
                    if r is not None:
                        return [(m2, emit, None) for m2, emit in r]
        for ti in range(cfg.txns):
            slot = m[M_TXNS][ti]
            if slot[S_ST] == RUN:
                r = cfg.step_table[slot[S_IP]](m, ti)
                if r is None:
                    continue
                if r == CUT:
                    out.append((None, None, CUT))
                    continue
                for m2, emit in r:
                    out.append((m2, emit, None))
            elif slot[S_ST] in (NS, RDY):
                _decision_steps(cfg, m, ti, out)

    # store-buffer propagation (always branches: TSO visibility)
    if pm.model == "ptso":
        for tid in range(cfg.txns):
            if not m[M_MEM][2][tid]:
                continue
            if reduced:
                out.append((set_mem(m, pm.propagate_direct(m[M_MEM], tid)),
                            None, None))
            elif cfg.por:
                out.append((set_mem(m, pm.propagate_forced(m[M_MEM], tid)),
                            None, None))
            else:
                mem2 = pm.propagate(m[M_MEM], tid)
                if mem2 is not None:
                    out.append((set_mem(m, mem2), None, None))

    # free persist steps only in the unreduced mode; under --por crash
    # outcomes are enumerated at the crash step and flushes drain on demand
    if not cfg.por:
        for c in pm.persistable(m[M_MEM]):
            out.append((set_mem(m, pm.persist(m[M_MEM], c)), None, None))

    # crash (disabled once every transaction is terminal: a trailing crash
    # marker is accepted whenever the history without it is; outside
    # recovery the explorer has checked that already)
    if m[M_CRASH] < cfg.max_crashes \
            and (m[M_REC] is None or not all_terminal(m)):
        if not cfg.por:
            out.append((crash_machine(cfg, m), ("crash",), None))
            return out
        # under --por, one successor per distinct crash outcome, each
        # joined to the one crashed tail.  The outcomes depend on the
        # pre-crash memory alone, so they are memoized on it; the key's
        # flag keeps it apart from the post-crash memories keyed below
        last = m[M_CRASH] + 1 == cfg.max_crashes
        tail = crash_tail(cfg, m, None if last else 0)
        key = (last, m[M_MEM])
        heads = memo.get(key)
        if heads is None:
            heads = memo[key] = _crash_heads(cfg, m, tail, last, memo)
        for head in heads:
            out.append((head + tail, ("crash",), None))

    return out


def _crash_heads(cfg, m, tail, last, memo):
    """The distinct leading fields (mem, glb, free) of `m`'s crash
    successors under --por, in first-seen order: the reachable post-crash
    memories, or after the last crash the outcomes of recovery.  Recovery
    is then the sole actor and emits nothing, so it runs to its end within
    the crash transition; its outcome depends on the post-crash memory
    alone and is memoized on it."""
    bufs = cfg.pmem.crash(m[M_MEM])[1:]
    heads = {}
    for nvm in _crash_nvms(cfg, m):
        mem = (nvm,) + bufs
        if not last:
            heads[(mem, 0, 0)] = None
            continue
        head = memo.get(mem)
        if head is None:
            # the crashed machine: the tail, with recovery at its start
            crashed = (mem, 0, 0, tail[0], 0) + tail[2:]
            head = memo[mem] = run_recovery(cfg, crashed)[:M_TXNS]
        heads[head] = None
    return tuple(heads)


def _crash_nvms(cfg, m):
    """Distinct reachable post-crash memories (per-cell prefix choices)."""
    cands = cfg.pmem.crash_nvm_candidates(m[M_MEM])
    dirty = [(c, vals) for c, vals in enumerate(cands) if len(vals) > 1]
    base = list(m[M_MEM][0])
    if not dirty:
        return [tuple(base)]
    out = []

    def rec(i):
        if i == len(dirty):
            out.append(tuple(base))
            return
        c, vals = dirty[i]
        for v in vals:
            base[c] = v
            rec(i + 1)
        base[c] = m[M_MEM][0][c]

    rec(0)
    return out
