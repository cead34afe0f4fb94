"""Operational reference specification for crash-consistent transactions.

A transition system over states ``(mems, txs)``:

* ``mems`` -- a nonempty sequence of memories (loc -> val, -1 meaning
  unallocated); each committing writer/allocator appends a new memory; a
  crash resets the sequence to its last element.
* per transaction: a program counter, begin index (position in ``mems`` at
  begin), read set, write set and allocation set.

External actions are operation invocations and responses plus crashes;
commits take an internal step between invocation and response.  A read or
write of a location that is unallocated in some consistent memory may fault;
implementation fault events are matched against these fault transitions.

A record step is a function: ``match_record`` gives the one state a record
leads to, or None, and ``fault_possible`` whether a fault is enabled.  The
only branching is where the internal commit steps go.  The range rule lives
in the step: a record naming a transaction or location out of range
matches nothing.

``advance_frontier`` steps the set of spec states a history may reach, the
explorer's online form, and keeps each state in canonical form
(``canonical``): a transaction that is not live keeps only its pc, and the
memories below the least live begin index are dropped (dead-variable
reduction; Bozga, Fernandez & Ghirvu, SAS 1999).  The dropped data has no
reader: ``valid_idx`` and ``_holds`` read from a live begin index on, a
commit reads the last memory, a begin the last index and a crash keeps the
last memory, and no step reads the fields of a transaction past its last
live pc.  So a state and its canonical form accept the same continuations,
and histories with equal futures get equal frontiers.
``accepts_history`` decides one recorded history by a depth-first search
for one accepting run, which branches only on commit steps and takes a
node's commit steps only on backtrack; it and the steps above stay raw, so
its witness chains are runs of the spec as written.
``sequential_histories`` enumerates the serial, crash-free, abort-free
traces, the lower bound on implementations, by advancing the frontier over
serial record sequences: the bound has no rules of its own that could drift
from the spec's.
"""

from __future__ import annotations

BOT = -1  # unallocated

# pc encodings
NS = ("ns",)
RDY = ("rdy",)
BPEND = ("bp",)
PI = ("pi",)          # commit applied, response pending
ABORTED = ("ab",)
COMMITTED = ("co",)
# the pcs of a transaction that is not live: nothing reads its other fields
ENDED = (NS, PI, COMMITTED, ABORTED)


def initial_state(txns, locs, prealloc=0):
    mem0 = tuple(0 if x < prealloc else BOT for x in range(locs))
    tx0 = (NS, 0, (BOT,) * locs, (BOT,) * locs, 0)  # pc, bidx, rset, wset, am
    return ((mem0,), (tx0,) * txns)


def _repl(tup, i, v):
    return tup[:i] + (v,) + tup[i + 1:]


def valid_idx(n, tx, mems):
    """bidx <= n < |mems|, read set consistent with mems[n], allocation set
    unallocated at mems[n]."""
    _pc, bidx, rset, _wset, am = tx
    if not (bidx <= n < len(mems)):
        return False
    mem = mems[n]
    for l, v in enumerate(rset):
        if v != BOT and mem[l] != v:
            return False
    m = am
    while m:
        low = m & -m
        if mem[low.bit_length() - 1] != BOT:
            return False
        m ^= low
    return True


def _holds(tx, mems, loc, v):
    """Some memory `tx` is valid at holds `v` at `loc` (v = BOT: the
    location is unallocated there, so an access of it may fault)."""
    return any(mems[n][loc] == v and valid_idx(n, tx, mems)
               for n in range(tx[1], len(mems)))


def crash_step(st):
    """Crash-and-recover: live transactions abort silently, the memory
    sequence collapses to its last element."""
    mems, txs = st
    new_txs = tuple(
        (ABORTED, t[1], t[2], t[3], t[4])
        if t[0] not in (NS, COMMITTED, ABORTED) else t
        for t in txs)
    return ((mems[-1],), new_txs)


def eps_successors(st):
    """Internal commit steps (read-only and writer variants)."""
    mems, txs = st
    out = []
    for i, tx in enumerate(txs):
        pc, bidx, rset, wset, am = tx
        if pc != ("d", "commit"):
            continue
        if am == 0 and all(v == BOT for v in wset):
            out.append((mems, _repl(txs, i, (PI, bidx, rset, wset, am))))
            continue
        if valid_idx(len(mems) - 1, tx, mems):
            mem = list(mems[-1])
            m = am
            while m:
                low = m & -m
                mem[low.bit_length() - 1] = 0
                m ^= low
            for l, v in enumerate(wset):
                if v != BOT:
                    mem[l] = v
            out.append((mems + (tuple(mem),),
                        _repl(txs, i, (PI, bidx, rset, wset, am))))
    return out


def canonical(st):
    """`st` with its dead parts in fixed form: a transaction that is not
    live (``ENDED``) keeps only its pc, its other fields those of the fresh
    transaction (as ``engine.spent_slot`` does for the machine's slots),
    and the memories below ``b = min(live begin indices, last index)`` are
    dropped, each live begin index shifting down by b.  A state and its
    canonical form step alike up to ``canonical``, and the map commutes
    with ``rename_frontier`` and keeps subsets of frontiers."""
    mems, txs = st
    b = len(mems) - 1
    for tx in txs:
        if tx[1] < b and tx[0] not in ENDED:
            b = tx[1]
    blank = (BOT,) * len(mems[0])
    return mems[b:], tuple(
        (tx[0], 0, blank, blank, 0) if tx[0] in ENDED
        else (tx[0], tx[1] - b) + tx[2:] if b else tx for tx in txs)


def closure(states):
    """All states reachable through internal commit steps, each commit
    step's state in canonical form: the states reached by them from
    canonical `states` are the canonical forms of those reached from the
    raw ones."""
    seen = set(states)
    work = list(states)
    while work:
        st = work.pop()
        for st2 in eps_successors(st):
            st2 = canonical(st2)
            if st2 not in seen:
                seen.add(st2)
                work.append(st2)
    return seen


def match_record(st, rec):
    """The state reached by taking the external action `rec` (not a fault)
    from `st`, or None when no spec step matches it.  The spec takes at
    most one step per record; a record naming a transaction out of range,
    or a location out of range on a read or write invocation or an alloc
    response, matches nothing."""
    if rec[0] == "crash":
        return crash_step(st)
    mems, txs = st
    kind, txid, op, loc, val = rec
    if not 0 <= txid < len(txs):
        return None
    tx = txs[txid]
    pc, bidx, rset, wset, am = tx
    if kind == "inv":
        if op == "begin":
            if pc != NS:
                return None
            pc, bidx = BPEND, len(mems) - 1
        elif pc != RDY:
            return None
        elif op == "read" or op == "write":
            if not 0 <= loc < len(wset):
                return None
            pc = ("d", op, loc) if op == "read" else ("d", op, loc, val)
        elif op == "alloc" or op == "commit":
            pc = ("d", op)
        else:
            return None
    elif op == "abort":
        # an operation in flight may abort; no begin response is an abort
        if pc in (NS, RDY, BPEND, COMMITTED, ABORTED, PI):
            return None
        pc = ABORTED
    elif op == "begin":
        if pc != BPEND:
            return None
        pc = RDY
    elif op == "commit":
        if pc != PI:
            return None
        pc = COMMITTED
    elif op == "alloc":
        if (pc != ("d", "alloc") or not 0 <= loc < len(wset)
                or (am >> loc) & 1):
            return None
        pc, am = RDY, am | (1 << loc)
    elif op == "read":
        if pc != ("d", "read", loc):
            return None
        if wset[loc] != BOT:
            if wset[loc] != val:
                return None
        elif (am >> loc) & 1:
            if val != 0:
                return None
        elif val == BOT or not _holds(tx, mems, loc, val):
            return None
        else:
            rset = _repl(rset, loc, val)
        pc = RDY
    elif op == "write":
        if pc != ("d", "write", loc, val) or not (
                (am >> loc) & 1 or mems[-1][loc] != BOT):
            return None
        pc, wset = RDY, _repl(wset, loc, val)
    else:
        return None
    return mems, _repl(txs, txid, (pc, bidx, rset, wset, am))


def fault_possible(st, txid, op, loc):
    """Whether a fault transition is enabled for txid's in-flight read or
    write of `loc`: the transaction did not allocate the location (a read:
    nor write it), and it is unallocated in some memory the transaction is
    valid at (a write: in the last memory).  A transaction out of range
    faults nowhere."""
    mems, txs = st
    if not 0 <= txid < len(txs):
        return False
    tx = txs[txid]
    pc, _bidx, _rset, wset, am = tx
    if op == "read":
        return (pc == ("d", "read", loc) and not (am >> loc) & 1
                and wset[loc] == BOT and _holds(tx, mems, loc, BOT))
    if op == "write":
        return (pc[:3] == ("d", "write", loc) and not (am >> loc) & 1
                and mems[-1][loc] == BOT)
    return False


# ---------------------------------------------------------------------------
# Frontier-based membership
# ---------------------------------------------------------------------------

ACCEPT_ALL = "accept-all"  # frontier sentinel once a fault was matched


def initial_frontier(txns, locs, prealloc=0):
    return frozenset(closure({initial_state(txns, locs, prealloc)}))


def rename_frontier(frontier, perm):
    """`frontier` (a set of spec states, not ACCEPT_ALL) with its
    transactions renamed: transaction u of each spec state is transaction
    perm[u] of the original.  Advancing commutes with renaming (the spec
    treats every transaction id alike), which frontier dedup's symmetry
    relies on (``explorer.orbit_keyer``)."""
    return frozenset([(mems, tuple([txs[t] for t in perm]))
                      for mems, txs in frontier])


def advance_frontier(frontier, rec):
    """Step the set of spec states by one external record; empty result
    means the history is not a trace of the specification.

    The states are kept in canonical form (``canonical``), applied where a
    transaction stops being live: at the commit steps of ``closure`` and
    after an abort or a crash record.  Every other record steps a
    canonical state to a canonical one, so each frontier is the canonical
    image of the raw one: the same histories are accepted, and since the
    map commutes with renaming transactions and keeps subsets, frontier
    dedup's orbit key and antichain stay sound while merging states with
    equal futures."""
    if frontier == ACCEPT_ALL:
        return ACCEPT_ALL
    if rec[0] == "fault":
        if any(fault_possible(st, *rec[1:]) for st in frontier):
            return ACCEPT_ALL
        return frozenset()
    nxt = {match_record(st, rec) for st in frontier}
    nxt.discard(None)
    if rec[0] == "crash" or rec[2] == "abort":
        nxt = {canonical(st) for st in nxt}
    return frozenset(closure(nxt))


def _commit_pending(st, txid):
    """Whether transaction `txid` of `st` has its commit applied and its
    response pending: else a commit response matches nothing."""
    txs = st[1]
    return 0 <= txid < len(txs) and txs[txid][0] == PI


def accepts_history(records, txns, locs, witness=False, prealloc=0):
    """Membership of an inv/res/crash/fault record sequence: one iterative
    depth-first search for an accepting run over (position, spec state)
    nodes, failed nodes kept in a dead set for the call.  A record moves a
    node one way (``match_record``), so the search branches only on commit
    steps: it follows a node's record match first and opens a frame for
    the node's commit steps only on backtrack, or at once at a commit
    response whose commit is not applied yet, which no record match takes.
    With witness=True also returns, on acceptance, the run's state after
    each consumed record (a trailing ACCEPT_ALL marks a matched fault),
    else None.
    """
    records = tuple(records)
    n = len(records)
    # path: the nodes from the root to `node`, `node` included; frames:
    # (length of the path to it, its commit steps left) of the nodes on the
    # path whose commit steps are being tried
    dead, path, frames = set(), [], []
    node = (0, initial_state(txns, locs, prealloc))
    while True:
        pos, st = node
        path.append(node)
        if pos == n:
            break
        rec = records[pos]
        if rec[0] == "fault":
            if fault_possible(st, *rec[1:]):
                break
        elif rec[0] != "res" or rec[2] != "commit" \
                or _commit_pending(st, rec[1]):
            nxt = match_record(st, rec)
            if nxt is not None:
                node = (pos + 1, nxt)
                if not dead or node not in dead:
                    continue
        while True:     # backtrack to the deepest node with a child left
            if frames and frames[-1][0] == len(path):
                node = next(frames[-1][1], None)
                if node is not None:
                    if not dead or node not in dead:
                        break
                    continue
                frames.pop()
                dead.add(path.pop())
                if not path:
                    return (False, None) if witness else False
            else:       # its record match failed: take its commit steps
                pos, st = path[-1]
                frames.append((len(path),
                               iter([(pos, s) for s in eps_successors(st)])))
    if not witness:
        return True
    chain = [s for (p, s), (q, _) in zip(path[1:], path) if p != q]
    if pos < n:     # a matched fault
        chain.append(ACCEPT_ALL)
    return True, chain


# ---------------------------------------------------------------------------
# Sequential lower bound
# ---------------------------------------------------------------------------

def sequential_histories(txns, locs, vals, ops):
    """All serial, crash-free, fault-free, abort-free histories at the given
    bounds: transactions run one at a time in ascending id order, each
    doing at most `ops` reads, writes or allocs, then committing, with
    every response right after its invocation.  The spec decides which of
    these record sequences are histories: the search extends a history by
    one invocation-response pair, reads returning a value of
    ``range(vals)`` and allocs a location of ``range(locs)``, only while
    ``advance_frontier`` keeps its frontier non-empty."""
    def call(t, op):
        return ("inv", t, op, None, None), ("res", t, op, None, None)

    def ops_of(t):
        pairs = []
        for l in range(locs):
            pairs += [(("inv", t, "read", l, None), ("res", t, "read", l, v))
                      for v in range(vals)]
            pairs += [(("inv", t, "write", l, v), ("res", t, "write", l, v))
                      for v in range(vals)]
            pairs.append((("inv", t, "alloc", None, None),
                          ("res", t, "alloc", l, None)))
        return pairs

    alphabet = [ops_of(t) for t in range(txns)]
    out = set()

    def take(frontier, prefix, recs):
        for rec in recs:
            frontier = advance_frontier(frontier, rec)
        return frontier, prefix + recs

    def begin(t, frontier, prefix):
        if t == txns:
            out.add(prefix)
        else:
            run(t, 0, *take(frontier, prefix, call(t, "begin")))

    def run(t, used, frontier, prefix):
        f, h = take(frontier, prefix, call(t, "commit"))
        if f:
            begin(t + 1, f, h)
        if used < ops:
            for recs in alphabet[t]:
                f, h = take(frontier, prefix, recs)
                if f:
                    run(t, used + 1, f, h)

    begin(0, initial_frontier(txns, locs), ())
    return out
