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

``advance_frontier`` steps the set of spec states a history may reach, the
explorer's online form; ``accepts_history`` decides one recorded history by
a depth-first search for one accepting run, which opens a frame only where
it can branch and takes a node's commit steps only on backtrack.
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


def _valid_ns(tx, mems):
    return [n for n in range(tx[1], len(mems)) if valid_idx(n, tx, mems)]


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


def closure(states):
    """All states reachable through internal commit steps."""
    seen = set(states)
    work = list(states)
    while work:
        st = work.pop()
        for st2 in eps_successors(st):
            if st2 not in seen:
                seen.add(st2)
                work.append(st2)
    return seen


def match_record(st, rec):
    """States reachable by taking the external action `rec` from `st`."""
    kind = rec[0]
    if kind == "crash":
        return [crash_step(st)]
    mems, txs = st
    txid, op = rec[1], rec[2]
    loc, val = rec[3], rec[4]
    tx = txs[txid]
    pc, bidx, rset, wset, am = tx
    out = []
    if kind == "inv":
        if op == "begin":
            if pc == NS:
                out.append((mems, _repl(txs, txid,
                                        (BPEND, len(mems) - 1, rset, wset,
                                         am))))
        elif pc == RDY:
            if op == "read":
                npc = ("d", "read", loc)
            elif op == "write":
                npc = ("d", "write", loc, val)
            elif op == "alloc":
                npc = ("d", "alloc")
            elif op == "commit":
                npc = ("d", "commit")
            else:
                return []
            out.append((mems, _repl(txs, txid, (npc, bidx, rset, wset, am))))
        return out

    # responses
    if op == "abort":
        # an operation in flight may abort; no begin response is an abort
        if pc not in (NS, RDY, BPEND, COMMITTED, ABORTED, PI):
            out.append((mems, _repl(txs, txid,
                                    (ABORTED, bidx, rset, wset, am))))
        return out
    if op == "begin":
        if pc == BPEND:
            out.append((mems, _repl(txs, txid, (RDY, bidx, rset, wset, am))))
        return out
    if op == "commit":
        if pc == PI:
            out.append((mems, _repl(txs, txid,
                                    (COMMITTED, bidx, rset, wset, am))))
        return out
    if op == "alloc":
        if pc == ("d", "alloc") and not (am >> loc) & 1:
            out.append((mems, _repl(txs, txid,
                                    (RDY, bidx, rset, wset, am | (1 << loc)))))
        return out
    if op == "read":
        if pc != ("d", "read", loc):
            return out
        if wset[loc] != BOT:
            if wset[loc] == val:
                out.append((mems, _repl(txs, txid,
                                        (RDY, bidx, rset, wset, am))))
        elif (am >> loc) & 1:
            if val == 0:
                out.append((mems, _repl(txs, txid,
                                        (RDY, bidx, rset, wset, am))))
        else:
            for n in _valid_ns(tx, mems):
                if mems[n][loc] == val and val != BOT:
                    out.append((mems, _repl(txs, txid,
                                            (RDY, bidx,
                                             _repl(rset, loc, val), wset,
                                             am))))
                    break
        return out
    if op == "write":
        if pc == ("d", "write", loc, val):
            if (am >> loc) & 1 or mems[-1][loc] != BOT:
                out.append((mems, _repl(txs, txid,
                                        (RDY, bidx, rset,
                                         _repl(wset, loc, val), am))))
        return out
    return out


def fault_possible(st, txid, op, loc):
    """Whether a fault transition is enabled for txid's in-flight op."""
    mems, txs = st
    tx = txs[txid]
    pc = tx[0]
    am = tx[4]
    if op == "read":
        if pc != ("d", "read", loc):
            return False
        if (am >> loc) & 1 or tx[3][loc] != BOT:
            return False
        return any(mems[n][loc] == BOT for n in _valid_ns(tx, mems))
    if op == "write":
        if pc[:3] != ("d", "write", loc):
            return False
        return not (am >> loc) & 1 and mems[-1][loc] == BOT
    return False


# ---------------------------------------------------------------------------
# Frontier-based membership
# ---------------------------------------------------------------------------

ACCEPT_ALL = "accept-all"  # frontier sentinel once a fault was matched


def initial_frontier(txns, locs, prealloc=0):
    return frozenset(closure({initial_state(txns, locs, prealloc)}))


def rename_frontier(frontier, perm):
    """`frontier` with its transactions renamed: transaction u of each
    spec state is transaction perm[u] of the original.  ACCEPT_ALL names
    no transaction.  Advancing commutes with renaming (the spec treats
    every transaction id alike), which frontier dedup's symmetry relies
    on (``explorer.orbit_keyer``)."""
    if frontier == ACCEPT_ALL:
        return frontier
    return frozenset([(mems, tuple([txs[t] for t in perm]))
                      for mems, txs in frontier])


def advance_frontier(frontier, rec):
    """Step the set of spec states by one external record; empty result
    means the history is not a trace of the specification."""
    if frontier == ACCEPT_ALL:
        return ACCEPT_ALL
    if rec[0] == "fault":
        txid, op, loc = rec[1], rec[2], rec[3]
        if any(fault_possible(st, txid, op, loc) for st in frontier):
            return ACCEPT_ALL
        return frozenset()
    nxt = set()
    for st in frontier:
        nxt.update(match_record(st, rec))
    return frozenset(closure(nxt))


def accepts_history(records, txns, locs, witness=False, prealloc=0):
    """Membership of an inv/res/crash/fault record sequence: one iterative
    depth-first search for an accepting run over (position, spec state)
    nodes, record matches before commit steps, failed nodes kept in a dead
    set for the call; a record naming a transaction or location out of
    range matches nothing.  A frame is opened only for a node with a record
    match left or whose commit steps, taken on backtrack, are being tried.
    With witness=True also returns, on acceptance, the run's state after
    each consumed record (a trailing ACCEPT_ALL marks a matched fault),
    else None.
    """
    records = tuple(records)
    n = len(records)
    # no spec step matches a record naming a transaction or a location out
    # of range: the search stops at the first one
    stop = n
    for i, rec in enumerate(records):
        if rec[0] != "crash" and not (0 <= rec[1] < txns and (
                rec[3] is None or 0 <= rec[3] < locs)):
            stop = i
            break
    # path: the nodes from the root to `node`, `node` included; frames:
    # (length of the path to it, its children left, whether they are its
    # commit steps) of the nodes on the path that can still branch
    dead, path, frames = set(), [], []
    node = (0, initial_state(txns, locs, prealloc))
    while True:
        pos, st = node
        path.append(node)
        if pos == stop:
            if stop == n:
                break
        elif records[pos][0] == "fault":
            if fault_possible(st, *records[pos][1:]):
                break
        else:
            sts = match_record(st, records[pos])
            if len(sts) == 1:
                node = (pos + 1, sts[0])
                if not dead or node not in dead:
                    continue
            elif sts:
                frames.append((len(path),
                               iter([(pos + 1, s) for s in sts]), False))
        while True:     # backtrack to the deepest node with a child left
            tried = False
            if frames and frames[-1][0] == len(path):
                node = next(frames[-1][1], None)
                if node is not None:
                    if not dead or node not in dead:
                        break
                    continue
                tried = frames.pop()[2]
            pos, st = path[-1]
            if tried or pos == stop:
                dead.add(path.pop())
                if not path:
                    return (False, None) if witness else False
            else:       # its record matches failed: take its commit steps
                frames.append((len(path),
                               iter([(pos, s) for s in eps_successors(st)]),
                               True))
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
