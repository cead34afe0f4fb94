"""Bounded exhaustive exploration with crash injection and online checks.

The explorer enumerates every interleaving of client decisions, algorithm
line-steps, buffer propagation/persist steps and crash points, deduplicating
on an exact key of the full machine state plus the emitted history: its
memory, transaction slots and remaining fields are interned by value once
per exploration and the key packs their ids into one int (``state_keyer``).
Histories are interned in a trie so shared prefixes are checked once: an
incrementally maintained frontier of reference-spec states accompanies
every history prefix, and an empty frontier at an emit is a refinement
violation (the violating record prefix is the counterexample).

``check_upper`` is trace inclusion implementation <= spec; ``check_lower``
explores the implementation's serial schedules once, crash-free and with
allocation branching (the spec may allocate any free location), and
requires every sequential-spec history among their complete histories;
``run_intro_cases`` reproduces the three crash-placement outcomes for the
allocate-write-commit/read scenario; the mutation registry wires the
checker-sensitivity experiments.
"""

from __future__ import annotations

# unused: perfbench/tracer.py patches explorer.pickle and explorer.blake2b
import pickle  # noqa: F401
import time
from hashlib import blake2b  # noqa: F401

from . import refspec
from .engine import (CUT, M_CRASH, M_FLT, M_HIST, M_REC,
                     all_terminal, initial_machine, successors)
from .pmdk import MUTATIONS, Layout
from .pmem import MODELS, PMem
from .stm import IMPLS, build_programs

DEFAULT_MAX_STATES = 20_000_000


# width of every state-key field below the memory id (see state_keyer)
ID_BITS = 32
ID_LIMIT = 1 << ID_BITS


class BudgetExceeded(Exception):
    """The state budget ran out; `result` is the partial ExploreResult."""

    def __init__(self, msg, result):
        super().__init__(msg)
        self.result = result


class Config:
    """One explorer configuration; compiles the step programs eagerly."""

    def __init__(self, impl, model, txns=2, locs=2, vals=2, buf=2,
                 max_crashes=0, ops=2, retry_bound=1, branch_alloc=False,
                 por=False, mutations=(), scripts=None, prealloc=0,
                 max_states=DEFAULT_MAX_STATES):
        if impl not in IMPLS:
            raise ValueError("unknown implementation %r" % (impl,))
        if model not in MODELS:
            raise ValueError("unknown memory model %r" % (model,))
        for mut in mutations:
            if mut not in MUTATIONS:
                raise ValueError("unknown mutation %r" % (mut,))
        self.impl = impl
        self.model = model
        self.txns = txns
        self.locs = locs
        self.vals = vals
        self.buf = buf
        self.max_crashes = max_crashes
        self.ops = ops
        self.retry_bound = retry_bound
        self.branch_alloc = branch_alloc
        self.por = por
        self.mutations = frozenset(mutations)
        self.scripts = scripts
        self.prealloc = prealloc
        self.max_states = max_states
        self.serial = impl == "pmdk-seq"
        self.layout = Layout(locs, txns, prealloc)
        self.pmem = PMem(self.layout.ncells, txns, buf, model,
                         self.layout.initial_nvm())
        build_programs(self)

    def reduced(self, m):
        """Persist timing no longer observable: suppress free persist
        steps and drain on demand (only under --por).  No crash can follow,
        so the crash into this mode runs recovery to its end as one
        transition (`engine.successors`) and no explored reduced machine
        is mid-recovery."""
        return self.por and m[M_CRASH] >= self.max_crashes


class ExploreResult:
    def __init__(self):
        self.states = 0
        self.transitions = 0
        self.complete = set()      # hist ids of maximal traces
        self.cut = set()           # hist ids pruned at the retry bound
        self.violations = []       # record tuples (first failing prefix)
        self.seconds = 0.0
        self._entries = None       # intern table for reconstruction

    def history_records(self, hid):
        out = []
        while hid:
            parent, rec = self._entries[hid]
            out.append(rec)
            hid = parent
        out.reverse()
        return tuple(out)

    def histories(self):
        return sorted(self.history_records(h)
                      for h in self.complete | self.cut)

    @property
    def ok(self):
        return not self.violations


def _new_id(table, value):
    """Number `value` in `table`; ids wider than a key field would let two
    keys collide."""
    i = len(table)
    if i >= ID_LIMIT:
        raise OverflowError("more than 2**%d distinct state components"
                            % ID_BITS)
    table[value] = i
    return i


def state_keyer():
    """A key function for one exploration: ``key(m, tag)`` is an int that
    identifies machine `m` with its history field replaced by `tag`, a
    history or frontier id below ``ID_LIMIT``.

    The memory, each transaction slot and the rest (glb, free, rec,
    crashes, faulted) are interned by value, each kind in its own table
    numbering them in first-seen order.  The key is the memory's id above
    fixed ``ID_BITS``-wide fields for the rest's id, each slot's id and
    `tag`, so it is exact (machines get equal keys iff they are equal, for
    a fixed number of slots) and does not depend on which sub-tuples the
    machines share.  Only distinct components stay alive, not one tuple
    per state."""
    mems, slots, rests = {}, {}, {}

    def key(m, tag):
        mem, glb, free, txns, rec, crashes, _hist, faulted = m
        k = mems.get(mem)
        if k is None:
            k = mems[mem] = len(mems)
        rest = (glb, free, rec, crashes, faulted)
        i = rests.get(rest)
        if i is None:
            i = _new_id(rests, rest)
        k = k << ID_BITS | i
        for slot in txns:
            i = slots.get(slot)
            if i is None:
                i = _new_id(slots, slot)
            k = k << ID_BITS | i
        return k << ID_BITS | tag

    return key


def explore(cfg, check=True, stop_on_violation=False, dedup="history",
            state_hook=None):
    """Exhaustive DFS; returns an ExploreResult.  With check=True the
    reference-spec frontier runs online and refinement violations prune
    their branch.

    dedup="history" keys states on the full machine plus the emitted
    history (needed when the history *set* is the product, e.g. for the
    cross-checks); dedup="frontier" keys on the machine plus the spec
    frontier instead -- two states with equal machine and frontier have
    identical acceptance futures, so this is complete for violation
    finding and collapses the search the way a product automaton does.
    Either key is exact (``state_keyer``): a state is skipped only when an
    equal one was pushed before.

    When more than `cfg.max_states` states would be expanded, raises
    BudgetExceeded carrying the counts so far.
    """
    if dedup not in ("history", "frontier"):
        raise ValueError("dedup must be 'history' or 'frontier'")
    if dedup == "frontier" and not check:
        raise ValueError("frontier dedup requires checking")
    t0 = time.monotonic()
    res = ExploreResult()
    entries = [(0, None)]                 # hist id -> (parent, record)
    intern = {entries[0]: 0}              # (parent, record) -> hist id
    res._entries = entries
    frontiers = {0: refspec.initial_frontier(cfg.txns, cfg.locs,
                                             cfg.prealloc)
                 if check else None}
    fids = {frontiers[0]: 0}              # frontier -> dedup id

    by_frontier = dedup == "frontier"
    key = state_keyer()
    m0 = initial_machine(cfg)
    seen = {key(m0, 0)}
    stack = [m0]
    # crash outcomes per pre-crash memory and recovery outcomes per
    # post-crash memory (engine.successors).  One per call: callers reuse a
    # Config across calls, and a memo kept on it would make every call
    # after the first faster than a user's one run
    memo = {}
    push = stack.append

    while stack:
        m = stack.pop()
        if res.states >= cfg.max_states:
            res.seconds = time.monotonic() - t0
            raise BudgetExceeded("state budget exceeded (%d)"
                                 % cfg.max_states, res)
        res.states += 1
        if state_hook is not None:
            state_hook(cfg, m)
        if m[M_FLT] or (m[M_REC] is None and all_terminal(m)):
            res.complete.add(m[M_HIST])
            continue
        succs = successors(cfg, m, memo)
        if not succs:
            # maximal but not all-terminal: e.g. an allocation blocked on an
            # empty free list (a disabled step) stalls its transaction and
            # anything awaiting the lock behind it
            res.complete.add(m[M_HIST])
            continue
        for m2, rec, tag in succs:
            res.transitions += 1
            if tag == CUT:
                res.cut.add(m[M_HIST])
                continue
            hid = m[M_HIST]
            if rec is not None:
                hkey = (hid, rec)
                h2 = intern.get(hkey)
                if h2 is None:
                    # bounded as a state-key field (frontier ids are fewer)
                    h2 = _new_id(intern, hkey)
                    entries.append(hkey)
                    if check:
                        f2 = refspec.advance_frontier(frontiers[hid], rec)
                        frontiers[h2] = f2
                        if f2 not in fids:
                            fids[f2] = len(fids)
                        if f2 != refspec.ACCEPT_ALL and not f2:
                            res.violations.append(res.history_records(h2))
                            if stop_on_violation:
                                res.seconds = time.monotonic() - t0
                                return res
                if check:
                    f2 = frontiers[h2]
                    if f2 != refspec.ACCEPT_ALL and not f2:
                        continue  # prune: already-reported violation
                hid = h2
            k = key(m2, fids[frontiers[hid]] if by_frontier else hid)
            if k not in seen:
                seen.add(k)
                if m2[M_HIST] != hid:
                    m2 = m2[:M_HIST] + (hid,) + m2[M_HIST + 1:]
                push(m2)
    res.seconds = time.monotonic() - t0
    return res


# ---------------------------------------------------------------------------
# upper bound: implementation histories are spec traces
# ---------------------------------------------------------------------------

def check_upper(cfg, stop_on_violation=False, dedup="frontier"):
    return explore(cfg, check=True, stop_on_violation=stop_on_violation,
                   dedup=dedup)


# ---------------------------------------------------------------------------
# lower bound: every sequential-spec history is producible
# ---------------------------------------------------------------------------

class LowerResult:
    def __init__(self, total, unproducible, seconds):
        self.total = total
        self.unproducible = unproducible
        self.seconds = seconds

    @property
    def ok(self):
        return not self.unproducible


def check_lower(impl, model="psc", txns=2, locs=2, vals=2, buf=2, ops=2,
                retry_bound=1, mutations=(), max_states=DEFAULT_MAX_STATES):
    """Every sequential-spec history must be producible by `impl`."""
    t0 = time.monotonic()
    cfg = Config(impl, model, txns=txns, locs=locs, vals=vals, buf=buf,
                 max_crashes=0, ops=ops, retry_bound=retry_bound,
                 branch_alloc=True, por=True, mutations=mutations,
                 max_states=max_states)
    # serial schedules yield a subset of the implementation's histories, so
    # a history found among them is producible; and a sequential-spec
    # history needs nothing but a serial schedule
    cfg.serial = True
    res = explore(cfg, check=False)
    produced = {res.history_records(h) for h in res.complete}
    targets = sorted(refspec.sequential_histories(txns, locs, vals, ops))
    missing = [h for h in targets if h not in produced]
    return LowerResult(len(targets), missing, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# scenario and mutation drivers
# ---------------------------------------------------------------------------

def run_intro_cases(model="psc", impl="pmdk-seq", por=True):
    """Crash-placement outcomes for: T1 allocates x and writes 42, then
    commits; after the crash T2 reads x.  Classifies every crashed trace by
    where the crash fell relative to T1's commit and collects T2's outcome
    ("fault" or the value read)."""
    cfg = Config(impl, model, txns=2, locs=1, vals=43, buf=2, max_crashes=1,
                 ops=2, por=por,
                 scripts=(((("alloc",), ("write", 0, 42)), 0),
                          (((("read", 0)),), 1)))
    res = explore(cfg, check=True)
    buckets = {"before-commit": set(), "during-commit": set(),
               "after-commit": set(), "clean": set()}
    for hid in res.complete | res.cut:
        records = res.history_records(hid)
        crash_at = inv_begin = inv_commit = res_commit = None
        outcome = None
        for i, rec in enumerate(records):
            if rec == ("crash",):
                crash_at = i
            elif rec[:3] == ("inv", 0, "begin"):
                inv_begin = i
            elif rec[:3] == ("inv", 0, "commit"):
                inv_commit = i
            elif rec[:3] == ("res", 0, "commit"):
                res_commit = i
            elif rec[:3] == ("res", 1, "read"):
                outcome = rec[4]
            elif rec[:3] == ("fault", 1, "read"):
                outcome = "fault"
        if crash_at is None or outcome is None:
            continue
        if inv_begin is None or crash_at < inv_begin:
            buckets["clean"].add(outcome)
        elif inv_commit is None or crash_at < inv_commit:
            buckets["before-commit"].add(outcome)
        elif res_commit is not None and crash_at > res_commit:
            buckets["after-commit"].add(outcome)
        else:
            buckets["during-commit"].add(outcome)
    return buckets, res


def skip_validate_config(mutate=True, por=True):
    """Two transactions over a preallocated heap exposing the commit-loop
    validation: one snapshots location 0 then commits a write to location
    1, the other commits a write to location 0 in between."""
    muts = ("skip-validate",) if mutate else ()
    return Config("pmdk-norec", "psc", txns=2, locs=2, vals=2, buf=2,
                  max_crashes=0, ops=2, retry_bound=2, por=por,
                  mutations=muts, prealloc=2,
                  scripts=(((("read", 0), ("write", 1, 1)), 0),
                           ((("write", 0, 1),), 0)))


def mutation_check_config(name, impl="pmdk-seq", model="psc", por=True):
    """The criterion-1 style configuration on which `name` must produce a
    counterexample (skip-validate needs the scripted 3-txn scenario)."""
    if name == "skip-validate":
        return skip_validate_config(mutate=True, por=por)
    return Config(impl, model, txns=2, locs=2, vals=2, buf=2, max_crashes=1,
                  ops=2, por=por, mutations=(name,))
