"""Bounded exhaustive exploration with crash injection and online checks.

The explorer enumerates every interleaving of client decisions, algorithm
line-steps, buffer propagation/persist steps and crash points.  Under
--por each machine has a persist regime (``Config.regime``): ``POR``
while a crash that reads memory is left, and ``REDUCED``, with no persist
steps or persistence buffers, once none is: no crash is left, or every
crash left ends the run.  Machines
are keyed by interning memory, slots and the remaining fields by value
once per exploration and packing their ids into one int.  An
incrementally maintained frontier of reference-spec states accompanies
every history prefix, and an empty frontier at an emit is a refinement
violation (the violating record prefix is the counterexample).  No step
reads the history, so the DFS stack carries a node id beside the
machines.  History dedup walks each (machine set, frontier) pair once,
with the set of machines (``state_keyer``) that reach it, expanding each
machine once per call, and keeps the pairs as a DAG whose paths are the
histories (``ExploreResult``); frontier dedup interns its histories in a
trie and skips a state when the same machine up to a renaming of
transaction ids and its dead log cells was pushed with no more crashes
used and a subset of its frontier, renamed alike (``orbit_keyer``,
``explore``).

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
from array import array
from hashlib import blake2b  # noqa: F401
from hashlib import sha256
from itertools import compress, filterfalse
from operator import itemgetter

from . import engine, refspec
from .engine import (ABRT, COMM, CUT, DEAD, END, M_CRASH, M_REC, NS, RDY,
                     RUN, S_ST, ended, forced, fresh_slot, initial_machine,
                     successors)
from .pmdk import MUTATIONS, Layout
from .pmem import EXACT, MODELS, POR, REDUCED, PMem
from .stm import IMPLS, build_programs

DEFAULT_MAX_STATES = 20_000_000


# width of every state-key field below the memory id (see state_keyer)
ID_BITS = 32
ID_LIMIT = 1 << ID_BITS
# an orbit key's lowest field: the crashes used (see orbit_keyer)
CRASHES = ID_LIMIT - 1
# a thread's view in an orbit key: its status's rank in PROGRESS, then its
# slot id, then its memory part id
VIEW_BITS = 2 * ID_BITS + 2
# a slot status's rank in a view: ended transactions sort first, then
# running ones, then those yet to begin.  The ascending begin order tends
# to leave lower ids further along, so fewer machines need a permutation
# to sort their views
PROGRESS = {COMM: 0, ABRT: 0, DEAD: 0, RUN: 1, RDY: 1, NS: 2}
# the views of ended slots, rank 0, are those below this
ENDED_VIEWS = 1 << 2 * ID_BITS
# a history node's mark bits: its history is complete, or cut
COMPLETE, PRUNED = 1, 2
# node ids of history dedup's DAG: the root, the child of every violating
# edge (its frontier is empty) and of every edge after which no machine is
# left (each successor emitting its record is a leaf)
ROOT, BAD, LEAF = 0, 1, 2


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

    def regime(self, m):
        """The persist regime of `m` (``pmem`` docstring), which every
        memory operation, system step and crash of `m` takes: ``EXACT``
        without --por; under --por, ``REDUCED`` once no crash that reads
        memory is left: none is left, or `m` is outside recovery and every
        crash left ends the run (``engine.only_leaf_crashes``), a leaf
        whose one history is the history so far and a crash record.  Else
        ``POR``.  So no crash but such a leaf follows ``REDUCED``:
        recovery in it is one forced chain (``engine.forced``), no
        expanded ``REDUCED`` machine is mid-recovery, and one entered with
        buffered persists persists them first.  ``POR`` and ``REDUCED``
        give a machine the same crash-free histories: persist timing shows
        only in what a crash leaves.  The engine asks once per machine and
        passes the answer to its steps."""
        if not self.por:
            return EXACT
        if m[M_CRASH] >= self.max_crashes \
                or engine.only_leaf_crashes(self, m):
            return REDUCED
        return POR


class ExploreResult:
    """What one exploration found: ``states``, ``transitions``,
    ``violations`` (each the records of a violating history, whose last
    record no spec state takes), ``seconds``, and its histories as an
    acyclic automaton, never expanded into a trie.

    Under history dedup a node is a walked (machine set, frontier) pair
    (``explore``): its marks (``COMPLETE`` when one of its machines has no
    successor, ``PRUNED`` when one hit the retry bound) and its edges
    (record, ends the run?, child node), one per record its machines emit.
    The paths from ``ROOT`` spell the histories, one each, since a node's
    edges carry distinct records.  A path is a history when its last edge
    ends the run or its last node has a mark, and a violation when its last
    edge leads to ``BAD``; ``LEAF`` is a childless node for edges after
    which no machine is left.  Everything else is derived:

    * ``states`` and ``transitions`` are path sums, by dynamic programming
      bottom-up: each node's closure counted once per path to it, which is
      the number of (machine, history) states and of their successors;
    * ``histories()`` is a pre-order walk over each node's sorted edges,
      so its list comes out sorted, and ``history_count()`` a path count;
    * ``violations`` lists the paths to ``BAD``, the same way, entering
      only nodes with such a path below;
    * ``digest()`` hashes each node bottom-up over the sorted (record,
      history ends here?, child hash) of its edges that lead to a history,
      then the root with its own flag.  A node's hash is a function of the
      set of histories continuing through it, so equal history sets give
      equal digests without being listed (the minimal acyclic automaton;
      Revuz, TCS 1992; Daciuk, Mihov, Watson & Watson, CL 2000).
    """

    def __init__(self):
        self.states = 0
        self.transitions = 0
        self.violations = []
        self.seconds = 0.0
        self._marks = bytearray(3)  # ROOT, BAD and LEAF
        self._edges = [[], [], []]

    def _graph(self):
        """(marks, edges) by node id."""
        return self._marks, self._edges

    def histories(self, mask=COMPLETE | PRUNED):
        """The sorted histories with a mark in `mask`: the complete ones
        (``COMPLETE``; a run-ending edge's history is complete), the cut
        ones (``PRUNED``), or both."""
        marks, edges = self._graph()
        return _paths(edges, marks[ROOT] & mask,
                      lambda e: e[1] and mask & COMPLETE or marks[e[2]] & mask,
                      _counts(marks, edges))

    def history_count(self):
        return _counts(*self._graph())[ROOT]

    def digest(self):
        """sha256 hex digest of the history set (class docstring)."""
        marks, edges = self._graph()
        counts = _counts(marks, edges)
        hashes = _fold(edges, lambda v, hashes: sha256(repr(sorted(
            (rec, bool(end or marks[c]), hashes[c])
            for rec, end, c in edges[v] if end or counts[c])).encode())
            .digest())
        return sha256(repr((bool(marks[ROOT]), hashes[ROOT]))
                      .encode()).hexdigest()


class TrieResult(ExploreResult):
    """Frontier dedup's result (``explore``), whose histories are the kept
    representatives, interned in a trie by hist id (0: the empty
    history): its parent's id, its last record and its marks.
    ``complete`` and ``cut`` hold the ids of the complete and of the cut
    histories, and ``violations`` lists them as they were found.  The
    enumerators read the trie as a DAG whose every node has one parent."""

    def __init__(self):
        super().__init__()
        self.complete = set()
        self.cut = set()
        self._parents = array("q", [0])
        self._recs = [None]
        self._marks = bytearray(1)

    def _graph(self):
        parents, recs = self._parents, self._recs
        edges = [[] for _ in recs]
        for h in range(1, len(recs)):
            edges[parents[h]].append((recs[h], False, h))
        return self._marks, edges

    def history_records(self, hid):
        parents, recs = self._parents, self._recs
        out = []
        while hid:
            out.append(recs[hid])
            hid = parents[hid]
        out.reverse()
        return tuple(out)


def _fold(edges, value):
    """Per node reachable from ``ROOT``, `value(node, values)`, computed
    bottom-up: `values` holds the values of the node's children."""
    values = [None] * len(edges)
    seen = bytearray(len(edges))
    seen[ROOT] = 1
    stack = [(ROOT, iter(edges[ROOT]))]
    while stack:                          # a DFS; a node is done after
        v, it = stack[-1]                 # all its children
        for e in it:
            c = e[2]
            if not seen[c]:
                seen[c] = 1
                stack.append((c, iter(edges[c])))
                break
        else:
            stack.pop()
            values[v] = value(v, values)
    return values


def _path_sum(edges, own):
    """Per node, the sum of `own` over the paths from it: its own, plus
    its children's sums, a child counted once per edge into it."""
    return _fold(edges, lambda v, sums: own(v) + sum(
        sums[e[2]] for e in edges[v]))


def _counts(marks, edges):
    """Per node, the histories through it: its own, if marked, and the
    ones below."""
    return _path_sum(edges, lambda v: bool(marks[v]) + sum(
        1 for _rec, end, c in edges[v] if end and not marks[c]))


def _paths(edges, root, listed, live):
    """The records of each path from ``ROOT`` whose last edge e has
    `listed(e)`, after the empty path when `root`: a pre-order walk over
    each node's edges in sorted order, so the list is sorted, that enters
    only children with `live[child]`."""
    out = []
    stack = [((), root, ROOT)]
    descending = {}                       # node -> its edges, sorted down
    while stack:
        h, keep, v = stack.pop()
        if keep:
            out.append(h)
        es = descending.get(v)
        if es is None:
            es = descending[v] = sorted(edges[v], reverse=True)
        for e in es:
            keep = listed(e)
            if keep or live[e[2]]:
                stack.append((h + (e[0],), keep, e[2]))
    return out


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
    """A key function for one exploration under history dedup: ``key(m)``
    is an int that identifies machine `m`, and a history-trie node carries
    the frozenset of its machines' keys (``explore``).

    The memory, each transaction slot and the rest (glb, free, rec,
    crashes) are interned by value, each kind in its own table
    numbering them in first-seen order.  The key is the memory's id above
    fixed ``ID_BITS``-wide fields for the rest's id and each slot's id, so
    it is exact (machines get equal keys iff they are equal, for a fixed
    number of slots) and does not depend on which sub-tuples the machines
    share.  Only distinct components stay alive, not one tuple per state.
    Being exact, it also keys ``explore``'s memo of each machine's
    successors, and so of each machine set's closure."""
    mems, slots, rests = {}, {}, {}

    def key(m):
        mem, glb, free, txns, rec, crashes = m
        k = mems.get(mem)
        if k is None:
            k = mems[mem] = len(mems)
        rest = (glb, free, rec, crashes)
        i = rests.get(rest)
        if i is None:
            i = _new_id(rests, rest)
        k = k << ID_BITS | i
        for slot in txns:
            i = slots.get(slot)
            if i is None:
                i = _new_id(slots, slot)
            k = k << ID_BITS | i
        return k

    return key


def orbit_keyer(cfg, shared):
    """A key function for one exploration under frontier dedup:
    ``key(m, f)`` is ``(k, g)``, where the int `k` identifies machine `m`
    up to a renaming of transaction ids and `g` is spec frontier `f` of
    `m` renamed into the order in which `m`'s threads' views sort: spec
    transaction j of `g` is that of the thread at sorted position j
    (``refspec.rename_frontier``).  `g` is `f` itself when the views
    already sort as they are; the renamed ones are memoized per order and
    interned in `shared` (``explore``'s frontier table).

    Memory is split by owner: the shared cells (``Layout.shared_cells``)
    and, per thread t, t's own cells (``Layout.log_cells(t)``, in role
    order) with their persistence buffers and, under PTSO, t's store
    buffer, in which t's own cells are named by their role (``~role``).
    Each distinct memory is split once; its shared part and its thread
    parts are interned, all threads' parts in one table, so equal parts of
    two threads get one id.  A thread's view is its slot's id, ranked by
    the slot's status (``PROGRESS``), and its part's id, except that once
    `m` is ``REDUCED`` outside recovery an ended thread (status ``COMM``,
    ``ABRT`` or ``DEAD``) has its dead part instead, whose log cells are
    blank: under PSC one constant part, and under PTSO its store buffer
    with the values of the entries for its own cells (``~role``)
    dropped.  Dead parts are interned in the parts' table, in a shape of
    their own, each thread's next to its part when a memory is split.
    The key packs the shared part's id, the rest's (glb, free, rec) id,
    the views in ascending order and, in the lowest ``ID_BITS``, the
    crashes used; the sort is stable, so equal views keep ascending ids.
    While recovery runs (rec is not None) the views keep their order,
    since recovery visits ids in ascending order, and so they do whenever
    ``cfg.scripts`` is set, since a script gives each id its own program:
    the same key with the order fixed, and `f` as it is.  Equal keys mean
    machines equal, but for dead cells, up to the renamings that sort
    both, and so the same machine once renamed: `g` is the frontier of
    that one sorted machine (Ip & Dill, FMSD 1996: one canonical
    representative per orbit).

    Soundness, for violation finding:

    * Steps are thread-agnostic apart from each thread's own cells.  Every
      id runs the same step programs; run as thread t, a step touches the
      shared cells, t's own log cells, t's store buffer, glb, the free
      list and slots, reading other slots only by what they hold, and its
      records name t (``tests/test_steps.py`` checks that no step touches
      another thread's log cells).  So a renaming of ids maps the
      unreduced successors of a machine onto those of its renaming, with
      their records renamed.  The ascending begin order and the
      lowest-thread choice of forced steps are reductions of that
      relation that keep every history up to renaming.
    * ``refspec`` is equivariant: renaming a frontier and a record, then
      advancing, is advancing, then renaming, and the initial frontier is
      invariant (``tests/test_refspec.py``).  So a renamed machine with
      its renamed frontier reaches the renamed violations.
    * Ties between equal views are automorphisms: swapping two threads
      with equal views leaves the machine as it is, so either orientation
      of the frontier is one of the machine's; the stable sort picks one,
      which is sound and at worst misses a merge.
    * The antichain argument of ``explore`` carries over per orbit: one
      renaming is applied to both sides of a subset test, and a bijection
      keeps subsets, so a state skipped because an already pushed state
      has its key and a renamed frontier that is a subset of its own is a
      renaming of that state with a frontier that contains the renamed
      pushed one; each of its violations is, up to renaming, reachable no
      later from the pushed state.  So does ``explore``'s crashes-used
      order: the machines of one key with each count differ in the crash
      field alone, so their views sort alike.
    * Dead log cells (a dead-variable reduction; Bozga, Fernandez &
      Ghirvu, SAS 1999).  Outside recovery, ``REDUCED`` means no crash
      that reads memory is left (``Config.regime``), so no recovery step
      runs again; and it stays so, since crashes used only grow and slots
      only leave ``NS``.  An ended slot never steps again.  Only thread
      t's steps, and recovery of t, touch t's log cells
      (``tests/test_steps.py`` checks this), so nothing reads an ended
      thread's log cells again: the entries its store buffer holds for
      them reach them by forced propagations (``engine.forced``), which
      read the entries' cells, not their values.  So two machines that
      differ only in those cells have the same successors and histories,
      up to those cells, and the arguments above hold with "equal" read
      as "equal up to dead cells".  The pushed machine stays the real
      one.  Since no recovery step runs again, a mutation that changes
      what recovery would read cannot make these cells live.  `key` tests
      ``REDUCED`` inline, as --por, rec None, and no crash left or no
      slot yet to begin (none is the fresh slot, ``engine.fresh_slot``).

    The pushed machine is always the real one, so violations and
    counterexamples are real histories; symmetry only prunes."""
    lay = cfg.layout
    n = cfg.txns
    shared_of = itemgetter(*lay.shared_cells())
    owned = [lay.log_cells(t) for t in range(n)]
    parts_of = [itemgetter(*cells) for cells in owned]
    names = [{c: ~role for role, c in enumerate(cells)} for cells in owned]
    ptso = cfg.pmem.model == "ptso"
    identity = tuple(range(n))
    fixed = bool(cfg.scripts)
    por, last_crash, fresh = cfg.por, cfg.max_crashes, fresh_slot(cfg)
    mems, shareds, parts, slots, rests = {}, {}, {}, {}, {}
    renamed = {}                          # (order, f) -> f renamed by it
    # a dead part is a 1-tuple, a live one a triple: under PSC every dead
    # part is the blank one
    blank = _new_id(parts, (None,))

    def split(mem):
        """Each thread's part id of `mem`, then each thread's dead part
        id, then its shared part's id."""
        nvm, pbufs, sbufs = mem
        ids, deads = [], []
        for t in range(n):
            get = parts_of[t]
            sbuf = None
            dead = blank
            if ptso:
                name = names[t].get
                sbuf = tuple([(name(c, c), v) for c, v in sbufs[t]])
                if sbuf:
                    part = (tuple([(c, None) if c < 0 else (c, v)
                                   for c, v in sbuf]),)
                    i = parts.get(part)
                    dead = _new_id(parts, part) if i is None else i
            deads.append(dead)
            part = (get(nvm), get(pbufs), sbuf)
            i = parts.get(part)
            ids.append(_new_id(parts, part) if i is None else i)
        part = (shared_of(nvm), shared_of(pbufs))
        i = shareds.get(part)
        ids += deads
        ids.append(_new_id(shareds, part) if i is None else i)
        return tuple(ids)

    # the last memory and slots looked up, and their ids: the successors
    # of one state share most of them, object for object
    last_mem = last_ids = None
    last_slots, last_his = [None] * n, [0] * n

    def key(m, f):
        nonlocal last_mem, last_ids
        mem, glb, free, txns, rec, crashes = m
        if mem is last_mem:
            ids = last_ids
        else:
            ids = mems.get(mem)
            if ids is None:
                ids = mems[mem] = split(mem)
            last_mem, last_ids = mem, ids
        rest = (glb, free, rec)
        i = rests.get(rest)
        if i is None:
            i = _new_id(rests, rest)
        # REDUCED outside recovery: then ended threads' parts are dead
        dead = por and rec is None and (crashes >= last_crash
                                        or fresh not in txns)
        views = []
        t = 0
        for slot in txns:
            if slot is last_slots[t]:
                hi = last_his[t]
            else:
                j = slots.get(slot)
                if j is None:
                    j = _new_id(slots, slot)
                hi = (PROGRESS[slot[S_ST]] << ID_BITS | j) << ID_BITS
                last_slots[t], last_his[t] = slot, hi
            views.append(hi | ids[t + n if dead and hi < ENDED_VIEWS
                                  else t])
            t += 1
        k = ids[-1] << ID_BITS | i
        ordered = views if fixed or rec is not None else sorted(views)
        for v in ordered:
            k = k << VIEW_BITS | v
        k = k << ID_BITS | crashes
        if ordered == views:
            return k, f
        order = tuple(sorted(identity, key=views.__getitem__))
        g = renamed.get((order, f))
        if g is None:
            g = refspec.rename_frontier(f, order)
            g = renamed[order, f] = shared.setdefault(g, g)
        return k, g

    return key


def _covered(kept, f):
    """True when one of the frontiers `kept` (an antichain as
    ``_antichain_add`` stores it, or None: none) is a subset of `f`."""
    if kept is None:
        return False
    if type(kept) is not list:
        return kept <= f
    return any(map(f.issuperset, kept))


def _antichain_add(minimal, k, f):
    """Add spec frontier `f` to ``minimal[k]``, the pairwise incomparable
    frontiers pushed with machine key `k`, dropping those `f` is a strict
    subset of.  Returns False, leaving them as they are, when one of them
    is a subset of `f` (``_covered``).

    A frontier is a frozenset of spec states: no pushed one is
    ``refspec.ACCEPT_ALL``, since a fault ends the run.  A lone frontier
    is stored bare, not in a list: most machines have one, and a list each
    would add a tenth to peak memory."""
    kept = minimal.get(k)
    if kept is None:
        minimal[k] = f
    elif _covered(kept, f):
        return False
    elif type(kept) is not list:
        minimal[k] = f if f <= kept else [kept, f]
    else:
        if any(map(f.issubset, kept)):
            kept[:] = filterfalse(f.issubset, kept)
        if kept:
            kept.append(f)
        else:
            minimal[k] = f
    return True


def explore(cfg, check=True, stop_on_violation=False, dedup="history",
            state_hook=None):
    """Exhaustive DFS; returns an ExploreResult.  With check=True the
    reference-spec frontier runs online and refinement violations prune
    their branch.

    No step reads the history, so the stack carries a node of the history
    DAG or trie, and its frontier, beside the machines.  A successor's
    chain of forced steps (``engine.forced``), which emit nothing, runs
    when the successor is made; only its end is keyed.  ``states`` counts
    expanded (machine, history) states, all chain ends, and
    ``transitions`` their successors.  A successor whose target is a leaf
    tag (``engine`` docstring) leaves no machine: an ``END`` one, a fault
    or a run-ending crash, completes its history unless it violates, and a
    ``CUT`` one marks its parent's history cut.  ``state_hook(cfg, m,
    node)``, when given, sees each expanded machine and its node's id,
    then its successors' chains but their ends, with the same id.

    dedup="history" keeps every state (needed when the history *set* is
    the product, e.g. for the cross-checks) and walks the pairs of a
    machine set and a frontier, not the states: the subset construction
    (Rabin & Scott, 1959), on the fly.  A stack entry is an edge into a
    node: the node's frontier and the frozenset of machines (numbered by
    ``state_keyer``'s exact key) that reach it.  A popped node closes its
    set under silent successors, whose machines are its states, and groups
    the emitting successors by record into its children's sets.  It is
    complete when one of its machines has no successor: ended, or stalled
    (e.g. an allocation blocked on an empty free list stalls its
    transaction and anything awaiting the lock behind it).  Successors
    depend on the machine alone, so each machine is expanded once per
    call, when the hook sees it with the first node whose closure holds
    it, and each distinct set is closed once.  A node's subtree depends
    only on its pair, so each pair is one node of the result's DAG
    (``ExploreResult``), walked when first popped; a later edge into it
    links the walked node.  ``states`` and ``transitions`` are the DAG's
    path sums, the counts of the trie it stands for, and ``violations``
    its paths into ``BAD``.  ``cfg.max_states`` bounds the states the walk
    expands, each pair's closure once: a path-summed budget would count
    every repeated subtree again.  Under stop_on_violation the walk ends
    at the first violation; the edges still on the stack are dropped, so
    the result is the part walked.

    dedup="frontier" pops one state at a time.  ``orbit_keyer`` keys each
    machine up to a renaming of transaction ids, with its crashes used,
    and renames its frontier as the key's sorted machine, so every
    frontier of one key is in one thread order.  Per key it keeps the
    subset-minimal frontiers pushed so far (an antichain; De Wulf, Doyen,
    Henzinger & Raskin, CAV 2006) and skips a state (m, c, F) when some
    (m, c0, G) with c0 <= c and G a subset of F was pushed, both renamed
    alike: a bijection keeps subsets, so which order the frontiers share
    does not change a skip.  Both are monotone, as in well-structured
    transition systems (Finkel & Schnoebelen, TCS 2001): the frontier in
    its set of spec states, and the crashes used since a crash is optional
    (the two --por regimes give a machine the same crash-free histories);
    a script's ``era_min`` is not monotone, so when one is above 0 only
    equal counts compare.  So every violation reachable from (m, c, F) is
    reachable, with no more records, from an already pushed (m, c0, G):
    with ``orbit_keyer``'s argument this is complete for violation
    finding, and the histories it keeps, in a ``TrieResult``, are
    representatives of minimal (c, F) pairs up to txid renaming, plus
    every history that a fault or a run-ending crash ends.  Frontiers hold
    spec states in canonical form (``refspec.canonical``), which drops
    what no spec step reads: a state and its form accept the same
    continuations, and the map commutes with renaming and keeps subsets,
    so both arguments above hold and every verdict stays, while histories
    with equal futures get equal frontiers and merge (violation lists can
    only shrink).  Under history dedup the form changes no history set,
    violation list or count; it only lets more histories share a node.
    Likewise the key leaves out an ended thread's log cells once its
    machine is ``REDUCED`` outside recovery: no recovery runs again, so
    no step reads them (``orbit_keyer``), and machines that differ only
    there merge.

    When more than `cfg.max_states` states would be expanded, raises
    BudgetExceeded carrying the result so far, whose counts are the
    states and transitions expanded.
    """
    if dedup not in ("history", "frontier"):
        raise ValueError("dedup must be 'history' or 'frontier'")
    if dedup == "frontier" and not check:
        raise ValueError("frontier dedup requires checking")
    t0 = time.monotonic()

    def expand(m, node):
        """`m`'s successors as (target, rec), a machine target replaced by
        its chain's end; () if `m` ended outside recovery."""
        if state_hook is not None:
            state_hook(cfg, m, node)
        if m[M_REC] is None and ended(m):
            return ()
        out = []
        for m2, rec in successors(cfg, m):
            if type(m2) is tuple:         # a machine, not a leaf tag
                m3 = forced(cfg, m2)
                while m3 is not None:
                    if state_hook is not None:
                        state_hook(cfg, m2, node)
                    m2, m3 = m3, forced(cfg, m3)
            out.append((m2, rec))
        return out

    f0 = refspec.initial_frontier(cfg.txns, cfg.locs, cfg.prealloc) \
        if check else None
    walk = _walk_states if dedup == "frontier" else _walk_pairs
    res = TrieResult() if dedup == "frontier" else ExploreResult()
    try:
        walk(cfg, res, f0, expand, stop_on_violation)
    finally:
        res.seconds = time.monotonic() - t0
    return res


def _over_budget(cfg, res):
    return BudgetExceeded("state budget exceeded (%d)" % cfg.max_states, res)


def _walk_states(cfg, res, f0, expand, stop_on_violation):
    """Frontier dedup's walk (``explore``), into the trie of `res`."""
    parents, recs, marks = res._parents, res._recs, res._marks
    shared = {}                           # frontier -> its one copy
    key = orbit_keyer(cfg, shared)
    # orbit key -> the minimal frontiers pushed with it, each renamed as
    # its key's sorted machine
    minimal = {}
    # fewer crashes used cover more only where no script waits for an era
    monotone = cfg.max_crashes and not (
        cfg.scripts and any(era for _ops, era in cfg.scripts))

    def new(m, f):
        """Was the state (machine m, frontier f) new?"""
        k, f = key(m, f)
        c = monotone and k & CRASHES
        # the same machine pushed with fewer crashes used
        for k0 in range(k - c, k):
            if _covered(minimal.get(k0), f):
                return False
        return _antichain_add(minimal, k, f)

    def child(hid, rec, f):
        """A new history, `hid`'s extended by `rec`, where `hid` has
        frontier `f`: its id and frontier, or () when that frontier is
        empty, a violation."""
        h2 = len(recs)
        parents.append(hid)
        recs.append(rec)
        marks.append(0)
        f2 = refspec.advance_frontier(f, rec)
        if not f2:
            res.violations.append(res.history_records(h2))
            return ()
        return h2, shared.setdefault(f2, f2)

    m0 = initial_machine(cfg)             # it has no forced step
    intern = {}                           # (parent, record) -> child(...)
    new(m0, f0)
    stack = [(m0, 0, f0)]                 # (machine, history id, frontier)
    push = stack.append
    # the counts live in locals while the loop runs, and reach `res` on
    # every way out of it
    states = transitions = 0
    try:
        while stack:
            m, hid, f = stack.pop()
            if states >= cfg.max_states:
                raise _over_budget(cfg, res)
            states += 1
            succs = expand(m, hid)
            if not succs:
                marks[hid] |= COMPLETE
            for m2, rec in succs:
                transitions += 1
                if m2 is CUT:
                    marks[hid] |= PRUNED
                    continue
                h2, f2 = hid, f
                if rec is not None:
                    hkey = (hid, rec)
                    got = intern.get(hkey)
                    if got is None:
                        got = intern[hkey] = child(hid, rec, f)
                    if not got:
                        if stop_on_violation:
                            return
                        continue
                    h2, f2 = got
                if m2 is END:
                    marks[h2] |= COMPLETE
                elif new(m2, f2):
                    push((m2, h2, f2))
    finally:
        res.states, res.transitions = states, transitions
        ids = range(len(marks))
        res.complete = set(compress(ids, map(COMPLETE.__and__, marks)))
        res.cut = set(compress(ids, map(PRUNED.__and__, marks)))


def _walk_pairs(cfg, res, f0, expand, stop_on_violation):
    """History dedup's walk (``explore``), into the DAG of `res`."""
    key = state_keyer()
    ids = {}                              # machine key -> its number
    # number -> the machine (None once expanded), and -> its `expand` with
    # machines numbered (None until then)
    machines, succ_of = [], []

    def number(m):
        k = key(m)
        i = ids.get(k)
        if i is None:
            i = ids[k] = len(machines)
            machines.append(m)
            succ_of.append(None)
        return i

    def close(ms, node):
        """Closure size and successor count, marks (COMPLETE or PRUNED)
        and children as (rec, ends the run?, machine set) of the node with
        machine set `ms`, then its closure in expansion order."""
        reach, inside = list(ms), set(ms)
        trans = 0
        stalled = cut = False
        kids = {}
        for i in reach:                   # grows as the closure does
            out = succ_of[i]
            if out is None:
                out = succ_of[i] = tuple(         # leaf tags are strings
                    (m2 if type(m2) is str else number(m2), rec)
                    for m2, rec in expand(machines[i], node))
                machines[i] = None
            trans += len(out)
            stalled = stalled or not out
            for j, rec in out:
                if j is CUT:
                    cut = True
                elif rec is not None:
                    kids.setdefault(rec, set()).add(j)
                elif j not in inside:
                    inside.add(j)
                    reach.append(j)
        return (len(reach), trans, stalled * COMPLETE | cut * PRUNED,
                tuple((rec, END in js, frozenset(js - {END}))
                      for rec, js in kids.items()), reach)

    marks, edges = res._marks, res._edges
    closed = {}                           # machine set -> close(...)[:4]
    nodes = {}                            # (machine set, frontier) -> node
    # node -> its closure's (states, transitions), None until walked
    size = [None, (0, 0), (0, 0)]
    shared = {}                           # frontier -> its one copy
    # (parent, edge into the node, its frontier, its machine set)
    stack = [(None, (None, False, ROOT), f0,
              frozenset((number(initial_machine(cfg)),)))]
    push = stack.append
    states = transitions = 0              # expanded so far
    try:
        while stack:
            _src, e, f, ms = stack.pop()
            v = e[2]
            if size[v] is not None:       # walked from an earlier edge
                continue
            node = closed.get(ms)
            if node is None:
                node = closed[ms] = close(ms, v)[:4]
            n, trans, mark, kids = node
            if states + n > cfg.max_states:
                # count the closure's states one by one up to the budget
                for i in close(ms, v)[4]:
                    if states >= cfg.max_states:
                        res.states, res.transitions = states, transitions
                        _drop_pending(edges, stack)
                        raise _over_budget(cfg, res)
                    states += 1
                    transitions += len(succ_of[i])
            states += n
            transitions += trans
            size[v] = n, trans
            marks[v] = mark
            out = edges[v]
            for rec, end, ms2 in kids:
                f2 = None
                if f is not None:
                    f2 = refspec.advance_frontier(f, rec)
                    if not f2:
                        out.append((rec, False, BAD))
                        if stop_on_violation:
                            _drop_pending(edges, stack)
                            break
                        continue
                    f2 = shared.setdefault(f2, f2)
                if not ms2:
                    out.append((rec, True, LEAF))
                    continue
                c = nodes.get((ms2, f2))
                if c is None:
                    c = nodes[ms2, f2] = len(edges)
                    edges.append([])
                    marks.append(0)
                    size.append(None)
                e2 = (rec, end, c)
                out.append(e2)
                push((v, e2, f2, ms2))
    finally:
        if f0 is not None:
            res.violations = _paths(edges, False, lambda e: e[2] == BAD,
                                    _path_sum(edges, lambda v: v == BAD))
    res.states = _path_sum(edges, lambda v: size[v][0])[ROOT]
    res.transitions = _path_sum(edges, lambda v: size[v][1])[ROOT]


def _drop_pending(edges, stack):
    """End a walk early, keeping the part walked: the edges on the stack
    go."""
    while stack:
        src, e = stack.pop()[:2]
        edges[src].remove(e)


# ---------------------------------------------------------------------------
# upper bound: implementation histories are spec traces
# ---------------------------------------------------------------------------

def check_upper(cfg, stop_on_violation=False, dedup="frontier"):
    """Trace inclusion: every history of `cfg`'s implementation is a trace
    of the spec.  Under the default frontier dedup the histories are
    representatives of the minimal (crashes used, frontier) pairs per
    machine up to txid renaming, plus every history that a fault or a
    run-ending crash ends (``explore``); the violations are real
    histories."""
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
    """Every serial, crash-free, abort-free history the spec accepts
    (``refspec.sequential_histories``, found with the spec's own frontier)
    must be producible by `impl`."""
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
    produced = set(res.histories(COMPLETE))
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
    for records in res.histories():
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


# ROADMAP item 10's scripted three-transaction cell, whose oracles
# disagree: T0 writes location 1 twice; T1 and T2 each allocate, then read it
ORACLE_RACE = (((("write", 1, 1), ("write", 1, 1)), 0),
               ((("alloc",), ("read", 1)), 0),
               ((("alloc",), ("read", 1)), 0))


def mutation_check_config(name, impl="pmdk-seq", model="psc", por=True):
    """The criterion-1 style configuration on which `name` must produce a
    counterexample.  skip-validate needs its scripted cell
    (``skip_validate_config``), which ignores `impl` and `model`."""
    if name == "skip-validate":
        return skip_validate_config(mutate=True, por=por)
    return Config(impl, model, txns=2, locs=2, vals=2, buf=2, max_crashes=1,
                  ops=2, por=por, mutations=(name,))
