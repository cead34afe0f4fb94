"""Randomized gates on small scripted cells: the reduced explorer (--por)
yields exactly the unreduced explorer's history set, and frontier dedup
(``check_upper``) gives history dedup's verdict.

A cell is an implementation, a memory model, 0-2 crashes, a heap of one
location (preallocated or not) and, per transaction, a script: an op list
and the era (`era_min`) from which it may begin, at vals 1 and buf 1.  The
unreduced explorer is the reference semantics, so every reduction rule is
gated here on cells nobody picked by hand.  Two concurrent TML or NOrec
transactions take the unreduced explorer up to about 15 s per cell, so
tier 1 runs them only for pmdk-seq, whose transactions run one after the
other; ``tools/por_gate.py`` draws two transactions for every
implementation.  Each drawn PSC cell is also explored under PTSO, whose
history set must contain it.

The verdict gate runs both dedups under --por on cells of the same shape,
about half of them pmdk-seq pairs that write, may crash, then read.  It
draws an optional mutation per cell, and its writes store 1, not the
initial 0, so a lost or misordered persist can show.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmtxcheck.explorer import (DEFAULT_MAX_STATES, Config, check_upper,
                                explore)
from pmtxcheck.pmdk import MUTATIONS
from pmtxcheck.pmem import MODELS
from pmtxcheck.stm import IMPLS

OPS = (("read", 0), ("write", 0, 0), ("alloc",))
VERDICT_OPS = (("read", 0), ("write", 0, 1), ("alloc",))


@st.composite
def cells(draw, ops=OPS):
    """A cell as (impl, model, crashes, prealloc, scripts) of `ops`; only
    pmdk-seq gets two transactions."""
    impl = draw(st.sampled_from(IMPLS))
    model = draw(st.sampled_from(MODELS))
    crashes = draw(st.integers(0, 2))
    prealloc = draw(st.integers(0, 1))
    txns = draw(st.integers(1, 2 if impl == "pmdk-seq" else 1))
    scripts = tuple(
        (tuple(draw(st.lists(st.sampled_from(ops), max_size=3))),
         draw(st.integers(0, crashes)))
        for _ in range(txns))
    return impl, model, crashes, prealloc, scripts


@st.composite
def write_crash_read(draw):
    """A pmdk-seq pair in which T0 writes 1 to location 0, allocating it
    first unless it is preallocated, and T1 reads it, with one or two
    crashes that may fall in between: a lost or misordered persist shows
    in what T1 reads.  Each script may end with one more op."""
    model = draw(st.sampled_from(MODELS))
    crashes = draw(st.integers(1, 2))
    prealloc = draw(st.integers(0, 1))
    more = st.lists(st.sampled_from(VERDICT_OPS), max_size=1).map(tuple)
    writer = ((() if prealloc else (("alloc",),)) + (("write", 0, 1),)
              + draw(more))
    reader = (("read", 0),) + draw(more)
    return ("pmdk-seq", model, crashes, prealloc,
            ((writer, 0), (reader, draw(st.integers(0, crashes)))))


@st.composite
def verdict_cells(draw):
    """A cell of VERDICT_OPS, in about half the draws a write-crash-read
    pair, and a mutation or None.  In about half the draws every era_min
    is 0, so frontier dedup lets a state with fewer crashes used cover one
    with more."""
    impl, model, crashes, prealloc, scripts = draw(
        st.one_of(cells(VERDICT_OPS), write_crash_read()))
    if draw(st.booleans()):
        scripts = tuple((ops, 0) for ops, _era in scripts)
    return ((impl, model, crashes, prealloc, scripts),
            draw(st.sampled_from((None,) + MUTATIONS)))


def explored(cell, por, max_states):
    impl, model, crashes, prealloc, scripts = cell
    cfg = Config(impl, model, txns=len(scripts), locs=1, vals=1, buf=1,
                 max_crashes=crashes, ops=2, prealloc=prealloc,
                 scripts=scripts, por=por, max_states=max_states)
    return explore(cfg, check=False)


def check_cell(cell, max_states=DEFAULT_MAX_STATES):
    """Assert the cell's --por history set, and its digest, are the
    unreduced ones, and return the set; either exploration raises
    BudgetExceeded past `max_states` states."""
    naive = explored(cell, False, max_states)
    reduced = explored(cell, True, max_states)
    hs = naive.histories()
    assert hs
    assert reduced.histories() == hs, cell
    assert reduced.digest() == naive.digest(), cell
    return set(hs)


@settings(max_examples=400, deadline=None)
@given(cells())
def test_por_keeps_history_set(cell):
    reduced = check_cell(cell)
    impl, model, *rest = cell
    if model == "psc":
        # every PSC history is a PTSO one: a PTSO run that propagates each
        # store at once is a PSC run (ROADMAP item 13)
        ptso = explored((impl, "ptso", *rest), True, DEFAULT_MAX_STATES)
        assert reduced <= set(ptso.histories()), cell


# few draws reach a violation, so each mutation a 1-location cell shows
# has one here, with no era_min: T0 writes and, after a crash, T1 reads
ALLOC_WRITE_READ = (((("alloc",), ("write", 0, 1)), 0), ((("read", 0),), 0))
WRITE_READ = (((("write", 0, 1),), 0), ((("read", 0),), 0))


@settings(max_examples=500, deadline=None)
@example((("pmdk-seq", "ptso", 2, 0, ALLOC_WRITE_READ), "skip-flush-commit5"))
@example((("pmdk-seq", "psc", 1, 0, ALLOC_WRITE_READ), "reorder-commit"))
@example((("pmdk-seq", "psc", 2, 1, WRITE_READ), "skip-undo-flush"))
@example((("pmdk-seq", "ptso", 1, 1, WRITE_READ), "no-recovery-rollback"))
@given(verdict_cells())
def test_frontier_dedup_keeps_verdict(drawn):
    (impl, model, crashes, prealloc, scripts), mutation = drawn
    cfg = Config(impl, model, txns=len(scripts), locs=1, vals=2, buf=1,
                 max_crashes=crashes, ops=2, prealloc=prealloc,
                 scripts=scripts, por=True,
                 mutations=(mutation,) if mutation else ())
    found = set(check_upper(cfg).violations)
    every = set(explore(cfg, dedup="history").violations)
    assert bool(found) == bool(every), drawn
    assert found <= every, drawn
