"""Randomized naive-vs-por gate: on small scripted cells the reduced
explorer (--por) yields exactly the unreduced explorer's history set.

A cell is an implementation, a memory model, 0-2 crashes, a heap of one
location (preallocated or not) and, per transaction, a script: an op list
and the era (`era_min`) from which it may begin, at vals 1 and buf 1.  The
unreduced explorer is the reference semantics, so every reduction rule is
gated here on cells nobody picked by hand.  Two concurrent TML or NOrec
transactions take the unreduced explorer 1-40 s per cell, so tier 1 runs
them only for pmdk-seq, whose transactions run one after the other;
``tools/por_gate.py`` draws two transactions for every implementation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pmtxcheck.explorer import DEFAULT_MAX_STATES, Config, explore
from pmtxcheck.pmem import MODELS
from pmtxcheck.stm import IMPLS

OPS = (("read", 0), ("write", 0, 0), ("alloc",))


@st.composite
def cells(draw):
    """A cell as (impl, model, crashes, prealloc, scripts); only pmdk-seq
    gets two transactions."""
    impl = draw(st.sampled_from(IMPLS))
    model = draw(st.sampled_from(MODELS))
    crashes = draw(st.integers(0, 2))
    prealloc = draw(st.integers(0, 1))
    txns = draw(st.integers(1, 2 if impl == "pmdk-seq" else 1))
    scripts = tuple(
        (tuple(draw(st.lists(st.sampled_from(OPS), max_size=3))),
         draw(st.integers(0, crashes)))
        for _ in range(txns))
    return impl, model, crashes, prealloc, scripts


def history_set(cell, por, max_states):
    impl, model, crashes, prealloc, scripts = cell
    cfg = Config(impl, model, txns=len(scripts), locs=1, vals=1, buf=1,
                 max_crashes=crashes, ops=2, prealloc=prealloc,
                 scripts=scripts, por=por, max_states=max_states)
    return set(explore(cfg, check=False).histories())


def check_cell(cell, max_states=DEFAULT_MAX_STATES):
    """Assert the cell's --por history set is the unreduced one; either
    exploration raises BudgetExceeded past `max_states` states."""
    naive = history_set(cell, False, max_states)
    assert naive
    assert history_set(cell, True, max_states) == naive, cell


@settings(max_examples=400, deadline=None)
@given(cells())
def test_por_keeps_history_set(cell):
    check_cell(cell)
