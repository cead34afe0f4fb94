"""Run the randomized naive-vs-por gate on a larger sample.

    python3 tools/por_gate.py [--seed N]

Draws EXAMPLES cells shaped like those of ``tests/test_por_gate.py``, but
with up to two transactions for every implementation (tier 1 gives two to
pmdk-seq only) and at most MAX_OPS ops per script, and asserts for each
that the --por history set equals the unreduced explorer's.  A cell whose
exploration would expand more than MAX_STATES states is reported as over
budget and not compared.  Prints the seed, one line per cell and, at the
first difference, hypothesis's smallest failing cell; exits 1 then, else
0.  The draw is hypothesis's for ``--seed`` (default DEFAULT_SEED), so two
runs with one seed check the same cells.  A two-transaction TML or NOrec
cell takes the unreduced explorer up to about 15 s and a few hundred MB
(two one-write tml/ptso transactions with a crash: 3.5M states, 330 MB);
cut at MAX_STATES, each cell here takes at most a few seconds.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "..",
                                                              "tests")]

from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pmtxcheck.explorer import BudgetExceeded  # noqa: E402
from pmtxcheck.pmem import MODELS  # noqa: E402
from pmtxcheck.stm import IMPLS  # noqa: E402
from test_por_gate import OPS, check_cell  # noqa: E402

EXAMPLES = 40
MAX_OPS = 1
MAX_STATES = 500_000
DEFAULT_SEED = 0


@st.composite
def cells(draw):
    """A cell as (impl, model, crashes, prealloc, scripts)."""
    impl = draw(st.sampled_from(IMPLS))
    model = draw(st.sampled_from(MODELS))
    crashes = draw(st.integers(0, 2))
    prealloc = draw(st.integers(0, 1))
    scripts = tuple(
        (tuple(draw(st.lists(st.sampled_from(OPS), max_size=MAX_OPS))),
         draw(st.integers(0, crashes)))
        for _ in range(draw(st.integers(1, 2))))
    return impl, model, crashes, prealloc, scripts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="hypothesis seed of the draw (default %(default)s)")
    args = ap.parse_args()
    print("seed %d" % args.seed, flush=True)
    counts = {"checked": 0, "over budget": 0}

    @seed(args.seed)
    @settings(max_examples=EXAMPLES, deadline=None, database=None)
    @given(cells())
    def gate(cell):
        t0 = time.monotonic()
        try:
            check_cell(cell, MAX_STATES)
            outcome = "checked"
        except BudgetExceeded:
            outcome = "over budget"
        counts[outcome] += 1
        print("%-11s %6.2f s  %r" % (outcome, time.monotonic() - t0, cell),
              flush=True)

    try:
        gate()
    except AssertionError as e:
        print("FAILED: %s" % (e,))
        return 1
    print("%(checked)d cells checked, %(over budget)d over budget" % counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
