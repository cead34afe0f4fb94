"""Explorer: dedup modes, reductions, mutations, state-count pins and the
lower-bound check over serial schedules."""

import pytest

from pmtxcheck import cli
from pmtxcheck.explorer import (BudgetExceeded, Config, check_lower,
                                check_upper, explore, mutation_check_config,
                                run_intro_cases, skip_validate_config)
from pmtxcheck.pmdk import MUTATIONS
from pmtxcheck.refspec import sequential_histories


def hist_set(cfg, **kw):
    r = explore(cfg, **kw)
    return {tuple(r.history_records(h)) for h in r.complete | r.cut}, r


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        Config("pmdk-foo", "psc")
    with pytest.raises(ValueError):
        Config("pmdk-seq", "tso")
    with pytest.raises(ValueError):
        Config("pmdk-seq", "psc", mutations=("drop-everything",))
    with pytest.raises(ValueError):
        explore(Config("pmdk-seq", "psc", txns=1, locs=1, vals=1),
                dedup="magic")


def test_budget_exceeded():
    cfg = Config("pmdk-seq", "psc", txns=2, locs=2, vals=2, max_crashes=1,
                 por=True, max_states=100)
    with pytest.raises(BudgetExceeded):
        explore(cfg)


def test_exploration_deterministic():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=2, vals=2, buf=2,
                 max_crashes=1, ops=2, por=True)
    a, ra = hist_set(cfg)
    b, rb = hist_set(Config("pmdk-seq", "psc", txns=1, locs=2, vals=2,
                            buf=2, max_crashes=1, ops=2, por=True))
    assert a == b
    assert ra.states == rb.states


@pytest.mark.parametrize("impl,model,crashes", [
    ("pmdk-seq", "psc", 1),
    ("pmdk-seq", "ptso", 1),
])
def test_reductions_preserve_history_sets(impl, model, crashes):
    base = dict(txns=1, locs=2, vals=2, buf=2, max_crashes=crashes, ops=2)
    naive, _ = hist_set(Config(impl, model, por=False, **base), check=False)
    reduced, _ = hist_set(Config(impl, model, por=True, **base), check=False)
    assert naive == reduced


def test_reductions_preserve_history_sets_concurrent():
    # a writer racing a commit-only transaction exercises the forced
    # private-cell scheduling; the most-general-client variant runs in the
    # acceptance suite
    base = dict(txns=2, locs=1, vals=1, buf=1, max_crashes=0, ops=1,
                prealloc=1,
                scripts=(((("write", 0, 0),), 0), ((), 0)))
    for impl in ("pmdk-tml", "pmdk-norec"):
        naive, _ = hist_set(Config(impl, "psc", por=False, **base),
                            check=False)
        reduced, _ = hist_set(Config(impl, "psc", por=True, **base),
                              check=False)
        assert naive == reduced, impl


def test_frontier_and_history_dedup_agree_on_verdict():
    for mutate in (False, True):
        muts = ("skip-undo-flush",) if mutate else ()
        cfg = lambda: Config("pmdk-seq", "psc", txns=2, locs=1, vals=2,
                             buf=2, max_crashes=1, ops=2, por=True,
                             mutations=muts)
        rh = explore(cfg(), dedup="history")
        rf = explore(cfg(), dedup="frontier")
        assert bool(rh.violations) == bool(rf.violations) == mutate


@pytest.mark.parametrize("impl,crashes,ops,dedup,counts", [
    ("pmdk-seq", 1, 2, "frontier", (20_719, 21_137, 530)),
    ("pmdk-tml", 0, 1, "history", (32_259, 36_587, 1_720)),
])
def test_state_counts_pinned(impl, crashes, ops, dedup, counts):
    # exact (states, transitions, histories): a change to the search that
    # moves them on purpose updates the pins and says why in CHANGES.md
    r = explore(Config(impl, "psc", txns=2, locs=1, max_crashes=crashes,
                       ops=ops, por=True), dedup=dedup)
    assert (r.states, r.transitions, len(r.complete | r.cut)) == counts
    assert not r.violations


def test_fault_ends_trace():
    cfg = Config("pmdk-seq", "psc", txns=1, locs=1, vals=1, buf=2, ops=1,
                 por=True, scripts=(((("read", 0),), 0),))
    hs, r = hist_set(cfg)
    assert not r.violations
    for h in hs:
        assert h[-1][:2] == ("fault", 0)


def test_script_era_gating():
    cfg = Config("pmdk-seq", "psc", txns=2, locs=1, vals=2, buf=2,
                 max_crashes=1, ops=1, por=True,
                 scripts=(((("alloc",),), 0), ((("read", 0),), 1)))
    hs, _r = hist_set(cfg)
    for h in hs:
        first_t1 = next((i for i, rec in enumerate(h) if rec[1:2] == (1,)),
                        None)
        if first_t1 is not None:
            assert ("crash",) in h[:first_t1]


@pytest.mark.parametrize("model", ["psc", "ptso"])
@pytest.mark.parametrize("impl", ["pmdk-seq", "pmdk-tml", "pmdk-norec"])
def test_check_lower_default_bounds(impl, model):
    res = check_lower(impl, model)
    assert res.total == 281 and res.unproducible == []
    # so this history was produced: txn 0 allocating location 1, which
    # needs branch-alloc (the default allocator takes the lowest free one)
    alloc_1 = (
        ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
        ("inv", 0, "alloc", None, None), ("res", 0, "alloc", 1, None),
        ("inv", 0, "commit", None, None), ("res", 0, "commit", None, None),
        ("inv", 1, "begin", None, None), ("res", 1, "begin", None, None),
        ("inv", 1, "commit", None, None), ("res", 1, "commit", None, None),
    )
    assert alloc_1 in sequential_histories(2, 2, 2, 2)


def test_check_lower_holds_under_every_mutation():
    # each mutation breaks crash recovery or concurrent validation, which a
    # crash-free serial schedule never exercises
    for name in MUTATIONS:
        res = check_lower("pmdk-norec", mutations=(name,))
        assert (res.total, res.unproducible) == (281, []), name


def test_check_lower_enforces_state_budget(capsys):
    with pytest.raises(BudgetExceeded):
        check_lower("pmdk-seq", max_states=10)
    assert cli.main(["check", "lower", "--max-states", "10"]) == 2
    assert "budget error" in capsys.readouterr().out


def test_check_lower_smallest_bound():
    res = check_lower("pmdk-seq", txns=1, locs=1, vals=1, ops=1)
    assert res.ok and res.total == 2  # commit-only and alloc-commit


def test_mutation_configs_cover_registry():
    for name in MUTATIONS:
        cfg = mutation_check_config(name)
        assert name in cfg.mutations


def test_mutations_flip_verdicts_fast():
    # stop-at-first keeps each mutated run tiny
    for name in MUTATIONS:
        cfg = mutation_check_config(name)
        r = check_upper(cfg, stop_on_violation=True)
        assert r.violations, name


def test_skip_validate_clean_twin_passes():
    r = check_upper(skip_validate_config(mutate=False))
    assert not r.violations


def test_intro_cases_ptso_matches_psc():
    buckets, res = run_intro_cases("ptso")
    assert not res.violations
    assert buckets["before-commit"] == {"fault"}
    assert buckets["after-commit"] == {42}
    assert buckets["during-commit"] == {"fault", 42}


def test_histories_pass_wellformedness():
    from pmtxcheck.histories import check_wellformed, events_of_records
    cfg = Config("pmdk-tml", "psc", txns=2, locs=1, vals=2, buf=2,
                 max_crashes=1, ops=1, por=True)
    hs, r = hist_set(cfg)
    assert not r.violations
    for h in hs:
        ok, bad = check_wellformed(events_of_records(h))
        assert ok, (bad, h)
