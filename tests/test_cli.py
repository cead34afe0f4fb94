"""The CLI's exit codes, which are its contract: 0 every check passes, 1 a
violation was found, 2 a usage error."""

import pytest

from pmtxcheck import cli, explorer
from pmtxcheck.traces import emit_trace, parse_trace

# transaction 0 begins twice and writes after its abort
ILL_FORMED = (
    ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
    ("inv", 0, "begin", None, None), ("res", 0, "begin", None, None),
    ("inv", 0, "read", 0, None), ("res", 0, "abort", None, None),
    ("inv", 0, "write", 0, 1), ("res", 0, "write", 0, 1),
)


def test_violation_exits_1_with_a_counterexample_ddo_rejects(tmp_path,
                                                             capsys):
    path = tmp_path / "cx.jsonl"
    assert cli.main(["check", "upper", "--mutate", "reorder-commit",
                     "--por", "--crashes", "1",
                     "--counterexample", str(path)]) == 1
    out = capsys.readouterr().out
    assert "counterexample written to %s" % path in out
    assert parse_trace(path)
    assert cli.main(["check", "opacity", "--history", str(path)]) == 1
    assert capsys.readouterr().out.startswith(
        "NOT dynamically durably opaque")


@pytest.mark.parametrize("what,line", [
    ("opacity", "ill-formed history: wf:begin, wf:terminal-unique"),
    ("wf", "violation(wf:begin)\nviolation(wf:terminal-unique)")])
def test_ill_formed_history_exits_1_naming_its_clauses(tmp_path, capsys,
                                                       what, line):
    path = tmp_path / "h.jsonl"
    emit_trace(ILL_FORMED, path)
    assert cli.main(["check", what, "--history", str(path)]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_passing_checks_exit_0(capsys):
    assert cli.main(["check", "lower", "--txns", "1", "--ops", "1"]) == 0
    assert "unproducible:         0" in capsys.readouterr().out
    assert cli.main(["check", "opacity", "--fixtures", "fig4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [s.split(":")[0] for s in out[:3]] \
        == ["fixture a", "fixture b", "fixture c"]
    assert out[3].startswith("wall time:")


@pytest.mark.parametrize("argv,error", [
    ([], "one of the arguments --history --fixtures is required"),
    (["--fixtures", "fig5"], "argument --fixtures: invalid choice: 'fig5'"),
    (["--fixtures", "fig4", "--history", "h.jsonl"],
     "argument --history: not allowed with argument --fixtures"),
])
def test_opacity_usage_errors_exit_2(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "opacity"] + argv)
    assert exc.value.code == 2
    assert error in capsys.readouterr().err


def test_emit_traces_writes_one_trace_per_history(tmp_path, capsys):
    out = tmp_path / "traces"
    argv = ["--txns", "1", "--locs", "1", "--ops", "1", "--crashes", "1",
            "--por"]
    assert cli.main(["check", "upper", "--emit-traces", str(out)]
                    + argv) == 0
    printed = capsys.readouterr().out
    files = sorted(out.iterdir())
    assert "histories checked: %d\n" % len(files) in printed
    cfg = explorer.Config("pmdk-seq", "psc", txns=1, locs=1, ops=1,
                          max_crashes=1, por=True)
    want = explorer.explore(cfg, dedup="history").histories()
    assert len(want) > 1
    # file i holds history i of the sorted list
    assert [parse_trace(path) for path in files] == want
