"""JSON-lines trace files: the emit/parse round trip, every rejection with
its line number, and the CLI's exit code on a malformed file."""

import json

import pytest

from pmtxcheck import cli
from pmtxcheck.explorer import (Config, check_upper, explore,
                                mutation_check_config)
from pmtxcheck.refspec import accepts_history
from pmtxcheck.traces import TraceError, emit_trace, parse_trace


def explored_histories():
    # crashes, faults, reads, writes and allocations (seq), plus the tml
    # histories with an abort response
    seq = explore(Config("pmdk-seq", "psc", txns=2, locs=1, max_crashes=1,
                         por=True)).histories()
    tml = explore(Config("pmdk-tml", "psc", txns=2, locs=1, max_crashes=1,
                         ops=1, por=True)).histories()
    aborts = [h for h in tml if ("res", 0, "abort", None, None) in h
              or ("res", 1, "abort", None, None) in h]
    assert aborts
    return seq + aborts


def test_emit_parse_round_trip(tmp_path):
    path, again = tmp_path / "h.jsonl", tmp_path / "again.jsonl"
    kinds = set()
    for records in explored_histories():
        emit_trace(records, path)
        parsed = parse_trace(path)
        # a fault note keeps the faulting access
        assert parsed == records
        emit_trace(parsed, again)
        assert again.read_bytes() == path.read_bytes()
        kinds.update(rec[0] if rec[0] in ("crash", "fault") else rec[2]
                     for rec in records)
    assert kinds == {"crash", "fault", "begin", "read", "write", "alloc",
                     "commit", "abort"}


@pytest.mark.parametrize("impl", ["pmdk-seq", "pmdk-tml"])
def test_fault_counterexamples_keep_their_verdict(tmp_path, impl):
    # skip-flush-commit5's counterexamples that end in a fault parse back
    # to the records written, and the spec judges them alike
    cfg = mutation_check_config("skip-flush-commit5", impl=impl)
    r = check_upper(cfg)
    faults = [v for v in r.violations if v[-1][0] == "fault"]
    assert (len(r.violations), len(faults)) == (15, 9)
    path = tmp_path / "cx.jsonl"
    for records in faults:
        emit_trace(records, path)
        parsed = parse_trace(path)
        assert parsed == records
        assert accepts_history(parsed, cfg.txns, cfg.locs) \
            == accepts_history(records, cfg.txns, cfg.locs) is False


def line(**fields):
    return json.dumps(fields, separators=(",", ":"))


BEGIN = line(kind="inv", era=0, seq=0, tid=0, txid=0, op="begin")


@pytest.mark.parametrize("bad,message", [
    ("{not json", "malformed JSON"),
    ("[1, 2]", "record is not an object"),
    (line(kind="note", era=0, seq=1), "bad kind 'note'"),
    (line(kind="res", era=0, seq=1, tid=0, txid=0, op="undo"),
     "bad op 'undo'"),
    (line(kind="inv", era=0, seq=1, tid=0, txid=0, op="abort"),
     "abort is response-only"),
    (line(kind="res", era=0, seq=1, tid=0, txid=0, op="begin", loc=0),
     "unexpected field(s) loc"),
    (line(kind="crash", era=0, seq=1, tid=0), "unexpected field(s) tid"),
    (line(kind="crash", era=0, seq=1, txid=0, op="read", loc=0),
     "unexpected field(s) loc, op, txid"),
    (line(kind="fault-hidden-note", era=0, seq=1, txid=0, op="read"),
     "missing field(s) loc"),
    (line(kind="fault-hidden-note", era=0, seq=1, tid=0, txid=0, op="read",
          loc=0), "unexpected field(s) tid"),
    (line(kind="fault-hidden-note", era=0, seq=1, txid=0, op="alloc",
          loc=0), "bad fault op 'alloc'"),
    (line(kind="res", era=0, seq=1, tid=0, txid=0, op="read", loc=0),
     "missing field(s) val"),
    (line(kind="res", era=0, seq=1, txid=0, op="begin"),
     "missing field(s) tid"),
    (line(kind="res", era=0, seq=1, tid=0, txid="0", op="begin"),
     "field txid must be an integer"),
    (line(kind="inv", era=0, seq=1, tid=0, txid=0, op="write", loc=0,
          val=1.5), "field val must be an integer"),
    (line(kind="res", era=0, seq=1, tid=True, txid=True, op="begin"),
     "field tid must be an integer"),
    (line(kind="res", era=1, seq=1, tid=0, txid=0, op="begin"),
     "era 1 out of sequence"),
    (line(kind="res", era=0, seq=0, tid=0, txid=0, op="begin"),
     "seq 0 is not the record's position 1"),
    # increasing, but emit_trace would write 1: parse -> emit is byte-stable
    (line(kind="res", era=0, seq=5, tid=0, txid=0, op="begin"),
     "seq 5 is not the record's position 1"),
    # records carry no thread of their own: transaction t runs on thread t
    (line(kind="res", era=0, seq=1, tid=1, txid=0, op="begin"),
     "tid 1 is not txid 0"),
], ids=["json", "object", "kind", "op", "inv-abort", "extra", "extra-crash",
        "crash-fault-fields", "fault-missing", "fault-tid", "fault-op",
        "missing", "missing-tid", "int", "int-val", "bool", "era", "seq",
        "seq-gap", "tid"])
def test_parse_rejects_with_line_number(tmp_path, bad, message):
    path = tmp_path / "bad.jsonl"
    # the blank line counts: line numbers are the file's
    path.write_text(BEGIN + "\n\n" + bad + "\n")
    with pytest.raises(TraceError) as exc:
        parse_trace(path)
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: " + message)


def test_parse_follows_eras_across_crashes(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text("\n".join([
        BEGIN, line(kind="crash", era=0, seq=1),
        line(kind="inv", era=1, seq=2, tid=1, txid=1, op="begin")]) + "\n")
    assert parse_trace(path) == (("inv", 0, "begin", None, None),
                                 ("crash",),
                                 ("inv", 1, "begin", None, None))
    path.write_text("\n".join([
        BEGIN, line(kind="crash", era=0, seq=1),
        line(kind="inv", era=0, seq=2, tid=1, txid=1, op="begin")]) + "\n")
    with pytest.raises(TraceError, match="^line 3: era 0 out of sequence"):
        parse_trace(path)


# txid 0 begins on thread 0 and commits on thread 1
CROSS_THREAD = [
    line(kind="inv", era=0, seq=0, tid=0, txid=0, op="begin"),
    line(kind="res", era=0, seq=1, tid=0, txid=0, op="begin"),
    line(kind="inv", era=0, seq=2, tid=1, txid=0, op="commit"),
    line(kind="res", era=0, seq=3, tid=1, txid=0, op="commit"),
]


@pytest.mark.parametrize("what", ["wf", "opacity"])
def test_cli_exits_2_on_malformed_trace(tmp_path, capsys, what):
    path = tmp_path / "h.jsonl"
    path.write_text("\n".join(CROSS_THREAD) + "\n")
    assert cli.main(["check", what, "--history", str(path)]) == 2
    assert capsys.readouterr().out.startswith(
        "trace error: line 3: tid 1 is not txid 0")
    path.write_text("\n".join(CROSS_THREAD[:2]) + "\n{\n")
    assert cli.main(["check", what, "--history", str(path)]) == 2
    assert capsys.readouterr().out.startswith(
        "trace error: line 3: malformed JSON")
    # a file that cannot be read as UTF-8 text: missing, a directory, or
    # bytes that do not decode
    (tmp_path / "latin1.jsonl").write_bytes(BEGIN.encode() + b"\n\xff\n")
    for name in ("missing.jsonl", ".", "latin1.jsonl"):
        argv = ["check", what, "--history", str(tmp_path / name)]
        assert cli.main(argv) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("trace error: "), out
    # the same history on one thread is accepted
    path.write_text("\n".join(CROSS_THREAD[:2]
                              + [s.replace('"tid":1', '"tid":0')
                                 for s in CROSS_THREAD[2:]]) + "\n")
    assert cli.main(["check", what, "--history", str(path)]) == 0
