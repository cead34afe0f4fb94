"""JSON-lines trace files: one record per line, canonical field order.

Record kinds:

* ``inv`` / ``res`` -- operation invocation/response; carry era, seq, tid,
  txid, op, and loc/val exactly where the operation has them (read
  responses carry loc and val, write records both, alloc responses loc,
  begin/commit/abort neither).  Record tuples name a transaction only, and
  transaction t runs on thread t, so tid must equal txid.
* ``crash`` -- carries only era and seq.
* ``fault-hidden-note`` -- marks where the run entered the fault regime;
  carries era, seq and the faulting access's txid, op (read or write) and
  loc (the remainder of the trace is not claimed).

Every record's seq is its position among the records, from 0.  Unknown
fields, fields not allowed for a record's kind/op and a seq that is not the
record's position are rejected with the offending line number.
``parse -> emit`` is byte-stable.
"""

from __future__ import annotations

import json

OPS = ("begin", "read", "write", "alloc", "commit", "abort")


class TraceError(ValueError):
    def __init__(self, msg, line=None):
        self.line = line
        if line is not None:
            msg = "line %d: %s" % (line, msg)
        super().__init__(msg)


def _loc_val_fields(kind, op):
    """Which of loc/val a record must carry."""
    if op == "read":
        return ("loc",) if kind == "inv" else ("loc", "val")
    if op == "write":
        return ("loc", "val")
    if op == "alloc":
        return () if kind == "inv" else ("loc",)
    return ()


def records_to_dicts(records):
    """Internal record tuples -> canonical JSON-ready dicts, their keys
    inserted in the canonical order: kind, era, seq, tid, txid, op, loc,
    val."""
    out = []
    era = 0
    for seq, rec in enumerate(records):
        kind = rec[0]
        if kind == "crash":
            out.append({"kind": "crash", "era": era, "seq": seq})
            era += 1
            continue
        if kind == "fault":
            _k, txid, op, loc = rec
            out.append({"kind": "fault-hidden-note", "era": era, "seq": seq,
                        "txid": txid, "op": op, "loc": loc})
            continue
        _k, txid, op, loc, val = rec
        d = {"kind": kind, "era": era, "seq": seq, "tid": txid,
             "txid": txid, "op": op}
        fields = _loc_val_fields(kind, op)
        if "loc" in fields:
            d["loc"] = loc
        if "val" in fields:
            d["val"] = val
        out.append(d)
    return out


def dicts_to_records(dicts):
    """Canonical dicts -> internal record tuples (validation already done)."""
    out = []
    for d in dicts:
        kind = d["kind"]
        if kind == "crash":
            out.append(("crash",))
        elif kind == "fault-hidden-note":
            out.append(("fault", d["txid"], d["op"], d["loc"]))
        else:
            out.append((kind, d["txid"], d["op"], d.get("loc"),
                        d.get("val")))
    return tuple(out)


def emit_trace(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for d in records_to_dicts(records):
            fh.write(json.dumps(d, separators=(",", ":")) + "\n")


def parse_trace(path):
    """Parse a trace file back into record tuples; strict field checking.
    A file that cannot be read as UTF-8 text is a TraceError too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError("cannot read %s: %s" % (path, exc)) from None
    dicts = []
    era = 0
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError("malformed JSON (%s)" % exc, ln) from None
        if not isinstance(d, dict):
            raise TraceError("record is not an object", ln)
        kind = d.get("kind")
        if kind == "crash":
            allowed = {"kind", "era", "seq"}
        elif kind == "fault-hidden-note":
            if d.get("op") not in ("read", "write"):
                raise TraceError("bad fault op %r" % (d.get("op"),), ln)
            allowed = {"kind", "era", "seq", "txid", "op", "loc"}
        elif kind in ("inv", "res"):
            op = d.get("op")
            if op not in OPS:
                raise TraceError("bad op %r" % (op,), ln)
            if kind == "inv" and op == "abort":
                raise TraceError("abort is response-only", ln)
            allowed = {"kind", "era", "seq", "tid", "txid", "op"}
            allowed.update(_loc_val_fields(kind, op))
        else:
            raise TraceError("bad kind %r" % (kind,), ln)
        extra = set(d) - allowed
        if extra:
            raise TraceError("unexpected field(s) %s"
                             % ", ".join(sorted(extra)), ln)
        missing = allowed - set(d)
        if missing:
            raise TraceError("missing field(s) %s"
                             % ", ".join(sorted(missing)), ln)
        for f in ("era", "seq", "tid", "txid", "loc", "val"):
            # JSON true/false load as bool, which is an int subclass
            if f in d and type(d[f]) is not int:
                raise TraceError("field %s must be an integer" % f, ln)
        if "tid" in d and d["tid"] != d["txid"]:
            raise TraceError("tid %r is not txid %r (transaction t "
                             "runs on thread t)" % (d["tid"], d["txid"]),
                             ln)
        if d["era"] != era:
            raise TraceError("era %r out of sequence" % (d["era"],), ln)
        if kind == "crash":
            era += 1
        if d["seq"] != len(dicts):
            # emit_trace writes each record's position, which parse -> emit
            # must give back
            raise TraceError("seq %r is not the record's position %d"
                             % (d["seq"], len(dicts)), ln)
        dicts.append(d)
    return dicts_to_records(dicts)
