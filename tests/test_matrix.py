"""tools/matrix.py: a small matrix run in fresh processes records the
exact counts of an in-process run, --compare reports every exact-field
change as an error, and a budget-cut cell keeps its partial counts."""

import importlib.util
import json
import os
import subprocess
import sys

from pmtxcheck.explorer import check_upper, mutation_check_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MATRIX = os.path.join(ROOT, "tools", "matrix.py")
CELLS = ["mut/reorder-commit/pmdk-seq/psc", "race/pmdk-tml"]


def matrix(*args):
    return subprocess.run([sys.executable, MATRIX] + list(args),
                          capture_output=True, text=True, timeout=120)


def test_matrix_records_and_compares(tmp_path):
    out = tmp_path / "MATRIX.json"
    p = matrix("--out", str(out), "--cell", CELLS[0], "--cell", CELLS[1])
    assert p.returncode == 0, p.stdout + p.stderr
    cells = json.loads(out.read_text())["cells"]
    assert list(cells) == CELLS
    r = check_upper(mutation_check_config("reorder-commit"))
    assert r.violations
    mut = cells[CELLS[0]]
    assert (mut["states"], mut["transitions"], mut["histories"],
            mut["violations"]) \
        == (r.states, r.transitions, len(r.complete | r.cut),
            len(r.violations))
    for entry in cells.values():
        assert (entry["exit_code"], entry["cut"], entry["timed_out"]) \
            == (1, False, False)
        assert entry["cpu_s"] > 0 and entry["wall_s"] > 0
        assert entry["peak_rss_mb"] > 0

    # a changed exact field is an error; a cell the old matrix lacks is not.
    # The errors are tallied by kind: a verdict field and a count field
    old = tmp_path / "OLD.json"
    doc = json.loads(out.read_text())
    doc["cells"][CELLS[1]]["violations_sha256"] = "0" * 64
    doc["cells"][CELLS[1]]["states"] += 1
    del doc["cells"][CELLS[0]]
    old.write_text(json.dumps(doc))
    p = matrix("--out", str(out), "--cell", CELLS[0], "--cell", CELLS[1],
               "--compare", str(old))
    assert p.returncode == 1, p.stdout + p.stderr
    lines = p.stdout.splitlines()
    states = cells[CELLS[1]]["states"]
    assert [l for l in lines if l.startswith("error:")] == [
        "error: %s states: %r -> %r" % (CELLS[1], states + 1, states),
        "error: %s violations_sha256: %r -> %r"
        % (CELLS[1], "0" * 64, cells[CELLS[1]]["violations_sha256"])]
    assert "note: %s is not in the old matrix" % CELLS[0] in lines
    assert lines[-2:] == [
        "1 in verdict fields (violations, violations_sha256, exit_code), "
        "1 in count fields",
        "2 exact-field change(s) against %s" % old]


def test_matrix_cell_cut_by_budget_keeps_partial_counts():
    spec = importlib.util.spec_from_file_location("matrix", MATRIX)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    entry = tool.run_cell("base/tml-psc-2txn-1crash", 100)
    assert (entry["states"], entry["exit_code"], entry["cut"]) \
        == (100, 2, True)
    assert entry["transitions"] > 0
