"""tools/bench_pairs.py measures a copy of each checkout taken before the
first pair: an edit under src/ while the pairs run is not measured, and
the results still land in the real --change checkout."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def checkout(path, version):
    """A checkout holding what a benchmark run reads, its src/ at
    `version`."""
    os.makedirs(path / "src" / "pmtxcheck")
    os.makedirs(path / "perfbench")
    (path / "src" / "pmtxcheck" / "version.txt").write_text(version)
    (path / "perfbench" / "run.py").write_text("")
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "verdict_s", "better": "lower",
                        "bound": 0.25}]}))
    return path


def test_edit_after_snapshot_is_not_measured(tmp_path, monkeypatch):
    parent = checkout(tmp_path / "parent", "old")
    change = checkout(tmp_path / "change", "new")
    edited = change / "src" / "pmtxcheck" / "version.txt"
    seen = {s: set() for s in bench_pairs.SIDES}

    def run_once(copy, workload, seed, seconds):
        with open(os.path.join(copy, "src", "pmtxcheck",
                               "version.txt")) as f:
            seen[os.path.basename(copy)].add(f.read())
        edited.write_text("edited while the pairs run")
        result = {"metrics": {"verdict_s": {"value": 1.0, "unit": "s"}},
                  "correct": True, "attempted": 1, "failed": 0}
        return result, [], 1.0

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", str(parent), "--change",
                             str(change), "--label", "t"]) == 0
    assert seen == {"parent": {"old"}, "change": {"new"}}
    doc = json.loads((change / "BENCH_t.json").read_text())
    assert doc["workloads"]["w"]["pairs"] == bench_pairs.PAIRS
