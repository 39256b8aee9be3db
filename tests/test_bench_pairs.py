import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def test_work_directory_is_made_with_its_parents(tmp_path, monkeypatch):
    def export(sha, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
        return dest

    def bench_once(copy, workload, seed):
        value = seed + (copy.name == "change")
        metrics = {m["name"]: {"value": float(value)} for m in METRICS}
        return {"metrics": metrics, "attempted": 1, "failed": 0}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: f"sha-of-{args[-1]}")
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "bench_once", bench_once)
    work, out = tmp_path / "not" / "made", tmp_path / "pairs.json"
    argv = ["bench_pairs.py", "--workload", "w:2", "--out", str(out), "--work", str(work)]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 0
    assert list(work.iterdir()) == []  # the copies are removed afterwards
    report = json.loads(out.read_text())
    assert report["shas"] == {"parent": "sha-of-HEAD~1", "change": "sha-of-HEAD"}
    result = report["workloads"]["w"]
    assert result["pairs"] == 2 and result["first"] == ["parent", "change"]
    assert result["metrics"]["items_per_s"]["change_wins"] == 2
    assert result["metrics"]["wall_s"]["parent_wins"] == 2
