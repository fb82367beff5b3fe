"""tools/bench_pairs.py: paired ABBA runs of two trees' own benchmarks."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a stand-in for perfbench/run.py: logs its tree and argv, prints canned metrics
FAKE_RUN = """
import json, sys
from pathlib import Path
NAME, P50, CORRECT = {name!r}, {p50!r}, {correct!r}
log = Path(__file__).resolve().parents[2] / "calls.log"
calls = log.read_text().splitlines() if log.exists() else []
mine = sum(call.split()[0] == NAME for call in calls)
with log.open("a") as fh:
    fh.write(" ".join([NAME, *sys.argv[1:]]) + "\\n")
print("a workload line that is not the result")
print(json.dumps({{"correct": CORRECT, "attempted": 100, "failed": 0, "metrics": {{
    "point_p50_ms": {{"value": P50[mine], "unit": "ms"}},
    "ok_frac": {{"value": 1.0, "unit": "fraction"}}}}}}))
"""

SPECS = {"end_to_end": [
    {"name": "point_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.01},
]}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(base: Path, name: str, p50: list[float], correct: bool = True) -> Path:
    root = base / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(name=name, p50=p50,
                                                               correct=correct))
    (root / "BENCHMARK.json").write_text(json.dumps(SPECS))
    return root


def test_pairs_alternate_and_summarize(tmp_path, monkeypatch, capsys):
    tool = _tool()
    old = _tree(tmp_path, "old", [60.0, 62.0, 58.0, 61.0])
    new = _tree(tmp_path, "new", [40.0, 42.0, 63.0, 41.0])
    monkeypatch.chdir(tmp_path)
    assert tool.main([str(old), str(new), "--workload", "w", "--pairs", "4",
                      "--seconds", "3", "--seed", "5"]) == 0
    calls = [call.split() for call in (tmp_path / "calls.log").read_text().splitlines()]
    assert [call[0] for call in calls] == ["old", "new", "new", "old", "old", "new", "new", "old"]
    assert all(call[1:] == ["--workload", "w", "--seed", "5", "--seconds", "3.0",
                            "--trace", "0"] for call in calls)

    bench = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert bench["correct"] and bench["pairs"] == 4 and len(bench["runs"]) == 8
    p50 = bench["metrics"]["point_p50_ms"]
    assert (p50["old_median"], p50["new_median"], p50["wins"]) == (60.5, 41.5, 3)
    assert p50["old_iqr"] == 61.25 - 59.5 and p50["gap_exceeds_iqr"] and p50["within_bound"]
    ok = bench["metrics"]["ok_frac"]
    assert (ok["wins"], ok["gap_exceeds_iqr"], ok["within_bound"]) == (0, False, True)
    out = capsys.readouterr().out
    assert "point_p50_ms" in out and "wins 3/4" in out


def test_a_worse_or_incorrect_tree_is_reported(tmp_path, monkeypatch, capsys):
    tool = _tool()
    old = _tree(tmp_path, "old", [40.0, 41.0])
    new = _tree(tmp_path, "new", [60.0, 61.0], correct=False)
    monkeypatch.chdir(tmp_path)
    assert tool.main([str(old), str(new), "--workload", "w", "--pairs", "2"]) == 1
    bench = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert not bench["correct"] and not bench["metrics"]["point_p50_ms"]["within_bound"]
    assert "bound EXCEEDED" in capsys.readouterr().out
