"""tools/fold_bench.py folds paired perfbench records into BENCH_*.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fold_bench.py"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fold_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(checkout: Path, seed: int, commit: str, p90: float, rate: float,
                 failed: int = 0) -> None:
    """A record with only the fields the tool reads; other metrics read 1.0."""
    results = checkout / ".perfbench"
    results.mkdir(parents=True, exist_ok=True)
    metrics = {m["name"]: 1.0 for m in END_TO_END}
    metrics.update(op_s_p90_norm=p90, ops_per_s_norm=rate)
    record = {"workload": "alloc-milp", "seed": seed, "seconds": 20, "trace": 0,
              "git_commit": commit, "attempted": 100, "failed": failed,
              "end_to_end": metrics}
    path = results / f"record-alloc-milp-seed{seed}-trace0.json"
    path.write_text(json.dumps(record), encoding="utf-8")


METRICS = [{"name": "op_s_p90_norm", "unit": "s", "better": "lower"},
           {"name": "ops_per_s_norm", "unit": "1/s", "better": "higher"}]


def test_pairs_by_seed_and_counts_wins(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, p90, rate in [(1, 0.030, 90.0), (2, 0.028, 95.0), (3, 0.029, 92.0),
                            (4, 0.031, 80.0), (9, 0.5, 1.0)]:
        write_record(parent, seed, "aaa", p90, rate)
    for seed, p90, rate in [(1, 0.020, 120.0), (2, 0.028, 118.0), (3, 0.030, 92.0),
                            (4, 0.019, 125.0), (8, 0.001, 9.0)]:
        write_record(change, seed, "bbb", p90, rate, failed=seed == 3)
    entry = tool.fold(tool.read_records(parent, "alloc-milp"),
                      tool.read_records(change, "alloc-milp"), METRICS)
    assert entry["seeds"] == [1, 2, 3, 4]  # seeds 8 and 9 have no partner
    assert (entry["parent_commit"], entry["change_commit"], entry["seconds"]) == ("aaa", "bbb", 20)
    assert entry["parent_ops"] == {"attempted": 400, "failed": 0}
    assert entry["change_ops"] == {"attempted": 400, "failed": 1}
    p90 = entry["metrics"]["op_s_p90_norm"]
    assert p90["parent"] == pytest.approx({"q1": 0.02875, "median": 0.0295, "q3": 0.03025})
    assert p90["change"]["median"] == pytest.approx(0.024)
    assert (p90["pairs_won"], p90["pairs"]) == (2, 4)  # a tie counts for neither
    rate = entry["metrics"]["ops_per_s_norm"]
    assert (rate["better"], rate["pairs_won"]) == ("higher", 3)


def test_main_appends_and_replaces_same_commits(tool, tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    write_record(parent, 1, "aaa", 0.03, 90.0)
    write_record(change, 1, "bbb", 0.02, 120.0)
    argv = ["--workload", "alloc-milp", "--parent", str(parent), "--change", str(change),
            "--out", str(out)]
    assert tool.main(argv) == 0
    write_record(parent, 2, "aaa", 0.03, 90.0)
    write_record(change, 2, "bbb", 0.02, 120.0)
    assert tool.main(argv) == 0
    entries = json.loads(out.read_text(encoding="utf-8"))
    assert [e["seeds"] for e in entries] == [[1, 2]]
    assert list(entries[0]["metrics"]) == [m["name"] for m in END_TO_END]
    write_record(change, 1, "ddd", 0.02, 120.0)
    write_record(change, 2, "ddd", 0.02, 120.0)
    assert tool.main(argv) == 0
    entries = json.loads(out.read_text(encoding="utf-8"))
    assert [e["change_commit"] for e in entries] == ["bbb", "ddd"]


def test_refuses_mixed_commits_and_unpaired_sides(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, 1, "aaa", 0.03, 90.0)
    write_record(parent, 2, "ccc", 0.03, 90.0)
    write_record(change, 1, "bbb", 0.02, 120.0)
    write_record(change, 2, "bbb", 0.02, 120.0)
    with pytest.raises(SystemExit, match="parent commits"):
        tool.fold(tool.read_records(parent, "alloc-milp"),
                  tool.read_records(change, "alloc-milp"), METRICS)
    with pytest.raises(SystemExit, match="no seed"):
        tool.fold(tool.read_records(parent, "alloc-milp"), {}, METRICS)


def test_verdicts_report_wins_delta_spread_and_bound(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    pairs = [(0.030, 0.040), (0.028, 0.041), (0.029, 0.039), (0.031, 0.042)]
    for seed, (p90_parent, p90_change) in enumerate(pairs, 1):
        write_record(parent, seed, "aaa", p90_parent, 100.0)
        write_record(change, seed, "bbb", p90_change, 100.0 + seed)
    metrics = [dict(m, bound=0.25) for m in METRICS]
    entry = tool.fold(tool.read_records(parent, "alloc-milp"),
                      tool.read_records(change, "alloc-milp"), metrics)
    assert tool.verdicts(entry, metrics) == [
        "op_s_p90_norm: won 0/4, median 0.0295 -> 0.0405 (+0.011 s, +37.3%), "
        "parent spread 0.0015, within bound 25%: NO",
        "ops_per_s_norm: won 4/4, median 100 -> 102.5 (+2.5 1/s, +2.5%), "
        "parent spread 0, within bound 25%: yes",
    ]


@pytest.mark.parametrize("parent_value, change_value, within", [
    (0.0, 0.0, "yes"), (0.0, 1.0, "NO"), (100.0, 105.0, "yes"), (100.0, 106.0, "NO"),
])
def test_verdict_bound_is_relative_to_the_parent(tool, parent_value, change_value, within):
    metric = {"name": "bytes_written_per_op", "unit": "bytes", "better": "lower",
              "bound": 0.05}
    side = lambda v: {"q1": v, "median": v, "q3": v}
    entry = {"metrics": {"bytes_written_per_op": {
        "unit": "bytes", "parent": side(parent_value), "change": side(change_value),
        "pairs_won": 0, "pairs": 1}}}
    (line,) = tool.verdicts(entry, [metric])
    assert line.endswith(f"within bound 5%: {within}")


def test_main_prints_a_verdict_per_end_to_end_metric(tool, tmp_path, capsys):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    write_record(parent, 1, "aaa", 0.03, 90.0)
    write_record(change, 1, "bbb", 0.02, 120.0)
    before = (ROOT / "BENCHMARK.json").read_bytes()
    assert tool.main(["--workload", "alloc-milp", "--parent", str(parent),
                      "--change", str(change), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "BENCH.json: 1 pairs, aaa -> bbb"
    assert [line.split(":")[0].strip() for line in lines[1:]] == [m["name"] for m in END_TO_END]
    assert lines[1 + [m["name"] for m in END_TO_END].index("op_s_p90_norm")].strip() == (
        "op_s_p90_norm: won 1/1, median 0.03 -> 0.02 (-0.01 s, -33.3%), "
        "parent spread 0, within bound 25%: yes"
    )
    assert (ROOT / "BENCHMARK.json").read_bytes() == before
    (entry,) = json.loads(out.read_text(encoding="utf-8"))
    assert set(entry["metrics"]["op_s_p90_norm"]) == {
        "unit", "better", "parent", "change", "pairs_won", "pairs"}
