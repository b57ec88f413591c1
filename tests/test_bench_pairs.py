"""The summary of ``scripts/bench_pairs.py`` on fixed numbers (the paired
runs themselves need two checkouts and minutes, so they are not run
here)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_pairs as bp  # noqa: E402

METRICS = [{"name": "items_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"},
           {"name": "setup_s", "better": "lower"}]


def _runs(**columns):
    n = len(next(iter(columns.values())))
    return [{k: {"value": v[i]} for k, v in columns.items()} for i in range(n)]


def test_quartiles_inclusive_and_single_value():
    assert bp.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bp.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_in_each_metrics_direction():
    parent = _runs(items_per_s=[100.0, 110.0, 90.0, 105.0, 95.0],
                   peak_rss_mb=[60.0, 61.0, 59.0, 60.0, 60.5])
    change = _runs(items_per_s=[120.0, 100.0, 115.0, 125.0, 118.0],
                   peak_rss_mb=[60.0, 60.0, 61.0, 60.5, 60.5])
    rows = {r["metric"]: r for r in bp.summarize(parent, change, METRICS)}
    # setup_s is in no run, so it has no row
    assert set(rows) == {"items_per_s", "peak_rss_mb"}
    ips = rows["items_per_s"]
    assert ips["parent"] == (95.0, 100.0, 105.0)
    assert ips["change"] == (115.0, 118.0, 120.0)
    assert ips["wins"] == 4 and ips["pairs"] == 5
    assert ips["ratio"] == 1.18
    assert ips["gap_exceeds_iqr"]  # 18 > 105 - 95
    rss = rows["peak_rss_mb"]
    # lower is better: only pair 2 (60 < 61) is a win; a tie is not
    assert rss["wins"] == 1
    assert rss["parent"] == (60.0, 60.0, 60.5)
    assert rss["change"][1] == 60.5
    assert not rss["gap_exceeds_iqr"]  # the gap 0.5 equals the IQR
    table = bp.format_rows(list(rows.values()))
    assert "| items_per_s | higher | 100 [95, 105] | 118 [115, 120] | 1.180 " \
           "| 4/5 | yes |" in table
    assert "peak_rss_mb change: 60 60 61 60.5 60.5" in table.splitlines()


def test_bound_column_reads_the_bound_relative_to_the_parents_median():
    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
               {"name": "setup_s", "better": "lower"}]
    parent = _runs(items_per_s=[100.0, 100.0, 100.0],
                   peak_rss_mb=[60.0, 60.0, 60.0], setup_s=[1.0, 1.0, 1.0])
    change = _runs(items_per_s=[74.0, 74.0, 74.0],
                   peak_rss_mb=[66.0, 65.0, 66.0], setup_s=[9.0, 9.0, 9.0])
    rows = {r["metric"]: r for r in bp.summarize(parent, change, metrics)}
    # 26 fewer items/s is more than 0.25 x 100; 6 MB more is not more than
    # 0.1 x 60; setup_s declares no bound
    assert rows["items_per_s"]["beyond_bound"] is True
    assert rows["peak_rss_mb"]["beyond_bound"] is False
    assert rows["setup_s"]["beyond_bound"] is None
    # a better median is never beyond the bound, in either direction
    flipped = {r["metric"]: r for r in bp.summarize(change, parent, metrics)}
    assert not flipped["items_per_s"]["beyond_bound"]
    assert not flipped["peak_rss_mb"]["beyond_bound"]
    table = bp.format_rows(list(rows.values())).splitlines()
    assert table[0].endswith("| worse by > bound × parent median |")
    assert table[2].endswith("| 0/3 | yes | yes (bound 0.25) |")
    assert table[3].endswith("| 0/3 | yes | no (bound 0.1) |")
    assert table[4].endswith("| 0/3 | yes | - |")


def test_each_pair_runs_every_workload_and_prints_a_table_each(
        tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        pair = sum(c == (checkout.name, workload) for c in calls)
        ips = 100.0 + pair + (10.0 if checkout == change else 0.0)
        if workload == "score":
            ips *= 2
        return {"metrics": {"items_per_s": {"value": ips}}}

    monkeypatch.setattr(bp, "run_once", run_once)
    assert bp.main(["--parent", str(parent), "--change", str(change),
                    "--workload", "train", "score", "--seed", "7",
                    "--pairs", "2", "--seconds", "1"]) == 0
    # every pair runs both workloads, and the side that runs first flips
    assert calls == [("parent", "train"), ("change", "train"),
                     ("parent", "score"), ("change", "score"),
                     ("change", "train"), ("parent", "train"),
                     ("change", "score"), ("parent", "score")]
    out = capsys.readouterr().out
    assert out.startswith("train, seed 7, 2 pairs of 1 s runs")
    train, score = out.split("\n\nscore, seed 7, 2 pairs of 1 s runs")
    assert "| items_per_s | higher | 101.5 [101.2, 101.8] | 111.5 " \
           "[111.2, 111.8] | 1.099 | 2/2 | yes |" in train
    assert "items_per_s parent: 202 204" in score.splitlines()
    assert "items_per_s change: 222 224" in score.splitlines()


def test_a_failed_run_names_its_workload_and_exits_1(tmp_path, monkeypatch,
                                                     capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))

    def run_once(checkout, workload, seed, seconds):
        if workload == "score":
            raise RuntimeError("perfbench exited 2")
        return {"metrics": {}}

    monkeypatch.setattr(bp, "run_once", run_once)
    assert bp.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                    "--workload", "train", "score", "--seed", "7"]) == 1
    assert "pair 1, score, parent: perfbench exited 2" in capsys.readouterr().err


def test_each_table_counts_the_pairs_whose_pass_digests_are_equal(
        tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    runs = []

    def run_once(checkout, workload, seed, seconds):
        # each run overwrites its checkout's record, as perfbench/run.py does
        runs.append((checkout.name, workload))
        pair = sum(r == (checkout.name, workload) for r in runs)
        digest = "same"
        if workload == "score" and checkout == change and pair == 2:
            digest = "moved"
        records = checkout / ".perfbench" / "records"
        records.mkdir(parents=True, exist_ok=True)
        passes = [{"digests": {"sha": digest}}, {"digests": {"sha": "later"}}]
        if not (workload == "train" and checkout == parent and pair == 3):
            (records / f"{workload}-seed{seed}-trace0.json").write_text(
                json.dumps({"passes": passes}))
        else:
            (records / f"{workload}-seed{seed}-trace0.json").unlink()
        return {"metrics": {"items_per_s": {"value": 1.0}}}

    monkeypatch.setattr(bp, "run_once", run_once)
    assert bp.main(["--parent", str(parent), "--change", str(change),
                    "--workload", "train", "score", "--seed", "7",
                    "--pairs", "3", "--seconds", "1"]) == 0
    train, score = capsys.readouterr().out.split("\n\nscore, seed 7")
    # the third train pair's parent left no record
    assert train.splitlines()[-1] == \
        "pass digests equal in 2/3 pairs (1 of 6 runs left no record)"
    # the first pass's digests count, not a later pass's
    assert score.splitlines()[-1] == "pass digests equal in 2/3 pairs"


def test_pass_digests_of_a_missing_or_malformed_record_are_none(tmp_path):
    assert bp.pass_digests(tmp_path, "score", 3) is None
    records = tmp_path / ".perfbench" / "records"
    records.mkdir(parents=True)
    (records / "score-seed3-trace0.json").write_text("{not json")
    assert bp.pass_digests(tmp_path, "score", 3) is None
    (records / "score-seed3-trace0.json").write_text('{"passes": []}')
    assert bp.pass_digests(tmp_path, "score", 3) is None
    (records / "score-seed3-trace0.json").write_text(
        '{"passes": [{"digests": {"a": "b"}}]}')
    assert bp.pass_digests(tmp_path, "score", 3) == {"a": "b"}
    assert bp.format_digests([None, {"a": "b"}], [None, {"a": "b"}]) \
        == "pass digests equal in 1/2 pairs (2 of 4 runs left no record)"


def test_each_table_prints_each_checkouts_source_line_count(
        tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout, files in ((parent, {"a.py": "x\ny\n", "b.py": "z\n"}),
                            (change, {"a.py": "x\n", "notes.txt": "n\n" * 9})):
        (checkout / "src" / "zerommt").mkdir(parents=True)
        for name, text in files.items():
            (checkout / "src" / "zerommt" / name).write_text(text)
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.setattr(bp, "run_once", lambda *_: {"metrics": {}})
    assert bp.src_lines(parent) == 3 and bp.src_lines(change) == 1
    assert bp.main(["--parent", str(parent), "--change", str(change),
                    "--workload", "train", "score", "--seed", "7",
                    "--pairs", "1"]) == 0
    tables = capsys.readouterr().out.split("\n\nscore, seed 7")
    assert [t.splitlines()[1] for t in tables] == \
        ["src/zerommt/*.py lines: parent 3, change 1"] * 2
