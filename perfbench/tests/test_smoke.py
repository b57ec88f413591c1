"""Smoke runs of every workload at the tiny size.

    python3 -m pytest perfbench/tests

Each test starts ``perfbench/run.py`` as its own process, as the
benchmark is meant to be run, and reads the JSON object on its last line
and the run record it writes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# `decode` runs like the others but is not in BENCHMARK.json (README.md)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["decode"]
SEED = 5

# layers predicted to do each workload's work (nonzero in a traced pass)
PREDICTED_WORK = {
    "train": ["autodiff.op_calls", "autodiff.backward_calls",
              "model.encode_calls", "model.decoder_calls",
              "model.checkpoint_s", "objectives.teacher_calls",
              "objectives.vmlm_s", "objectives.kl_s", "objectives.text_nll_s",
              "training.adam_calls", "training.snapshot_calls",
              "decoding.sentences", "evaluation.rows",
              "cli.pretrain_self_s", "cli.train_self_s"],
    "decode": ["autodiff.op_calls", "model.encode_calls",
               "model.decoder_calls", "model.decode_step_calls",
               "model.checkpoint_s", "decoding.sentences",
               "decoding.tokens_out", "decoding.cfg_calls",
               "synthcorpus.examples", "synthcorpus.pseudo_translate_s",
               "cli.translate_self_s"],
    "score": ["autodiff.op_calls", "model.encode_calls",
              "model.decoder_calls", "evaluation.rows",
              "evaluation.sequences", "evaluation.text_distributions",
              "evaluation.mm_distributions", "evaluation.cfg_blend_calls"],
}
PREDICTED_ZERO = {
    "train": [],
    "decode": ["autodiff.backward_calls"],
    "score": ["autodiff.backward_calls", "decoding.sentences"],
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@lru_cache(maxsize=None)
def result(workload: str, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    """(last-line JSON, run record) of one tiny run."""
    del repeat  # distinguishes cache entries of repeated runs
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{SEED}-trace{trace}"
    record = json.loads(
        (ROOT / ".perfbench" / "records" / f"{tag}.json").read_text())
    return line, record


def _assert_metrics(line: dict, spec: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert line["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    line, _ = result(workload, 0)
    _assert_metrics(line, BENCHMARK["end_to_end"])
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_predictions(workload):
    line, record = result(workload, 1)
    _assert_metrics(line, BENCHMARK["per_layer"])
    values = {k: v["value"] for k, v in line["metrics"].items()}
    for name in PREDICTED_WORK[workload]:
        assert values[name] > 0, name
    for name in PREDICTED_ZERO[workload]:
        assert values[name] == 0, name
    assert (ROOT / record["spans"]).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_result(workload):
    _, plain = result(workload, 0)
    _, traced = result(workload, 1)
    digests = {json.dumps(p["digests"], sort_keys=True)
               for p in plain["passes"] + traced["passes"]}
    assert len(digests) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    _, first = result(workload, 1)
    _, second = result(workload, 1, repeat=1)
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
