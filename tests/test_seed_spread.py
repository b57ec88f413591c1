"""The verdicts of ``scripts/seed_spread.py`` on fixed numbers: each check
judges by the threshold constants of ``tests/acceptance_run.py`` (the
measurement itself takes minutes per seed, so it runs here only at the
CLI tests' toy configuration)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import seed_spread as ss  # noqa: E402
from test_cli import CONFIG as TOY_CONFIG  # noqa: E402

# every number exactly at its check's threshold
AT_THRESHOLDS = {
    "full_acc": 65.0, "full_bleu": 98.0, "base_bleu": 100.0,
    "mmt_no_kl_acc": 60.0, "no_vmlm_acc": 45.0, "no_kl_acc": 63.0,
    "acc_g1": 65.0, "acc_g1.5": 66.0, "acc_g2": 67.0, "acc_g3": 66.0,
    "bleu_g3": 90.0,
}


def test_each_check_passes_at_its_threshold():
    assert [ok for _, _, ok in ss.checks(AT_THRESHOLDS)] == [True] * 7


@pytest.mark.parametrize("name, tighter, label", [
    ("FULL_MIN_ACC", 65.5, "ablation_full: full acc"),
    ("MAX_BLEU_DROP", 1.5, "ablation_full: full acc"),
    ("CHANCE_BAND", (45.5, 55.0), "masked_loss: no_vmlm acc"),
    ("MAX_ACC_DROP", 1.5, "anchor_accuracy: no_kl - full"),
    ("MIN_GUIDANCE_GAIN", 2.5, "guidance_sweep: gain at g=2"),
    ("MAX_GUIDANCE_DIP", 0.5, "guidance_sweep: worst dip"),
])
def test_checks_read_the_acceptance_thresholds(monkeypatch, name, tighter,
                                               label):
    # tightening one constant of acceptance_run fails exactly its check
    monkeypatch.setattr(ss.ar, name, tighter)
    failed = [lab for lab, _, ok in ss.checks(AT_THRESHOLDS) if not ok]
    assert failed == [label]


def test_measure_runs_the_acceptance_stages_and_tabulates(monkeypatch,
                                                          capsys):
    # the acceptance run at the toy size, with the replacement arm
    monkeypatch.setattr(ss.ar, "CONFIG", TOY_CONFIG)
    r = ss.measure(0, replacement_lam=0.1)
    assert r["rows"] == 2 * TOY_CONFIG["sizes"]["test_contrastive"]
    assert r["replacement_lam"] == 0.1 and len(r["base_sha"]) == 8
    assert len(ss.checks(r)) == 8
    lines = ss.table([r]).splitlines()
    assert lines[2].startswith(f"| 0 | {r['base_sha']} | ")
    # the stages' own lines go to stderr, not into the table's stdout
    captured = capsys.readouterr()
    assert captured.out == "" and "mode=mmt_no_kl" in captured.err
