"""The acceptance driver's own failures, with ``cli.main`` replaced, so no
experiment runs: a failing stage stops the run and names itself, and a
sweep report that measured another checkpoint is refused."""

import json

import pytest

from zerommt import cli

import acceptance_run as ar


def test_a_failing_stage_stops_the_run_naming_its_argv_and_exit_code(
        tmp_path, monkeypatch):
    calls = []

    def main(argv):
        calls.append(argv[0])
        return 3 if argv[0] == "pretrain" else 0

    monkeypatch.setattr(cli, "main", main)
    common = (f"--config {tmp_path / 'config.json'} --seed 7 "
              f"--out {tmp_path}")
    with pytest.raises(RuntimeError) as err:
        ar.run(tmp_path, seed=7)
    assert str(err.value) == f"zerommt pretrain {common} exited with 3"
    assert calls == ["gen", "pretrain"]
    assert json.loads((tmp_path / "config.json").read_text()) == ar.CONFIG


def test_a_sweep_of_another_checkpoint_is_refused(tmp_path, monkeypatch):
    measured = tmp_path / "train_full" / "best.ckpt"

    def main(argv):
        sweep = tmp_path / "sweep_gamma"
        sweep.mkdir(exist_ok=True)
        (sweep / "sweep.csv").write_text(
            "value,contrastive_accuracy,bleu\n1.0,62.5,99.5\n")
        (sweep / "sweep.csv.meta.json").write_text(
            json.dumps({"ckpt": "train_full/best.ckpt"}))
        return 0

    monkeypatch.setattr(cli, "main", main)
    assert ar._sweep(tmp_path, [], measured, [1.0]) == {1.0: (62.5, 99.5)}
    with pytest.raises(RuntimeError, match="measured train_full/best.ckpt, not "):
        ar._sweep(tmp_path, [], tmp_path / "train_no_kl" / "best.ckpt", [1.0])
