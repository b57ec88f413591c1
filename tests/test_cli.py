"""Command-line pipeline smoke tests on a miniature configuration: every
stage runs inside one shared run directory and leaves the promised files."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from zerommt import cli
from zerommt import evaluation as ev
from zerommt import model as m
from zerommt import synthcorpus as sc

CONFIG = {
    "world": {
        "n_plain_words": 4, "n_ambiguous_words": 2,
        "sent_len_min": 2, "sent_len_max": 4, "image_dim": 4, "seed": 0,
    },
    "sizes": {
        "pretrain_parallel": 40, "mmt_train": 16, "val_contrastive": 3,
        "val_translation": 3, "test_contrastive": 3, "test_translation": 3,
    },
    "model": {
        "vocab_size": 32, "d_model": 8, "n_heads": 2, "n_layers_enc": 1,
        "n_layers_dec": 1, "d_ffn": 16, "image_dim": 4,
        "adapter_reduction": 4, "max_len": 12,
    },
    "pretrain": {"max_steps": 20, "batch_size": 8},
    "train": {"max_steps": 6, "batch_size": 8, "eval_every": 3, "lr": 1e-3},
    "eval_beam_width": 2,
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    out = root / "out"
    for argv in (
        ["gen", "--config", str(config_path), "--out", str(out)],
        ["pretrain", "--config", str(config_path), "--out", str(out)],
        ["translate", "--config", str(config_path), "--out", str(out)],
        ["train", "--config", str(config_path), "--out", str(out),
         "--mode", "full"],
    ):
        assert cli.main(argv) == 0, argv
    return config_path, out


def test_gen_writes_every_split(run_dir):
    _, out = run_dir
    names = [
        "world.json", "pretrain_parallel.jsonl", "mmt_train.jsonl",
        "val_contrastive.jsonl", "val_translation.jsonl",
        "test_contrastive.jsonl", "test_translation.jsonl",
    ]
    for name in names:
        assert (out / "corpus" / name).exists(), name
    world_payload = json.loads((out / "corpus" / "world.json").read_text())
    assert "config" in world_payload and "world" in world_payload
    world = sc.world_from_dict(world_payload["world"])
    assert world.vocab_used <= CONFIG["model"]["vocab_size"]
    assert len(sc.read_examples(out / "corpus" / "mmt_train.jsonl")) == 16


def test_gen_is_byte_deterministic(run_dir, tmp_path):
    config_path, out = run_dir
    again = tmp_path / "again"
    assert cli.main(["gen", "--config", str(config_path),
                     "--out", str(again)]) == 0
    for name in ("mmt_train.jsonl", "test_contrastive.jsonl"):
        assert (again / "corpus" / name).read_bytes() == \
            (out / "corpus" / name).read_bytes()


def test_pretrain_saves_frozen_base(run_dir):
    _, out = run_dir
    params, meta = m.load_checkpoint(out / "base.ckpt")
    assert meta["stage"] == "pretrain"
    for name in params.base_names():
        assert not params.tensors[name].requires_grad


def test_translate_writes_pseudo_targets_and_report(run_dir):
    _, out = run_dir
    pseudo = sc.read_examples(out / "corpus" / "mmt_train_pseudo.jsonl")
    assert pseudo
    for ex in pseudo:
        assert ex.tgt[0] == m.BOS and ex.tgt[-1] == m.EOS
        assert ex.image is not None
    report = json.loads((out / "translate_report.json").read_text())
    assert report["n_total"] == 16
    assert 0.0 <= report["unambiguous_match_rate"] <= 1.0


def test_translate_report_does_not_depend_on_config_sizes(run_dir, tmp_path):
    # the sense diagnostics come from the captions themselves, so a config
    # whose mmt_train size is smaller than gen's still counts every caption
    _, out = run_dir
    small = tmp_path / "out"
    shutil.copytree(out / "corpus", small / "corpus")
    shutil.copy(out / "base.ckpt", small / "base.ckpt")
    config = dict(CONFIG, sizes=dict(CONFIG["sizes"], mmt_train=4))
    config_path = tmp_path / "small.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["translate", "--config", str(config_path),
                     "--out", str(small)]) == 0
    keys = ("n_total", "n_dropped", "unambiguous_match_rate",
            "cued_sense_match_rate", "uncued_sense_counts")
    want = json.loads((out / "translate_report.json").read_text())
    got = json.loads((small / "translate_report.json").read_text())
    assert {k: got[k] for k in keys} == {k: want[k] for k in keys}
    name = "corpus/mmt_train_pseudo.jsonl"
    assert (small / name).read_bytes() == (out / name).read_bytes()


def test_train_writes_checkpoint_and_log(run_dir):
    _, out = run_dir
    run = out / "train_full"
    params, meta = m.load_checkpoint(run / "best.ckpt")
    assert meta["mode"] == "full"
    assert meta["best_step"] in (3, 6)
    log = (run / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,vmlm,kl,total,val_contrastive,val_bleu"
    assert len(log) == 1 + CONFIG["train"]["max_steps"]
    sidecar = json.loads((run / "train_log.csv.meta.json").read_text())
    assert sidecar["mode"] == "full"
    assert sidecar["config"]["train"]["max_steps"] == 6


def test_eval_text_only_and_guided(run_dir):
    config_path, out = run_dir
    assert cli.main(["eval", "--config", str(config_path), "--out", str(out),
                     "--text-only"]) == 0
    base_report = json.loads((out / "eval_base" / "eval_report.json").read_text())
    assert 0.0 <= base_report["contrastive_accuracy"] <= 100.0
    assert base_report["text_only"] is True

    assert cli.main(["eval", "--config", str(config_path), "--out", str(out),
                     "--gamma", "2.0"]) == 0
    rdir = out / "eval_gamma2"
    report = json.loads((rdir / "eval_report.json").read_text())
    assert report["gamma"] == 2.0
    rows = (rdir / "eval_rows.csv").read_text().splitlines()
    assert rows[0] == "id,orientation,ppl_correct,ppl_wrong,score"
    assert len(rows) == 1 + 2 * CONFIG["sizes"]["test_contrastive"]
    assert (rdir / "eval_rows.csv.meta.json").exists()


@pytest.mark.parametrize("flags", [["--gamma", "1.0"], ["--text-only"]],
                         ids=["gamma1", "text_only"])
def test_eval_without_guidance_scores_once(run_dir, monkeypatch, flags):
    # the no-CFG accuracy is the report's own when its scorer is unguided
    config_path, out = run_dir
    calls = []

    def counting(scorer, instances, _rows=ev.commute_rows):
        calls.append(type(scorer).__name__)
        return _rows(scorer, instances)

    monkeypatch.setattr(ev, "commute_rows", counting)
    assert cli.main(["eval", "--config", str(config_path), "--out", str(out),
                     *flags]) == 0
    assert len(calls) == 1
    tag = "base" if "--text-only" in flags else "gamma1"
    report = json.loads((out / f"eval_{tag}" / "eval_report.json").read_text())
    assert report["contrastive_accuracy_no_cfg"] == report["contrastive_accuracy"]


def test_eval_rejects_negative_gamma(run_dir):
    config_path, out = run_dir
    assert cli.main(["eval", "--config", str(config_path), "--out", str(out),
                     "--gamma", "-1"]) == 1
    assert not (out / "eval_gamma-1").exists()


def test_eval_at_gamma_zero_is_the_frozen_base(run_dir, monkeypatch):
    # gamma = 0 scores and decodes with the adapted model's extras off, which
    # is the frozen base byte for byte; the no-CFG accuracy stays gamma = 1's
    config_path, out = run_dir
    scored = []

    def recording(scorer, instances, _rows=ev.commute_rows):
        scored.append(type(scorer).__name__)
        return _rows(scorer, instances)

    monkeypatch.setattr(ev, "commute_rows", recording)
    reports, rows = {}, {}
    for tag, flags in (("base", ["--text-only", "--gamma", "2.5"]),
                       ("gamma0", ["--gamma", "0"]),
                       ("gamma1", ["--gamma", "1"])):
        scored.clear()
        assert cli.main(["eval", "--config", str(config_path),
                         "--out", str(out), *flags]) == 0
        if tag == "gamma0":
            assert scored == ["TextOnlyScorer", "MultimodalScorer"]
        rdir = out / f"eval_{tag}"
        reports[tag] = json.loads((rdir / "eval_report.json").read_text())
        rows[tag] = (rdir / "eval_rows.csv").read_bytes()
    assert reports["base"]["gamma"] == 2.5
    assert rows["gamma0"] == rows["base"]
    for key in ("contrastive_accuracy", "bleu", "sense_accuracy"):
        assert reports["gamma0"][key] == reports["base"][key], key
    assert (reports["gamma0"]["contrastive_accuracy_no_cfg"]
            == reports["gamma1"]["contrastive_accuracy"])


def test_guidance_never_reads_base_checkpoint(run_dir, tmp_path):
    # guidance blends the adapted model with its own extras-off base, so a
    # base.ckpt pretrained at another seed changes nothing
    config_path, out = run_dir
    kept, swapped = tmp_path / "kept", tmp_path / "swapped"
    for d in (kept, swapped):
        shutil.copytree(out / "corpus", d / "corpus")
        shutil.copytree(out / "train_full", d / "train_full")
    shutil.copy(out / "base.ckpt", kept / "base.ckpt")
    assert cli.main(["pretrain", "--config", str(config_path), "--seed", "1",
                     "--out", str(swapped)]) == 0
    assert (swapped / "base.ckpt").read_bytes() != \
        (kept / "base.ckpt").read_bytes()
    for d in (kept, swapped):
        common = ["--config", str(config_path), "--out", str(d)]
        assert cli.main(["eval", *common, "--gamma", "2.0"]) == 0
        assert cli.main(["sweep", *common, "--param", "gamma",
                         "--values", "0.5,2.0"]) == 0
    for name in ("eval_gamma2/eval_report.json", "eval_gamma2/eval_rows.csv",
                 "sweep_gamma/sweep.csv"):
        assert (kept / name).read_bytes() == (swapped / name).read_bytes(), name


def _translate_with_edited_world(run_dir, tmp_path, capsys, edit):
    """Run `translate` on a copy of the run directory whose world.json
    ``edit`` changed in place; return world.json's path and stderr."""
    config_path, out = run_dir
    old = tmp_path / "old"
    shutil.copytree(out / "corpus", old / "corpus")
    shutil.copy(out / "base.ckpt", old / "base.ckpt")
    path = old / "corpus" / "world.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["translate", "--config", str(config_path),
                     "--out", str(old)]) == 1
    return path, capsys.readouterr().err


def test_world_with_unknown_spec_key_names_the_file(run_dir, tmp_path, capsys):
    path, err = _translate_with_edited_world(
        run_dir, tmp_path, capsys,
        lambda w: w["world"]["spec"].update(caption_cue_rate=0.5))
    assert f"{path}: world.spec: unknown keys ['caption_cue_rate']" in err


def _float_first_sense(payload):
    word = next(iter(payload["world"]["amb_tgt"]))
    payload["world"]["amb_tgt"][word][0] += 0.9


@pytest.mark.parametrize("edit, message", [
    (lambda w: w["world"]["spec"].update(image_dim="16"),
     'world.spec.image_dim must be int, got "16"'),
    (lambda w: w["world"]["spec"].update(sense_cluster_separation=-1.0),
     "world.spec: sense_cluster_separation must be finite and positive"),
    (lambda w: w["world"]["spec"].pop("seed"), "world.spec without ['seed']"),
    (_float_first_sense, "world.amb_tgt is not the one world.spec generates"),
], ids=["image_dim_string", "negative_separation", "spec_without_seed",
        "float_sense_id"])
def test_world_with_malformed_spec_or_lexicon_names_the_file_and_key(
        run_dir, tmp_path, capsys, edit, message):
    path, err = _translate_with_edited_world(run_dir, tmp_path, capsys, edit)
    assert f"{path}: {message}" in err


@pytest.mark.parametrize("drop", ["world", "spec", "cue"])
def test_world_missing_a_field_names_the_file_and_field(run_dir, tmp_path,
                                                        capsys, drop):
    path, err = _translate_with_edited_world(
        run_dir, tmp_path, capsys,
        lambda w: (w if drop == "world" else w["world"]).pop(drop))
    assert f"{path}: missing field '{drop}'" in err


def test_eval_names_a_contrastive_instance_without_an_ambiguous_word(
        run_dir, tmp_path, capsys, monkeypatch):
    # checked against the world before any scoring, not a bare StopIteration
    # after it
    config_path, out = run_dir
    bad = tmp_path / "bad"
    shutil.copytree(out / "corpus", bad / "corpus")
    shutil.copytree(out / "train_full", bad / "train_full")
    world = sc.world_from_dict(
        json.loads((bad / "corpus" / "world.json").read_text())["world"])
    path = bad / "corpus" / "test_contrastive.jsonl"
    instances = sc.read_contrastive(path)
    victim = instances[1]
    victim.src = [world.plain_src[0] if t in world.amb_tgt else t
                  for t in victim.src]
    sc.write_contrastive(path, instances)
    scored = []

    def recording(scorer, instances, _rows=ev.commute_rows):
        scored.append(type(scorer).__name__)
        return _rows(scorer, instances)

    monkeypatch.setattr(ev, "commute_rows", recording)
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config_path),
                     "--out", str(bad), "--gamma", "2.0"]) == 1
    err = capsys.readouterr().err
    assert f"{path}: instance {victim.id} has no ambiguous word" in err
    assert scored == []
    assert not (bad / "eval_gamma2").exists()


def test_eval_rejects_a_contrastive_target_without_bos_by_file_and_line(
        run_dir, tmp_path, capsys):
    # teacher forcing would feed the target's tokens but its last and score
    # the rest, so a target without BOS would be scored silently
    config_path, out = run_dir
    bad = tmp_path / "bad"
    shutil.copytree(out / "corpus", bad / "corpus")
    shutil.copytree(out / "train_full", bad / "train_full")
    path = bad / "corpus" / "test_contrastive.jsonl"
    instances = sc.read_contrastive(path)
    instances[1].tgt_b = instances[1].tgt_b[1:]
    sc.write_contrastive(path, instances)
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config_path),
                     "--out", str(bad), "--gamma", "2.0"]) == 1
    err = capsys.readouterr().err
    assert (f"{path}: malformed line 2: target must be BOS-led and "
            "EOS-terminated") in err
    assert not (bad / "eval_gamma2").exists()


# (stage, split, edit of its second record, message, what the stage writes)
MISFITS = {
    "eval_src_id": ("eval", "test_contrastive",
                    lambda r: r["src"].__setitem__(0, 40),
                    "src token id 40 outside the vocabulary [0, 32)",
                    "eval_gamma2/eval_report.json"),
    "eval_tgt_id": ("eval", "test_contrastive",
                    lambda r: r["tgt_b"].__setitem__(1, 40),
                    "tgt_b token id 40 outside the vocabulary [0, 32)",
                    "eval_gamma2/eval_report.json"),
    "eval_image": ("eval", "test_contrastive",
                   lambda r: r.update(img_a=r["img_a"][:3]),
                   "img_a shape (3,) != (4,)", "eval_gamma2/eval_report.json"),
    "eval_long_src": ("eval", "test_contrastive",
                      lambda r: r.update(src=(r["src"] * 15)[:15]),
                      "src of 15 tokens is too long for max_len 12",
                      "eval_gamma2/eval_report.json"),
    "pretrain_src_id": ("pretrain", "pretrain_parallel",
                        lambda r: r["src"].__setitem__(0, 40),
                        "src token id 40 outside the vocabulary [0, 32)",
                        "base.ckpt"),
    "translate_image": ("translate", "mmt_train",
                        lambda r: r.update(img=r["img"][:3]),
                        "img shape (3,) != (4,)",
                        "corpus/mmt_train_pseudo.jsonl"),
    "train_long_tgt": ("train", "val_translation",
                       lambda r: r.update(tgt=[m.BOS] + [5] * 13 + [m.EOS]),
                       "tgt of 15 tokens is too long for max_len 12",
                       "train_full/best.ckpt"),
    "sweep_tgt_id": ("sweep", "test_translation",
                     lambda r: r["tgt"].__setitem__(1, 40),
                     "tgt token id 40 outside the vocabulary [0, 32)",
                     "sweep_gamma/sweep.csv"),
}
STAGE_ARGS = {"eval": ["--gamma", "2.0"], "train": ["--mode", "full"],
              "sweep": ["--param", "gamma", "--values", "2.0"]}


def _run_on_edited_split(run_dir, tmp_path, capsys, stage, split, edit,
                         output):
    """Run ``stage`` on a copy of the run directory whose ``split`` records
    ``edit`` rewrote in place; the split's path, its records, the stage's
    stderr, and whether the stage left ``output`` as it was."""
    config_path, out = run_dir
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    path = bad / "corpus" / f"{split}.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def written():
        return (bad / output).read_bytes() if (bad / output).exists() else None

    before = written()
    capsys.readouterr()
    assert cli.main([stage, "--config", str(config_path), "--out", str(bad),
                     *STAGE_ARGS.get(stage, [])]) == 1
    return path, records, capsys.readouterr().err, written() == before


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_records_that_do_not_fit_the_model_fail_by_file_and_id(
        run_dir, tmp_path, capsys, case):
    # unchecked, these failed inside the forward with a message that named
    # neither the file nor the record
    stage, split, edit, message, output = MISFITS[case]
    path, records, err, unchanged = _run_on_edited_split(
        run_dir, tmp_path, capsys, stage, split, lambda rs: edit(rs[1]), output)
    assert f"{path}: record id {records[1]['id']}: {message}" in err
    assert unchanged


# stage -> (split left empty, what the stage writes)
EMPTY_SPLITS = {
    "pretrain": ("pretrain_parallel", "base.ckpt"),
    "train": ("val_translation", "train_full/best.ckpt"),
    "eval": ("test_translation", "eval_gamma2/eval_report.json"),
}


@pytest.mark.parametrize("stage", sorted(EMPTY_SPLITS))
def test_an_empty_split_fails_at_load_by_path(run_dir, tmp_path, capsys, stage):
    # unchecked, train ran eval_every steps and eval scored the whole
    # contrastive set before a bare "empty corpus"
    split, output = EMPTY_SPLITS[stage]
    path, _, err, unchanged = _run_on_edited_split(
        run_dir, tmp_path, capsys, stage, split, list.clear, output)
    assert f"{path}: no records" in err
    assert unchanged


@pytest.mark.parametrize("stage_args,message,output", [
    (["eval", "--text-only"],
     "--ckpt does not apply to eval --text-only (it evaluates {})",
     "eval_base"),
    (["sweep", "--param", "lambda", "--values", "1.0"],
     "--ckpt does not apply to sweep --param lambda (it adapts {})",
     "sweep_lambda"),
], ids=["eval_text_only", "sweep_lambda"])
def test_a_ckpt_the_stage_would_ignore_fails_by_name(
        run_dir, tmp_path, capsys, stage_args, message, output):
    # unchecked, both read base.ckpt and exited 0, even for a missing --ckpt
    config_path, out = run_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    shutil.rmtree(run / output, ignore_errors=True)
    capsys.readouterr()
    assert cli.main([stage_args[0], "--config", str(config_path),
                     "--out", str(run), *stage_args[1:],
                     "--ckpt", str(tmp_path / "missing.ckpt")]) == 1
    assert message.format(run / "base.ckpt") in capsys.readouterr().err
    assert not (run / output).exists()


def test_sweep_gamma_writes_grid(run_dir):
    config_path, out = run_dir
    assert cli.main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--param", "gamma", "--values", "1.0,2.0"]) == 0
    lines = (out / "sweep_gamma" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,contrastive_accuracy,bleu"
    assert len(lines) == 3
    assert lines[1].startswith("1.0,") and lines[2].startswith("2.0,")


def test_stage_failure_exits_nonzero(tmp_path):
    # training without a corpus must fail loudly, not crash
    assert cli.main(["train", "--out", str(tmp_path / "empty")]) == 1


def test_unknown_config_key_is_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": {}}))
    assert cli.main(["gen", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("raw,message", [
    ({"world": 5}, "config.world must be an object, got 5"),
    ({"sizes": {"mmt_train": "8"}}, 'config.sizes.mmt_train must be int, got "8"'),
    ({"train": {"lr": "fast"}}, 'config.train.lr must be float, got "fast"'),
    ({"train": {"lr": {"x": 1}}}, 'config.train.lr must be float, got {"x": 1}'),
    ({"eval_beam_width": 0}, "config.eval_beam_width must be positive, got 0"),
    ({"pretrain": {"max_steps": 0}}, "config.pretrain: batch_size and max_steps"),
    ({"targets": "silver"}, "targets must be pseudo or gold, got 'silver'"),
])
def test_mistyped_config_values_fail_at_load_by_key(tmp_path, capsys, raw,
                                                    message):
    # type errors and validation errors alike name the config file
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["gen", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 1
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "corpus").exists()
    # an int stands for a float
    bad.write_text(json.dumps({"train": {"lr": 1}}))
    assert cli.load_config(str(bad), None).train.lr == 1


def test_config_that_is_not_json_fails_naming_its_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sizes": {mmt_train: 8}}')
    capsys.readouterr()
    assert cli.main(["gen", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 1
    assert f"{bad}: config is not JSON: Expecting property name" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "corpus").exists()


def test_pretrain_rejects_invalid_config(run_dir, tmp_path):
    _, out = run_dir
    small = tmp_path / "out"
    shutil.copytree(out / "corpus", small / "corpus")
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(dict(CONFIG, pretrain={"max_steps": 0})))
    assert cli.main(["pretrain", "--config", str(config_path),
                     "--out", str(small)]) == 1
    assert not (small / "base.ckpt").exists()


def test_removed_config_keys_are_rejected(tmp_path):
    """Keys of settings that became constants fail loudly in old configs."""
    removed = [
        ("pretrain", "beta1"), ("pretrain", "beta2"), ("pretrain", "eps_adam"),
        ("train", "beta1"), ("train", "beta2"), ("train", "eps_adam"),
        ("train", "kl_mode"), ("train", "beam_width"),
        ("model", "visual_positional_encoding"), ("world", "caption_cue_rate"),
        (None, "gamma_list"), (None, "lambda_list"),
    ]
    path = tmp_path / "old.json"
    for section, key in removed:
        path.write_text(json.dumps(
            {key: 1} if section is None else {section: {key: 1}}))
        where = "config" if section is None else f"config.{section}"
        message = f"{path}: {where}: unknown keys ['{key}']"
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.load_config(str(path), None)


def test_seed_override_reaches_all_stages(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert cli.main(["gen", "--config", str(config_path), "--seed", "7",
                     "--out", str(out)]) == 0
    payload = json.loads((out / "corpus" / "world.json").read_text())
    assert payload["config"]["world"]["seed"] == 7
    assert payload["config"]["pretrain"]["seed"] == 7
    assert payload["config"]["train"]["seed"] == 7


@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
def test_importing_zerommt_picks_one_blas_thread_unless_the_user_chose(
        preset, want):
    """Set before numpy first loads, so a fresh process sees it; a value
    the user set stays."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = Path(cli.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", "import os, sys, zerommt; "
         "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out == [want, "True"]
