"""The acceptance run: the paper's experiment at the acceptance
configuration (``CONFIG``), run through the ``zerommt`` CLI stages in
process. ``run(out, seed)`` is what ``tests/test_acceptance.py`` checks and
``scripts/seed_spread.py`` measures per seed; the README gives the same
run as shell commands. Every number comes from the files the stages write.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

from zerommt import cli
from zerommt import model as m
from zerommt import training as tr

CONFIG = {"world": {"sense_cluster_separation": 2.0}, "train": {"lr": 3e-3}}
GAMMA_GRID = [1.0, 1.5, 2.0, 3.0]

# the thresholds of the acceptance checks
FULL_MIN_ACC = 65.0  # full's contrastive accuracy
MAX_BLEU_DROP = 2.0  # full's translation BLEU below the base's
CHANCE_BAND = (45.0, 55.0)  # no_vmlm's contrastive accuracy
MAX_ACC_DROP = 2.0  # no_kl's contrastive accuracy below full's
MIN_GUIDANCE_GAIN = 2.0  # accuracy at gamma=2 over gamma=1
MAX_GUIDANCE_DIP = 1.0  # worst accuracy dip between neighbouring gammas


def stage(argv: list[str]) -> None:
    """Run one CLI stage; a nonzero exit raises, naming the argv."""
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"zerommt {' '.join(argv)} exited with {code}")


def base_sha(ckpt: Path) -> str:
    """sha256 of the frozen base's bytes in the checkpoint ``ckpt``."""
    params, _ = m.load_checkpoint(ckpt)
    return hashlib.sha256(params.base_bytes()).hexdigest()


def _common(out: Path, config: dict, seed: int) -> list[str]:
    """Writes ``config`` into ``out``; returns the arguments of its stages."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config))
    return ["--config", str(out / "config.json"), "--seed", str(seed),
            "--out", str(out)]


def _train(out: Path, common: list[str], mode: str) -> int:
    """Trains ``mode`` and returns the step its best.ckpt was selected at."""
    stage(["train", *common, "--mode", mode])
    return m.load_checkpoint(out / f"train_{mode}" / "best.ckpt")[1]["best_step"]


def _sweep(out: Path, common: list[str], ckpt: Path, gammas: list) -> dict:
    """(contrastive accuracy, BLEU) of ``ckpt`` per gamma, from sweep.csv,
    whose sidecar must name ``ckpt`` (relative to ``out``, inside it)."""
    stage(["sweep", *common, "--param", "gamma", "--ckpt", str(ckpt),
           "--values", ",".join(map(repr, gammas))])
    csv = out / "sweep_gamma" / "sweep.csv"
    measured = json.loads(Path(f"{csv}.meta.json").read_text())["ckpt"]
    if out / measured != ckpt:
        raise RuntimeError(f"{csv} measured {measured}, not {ckpt}")
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    return {float(g): (float(acc), float(bleu)) for g, acc, bleu in rows}


def run(out: Path, seed: int, replacement_lam: float | None = None) -> dict:
    """Every number the acceptance checks read, for one seed, with the run
    directory left at ``out``. With ``replacement_lam`` L it also trains
    ``mmt_no_kl`` at ``train.lam`` L, in a second run directory
    ``out/replacement`` that holds copies of the corpus and the base."""
    out = Path(out)
    common = _common(out, CONFIG, seed)
    for name in ("gen", "pretrain", "translate"):
        stage([name, *common])
    r = {"base_sha": base_sha(out / "base.ckpt"), "train_seconds": 0.0}
    r["base_acc"], r["base_bleu"] = \
        _sweep(out, common, out / "base.ckpt", [0.0])[0.0]
    for mode in tr.TRAIN_MODES:
        t0 = time.time()
        r[f"{mode}_step"] = _train(out, common, mode)
        r["train_seconds"] += time.time() - t0
        grid = GAMMA_GRID if mode == "full" else [1.0]
        scores = _sweep(out, common, out / f"train_{mode}" / "best.ckpt", grid)
        r[f"{mode}_acc"], r[f"{mode}_bleu"] = scores[1.0]
        if mode == "full":
            for gamma, (acc, bleu) in scores.items():
                r[f"acc_g{gamma:g}"], r[f"bleu_g{gamma:g}"] = acc, bleu

    if replacement_lam is not None:
        lam_out = out / "replacement"
        shutil.copytree(out / "corpus", lam_out / "corpus")
        shutil.copy(out / "base.ckpt", lam_out / "base.ckpt")
        lam_common = _common(lam_out, dict(CONFIG, train=dict(
            CONFIG["train"], lam=replacement_lam)), seed)
        r["replacement_lam"] = replacement_lam
        r["mmt_no_kl_lam_step"] = _train(lam_out, lam_common, "mmt_no_kl")
        r["mmt_no_kl_lam_acc"], _ = _sweep(
            lam_out, lam_common, lam_out / "train_mmt_no_kl" / "best.ckpt",
            [1.0])[1.0]
    return r
