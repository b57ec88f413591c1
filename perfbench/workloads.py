"""The three benchmark workloads: ``train``, ``decode`` and ``score``.

Each workload has a set-up (``setup``), a fixed unit of work that the
benchmark repeats and times (``run_pass``), an untimed look at what the
pass produced (``inspect``: quality numbers and digests) and correctness
checks (``checks``). A pass is a pure function of the seed, so every pass
of a run, traced or not, must produce the same digests.

Work is timed in labelled segments of two kinds: ``method`` is the
paper's method (adaptation on ``train``, guided beam search on ``decode``,
guided scorers on ``score``) and ``other`` is the rest of the work.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from zerommt import cli
from zerommt import decoding
from zerommt import evaluation as ev
from zerommt import model as m
from zerommt import objectives as obj
from zerommt import synthcorpus as sc
from zerommt import training as tr

EXTRAS_SCALE = 0.05
DECODE_GAMMA = 2.0
SCORE_GAMMAS = (1.5, 2.0, 3.0)
# sentences on which cfg_beam_search at gamma=1 is compared with beam_search
GAMMA1_CHECKS = 8
# final log rows averaged into adapt_loss
ADAPT_LOSS_ROWS = 10

# Run configurations handed to `zerommt --config`. `train` uses the
# acceptance learning rate with gold targets, so it needs no translate
# stage; `eval` is the shared set-up of `decode` and `score`: a base
# pretrained long enough that every test hypothesis finishes.
SIZES = {
    "full": {
        "train": {
            "sizes": {"pretrain_parallel": 3000, "mmt_train": 256,
                      "val_contrastive": 16, "val_translation": 12,
                      "test_contrastive": 4, "test_translation": 64},
            "pretrain": {"max_steps": 60},
            "train": {"lr": 3e-3, "max_steps": 30, "eval_every": 15},
            "targets": "gold",
        },
        "eval": {
            "sizes": {"pretrain_parallel": 3000, "mmt_train": 64,
                      "val_contrastive": 4, "val_translation": 4,
                      "test_contrastive": 64, "test_translation": 64},
            "pretrain": {"max_steps": 200, "lr": 3e-3},
        },
    },
    "tiny": {
        "train": {
            "sizes": {"pretrain_parallel": 64, "mmt_train": 16,
                      "val_contrastive": 2, "val_translation": 2,
                      "test_contrastive": 2, "test_translation": 4},
            "pretrain": {"max_steps": 4, "batch_size": 8},
            "train": {"lr": 3e-3, "max_steps": 2, "eval_every": 1,
                      "batch_size": 8},
            "targets": "gold",
        },
        "eval": {
            "sizes": {"pretrain_parallel": 512, "mmt_train": 4,
                      "val_contrastive": 2, "val_translation": 2,
                      "test_contrastive": 4, "test_translation": 4},
            "pretrain": {"max_steps": 60, "lr": 3e-3},
        },
    },
}


@dataclass
class Segment:
    kind: str  # "method" or "other"
    label: str
    items: int
    unit_s: list[float]  # one time per call the benchmark made and timed

    @property
    def seconds(self) -> float:
        return sum(self.unit_s)


@dataclass
class PassResult:
    segments: list[Segment] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    artifacts: dict = field(default_factory=dict)


def sha256_json(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def base_sha256(params: m.ModelParams) -> str:
    return hashlib.sha256(params.base_bytes()).hexdigest()


def pretrain_nll(base: m.ModelParams, examples: list[sc.Example]) -> float:
    """Held-out teacher-forced NLL of the base, one batch."""
    batch = obj.Batch([obj.BatchExample(src=ex.src, tgt=ex.tgt)
                       for ex in examples])
    return float(obj.text_nll(batch, base).data)


def _run_stage(*argv: str) -> None:
    code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"zerommt {' '.join(argv)} exited with {code}")


class Workload:
    name = ""
    config_key = ""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.config = copy.deepcopy(SIZES[size][self.config_key])
        self.run_dir: Path | None = None
        self.setup_shas: list[str] = []

    def _stage(self, stage: str, *extra: str) -> None:
        _run_stage(stage, "--config", str(self.run_dir / "config.json"),
                   "--seed", str(self.seed), "--out", str(self.run_dir), *extra)

    def _prepare(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(json.dumps(self.config, indent=2))

    def setup(self, run_dir: Path) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def inspect(self, result: PassResult) -> None:
        """Fill ``result.quality`` and ``result.digests``."""
        raise NotImplementedError

    def checks(self, result: PassResult) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def record(self) -> dict:
        """What the run record should know about the models of the run."""
        return {}


class TrainWorkload(Workload):
    """`zerommt pretrain` then `zerommt train --mode full`."""

    name = "train"
    config_key = "train"

    def setup(self, run_dir: Path) -> None:
        self._prepare(run_dir)
        self._stage("gen")

    def _samples(self, section: str, corpus: str) -> int:
        defaults = tr.PretrainConfig() if section == "pretrain" else tr.TrainConfig()
        cfg = self.config.get(section, {})
        steps = cfg.get("max_steps", defaults.max_steps)
        batch = min(cfg.get("batch_size", defaults.batch_size),
                    self.config["sizes"][corpus])
        return steps * batch

    def run_pass(self) -> PassResult:
        res = PassResult()
        t0 = perf_counter()
        self._stage("pretrain")
        t1 = perf_counter()
        self._stage("train", "--mode", "full")
        t2 = perf_counter()
        res.wall_s = t2 - t0
        res.segments = [
            Segment("other", "pretrain",
                    self._samples("pretrain", "pretrain_parallel"), [t1 - t0]),
            Segment("method", "adapt",
                    self._samples("train", "mmt_train"), [t2 - t1]),
        ]
        return res

    def inspect(self, res: PassResult) -> None:
        base, _ = m.load_checkpoint(self.run_dir / "base.ckpt")
        best, _ = m.load_checkpoint(self.run_dir / "train_full" / "best.ckpt")
        log_text = (self.run_dir / "train_full" / "train_log.csv").read_text()
        rows = [line.split(",") for line in log_text.splitlines()[1:]]
        totals = [float(r[3]) for r in rows[-ADAPT_LOSS_ROWS:]]
        test = sc.read_examples(
            self.run_dir / "corpus" / "test_translation.jsonl")
        res.quality = {"pretrain_nll": pretrain_nll(base, test),
                       "adapt_loss": float(np.mean(totals))}
        self.base_sha = base_sha256(base)
        res.digests = {
            "base_sha256": self.base_sha,
            "train_log_sha256": hashlib.sha256(log_text.encode()).hexdigest(),
        }
        res.artifacts["trained_base_sha256"] = base_sha256(best)

    def record(self) -> dict:
        return {"base_sha256": self.base_sha}

    def checks(self, result: PassResult) -> list[tuple[str, bool]]:
        out = [("train leaves the base bytes unchanged",
                result.artifacts["trained_base_sha256"]
                == result.digests["base_sha256"])]
        for key, value in result.quality.items():
            out.append((f"{key} is finite", math.isfinite(value)))
        return out


class EvalWorkload(Workload):
    """Shared set-up of `decode` and `score`: gen, a reduced pretrain, then
    the multimodal model as the loaded base plus seeded random extras."""

    config_key = "eval"

    def setup(self, run_dir: Path) -> None:
        self._prepare(run_dir)
        self._stage("gen")
        self._stage("pretrain")
        self.base, _ = m.load_checkpoint(run_dir / "base.ckpt")
        self.base.freeze_base()
        self.mm, _ = m.load_checkpoint(run_dir / "base.ckpt")
        self.mm.freeze_base()
        m.randomize_extras(self.mm, seed=self.seed, scale=EXTRAS_SCALE)
        corpus = run_dir / "corpus"
        self.test_translation = sc.read_examples(corpus / "test_translation.jsonl")
        self.test_contrastive = sc.read_contrastive(
            corpus / "test_contrastive.jsonl")
        self.setup_shas.append(base_sha256(self.base))

    def record(self) -> dict:
        return {"randomize_extras_seed": self.seed,
                "randomize_extras_scale": EXTRAS_SCALE,
                "base_sha256": self.setup_shas[-1],
                "pretrain_nll": pretrain_nll(self.base, self.test_translation)}


class DecodeWorkload(EvalWorkload):
    """`zerommt translate`, then per-sentence multimodal and guided beam
    search over the test translation split."""

    name = "decode"

    def run_pass(self) -> PassResult:
        res = PassResult()
        width = cli.RunConfig().eval_beam_width
        t0 = perf_counter()
        self._stage("translate")
        t1 = perf_counter()
        n_captions = self.config["sizes"]["mmt_train"]
        res.segments.append(Segment("other", "translate", n_captions, [t1 - t0]))

        mm_hyps, guided_hyps = [], []
        for label, kind, hyps in (("multimodal", "other", mm_hyps),
                                  ("guided", "method", guided_hyps)):
            unit_s = []
            for ex in self.test_translation:
                ts = perf_counter()
                if label == "multimodal":
                    hyp = decoding.beam_search(self.mm, ex.src, image=ex.image,
                                               width=width)
                else:
                    hyp = decoding.cfg_beam_search(self.base, self.mm, ex.src,
                                                   ex.image, DECODE_GAMMA,
                                                   width=width)
                unit_s.append(perf_counter() - ts)
                hyps.append(hyp)
            res.segments.append(Segment(kind, label, len(hyps), unit_s))
        res.wall_s = perf_counter() - t0
        res.artifacts.update(mm_hyps=mm_hyps, guided_hyps=guided_hyps)
        return res

    def inspect(self, res: PassResult) -> None:
        mm_hyps = res.artifacts["mm_hyps"]
        guided_hyps = res.artifacts["guided_hyps"]
        report = json.loads((self.run_dir / "translate_report.json").read_text())
        pseudo = sc.read_examples(self.run_dir / "corpus" / "mmt_train_pseudo.jsonl")
        refs = [ex.tgt[1:-1] for ex in self.test_translation]
        res.quality = {
            "decode_bleu": ev.bleu([list(h.tokens) for h in guided_hyps], refs),
            "multimodal_bleu": ev.bleu([list(h.tokens) for h in mm_hyps], refs),
        }
        res.digests = {"tokens_sha256": sha256_json({
            "translate": [ex.tgt for ex in pseudo],
            "multimodal": [list(h.tokens) for h in mm_hyps],
            "guided": [list(h.tokens) for h in guided_hyps],
        })}
        res.artifacts["report"] = report

    def checks(self, result: PassResult) -> list[tuple[str, bool]]:
        out: list[tuple[str, bool]] = []
        report = result.artifacts["report"]
        dropped = report["n_dropped"]
        out += [("translate hypothesis finishes", True)] * (
            report["n_total"] - dropped)
        out += [("translate hypothesis finishes", False)] * dropped
        for label in ("mm_hyps", "guided_hyps"):
            for hyp in result.artifacts[label]:
                out.append((f"{label} hypothesis finishes", hyp.finished))
        width = cli.RunConfig().eval_beam_width
        for ex, plain in zip(self.test_translation[:GAMMA1_CHECKS],
                             result.artifacts["mm_hyps"]):
            guided = decoding.cfg_beam_search(self.base, self.mm, ex.src,
                                              ex.image, 1.0, width=width)
            out.append(("cfg_beam_search at gamma=1 equals beam_search",
                        (guided.tokens, guided.logp, guided.finished)
                        == (plain.tokens, plain.logp, plain.finished)))
        for key, value in result.quality.items():
            out.append((f"{key} is finite", math.isfinite(value)))
        return out


class ScoreWorkload(EvalWorkload):
    """`evaluation.evaluate_contrastive` over the test contrastive split with
    the text-only, multimodal and guided scorers."""

    name = "score"

    def _scorers(self):
        cfg_space = cli.RunConfig().cfg_space
        yield "other", "text", ev.TextOnlyScorer(self.base)
        yield "other", "multimodal", ev.MultimodalScorer(self.mm)
        for gamma in SCORE_GAMMAS:
            yield "method", f"cfg{gamma:g}", ev.CfgScorer(
                ev.TextOnlyScorer(self.base), ev.MultimodalScorer(self.mm),
                gamma, cfg_space)

    def run_pass(self) -> PassResult:
        res = PassResult()
        reports = {}
        t0 = perf_counter()
        for kind, label, scorer in self._scorers():
            start = perf_counter()
            report = ev.evaluate_contrastive(scorer, self.test_contrastive)
            res.segments.append(Segment(kind, label, len(report.rows),
                                        [perf_counter() - start]))
            reports[label] = report
        res.wall_s = perf_counter() - t0
        res.artifacts["reports"] = reports
        return res

    def inspect(self, res: PassResult) -> None:
        reports = res.artifacts["reports"]
        for label, report in reports.items():
            res.quality[f"{label}_accuracy"] = report.contrastive_accuracy
            res.quality[f"{label}_mean_ppl_correct"] = report.mean_ppl_correct
            res.quality[f"{label}_mean_ppl_wrong"] = report.mean_ppl_wrong
        res.digests = {"ppl_rows_sha256": sha256_json(
            {label: r.rows_csv() for label, r in reports.items()})}

    def checks(self, result: PassResult) -> list[tuple[str, bool]]:
        out = [
            ("text-only contrastive accuracy is exactly 50.0",
             result.quality["text_accuracy"] == 50.0),
            ("text-only scorer has no ties",
             result.artifacts["reports"]["text"].n_ties == 0),
        ]
        for key, value in result.quality.items():
            out.append((f"{key} is finite", math.isfinite(value)))
        return out


WORKLOADS = {w.name: w for w in (TrainWorkload, DecodeWorkload, ScoreWorkload)}
