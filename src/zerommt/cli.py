"""Command-line pipeline: gen | pretrain | translate | train | eval | sweep.

Every stage reads and writes inside one run directory, so a full
experiment is a chain of commands sharing ``--out``. JSON reports embed
the resolved configuration and code version; CSV outputs get a sidecar
``.meta.json`` with the same payload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import __version__
from . import decoding
from . import evaluation as ev
from . import model as m
from . import synthcorpus as sc
from . import training as tr

DEFAULT_GAMMAS = [1.0, 1.25, 1.5, 2.0, 2.5, 3.0]
DEFAULT_LAMBDAS = [0.01, 0.05, 0.1, 0.5, 1.0, 10.0]


@dataclass
class RunConfig:
    world: sc.WorldSpec = field(default_factory=sc.WorldSpec)
    sizes: sc.SplitSizes = field(default_factory=sc.SplitSizes)
    model: m.ModelConfig = field(default_factory=m.ModelConfig)
    pretrain: tr.PretrainConfig = field(default_factory=tr.PretrainConfig)
    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
    targets: str = "pseudo"
    cfg_space: str = "log"
    eval_beam_width: int = 4

    def validate(self) -> None:
        for name in ("world", "sizes", "model", "pretrain", "train"):
            try:
                getattr(self, name).validate()
            except ValueError as e:
                raise ValueError(f"config.{name}: {e}") from e
        if self.world.image_dim != self.model.image_dim:
            raise ValueError(
                f"config.world.image_dim {self.world.image_dim} != "
                f"config.model.image_dim {self.model.image_dim}")
        if self.targets not in ("pseudo", "gold"):
            raise ValueError(f"targets must be pseudo or gold, got {self.targets!r}")
        if self.cfg_space not in ("log", "prob_clip"):
            raise ValueError(f"unknown cfg_space {self.cfg_space!r}")
        if self.eval_beam_width < 1:
            raise ValueError("config.eval_beam_width must be positive, got "
                             f"{self.eval_beam_width}")


def load_config(path: str | None, seed: int | None) -> RunConfig:
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: config is not JSON: {e}") from e
    config = m.from_json(RunConfig, raw, f"{path}: config", partial=True)
    if seed is not None:
        config.world.seed = seed
        config.pretrain.seed = seed
        config.train.seed = seed
    try:
        config.validate()
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    return config


def _meta(config: RunConfig, **extra) -> dict:
    payload = {"version": __version__, "config": asdict(config)}
    payload.update(extra)
    return payload


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, text: str, config: RunConfig, **extra) -> None:
    path.write_text(text, encoding="utf-8")
    _write_json(path.with_suffix(path.suffix + ".meta.json"),
                _meta(config, **extra))


# ---------------------------------------------------------------------------
# stage helpers


def _corpus_dir(out: Path) -> Path:
    return out / "corpus"


def _load_world(out: Path) -> sc.World:
    path = _corpus_dir(out) / "world.json"
    try:
        return sc.world_from_dict(json.loads(path.read_text())["world"])
    except KeyError as e:
        raise ValueError(f"{path}: missing field {e.args[0]!r}") from e
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _load_split(out: Path, name: str, model_config: m.ModelConfig,
                suffix: str = "") -> list:
    """The records of the split ``name`` read from ``<name><suffix>.jsonl``,
    each checked to fit a model of ``model_config`` before any stage works
    on them; a split without records fails here, by path."""
    path = _corpus_dir(out) / f"{name}{suffix}.jsonl"
    records = sc.SPLITS[name].read(path)
    if not records:
        raise ValueError(f"{path}: no records")
    sc.check_fit(path, records, model_config)
    return records


def _load_model(path: Path) -> m.ModelParams:
    """The checkpoint at ``path``, its base frozen."""
    params, _ = m.load_checkpoint(path)
    params.freeze_base()
    return params


def _adapted_ckpt(config: RunConfig, out: Path) -> Path:
    """The checkpoint ``train`` writes for the config's ``train.mode``."""
    return out / f"train_{config.train.mode}" / "best.ckpt"


def _ckpt_field(ckpt: Path, out: Path) -> str:
    """How a report names the checkpoint it measured: relative to the run
    directory ``out`` when it lies inside, else as an absolute path."""
    ckpt, out = ckpt.resolve(), out.resolve()
    return str(ckpt.relative_to(out) if ckpt.is_relative_to(out) else ckpt)


def _train_data(out: Path, config: RunConfig,
                model_config: m.ModelConfig) -> tr.TrainData:
    suffix = "_pseudo" if config.targets == "pseudo" else ""
    path = _corpus_dir(out) / f"mmt_train{suffix}.jsonl"
    if suffix and not path.exists():
        raise FileNotFoundError(
            f"{path} missing: run the translate stage first (or set targets=gold)"
        )
    return tr.TrainData(_load_split(out, "mmt_train", model_config, suffix),
                        *(_load_split(out, name, model_config)
                          for name in ("val_contrastive", "val_translation")))


# ---------------------------------------------------------------------------
# commands


def cmd_gen(config: RunConfig, out: Path) -> None:
    world = sc.generate_world(config.world, vocab_budget=config.model.vocab_size)
    splits = sc.generate_splits(world, config.sizes)
    cdir = _corpus_dir(out)
    cdir.mkdir(parents=True, exist_ok=True)
    _write_json(cdir / "world.json", _meta(config, world=sc.world_to_dict(world)))
    for name, split in sc.SPLITS.items():
        records = getattr(splits, name)
        split.write(cdir / f"{name}.jsonl", records)
        print(f"{name}: {len(records)}")


def cmd_pretrain(config: RunConfig, out: Path) -> None:
    corpus = _load_split(out, "pretrain_parallel", config.model)
    params = tr.pretrain_base(corpus, config.model, config.pretrain)
    m.save_checkpoint(out / "base.ckpt", params, meta=_meta(config, stage="pretrain"))
    print(f"pretrained base saved to {out / 'base.ckpt'}")


def cmd_translate(config: RunConfig, out: Path) -> None:
    base = _load_model(out / "base.ckpt")
    world = _load_world(out)
    gold = _load_split(out, "mmt_train", base.config)
    pseudo, report = sc.pseudo_translate(
        base, gold, world, width=config.eval_beam_width
    )
    sc.write_examples(_corpus_dir(out) / "mmt_train_pseudo.jsonl", pseudo)
    _write_json(out / "translate_report.json", _meta(
        config,
        n_total=report.n_total,
        n_dropped=report.n_dropped,
        unambiguous_match_rate=report.unambiguous_match_rate,
        cued_sense_match_rate=report.cued_sense_match_rate,
        uncued_sense_counts=report.uncued_sense_counts,
    ))
    print(
        f"pseudo-translated {report.n_total - report.n_dropped}/{report.n_total} "
        f"(unambiguous match {report.unambiguous_match_rate:.3f}, "
        f"cued sense match {report.cued_sense_match_rate:.3f})"
    )


def cmd_train(config: RunConfig, out: Path) -> None:
    mode = config.train.mode
    base = _load_model(out / "base.ckpt")
    data = _train_data(out, config, base.config)
    result = tr.train(config.train, data, base)
    run_dir = out / f"train_{mode}"
    run_dir.mkdir(parents=True, exist_ok=True)
    m.save_checkpoint(
        run_dir / "best.ckpt", result.params,
        meta=_meta(config, stage="train", mode=mode, best_step=result.best.step),
    )
    _write_csv(run_dir / "train_log.csv", tr.log_rows_to_csv(result.log_rows),
               config, stage="train", mode=mode)
    print(
        f"mode={mode} best step {result.best.step}: "
        f"val contrastive {result.best.contrastive_acc:.1f}, "
        f"val BLEU {result.best.bleu:.2f}"
    )


def _ambiguous_words(world: sc.World, instances, path: Path) -> list[int]:
    """The ambiguous source word of each contrastive instance."""
    words = [world.ambiguous_word(inst.src) for inst in instances]
    for inst, word in zip(instances, words):
        if word is None:
            raise ValueError(f"{path}: instance {inst.id} has no ambiguous "
                             "word of the world")
    return words


def _sense_accuracy(
    params: m.ModelParams,
    world: sc.World,
    instances: list[ev.ContrastiveInstance],
    words: list[int],
    gamma: float,
    width: int,
    space: str,
) -> float:
    hits = total = 0
    for inst, word in zip(instances, words):
        for sense, img in ((0, inst.img_a), (1, inst.img_b)):
            hyp = decoding.translate(params, inst.src, img, gamma, width, space)
            want = world.sense_tokens(word)[sense]
            hits += int(want in hyp.tokens)
            total += 1
    return 100.0 * hits / max(1, total)


def cmd_eval(
    config: RunConfig,
    out: Path,
    ckpt: Path | None,
    gamma: float,
    text_only: bool,
) -> None:
    # the text-only report evaluates the frozen base at gamma = 0 and keeps
    # the --gamma it was given
    if text_only and ckpt is not None:
        raise ValueError("--ckpt does not apply to eval --text-only "
                         f"(it evaluates {out / 'base.ckpt'})")
    ckpt = (out / "base.ckpt" if text_only
            else ckpt or _adapted_ckpt(config, out))
    params = _load_model(ckpt)
    measured = _ckpt_field(ckpt, out)
    world = _load_world(out)
    instances = _load_split(out, "test_contrastive", params.config)
    words = _ambiguous_words(world, instances,
                             _corpus_dir(out) / "test_contrastive.jsonl")
    translation = _load_split(out, "test_translation", params.config)
    width, space = config.eval_beam_width, config.cfg_space
    eval_gamma = 0.0 if text_only else gamma
    tag = "base" if text_only else f"gamma{gamma:g}"

    scorer = ev.make_scorer(params, eval_gamma, space)
    report = ev.evaluate_contrastive(scorer, instances)
    bleu = ev.translation_bleu(params, translation, eval_gamma, width, space)
    # the no-CFG accuracy is the multimodal model's (the base's when text-only)
    plain_acc = (report.contrastive_accuracy if text_only or eval_gamma == 1.0
                 else ev.commute_accuracy(ev.make_scorer(params), instances))
    sense_acc = _sense_accuracy(params, world, instances, words, eval_gamma,
                                width, space)

    run_dir = out / f"eval_{tag}"
    run_dir.mkdir(parents=True, exist_ok=True)
    payload = _meta(
        config,
        ckpt=measured,
        gamma=gamma,
        text_only=text_only,
        contrastive_accuracy=report.contrastive_accuracy,
        contrastive_accuracy_no_cfg=plain_acc,
        bleu=bleu,
        sense_accuracy=sense_acc,
        n_ties=report.n_ties,
        mean_ppl_correct=report.mean_ppl_correct,
        mean_ppl_wrong=report.mean_ppl_wrong,
    )
    _write_json(run_dir / "eval_report.json", payload)
    _write_csv(run_dir / "eval_rows.csv", report.rows_csv(), config,
               ckpt=measured, gamma=gamma, text_only=text_only)
    print(
        f"contrastive {report.contrastive_accuracy:.1f} "
        f"(no CFG {plain_acc:.1f}), BLEU {bleu:.2f}, "
        f"sense accuracy {sense_acc:.1f}, ties {report.n_ties}"
    )


def cmd_sweep(
    config: RunConfig,
    out: Path,
    param: str,
    values: list[float],
    ckpt: Path | None,
) -> None:
    if not values:
        raise ValueError("sweep needs at least one value")
    if param not in ("gamma", "lambda"):
        raise ValueError(f"unknown sweep parameter {param!r}")
    if param == "lambda" and ckpt is not None:
        raise ValueError("--ckpt does not apply to sweep --param lambda "
                         f"(it adapts {out / 'base.ckpt'})")
    # the gamma sweep blends the adapted model; the lambda sweep adapts the base
    ckpt = ((ckpt or _adapted_ckpt(config, out)) if param == "gamma"
            else out / "base.ckpt")
    params = _load_model(ckpt)
    instances = _load_split(out, "test_contrastive", params.config)
    translation = _load_split(out, "test_translation", params.config)
    width, space = config.eval_beam_width, config.cfg_space
    rows = []

    if param == "gamma":
        for gamma in values:
            acc = ev.commute_accuracy(ev.make_scorer(params, gamma, space),
                                      instances)
            rows.append((gamma, acc, ev.translation_bleu(
                params, translation, gamma, width, space)))
    else:
        data = _train_data(out, config, params.config)
        for lam in values:
            train_config = dataclasses.replace(config.train, lam=lam, mode="full")
            mm = tr.train(train_config, data, params).params
            acc = ev.commute_accuracy(ev.make_scorer(mm), instances)
            rows.append((lam, acc, ev.translation_bleu(
                mm, translation, 1.0, width, space)))

    run_dir = out / f"sweep_{param}"
    run_dir.mkdir(parents=True, exist_ok=True)
    lines = ["value,contrastive_accuracy,bleu"]
    for value, acc, bleu_score in rows:
        lines.append(f"{value!r},{acc!r},{bleu_score!r}")
    _write_csv(run_dir / "sweep.csv", "\n".join(lines) + "\n", config,
               ckpt=_ckpt_field(ckpt, out), param=param, values=values)
    for value, acc, bleu_score in rows:
        print(f"{param}={value:g}: contrastive {acc:.1f}, BLEU {bleu_score:.2f}")


# ---------------------------------------------------------------------------
# entry point


CKPT_HELP = ("adapted checkpoint to evaluate (default: "
             "<out>/train_<train.mode>/best.ckpt)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerommt",
        description="Zero-shot multimodal MT at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override all seeds")
        p.add_argument("--out", type=str, required=True, help="run directory")

    common(sub.add_parser("gen", help="generate the synthetic corpus"))
    common(sub.add_parser("pretrain", help="pretrain and freeze the base model"))
    common(sub.add_parser("translate", help="pseudo-translate the multimodal set"))

    p_train = sub.add_parser("train", help="adapt the frozen base")
    common(p_train)
    p_train.add_argument("--mode", choices=tr.TRAIN_MODES, default=None,
                         help="adaptation mode (default: the config's "
                              "train.mode)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--ckpt", type=str, default=None, help=CKPT_HELP)
    p_eval.add_argument("--gamma", type=float, default=1.0)
    p_eval.add_argument("--text-only", action="store_true",
                        help="evaluate the frozen base instead")

    p_sweep = sub.add_parser("sweep", help="lambda or gamma sweep")
    common(p_sweep)
    p_sweep.add_argument("--param", choices=("lambda", "gamma"), required=True)
    p_sweep.add_argument("--values", type=str, default=None,
                         help="comma-separated grid (default: the built-in "
                              "gamma or lambda grid)")
    p_sweep.add_argument("--ckpt", type=str, default=None, help=CKPT_HELP)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stage = args.command
    try:
        config = load_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if stage == "gen":
            cmd_gen(config, out)
        elif stage == "pretrain":
            cmd_pretrain(config, out)
        elif stage == "translate":
            cmd_translate(config, out)
        elif stage == "train":
            if args.mode is not None:
                config.train.mode = args.mode
            cmd_train(config, out)
        elif stage == "eval":
            cmd_eval(config, out,
                     Path(args.ckpt) if args.ckpt else None,
                     args.gamma, args.text_only)
        elif stage == "sweep":
            if args.values is not None:
                values = [float(v) for v in args.values.split(",") if v]
            else:
                values = list(DEFAULT_GAMMAS if args.param == "gamma"
                              else DEFAULT_LAMBDAS)
            cmd_sweep(config, out, args.param, values,
                      Path(args.ckpt) if args.ckpt else None)
    except Exception as e:  # noqa: BLE001 - report the failing stage and exit nonzero
        print(f"stage {stage!r} failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
