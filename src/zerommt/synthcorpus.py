"""Synthetic bilingual multimodal world.

Source sentences are bags of toy source-language words; the target side is
a deterministic word-for-word mapping. A subset of source words is
ambiguous: each has two sense-dependent translations. Images are sense
centroids plus Gaussian noise, so the visual channel carries exactly the
information needed to disambiguate. Optional cue tokens reveal the sense
textually, mirroring captions that are unambiguous in context.

All artifacts are pure functions of (spec, sizes, seed): each example gets
its own seed stream keyed by (seed, split tag, index), and ``SPLITS`` holds
each split's tag, sampler and JSONL codec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .evaluation import ContrastiveInstance
from .model import (BOS, EOS, SPECIAL_TOKENS, ModelConfig, ModelParams,
                    from_json, json_list, json_value)
from .objectives import BatchExample
from . import decoding

N_SPECIALS = len(SPECIAL_TOKENS)
# share of sampled sentences that get an ambiguous word, share of those
# that also get the cue token of its sense, and the image noise at
# sense_cluster_separation 1
AMBIGUITY_RATE = 0.5
CONTEXT_CUE_RATE = 0.8
IMAGE_NOISE_SIGMA = 0.2


@dataclass
class WorldSpec:
    n_plain_words: int = 10
    n_ambiguous_words: int = 8
    sent_len_min: int = 3
    sent_len_max: int = 7
    image_dim: int = 16
    sense_cluster_separation: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_plain_words < 1:
            raise ValueError("need at least one plain word")
        if self.n_ambiguous_words < 0:
            raise ValueError("n_ambiguous_words must be nonnegative")
        if not 1 <= self.sent_len_min <= self.sent_len_max:
            raise ValueError("bad sentence length range")
        # a chained comparison is false for NaN, so this rejects it too
        if not 0.0 < self.sense_cluster_separation < math.inf:
            raise ValueError("sense_cluster_separation must be finite and positive")


@dataclass
class World:
    spec: WorldSpec
    plain_src: list[int]
    plain_tgt: dict[int, int]
    amb_src: list[int]
    amb_tgt: dict[int, tuple[int, int]]
    cue: dict[tuple[int, int], int]
    centroids: dict[str, list[float]]
    vocab_used: int

    @property
    def has_ambiguity(self) -> bool:
        return bool(self.amb_src)

    def centroid(self, word: int | None, sense: int | None) -> np.ndarray:
        key = "neutral" if word is None else f"{word}:{sense}"
        return np.asarray(self.centroids[key])

    def sample_image(
        self, word: int | None, sense: int | None, rng: np.random.Generator
    ) -> np.ndarray:
        sigma = IMAGE_NOISE_SIGMA / self.spec.sense_cluster_separation
        return self.centroid(word, sense) + sigma * rng.standard_normal(
            self.spec.image_dim
        )

    def translate_token(self, tok: int, sense: int | None) -> int | None:
        """Target token for one source token; cues translate to nothing."""
        if tok in self.plain_tgt:
            return self.plain_tgt[tok]
        if tok in self.amb_tgt:
            if sense is None:
                raise ValueError("ambiguous token needs a sense to translate")
            return self.amb_tgt[tok][sense]
        return None

    def translate(self, src: list[int], sense: int | None) -> list[int]:
        """The BOS/EOS-wrapped target of ``src`` with its ambiguous word
        read in ``sense``."""
        out = (self.translate_token(tok, sense) for tok in src)
        return [BOS] + [t for t in out if t is not None] + [EOS]

    def sense_tokens(self, word: int) -> tuple[int, int]:
        return self.amb_tgt[word]

    def ambiguous_word(self, src: list[int]) -> int | None:
        """The first ambiguous word of ``src``, or None."""
        return next((t for t in src if t in self.amb_tgt), None)


@dataclass
class Example:
    id: int
    src: list[int]
    tgt: list[int]
    image: np.ndarray | None = None
    # diagnostics, not serialized
    amb_word: int | None = None
    sense: int | None = None
    has_cue: bool = False


@dataclass
class SplitSizes:
    pretrain_parallel: int = 3000
    mmt_train: int = 1000
    val_contrastive: int = 32
    val_translation: int = 24
    test_contrastive: int = 256
    test_translation: int = 64

    def validate(self) -> None:
        for name, v in asdict(self).items():
            if v < 1:
                raise ValueError(f"split size {name} must be positive")


@dataclass
class Splits:
    pretrain_parallel: list[Example] = field(default_factory=list)
    mmt_train: list[Example] = field(default_factory=list)
    val_contrastive: list[ContrastiveInstance] = field(default_factory=list)
    val_translation: list[Example] = field(default_factory=list)
    test_contrastive: list[ContrastiveInstance] = field(default_factory=list)
    test_translation: list[Example] = field(default_factory=list)


def generate_world(spec: WorldSpec, vocab_budget: int = 64) -> World:
    """Lay out the lexicons and draw per-sense image centroids."""
    spec.validate()
    p, a = spec.n_plain_words, spec.n_ambiguous_words
    needed = N_SPECIALS + 2 * p + 5 * a
    if needed > vocab_budget:
        raise ValueError(
            f"world needs {needed} vocabulary entries, budget is {vocab_budget}"
        )
    nxt = N_SPECIALS
    plain_src = list(range(nxt, nxt + p)); nxt += p
    plain_tgt_ids = list(range(nxt, nxt + p)); nxt += p
    amb_src = list(range(nxt, nxt + a)); nxt += a
    amb_tgt_ids = list(range(nxt, nxt + 2 * a)); nxt += 2 * a
    cue_ids = list(range(nxt, nxt + 2 * a)); nxt += 2 * a

    plain_tgt = dict(zip(plain_src, plain_tgt_ids))
    amb_tgt = {
        w: (amb_tgt_ids[2 * k], amb_tgt_ids[2 * k + 1])
        for k, w in enumerate(amb_src)
    }
    cue = {
        (w, s): cue_ids[2 * k + s]
        for k, w in enumerate(amb_src)
        for s in (0, 1)
    }

    rng = np.random.default_rng([spec.seed, 0])
    centroids: dict[str, list[float]] = {
        "neutral": [0.0] * spec.image_dim,
    }
    for w in amb_src:
        for s in (0, 1):
            vec = rng.standard_normal(spec.image_dim) * spec.sense_cluster_separation
            centroids[f"{w}:{s}"] = [float(v) for v in vec]
    return World(
        spec=spec,
        plain_src=plain_src,
        plain_tgt=plain_tgt,
        amb_src=amb_src,
        amb_tgt=amb_tgt,
        cue=cue,
        centroids=centroids,
        vocab_used=nxt,
    )


def _draw(pool: list[int], rng: np.random.Generator) -> int:
    """One uniform draw from ``pool``: the bounded draw that
    ``rng.choice(pool)`` makes, without turning the list into an array."""
    return pool[int(rng.integers(len(pool)))]


def _sample_example(
    world: World,
    ex_id: int,
    rng: np.random.Generator,
    forbid_ambiguous: bool = False,
    with_image: bool = False,
) -> Example:
    spec = world.spec
    n = int(rng.integers(spec.sent_len_min, spec.sent_len_max + 1))
    src = [_draw(world.plain_src, rng) for _ in range(n)]
    word = sense = None
    has_cue = False
    # generate_splits admits only worlds with ambiguous words
    if not forbid_ambiguous and rng.random() < AMBIGUITY_RATE:
        pos = int(rng.integers(n))
        word = _draw(world.amb_src, rng)
        sense = int(rng.integers(2))
        src[pos] = word
        if rng.random() < CONTEXT_CUE_RATE:
            cue_pos = int(rng.integers(n + 1))
            src.insert(cue_pos, world.cue[(word, sense)])
            has_cue = True
    image = None
    if with_image:
        image = world.sample_image(word, sense, rng)
    return Example(
        id=ex_id, src=src, tgt=world.translate(src, sense), image=image,
        amb_word=word, sense=sense, has_cue=has_cue,
    )


def _sample_contrastive(
    world: World, ex_id: int, rng: np.random.Generator
) -> ContrastiveInstance:
    spec = world.spec
    n = int(rng.integers(spec.sent_len_min, spec.sent_len_max + 1))
    src = [_draw(world.plain_src, rng) for _ in range(n)]
    pos = int(rng.integers(n))
    word = _draw(world.amb_src, rng)
    src[pos] = word
    return ContrastiveInstance(
        id=ex_id,
        src=src,
        img_a=world.sample_image(word, 0, rng),
        tgt_a=world.translate(src, 0),
        img_b=world.sample_image(word, 1, rng),
        tgt_b=world.translate(src, 1),
    )


class Split(NamedTuple):
    """A generated split: the tag of its examples' seed streams, the sampler
    ``sample(world, ex_id, rng)`` of one record, and whether its records are
    contrastive instances, which picks its JSONL reader and writer."""
    tag: int
    sample: Callable
    contrastive: bool = False

    # looked up on each use, so a wrapper set on the module is what runs
    @property
    def read(self) -> Callable:
        return read_contrastive if self.contrastive else read_examples

    @property
    def write(self) -> Callable:
        return write_contrastive if self.contrastive else write_examples


_translation = partial(_sample_example, forbid_ambiguous=True, with_image=True)
# every split, in the order of Splits and SplitSizes
SPLITS = {
    "pretrain_parallel": Split(1, _sample_example),
    "mmt_train": Split(2, partial(_sample_example, with_image=True)),
    "val_contrastive": Split(3, _sample_contrastive, contrastive=True),
    "val_translation": Split(4, _translation),
    "test_contrastive": Split(5, _sample_contrastive, contrastive=True),
    "test_translation": Split(6, _translation),
}


def generate_splits(world: World, sizes: SplitSizes) -> Splits:
    sizes.validate()
    if not world.has_ambiguity:
        raise ValueError(
            "no ambiguous words in this world: contrastive sets cannot be built"
        )

    def draw(name: str, ex_id: int, idx: int):
        split = SPLITS[name]
        rng = np.random.default_rng([world.spec.seed, split.tag, idx])
        return split.sample(world, ex_id, rng)

    splits = Splits(**{
        name: [draw(name, k, k) for k in range(getattr(sizes, name))]
        for name in SPLITS if name != "pretrain_parallel"
    })
    # Uncued ambiguous pretraining sentences are emitted as same-source
    # pairs covering both senses, so the base learns a genuine 50/50 split
    # instead of memorizing one arbitrary sense per sentence.
    pairs, idx = splits.pretrain_parallel, 0
    while len(pairs) < sizes.pretrain_parallel:
        ex = draw("pretrain_parallel", len(pairs), idx)
        idx += 1
        pairs.append(ex)
        if (ex.amb_word is not None and not ex.has_cue
                and len(pairs) < sizes.pretrain_parallel):
            flipped = 1 - ex.sense
            pairs.append(Example(
                id=len(pairs), src=list(ex.src),
                tgt=world.translate(ex.src, flipped), amb_word=ex.amb_word,
                sense=flipped))
    return splits


# ---------------------------------------------------------------------------
# pseudo-translation with the frozen base


@dataclass
class PseudoTranslateReport:
    n_total: int = 0
    n_dropped: int = 0
    unambiguous_total: int = 0
    unambiguous_match: int = 0
    cued_total: int = 0
    cued_sense_match: int = 0
    uncued_sense_counts: dict[str, int] = field(default_factory=dict)

    @property
    def unambiguous_match_rate(self) -> float:
        return self.unambiguous_match / max(1, self.unambiguous_total)

    @property
    def cued_sense_match_rate(self) -> float:
        return self.cued_sense_match / max(1, self.cued_total)


def annotate(world: World, example: Example) -> Example:
    """``example`` with ``amb_word``, ``sense`` and ``has_cue`` derived from
    its tokens: the ambiguous source word; the sense its cue names, or,
    without a cue, the sense token in the gold target."""
    word = world.ambiguous_word(example.src)
    sense, has_cue = None, False
    if word is not None:
        cued = [s for s in (0, 1) if world.cue[(word, s)] in example.src]
        has_cue = bool(cued)
        sense = cued[0] if cued else _realized_sense(world, word, example.tgt)
    return replace(example, amb_word=word, sense=sense, has_cue=has_cue)


def _realized_sense(world: World, word: int, tgt: list[int]) -> int | None:
    t0, t1 = world.sense_tokens(word)
    has0, has1 = t0 in tgt, t1 in tgt
    if has0 == has1:
        return None
    return 0 if has0 else 1


def pseudo_translate(
    base_params: ModelParams,
    examples: list[Example],
    world: World,
    width: int = 4,
) -> tuple[list[Example], PseudoTranslateReport]:
    """Replace gold targets with the frozen base's beam translations. The
    report's sense diagnostics come from ``annotate`` on the gold
    examples, so examples read back from JSONL need no side metadata."""
    report = PseudoTranslateReport(n_total=len(examples))
    out: list[Example] = []
    for ex in examples:
        ex = annotate(world, ex)
        hyp = decoding.beam_search(base_params, ex.src, image=None, width=width)
        if not hyp.finished:
            report.n_dropped += 1
            continue
        tgt = [BOS] + list(hyp.tokens) + [EOS]
        if ex.amb_word is None:
            report.unambiguous_total += 1
            if tgt == ex.tgt:
                report.unambiguous_match += 1
        else:
            realized = _realized_sense(world, ex.amb_word, tgt)
            if ex.has_cue:
                report.cued_total += 1
                if realized == ex.sense:
                    report.cued_sense_match += 1
            else:
                key = "none" if realized is None else str(realized)
                report.uncued_sense_counts[key] = (
                    report.uncued_sense_counts.get(key, 0) + 1
                )
        out.append(replace(ex, tgt=tgt))
    return out, report


# ---------------------------------------------------------------------------
# JSONL round-trip


def _float_list(vec: np.ndarray) -> list[float]:
    return [float(v) for v in vec]


def write_examples(path, examples: list[Example]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            obj: dict = {"id": ex.id, "src": ex.src, "tgt": ex.tgt}
            if ex.image is not None:
                obj["img"] = _float_list(ex.image)
            fh.write(json.dumps(obj) + "\n")


def _read_jsonl(path, parse) -> list:
    """``parse`` of the JSON object on each nonblank line of ``path``, in
    order; a line that is not JSON or that ``parse`` rejects raises
    ValueError ``<path>: malformed line N``."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(json.loads(line)))
            except (KeyError, ValueError, TypeError) as e:
                raise ValueError(f"{path}: malformed line {lineno}: {e}") from e
    return out


def _image(obj: dict, key: str) -> np.ndarray:
    """``obj[key]`` as a float64 vector of finite JSON numbers; Python's
    ``json`` reads ``NaN`` and ``Infinity`` as floats, so they are refused
    here."""
    values = json_list(float, obj[key], key)
    image = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(image))
    if bad.size:
        raise ValueError(f"{key}[{bad[0]}] must be a finite number, got "
                         f"{json.dumps(values[bad[0]])}")
    return image


def _record(obj: dict, ints: tuple[str, ...], images: tuple[str, ...]) -> dict:
    """The fields of one JSONL record ``obj``: its id and each of ``ints``
    JSON integers, each of ``images`` a float64 vector of finite JSON
    numbers."""
    out = {"id": json_value(int, obj["id"], "id")}
    out.update((key, json_list(int, obj[key], key)) for key in ints)
    out.update((key, _image(obj, key)) for key in images)
    return out


def read_examples(path) -> list[Example]:
    def parse(obj: dict) -> Example:
        img = () if obj.get("img") is None else ("img",)
        rec = _record(obj, ("src", "tgt"), img)
        ex = Example(image=rec.pop("img", None), **rec)
        BatchExample(ex.src, ex.tgt).validate()
        return ex

    return _read_jsonl(path, parse)


def check_fit(path, records, config: ModelConfig) -> None:
    """Raise ValueError naming ``path`` and the record's id if an example or
    contrastive instance read from ``path`` does not fit a model of
    ``config``: a token id outside [0, vocab_size), a source longer than
    max_len, a target whose tokens but its last (the teacher-forced input)
    outnumber max_len, or an image that is not a vector of image_dim."""
    for rec in records:
        if isinstance(rec, ContrastiveInstance):
            tgts = {"tgt_a": rec.tgt_a, "tgt_b": rec.tgt_b}
            images = {"img_a": rec.img_a, "img_b": rec.img_b}
        else:
            tgts, images = {"tgt": rec.tgt}, {"img": rec.image}
        where = f"{path}: record id {rec.id}"
        for name, seq in {"src": rec.src, **tgts}.items():
            bad = [t for t in seq if not 0 <= t < config.vocab_size]
            if bad:
                raise ValueError(f"{where}: {name} token id {bad[0]} outside "
                                 f"the vocabulary [0, {config.vocab_size})")
            if len(seq) - (name != "src") > config.max_len:
                raise ValueError(f"{where}: {name} of {len(seq)} tokens is "
                                 f"too long for max_len {config.max_len}")
        for name, image in images.items():
            if image is not None and image.shape != (config.image_dim,):
                raise ValueError(f"{where}: {name} shape {image.shape} != "
                                 f"({config.image_dim},)")


def write_contrastive(path, instances: list[ContrastiveInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            obj = {
                "id": inst.id,
                "src": inst.src,
                "img_a": _float_list(inst.img_a),
                "tgt_a": inst.tgt_a,
                "img_b": _float_list(inst.img_b),
                "tgt_b": inst.tgt_b,
            }
            fh.write(json.dumps(obj) + "\n")


def read_contrastive(path) -> list[ContrastiveInstance]:
    def parse(obj: dict) -> ContrastiveInstance:
        inst = ContrastiveInstance(**_record(
            obj, ("src", "tgt_a", "tgt_b"), ("img_a", "img_b")))
        for tgt in (inst.tgt_a, inst.tgt_b):
            BatchExample(inst.src, tgt).validate()
        return inst

    return _read_jsonl(path, parse)


def world_to_dict(world: World) -> dict:
    return {
        "spec": asdict(world.spec),
        "plain_src": world.plain_src,
        "plain_tgt": {str(k): v for k, v in world.plain_tgt.items()},
        "amb_src": world.amb_src,
        "amb_tgt": {str(k): list(v) for k, v in world.amb_tgt.items()},
        "cue": {f"{w}:{s}": c for (w, s), c in world.cue.items()},
        "centroids": world.centroids,
        "vocab_used": world.vocab_used,
    }


def world_from_dict(obj: dict) -> World:
    """The world ``world_to_dict`` wrote. The spec is read by ``from_json``
    (every key present), no other field may be added, and every field must
    equal, as JSON, the world ``generate_world`` makes of it (an id 7.9 is
    no 7). Raises ValueError naming the field, or KeyError for a missing
    one."""
    spec = from_json(WorldSpec, obj["spec"], "world.spec")
    try:
        world = generate_world(spec, vocab_budget=math.inf)
    except ValueError as e:
        raise ValueError(f"world.spec: {e}") from e
    expected = world_to_dict(world)
    unknown = sorted(set(obj) - set(expected))
    if unknown:
        raise ValueError(f"world: unknown keys {unknown}")
    for key, want in expected.items():
        if json.dumps(obj[key], sort_keys=True) != json.dumps(want, sort_keys=True):
            raise ValueError(f"world.{key} is not the one world.spec generates")
    return world
