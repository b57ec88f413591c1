"""Contrastive disambiguation scoring, perplexity, and corpus BLEU.

A scorer is anything whose ``distributions(srcs, images, tgts)`` maps
each (source, image, target) to its per-position next-token distributions
under teacher forcing. Three scorers are provided: the frozen text-only
base (image-blind), the multimodal model, and a guidance blend of the two.
``make_scorer`` picks one from the same (model, gamma) keys as
``decoding.translate``, and ``translation_bleu`` scores that dispatcher's
translations. The model scorers run ``model.teacher_forced_rows``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as m
from .decoding import cfg_distribution, translate
from .model import ModelParams


@dataclass
class ContrastiveInstance:
    """One ambiguous source with two (image, translation) pairs.

    ``tgt_a`` is the correct translation under ``img_a`` and ``tgt_b``
    under ``img_b``. Each instance is scored twice, once per orientation,
    so an image-blind model lands on exactly 50%.
    """

    id: int
    src: list[int]
    img_a: np.ndarray
    tgt_a: list[int]
    img_b: np.ndarray
    tgt_b: list[int]


@dataclass
class InstanceRow:
    id: int
    orientation: str
    ppl_correct: float
    ppl_wrong: float
    score: int


@dataclass
class EvalReport:
    contrastive_accuracy: float
    mean_ppl_correct: float
    mean_ppl_wrong: float
    n_ties: int
    rows: list[InstanceRow] = field(default_factory=list)

    def rows_csv(self) -> str:
        lines = ["id,orientation,ppl_correct,ppl_wrong,score"]
        for r in self.rows:
            lines.append(
                f"{r.id},{r.orientation},{r.ppl_correct!r},{r.ppl_wrong!r},{r.score}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scorers


class _ModelScorer:
    """Teacher-forced softmax of one model; the images given pick it (see
    ``model.teacher_forced_rows``), and sequences of one shape share one
    unpadded forward."""

    def __init__(self, params: ModelParams):
        self.params = params

    def distributions(self, srcs, images, tgts) -> list[np.ndarray]:
        """One (len(tgt) - 1, V) array of next-token distributions per
        (source, image, target), from ``model.teacher_forced_rows``."""
        return m.teacher_forced_rows(self.params, srcs, images, tgts,
                                     ad.softmax)


class TextOnlyScorer(_ModelScorer):
    """Frozen base model; ignores the image entirely. Each distinct
    (source, target) is scored once, so sequences that differ only in
    their image get the very same distributions."""

    def distributions(self, srcs, images, tgts) -> list[np.ndarray]:
        return super().distributions(srcs, None, tgts)


class MultimodalScorer(_ModelScorer):
    """Adapted model: image and extras; every sequence needs its image."""

    def distributions(self, srcs, images, tgts) -> list[np.ndarray]:
        if images is None:
            raise ValueError(m.IMAGE_REQUIRED)
        return super().distributions(srcs, images, tgts)


def _per_length_group(fn, tgts, *columns) -> list:
    """``fn`` called once per group of equal-length targets in ``tgts``, on
    each of ``columns`` (lists parallel to ``tgts``) stacked over the
    group; the items of its results, one per sequence in input order."""
    groups: dict[int, list[int]] = {}
    for k, y in enumerate(tgts):
        groups.setdefault(len(y), []).append(k)
    out = [None] * len(tgts)
    for group in groups.values():
        results = fn(*(np.stack([col[k] for k in group]) for col in columns))
        for k, result in zip(group, results):
            out[k] = result
    return out


class CfgScorer:
    """Guidance blend of a text-only and a multimodal scorer."""

    def __init__(self, text_scorer, mm_scorer, gamma: float, space: str = "log"):
        self.text_scorer = text_scorer
        self.mm_scorer = mm_scorer
        self.gamma = gamma
        self.space = space

    def distributions(self, srcs, images, tgts) -> list[np.ndarray]:
        """The blend of both scorers' distributions, one ``cfg_distribution``
        call per group of equal-length targets; it blends each row alone,
        so a group's rows are those of its sequences blended one by one."""
        pt = self.text_scorer.distributions(srcs, images, tgts)
        pm = self.mm_scorer.distributions(srcs, images, tgts)
        return _per_length_group(
            lambda t, mm: cfg_distribution(t, mm, self.gamma, self.space),
            tgts, pt, pm)


def make_scorer(params: ModelParams, gamma: float = 1.0, space: str = "log"):
    """The scorer of ``decoding.translate``'s keys: ``params``' text-only
    base at gamma = 0, the multimodal model at gamma = 1, else the guidance
    blend of the two."""
    if gamma == 0.0:
        return TextOnlyScorer(params)
    if gamma == 1.0:
        return MultimodalScorer(params)
    return CfgScorer(TextOnlyScorer(params), MultimodalScorer(params), gamma,
                     space)


# ---------------------------------------------------------------------------
# perplexity and the contrastive protocol


def sequence_perplexity(dists: np.ndarray, y) -> float | np.ndarray:
    """exp of the mean per-token negative log-probability of ``y`` under
    its teacher-forced next-token distributions ``dists`` (one row per
    token after BOS). ``dists`` (..., T, V) and ``y`` (..., T + 1) may
    share leading batch axes of equal-length sequences: then the result
    is an array over them, each entry that sequence's perplexity alone;
    one sequence gives a float."""
    y = np.asarray(y)
    if y.shape[-1] < 2 or np.any(y[..., -1] != m.EOS):
        raise ValueError("target must be nonempty and EOS-terminated")
    dists = np.asarray(dists)
    if dists.shape[:-1] != y.shape[:-1] + (y.shape[-1] - 1,):
        raise ValueError(f"{dists.shape[-2]} distributions for "
                         f"{y.shape[-1] - 1} tokens")
    probs = np.take_along_axis(dists, y[..., 1:, None], axis=-1)[..., 0]
    nll = -np.log(np.maximum(probs, 1e-300)).mean(axis=-1)
    ppl = np.exp(nll)
    return float(ppl) if ppl.ndim == 0 else ppl


def commute_rows(
    scorer, instances: list[ContrastiveInstance]
) -> list[InstanceRow]:
    """One row per orientation of every instance, from one ``distributions``
    call over all their sequences and one ``sequence_perplexity`` call per
    target length; a row scores 1 iff the correct translation has strictly
    lower perplexity."""
    if not instances:
        raise ValueError("no contrastive instances")
    srcs, images, tgts = [], [], []
    for inst in instances:
        for img, y_c, y_w in ((inst.img_a, inst.tgt_a, inst.tgt_b),
                              (inst.img_b, inst.tgt_b, inst.tgt_a)):
            for y in (y_c, y_w):
                srcs.append(tuple(inst.src))
                images.append(img)
                tgts.append(tuple(y))
    dists = scorer.distributions(srcs, images, tgts)
    ppl = iter(_per_length_group(
        lambda d, y: sequence_perplexity(d, y).tolist(), tgts, dists, tgts))
    rows = []
    for inst in instances:
        for orientation in "ab":
            ppl_c, ppl_w = next(ppl), next(ppl)
            rows.append(InstanceRow(id=inst.id, orientation=orientation,
                                    ppl_correct=ppl_c, ppl_wrong=ppl_w,
                                    score=1 if ppl_c < ppl_w else 0))
    return rows


def commute_accuracy(scorer, instances: list[ContrastiveInstance]) -> float:
    """Mean contrastive score over both orientations of every instance, x100."""
    return evaluate_contrastive(scorer, instances).contrastive_accuracy


def contrastive_margin(rows: list[InstanceRow]) -> float:
    """Mean of log(ppl_wrong / ppl_correct) over contrastive rows: by how
    much, in nats per target token, the correct translation is preferred.
    Unlike accuracy it moves with every row, not only with the rows that
    change sides, so it ranks close checkpoints on a small set."""
    if not rows:
        raise ValueError("no contrastive rows")
    return float(np.mean(
        [math.log(r.ppl_wrong) - math.log(r.ppl_correct) for r in rows]
    ))


def evaluate_contrastive(
    scorer, instances: list[ContrastiveInstance]
) -> EvalReport:
    """The contrastive report of ``scorer``."""
    rows = commute_rows(scorer, instances)
    n_ties = sum(1 for r in rows if r.ppl_correct == r.ppl_wrong)
    return EvalReport(
        contrastive_accuracy=100.0 * sum(r.score for r in rows) / len(rows),
        mean_ppl_correct=float(np.mean([r.ppl_correct for r in rows])),
        mean_ppl_wrong=float(np.mean([r.ppl_wrong for r in rows])),
        n_ties=n_ties,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# corpus BLEU


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[k : k + n]) for k in range(len(tokens) - n + 1))


def bleu(hypotheses, references, max_n: int = 4) -> float:
    """Corpus BLEU in [0, 100]: clipped n-gram precision, geometric mean,
    brevity penalty.

    For toy corpora whose longest hypothesis is shorter than ``max_n``, the
    geometric mean runs over the achievable n-gram orders only, instead of
    degenerating to zero.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference lists differ in length")
    if not hypotheses:
        raise ValueError("empty corpus")
    max_hyp_len = max(len(h) for h in hypotheses)
    orders = min(max_n, max_hyp_len)
    if orders == 0:
        return 0.0
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)

    log_precisions = []
    for n in range(1, orders + 1):
        matched = 0
        total = 0
        for h, r in zip(hypotheses, references):
            hc = _ngrams(h, n)
            rc = _ngrams(r, n)
            total += sum(hc.values())
            matched += sum(min(c, rc[g]) for g, c in hc.items())
        if total == 0 or matched == 0:
            return 0.0
        log_precisions.append(math.log(matched / total))

    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return 100.0 * bp * math.exp(sum(log_precisions) / orders)


def translation_bleu(
    params: ModelParams,
    examples,
    gamma: float = 1.0,
    width: int = 4,
    space: str = "log",
) -> float:
    """Corpus BLEU of ``decoding.translate`` over ``examples`` (anything
    with ``src``, ``image`` and a BOS/EOS-wrapped ``tgt``)."""
    hyps = [
        list(translate(params, ex.src, ex.image, gamma, width, space).tokens)
        for ex in examples
    ]
    return bleu(hyps, [ex.tgt[1:-1] for ex in examples])
