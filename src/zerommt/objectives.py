"""Training objectives: visually conditioned MLM, KL anchor, combination.

The VMLM term is teacher-forced negative log-likelihood of the target
under the multimodal model given a partially masked source plus the image.
A target position may accept a set of tokens instead of one: the loss is
then the negative log of the probability mass on the set. Training uses
this where the frozen base itself hesitates between translations (the
pseudo-target token there is the base's guess, not something the image
can confirm), so the image is free to pick among them.
The KL term anchors the multimodal model's next-token distributions to the
frozen base model's, computed on the unmasked source. Both reduce to a
mean over target tokens so the mixing weight transfers across lengths.
``adaptation_terms`` yields the weighted terms of every training mode, the
ablations included, one forward at a time: the two terms share no interior
node, so a caller that backpropagates each term before asking for the next
holds one term's graph at a time, and its leaves receive the same
gradients, in the same order, as from one backward of the sum.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoding import PROB_FLOOR
from .model import (BOS, EOS, MASK, ModelParams, pad_batch, teacher_forced_logits,
                    teacher_forced_rows)

# tokens at least this fraction as probable under the frozen base as the
# pseudo-target token form its accepted set (see accepted_tokens)
ACCEPT_RATIO = 0.2
# training mode -> (masked-source VMLM term on, anchor): the KL to the frozen
# base, plain NLL on the (pseudo-)targets, or none
ADAPTATION_MODES = {
    "full": (True, "kl"),
    "no_vmlm": (False, "kl"),
    "no_kl": (True, None),
    "mmt_no_kl": (True, "nll"),
}


@dataclass
class BatchExample:
    """One teacher-forced training triple.

    ``tgt`` must begin with BOS and end with EOS. ``mask_set`` holds the
    source positions the VMLM term replaces with MASK. ``accept``, if
    given, is a (len(tgt) - 1, V) boolean array: the tokens the VMLM term
    accepts at each target position, the gold token among them.
    """

    src: list[int]
    tgt: list[int]
    image: np.ndarray | None = None
    mask_set: tuple[int, ...] = ()
    accept: np.ndarray | None = None

    def validate(self) -> None:
        if not self.src:
            raise ValueError("empty source sequence")
        if len(self.tgt) < 2 or self.tgt[0] != BOS or self.tgt[-1] != EOS:
            raise ValueError("target must be BOS-led and EOS-terminated")
        if any(j < 0 or j >= len(self.src) for j in self.mask_set):
            raise ValueError("mask_set index outside the source sequence")
        if self.accept is not None:
            gold = np.asarray(self.tgt[1:])
            if (
                self.accept.ndim != 2
                or self.accept.shape[0] != len(gold)
                or not self.accept[np.arange(len(gold)), gold].all()
            ):
                raise ValueError("accept must have one row per target token "
                                 "and include the gold token")


@dataclass
class Batch:
    examples: list[BatchExample] = field(default_factory=list)

    def __post_init__(self) -> None:
        for ex in self.examples:
            ex.validate()

    def __len__(self) -> int:
        return len(self.examples)


def _teacher_forced(
    examples: list[BatchExample],
    params: ModelParams,
    masked: bool,
    multimodal: bool,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Log-probabilities (B, T, V) of every target position under
    ``model.teacher_forced_logits``, the gold next tokens (B, T) and the
    token weights (B, T), zero on padding.

    ``masked`` replaces each example's ``mask_set`` with MASK in the
    source; ``multimodal`` feeds the images, which switches the extras on
    (off, the pass is the text-only base).
    """
    srcs = [[MASK if masked and j in ex.mask_set else tok
             for j, tok in enumerate(ex.src)] for ex in examples]
    images = [ex.image for ex in examples] if multimodal else None
    logits = teacher_forced_logits(params, srcs, images,
                                   [ex.tgt for ex in examples])
    tgt_out, valid = pad_batch([ex.tgt[1:] for ex in examples])
    return ad.log_softmax(logits, axis=-1), tgt_out, valid.astype(np.float64)


def _nll(
    lp: Tensor, tgt_out: np.ndarray, w: np.ndarray, accept: np.ndarray | None = None
) -> Tensor:
    """Token-mean negative log-likelihood of the gold tokens, or of the
    mass on the accepted sets where ``accept`` (see ``_accept_mask``) is
    given."""
    gold = ad.gather(lp, tgt_out) if accept is None else _log_mass(lp, accept)
    return ad.scale(_weighted_token_mean(gold, w), -1.0)


def _weighted_token_mean(per_token: Tensor, weights: np.ndarray) -> Tensor:
    return ad.scale(ad.tsum(ad.mul(per_token, weights)), 1.0 / weights.sum())


def _accept_mask(examples: list[BatchExample], vocab: int) -> np.ndarray | None:
    """(B, T, V) 0/1 array of the tokens accepted at each target position:
    the example's set where it has one, else the gold token. Padding rows
    accept the whole vocabulary (their weight is zero). None when no
    example in the batch has sets."""
    if all(ex.accept is None for ex in examples):
        return None
    accept = np.zeros((len(examples), max(len(ex.tgt) for ex in examples) - 1,
                       vocab))
    for k, ex in enumerate(examples):
        rows = len(ex.tgt) - 1
        if ex.accept is None:
            accept[k, np.arange(rows), ex.tgt[1:]] = 1.0
        else:
            accept[k, :rows] = ex.accept
        accept[k, rows:] = 1.0
    return accept


def _log_mass(lp: Tensor, accept: np.ndarray) -> Tensor:
    """log of the probability mass on the accepted tokens, per position."""
    return ad.log(ad.tsum(ad.mul(ad.exp(lp), accept), axis=-1))


def accepted_tokens(
    base_lp: np.ndarray, tgt: list[int], ratio: float
) -> np.ndarray:
    """Tokens at least ``ratio`` times as probable under the frozen base as
    the pseudo-target token, per target position.

    ``base_lp`` is the (len(tgt) - 1, V) teacher-forced log-probability
    array of ``base_teacher_logprobs``. Where the base is sure, the set is
    the pseudo-target token alone; where it hesitates between
    translations, it holds all of them.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"accept ratio must be in (0, 1], got {ratio}")
    gold = np.asarray(tgt[1:])
    gold_lp = base_lp[np.arange(len(gold)), gold]
    return base_lp >= gold_lp[:, None] + np.log(ratio)


def vmlm_loss(
    batch: Batch, params: ModelParams, accept: np.ndarray | None = None
) -> Tensor:
    """Mean over target tokens of -log p(y_j | y_<j, masked source, image),
    with p(y_j) the mass on the accepted set where an example has one.

    ``accept`` is the batch's accepted-set mask (see ``_accept_mask``),
    built here when not given."""
    lp, tgt_out, w = _teacher_forced(batch.examples, params, masked=True,
                                     multimodal=True)
    if accept is None:
        accept = _accept_mask(batch.examples, params.config.vocab_size)
    return _nll(lp, tgt_out, w, accept)


def text_nll(batch: Batch, params: ModelParams) -> Tensor:
    """Text-only teacher-forced NLL (no images, no extras); used to
    pretrain the base translation model."""
    lp, tgt_out, w = _teacher_forced(batch.examples, params, masked=False,
                                     multimodal=False)
    return _nll(lp, tgt_out, w)


def mmt_loss(batch: Batch, params: ModelParams) -> Tensor:
    """Plain teacher-forced NLL on the unmasked source plus image; the
    ablation replacement for the KL anchor."""
    lp, tgt_out, w = _teacher_forced(batch.examples, params, masked=False,
                                     multimodal=True)
    return _nll(lp, tgt_out, w)


def base_teacher_logprobs(
    frozen_params: ModelParams, examples: list[BatchExample]
) -> list[np.ndarray]:
    """Frozen-base next-token log-probabilities, one (m-1, V) array per
    example, in input order. The base never sees images or masks, so these
    are constants that can be computed once per corpus and reused every
    epoch.

    One call to ``model.teacher_forced_rows``, the scorers' forward, so
    every array is bit-identical to a forward of its example alone.
    """
    return teacher_forced_rows(
        frozen_params, [ex.src for ex in examples], None,
        [ex.tgt for ex in examples], ad.log_softmax)


def _padded_base_logprobs(
    params: ModelParams,
    examples: list[BatchExample],
    tmax: int,
    cache: list[np.ndarray] | None,
) -> np.ndarray:
    vocab = params.config.vocab_size
    per_ex = cache if cache is not None else base_teacher_logprobs(params, examples)
    out = np.zeros((len(examples), tmax, vocab))
    for b, lp in enumerate(per_ex):
        out[b, : lp.shape[0]] = lp
    return out


def kl_penalty(
    batch: Batch,
    params: ModelParams,
    base_lp: list[np.ndarray] | None = None,
    accept: np.ndarray | None = None,
) -> Tensor:
    """KL(base || multimodal) per teacher-forced position, summed over the
    vocabulary, token-mean.

    The base is ``params`` with its extras off, evaluated without gradient
    (or read from ``base_lp``, the ``base_teacher_logprobs`` cache); the
    multimodal side sees the unmasked source plus the image and is floored
    at 1e-12 inside the log.

    Where an example carries accepted sets (see ``vmlm_loss``), a set of
    several tokens is one outcome of the divergence: the anchor holds the
    mass on the set, and on every token outside it, to the base's, but
    leaves free how the model splits that mass among translations the base
    itself finds plausible. That split is what the image decides.

    ``accept`` is the batch's accepted-set mask, built here when not given.
    """
    lp, tgt_out, w = _teacher_forced(batch.examples, params, masked=False,
                                     multimodal=True)
    p_lp = ad.clip_min(lp, np.log(PROB_FLOOR))
    q_lp = _padded_base_logprobs(params, batch.examples, tgt_out.shape[1], base_lp)
    q = np.exp(q_lp)
    if accept is None:
        accept = _accept_mask(batch.examples, params.config.vocab_size)
    # a set of several tokens is one outcome: its tokens leave the sum and
    # the set's total mass enters it
    merged = 0.0 if accept is None else (
        accept * (accept.sum(axis=-1, keepdims=True) > 1)
    )
    per_pos = ad.tsum(ad.mul(q * (1.0 - merged), ad.sub(q_lp, p_lp)), axis=-1)
    if accept is not None:
        # q(S) * (log q(S) - log p(S)) at positions with a set S; elsewhere
        # the sum runs over the whole vocabulary and is weighted out
        has_set = merged.any(axis=-1)
        in_set = np.where(has_set[..., None], merged, 1.0)
        q_set = (q * in_set).sum(axis=-1)
        per_pos = ad.add(per_pos, ad.mul(
            has_set * q_set, ad.sub(np.log(q_set), _log_mass(p_lp, in_set))
        ))
    return _weighted_token_mean(per_pos, w)


def adaptation_terms(
    batch: Batch,
    params: ModelParams,
    mode: str,
    lam: float,
    base_lp: list[np.ndarray] | None = None,
) -> Iterator[tuple[str, Tensor, Tensor]]:
    """The terms of ``mode``'s objective (see ``ADAPTATION_MODES``), one
    forward at a time: ``("vmlm", vmlm, vmlm)`` where the masked-source
    term is on, then ``("anchor", anchor, lam * anchor)`` where an anchor
    is. The objective is the sum of the weighted terms, in this order.

    A generator: a term's forward runs only when it is asked for, so a
    caller that backpropagates each weighted term first never holds two
    terms' graphs. The accepted-set mask is built once for both terms.
    """
    if mode not in ADAPTATION_MODES:
        raise ValueError(f"unknown adaptation mode {mode!r}")
    if not math.isfinite(lam) or lam < 0:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    vmlm_on, anchor_kind = ADAPTATION_MODES[mode]
    accept = _accept_mask(batch.examples, params.config.vocab_size)
    if vmlm_on:
        vmlm = vmlm_loss(batch, params, accept=accept)
        yield "vmlm", vmlm, vmlm
    if anchor_kind is not None:
        anchor = (kl_penalty(batch, params, base_lp=base_lp, accept=accept)
                  if anchor_kind == "kl" else mmt_loss(batch, params))
        yield "anchor", anchor, ad.scale(anchor, lam)

