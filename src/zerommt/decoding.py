"""Beam search and classifier-free guidance over next-token distributions.

The guidance blend interpolates (or extrapolates, for gamma > 1) between
the text-only and multimodal models. Done in log space and renormalized,
so the output stays a valid distribution for every gamma while the
gamma=0 and gamma=1 endpoints reproduce the inputs exactly. A clipped
probability-space variant is available behind ``space='prob_clip'``.
``translate`` decodes a sentence with one model's text-only base, its
multimodal side or the guidance blend of the two, from gamma alone; the
base is the model with its extras off, so the two ends of the blend
always come from one set of weights. It goes through ``cfg_beam_search``,
which holds the one rule that the gamma = 0 and gamma = 1 endpoints run a
single model.

Beam search asks its step function once per step for every live
hypothesis. The live hypotheses always have equal length, so a model
steps them in one ``model.decode_step`` call without padding, against the
source's one batch-1 encoding, which cross-attention broadcasts over them;
every distribution is bit-identical to the one of its prefix alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import model as m
from .model import ModelParams

PROB_FLOOR = 1e-12

# n equal-length BOS-led prefixes -> (n, V) next-token distributions
StepFn = Callable[[list[tuple[int, ...]]], np.ndarray]


@dataclass
class Hypothesis:
    tokens: tuple[int, ...]
    logp: float
    finished: bool = False


def cfg_distribution(
    p_text: np.ndarray,
    p_mm: np.ndarray,
    gamma: float,
    space: str = "log",
) -> np.ndarray:
    """Blend the text-only and multimodal next-token distributions, row by
    row along the last axis; gamma must be finite and nonnegative."""
    if not math.isfinite(gamma) or gamma < 0:
        raise ValueError(f"gamma must be finite and nonnegative: {gamma}")
    p_text = np.asarray(p_text, dtype=np.float64)
    p_mm = np.asarray(p_mm, dtype=np.float64)
    if p_text.shape != p_mm.shape:
        raise ValueError(f"vocab mismatch: {p_text.shape} vs {p_mm.shape}")
    if space == "log":
        lt = np.log(np.maximum(p_text, PROB_FLOOR))
        lm = np.log(np.maximum(p_mm, PROB_FLOOR))
        blended = lt + gamma * (lm - lt)
        blended -= blended.max(axis=-1, keepdims=True)
        out = np.exp(blended)
    elif space == "prob_clip":
        out = np.maximum(p_text + gamma * (p_mm - p_text), 0.0)
        out = np.where(out.sum(axis=-1, keepdims=True) <= 0.0,
                       np.maximum(p_text, PROB_FLOOR), out)
    else:
        raise ValueError(f"unknown cfg space {space!r}")
    return out / out.sum(axis=-1, keepdims=True)


def beam_search_steps(
    step_fn: StepFn,
    width: int,
    max_len: int,
    eos_id: int = m.EOS,
    forbidden: tuple[int, ...] = (m.PAD, m.BOS, m.MASK),
) -> Hypothesis:
    """Length-unnormalized beam search over a next-token distribution.

    ``step_fn`` maps the BOS-led prefixes of all live hypotheses, which
    have equal length, to one probability row each; it is called once per
    step. Hypotheses that emit EOS are retired; the best finished
    hypothesis (cumulative log-probability, ties broken by token ids) is
    returned. If nothing finishes within ``max_len`` generated tokens, the
    best unfinished hypothesis is returned with ``finished=False``.
    """
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    live: list[Hypothesis] = [Hypothesis(tokens=(), logp=0.0)]
    done: list[Hypothesis] = []
    for _ in range(max_len):
        probs = step_fn([(m.BOS,) + hyp.tokens for hyp in live])
        allowed = np.array([t for t in range(probs.shape[-1])
                            if t not in forbidden], dtype=np.int64)
        # every (live hypothesis, allowed token) candidate's score, row-major
        scores = (np.array([h.logp for h in live])[:, None]
                  + np.log(np.maximum(probs, PROB_FLOOR)))[:, allowed].ravel()
        # the live token tuples share one length, so ordering candidates by
        # (-score, parent's rank in token order, token) is ordering them by
        # (-logp, tokens)
        rank = np.argsort(sorted(range(len(live)), key=lambda i: live[i].tokens))
        chosen = np.lexsort((np.tile(allowed, len(live)),
                             np.repeat(rank, len(allowed)), -scores))[:width]
        parents, live = live, []
        for j in chosen:
            row, col = divmod(int(j), len(allowed))
            tokens, token = parents[row].tokens, int(allowed[col])
            if token == eos_id:
                done.append(Hypothesis(tokens, float(scores[j]), finished=True))
            else:
                live.append(Hypothesis(tokens + (token,), float(scores[j])))
        if not live:
            break
        if done:
            best_done = max(done, key=lambda h: h.logp)
            # scores only fall as length grows, so no live path can win
            if best_done.logp >= live[0].logp:
                break
    if done:
        done.sort(key=lambda h: (-h.logp, h.tokens))
        return done[0]
    live.sort(key=lambda h: (-h.logp, h.tokens))
    return live[0]


def _model_step_fn(
    params: ModelParams,
    source: list[int],
    image: np.ndarray | None,
) -> StepFn:
    """Next-token distributions of ``params`` for ``source`` (multimodal
    with ``image``, the text-only base without): one batch-1 encoding that
    every step's prefixes read; both passes run tape-free."""
    with ad.no_grad():
        enc = m.encode(source, image, params)

    def step(prefixes: list[tuple[int, ...]]) -> np.ndarray:
        with ad.no_grad():
            return m.decode_step(enc, prefixes, params)

    return step


def beam_search(
    params: ModelParams,
    source: list[int],
    image: np.ndarray | None = None,
    width: int = 4,
) -> Hypothesis:
    """Translate one source sentence with plain beam search, up to the
    model's ``max_len`` tokens: the multimodal model with ``image``, the
    text-only base (extras off) without."""
    return beam_search_steps(_model_step_fn(params, source, image), width,
                             params.config.max_len)


def cfg_beam_search(
    base_params: ModelParams,
    mm_params: ModelParams,
    source: list[int],
    image: np.ndarray | None,
    gamma: float,
    width: int = 4,
    space: str = "log",
) -> Hypothesis:
    """Beam search over the guidance blend of base and multimodal models, up
    to the multimodal model's ``max_len`` tokens.

    The endpoints run one model alone and reproduce its beam search bit for
    bit: the base (extras off) at gamma = 0, where the image is never read,
    and the multimodal model at gamma = 1. Any other gamma needs the image.
    """
    if base_params.config.vocab_size != mm_params.config.vocab_size:
        raise ValueError("base and multimodal models must share the vocabulary")
    if gamma != 0.0 and image is None:
        raise ValueError(m.IMAGE_REQUIRED)
    max_len = mm_params.config.max_len
    # each model is encoded only where the blend reads it
    if gamma != 1.0:
        text_step = _model_step_fn(base_params, source, None)
    if gamma != 0.0:
        mm_step = _model_step_fn(mm_params, source, image)
    if gamma == 0.0:
        return beam_search_steps(text_step, width, max_len)
    if gamma == 1.0:
        return beam_search_steps(mm_step, width, max_len)

    def step(prefixes: list[tuple[int, ...]]) -> np.ndarray:
        return cfg_distribution(text_step(prefixes), mm_step(prefixes), gamma,
                                space)

    return beam_search_steps(step, width, max_len)


def translate(
    params: ModelParams,
    source: list[int],
    image: np.ndarray | None,
    gamma: float = 1.0,
    width: int = 4,
    space: str = "log",
) -> Hypothesis:
    """Translate one sentence with ``params``: its text-only base (extras
    off, image ignored) at gamma = 0, the multimodal model at gamma = 1,
    else the guidance blend of the two (see ``cfg_beam_search``)."""
    return cfg_beam_search(params, params, source, image, gamma, width, space)
