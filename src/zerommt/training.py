"""Optimization: Adam with base freezing, pretraining, adaptation loop.

The base model is pretrained on text-only parallel data, then frozen byte
for byte. The adaptation phase updates only the extras (adapters plus
visual projector) on the two-term objective; ablation modes drop or
replace either term. Accepted target sets are computed once per corpus
from the frozen base's teacher-forced distributions, so nothing but the
captions, their images and the base's own outputs reaches adaptation.
Everything is a deterministic function of (config, corpus, seed).
"""

from __future__ import annotations

import ctypes
import math
import platform
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import evaluation as ev
from . import model as m
from .model import ModelParams
from . import objectives as obj
from .objectives import Batch, BatchExample

TRAIN_MODES = tuple(obj.ADAPTATION_MODES)
BETA1, BETA2, EPS_ADAM = 0.9, 0.99, 1e-8

M_TRIM_THRESHOLD = -1  # mallopt's parameter number, from malloc.h
# The free heap top glibc may keep instead of returning it to the kernel.
# 64 MiB is glibc's own ceiling for its dynamic trim threshold, and far
# above the few MB a step frees and allocates again, so no step trims.
HEAP_TRIM_THRESHOLD = 64 << 20


class FreezingViolation(RuntimeError):
    """A gradient arrived for a frozen tensor."""


def _validate_schedule(config) -> None:
    """Checks shared by ``PretrainConfig`` and ``TrainConfig``."""
    if not 0.0 < config.lr < math.inf:  # false for NaN too
        raise ValueError(f"lr must be finite and positive, got {config.lr}")
    if config.batch_size < 1 or config.max_steps < 1:
        raise ValueError("batch_size and max_steps must be positive")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    max_steps: int = 600
    seed: int = 0
    lam: float = 1.0
    mask_rate: float = 0.25
    eval_every: int = 100
    mode: str = "full"

    def validate(self) -> None:
        _validate_schedule(self)
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam}")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ValueError(f"mask_rate must be in [0, 1], got {self.mask_rate}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be positive, got {self.eval_every}")


@dataclass
class PretrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    max_steps: int = 800
    seed: int = 0

    def validate(self) -> None:
        _validate_schedule(self)


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Checkpoint:
    step: int
    extras: dict[str, np.ndarray]
    contrastive_acc: float
    bleu: float
    contrastive_margin: float
    selection_score: float = float("nan")


@dataclass
class TrainData:
    mmt_train: list
    val_contrastive: list
    val_translation: list


@dataclass
class TrainResult:
    params: ModelParams
    best: Checkpoint
    checkpoints: list[Checkpoint]
    log_rows: list[dict]


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update on the trainable tensors."""
    for name in grads:
        if not params.tensors[name].requires_grad:
            raise FreezingViolation(f"gradient arrived for frozen tensor {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    for name in params.trainable_names():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        # the moments belong to the state alone, so they update in place
        # (the same roundings as b1 * m + (1 - b1) * g); the weights rebind
        mt, vt = state.m[name], state.v[name]
        mt *= b1
        mt += (1 - b1) * g
        vt *= b2
        vt += (1 - b2) * g * g
        m_hat = mt / (1 - b1**t)
        v_hat = vt / (1 - b2**t)
        tensor = params.tensors[name]
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + EPS_ADAM)


def clone_params(params: ModelParams) -> ModelParams:
    """A copy whose trainable tensors own copies of their arrays, while
    frozen ones share theirs: no code writes a parameter array in place
    (Adam rebinds ``.data``), so neither side can change the other."""
    tensors = {n: ad.Tensor(t.data.copy() if t.requires_grad else t.data,
                            requires_grad=t.requires_grad)
               for n, t in params.tensors.items()}
    return ModelParams(
        config=params.config, tensors=tensors, is_extra=dict(params.is_extra)
    )


def _batches(n: int, batch_size: int, steps: int, rng: np.random.Generator):
    """Deterministic epoch shuffling: a fresh permutation per epoch, fixed
    batch order within it."""
    order: list[int] = []
    produced = 0
    while produced < steps:
        perm = [int(i) for i in rng.permutation(n)]
        order.extend(perm)
        while len(order) >= batch_size and produced < steps:
            yield order[:batch_size]
            order = order[batch_size:]
            produced += 1


def _backpropagate_terms(terms) -> tuple[float, dict[str, float]]:
    """Backpropagate each ``(name, term, weighted)`` of ``terms`` (see
    ``objectives.adaptation_terms``) before asking for the next, so a lazy
    ``terms`` starts the next forward only after ``ad.backward`` has
    consumed the previous graph. Leaves sum the terms' gradients in term
    order, as one backward of the sum would. Returns the weighted floats
    summed in term order, and each term's float by name.
    """
    total = None
    values = {}
    for name, term, weighted in terms:
        ad.backward(weighted)
        values[name] = float(term.data)
        w = float(weighted.data)
        total = w if total is None else total + w
    return total, values


def _glibc():
    """glibc's malloc, whose heap policy ``_kept_heap`` sets; None off
    glibc."""
    if platform.libc_ver()[0] != "glibc":
        return None
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    return libc


_LIBC = _glibc()


@contextmanager
def _kept_heap():
    """Keep the freed top of glibc's heap resident inside the scope, and
    trim the heap once on the way out.

    A step frees its graph and gradients during its backward, so with
    glibc's default policy the heap top falls free there, goes back to the
    kernel, and the next forward faults the same pages in again. Raising
    the trim threshold stops that; the trim on exit hands the pages back
    once, so later stages in the process start on a trimmed heap. glibc
    cannot go back to its dynamic thresholds, so the raised one stays set
    after the scope. The allocator moves no float, so results are the same
    bit for bit. Off glibc the scope does nothing."""
    if _LIBC is None:
        yield
        return
    _LIBC.mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    try:
        yield
    finally:
        _LIBC.malloc_trim(0)


def _descend(params: ModelParams, config, n: int, rng: np.random.Generator,
             terms_of, stage: str):
    """Adam descent over shuffled batches of ``n`` examples, yielding
    ``(step, total, values)`` after each update.

    ``terms_of(idxs)`` returns the terms of one batch's objective, which
    ``_backpropagate_terms`` consumes, so a step holds one term's graph at a
    time and no step's graph survives into the next forward. Nor do its
    gradients: the leaves drop them after the update, and nothing else
    holds them. The loop runs inside ``_kept_heap``, so the pages a step
    frees stay with the process for the next one. A non-finite total
    raises naming ``stage`` and the step, before the update.

    ``train``'s source masks draw from the same ``rng`` as ``_batches``, so
    ``terms_of`` must run between batch draws: that order is part of
    ``train_log.csv``'s bytes.
    """
    state = AdamState()
    with _kept_heap():
        for step, idxs in enumerate(
            _batches(n, min(config.batch_size, n), config.max_steps, rng), start=1
        ):
            total, values = _backpropagate_terms(terms_of(idxs))
            if not math.isfinite(total):
                raise RuntimeError(f"{stage} diverged at step {step}: loss={total}")
            adam_step(params, {name: t.grad for name, t in params.tensors.items()
                               if t.requires_grad and t.grad is not None},
                      state, config.lr)
            params.zero_grads()
            yield step, total, values


# ---------------------------------------------------------------------------
# base pretraining (text-only, stands in for a pretrained MT system)


def pretrain_base(
    parallel_corpus: list,
    model_config: m.ModelConfig,
    config: PretrainConfig,
) -> ModelParams:
    """Train the base encoder-decoder on text-only pairs, then freeze it."""
    if not parallel_corpus:
        raise ValueError("empty pretraining corpus")
    config.validate()
    params = m.build_model(model_config, seed=config.seed)
    params.unfreeze_base()

    def terms_of(idxs):
        nll = obj.text_nll(Batch([
            BatchExample(src=parallel_corpus[k].src, tgt=parallel_corpus[k].tgt)
            for k in idxs
        ]), params)
        return [("nll", nll, nll)]

    for _ in _descend(params, config, len(parallel_corpus),
                      np.random.default_rng([config.seed, 17]), terms_of,
                      "pretraining"):
        pass
    params.freeze_base()
    return params


# ---------------------------------------------------------------------------
# adaptation (extras only)


def evaluate_checkpoint(
    params: ModelParams,
    val_contrastive: list,
    val_translation: list,
) -> tuple[float, float, float]:
    """Contrastive accuracy, contrastive margin and BLEU of the current
    multimodal model."""
    report = ev.evaluate_contrastive(ev.MultimodalScorer(params), val_contrastive)
    bleu_score = ev.translation_bleu(params, val_translation)
    return (report.contrastive_accuracy, ev.contrastive_margin(report.rows),
            bleu_score)


def train(
    config: TrainConfig,
    corpus: TrainData,
    frozen_base: ModelParams,
) -> TrainResult:
    """Adapt the frozen base on multimodal data; only extras move."""
    config.validate()
    for name in ("mmt_train", "val_contrastive", "val_translation"):
        if not getattr(corpus, name):
            raise ValueError(f"empty {name} corpus")
    params = clone_params(frozen_base)
    params.freeze_base()
    m.reinit_extras(params, seed=config.seed)

    batch_examples = [
        BatchExample(src=ex.src, tgt=ex.tgt, image=ex.image)
        for ex in corpus.mmt_train
    ]
    base_cache = obj.base_teacher_logprobs(params, batch_examples)
    for ex, lp in zip(batch_examples, base_cache):
        ex.accept = obj.accepted_tokens(lp, ex.tgt, obj.ACCEPT_RATIO)
    rng = np.random.default_rng([config.seed, 29])

    def terms_of(idxs):
        batch = [
            BatchExample(src=ex.src, tgt=ex.tgt, image=ex.image, accept=ex.accept,
                         mask_set=m.apply_source_mask(ex.src, config.mask_rate, rng))
            for ex in (batch_examples[k] for k in idxs)
        ]
        return obj.adaptation_terms(Batch(batch), params, config.mode, config.lam,
                                    base_lp=[base_cache[k] for k in idxs])

    log_rows: list[dict] = []
    checkpoints: list[Checkpoint] = []
    for step, total, values in _descend(
        params, config, len(batch_examples), rng, terms_of, "training"
    ):
        row = {
            "step": step,
            "vmlm": values.get("vmlm", 0.0),
            "kl": values.get("anchor", 0.0),
            "total": total,
            "val_contrastive": "",
            "val_bleu": "",
        }
        if step % config.eval_every == 0 or step == config.max_steps:
            acc, margin, bleu_score = evaluate_checkpoint(
                params, corpus.val_contrastive, corpus.val_translation
            )
            checkpoints.append(Checkpoint(
                step=step, extras=params.copy_extras(),
                contrastive_acc=acc, bleu=bleu_score, contrastive_margin=margin,
            ))
            row["val_contrastive"], row["val_bleu"] = acc, bleu_score
        log_rows.append(row)

    best = select_model(checkpoints)
    final = clone_params(params)
    final.load_extras(best.extras)
    return TrainResult(
        params=final, best=best, checkpoints=checkpoints, log_rows=log_rows
    )


def select_model(checkpoints: list[Checkpoint]) -> Checkpoint:
    """Equal-weight sum of min-max normalized contrastive margin and BLEU;
    ties go to the earliest step.

    On a validation set of a few dozen instances accuracy moves in steps
    of one row and often ties; the margin ranks the same checkpoints by
    how far each prefers the right translations.
    """
    if not checkpoints:
        raise ValueError("no checkpoints to select from")
    disamb = [c.contrastive_margin for c in checkpoints]
    bleus = [c.bleu for c in checkpoints]

    def norm(vals: list[float]) -> list[float]:
        lo, hi = min(vals), max(vals)
        if hi == lo:
            return [0.5] * len(vals)
        return [(v - lo) / (hi - lo) for v in vals]

    na, nb = norm(disamb), norm(bleus)
    best = None
    for cp, a, b in zip(checkpoints, na, nb):
        cp.selection_score = 0.5 * a + 0.5 * b
        if best is None or cp.selection_score > best.selection_score:
            best = cp
    return best


def log_rows_to_csv(rows: list[dict]) -> str:
    lines = ["step,vmlm,kl,total,val_contrastive,val_bleu"]
    for r in rows:
        vc = r["val_contrastive"]
        vb = r["val_bleu"]
        lines.append(
            f"{r['step']},{r['vmlm']!r},{r['kl']!r},{r['total']!r},"
            f"{vc if vc == '' else repr(vc)},{vb if vb == '' else repr(vb)}"
        )
    return "\n".join(lines) + "\n"
