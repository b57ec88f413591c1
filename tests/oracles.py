"""Reference computations the tests compare the program against: central
finite differences of any op, the matmul and transpose primitives that the
``linear``, ``mlp`` and ``attention`` nodes replace (their reference chains
are built from them), an adaptation objective summed into one tensor
(training backpropagates its terms one at a time instead), and the
formulas that faster kernels replaced, which those kernels must equal
byte for byte: attention's ``np.max`` row max, layer norm and softmax on
temporaries, and per-sequence blends and perplexities."""

from __future__ import annotations

from typing import Callable

import numpy as np

from zerommt import autodiff as ad
from zerommt import objectives as obj
from zerommt.decoding import cfg_distribution
from zerommt.evaluation import CfgScorer
from zerommt.autodiff import (ShapeError, Tensor, _accumulate, _as_tensor,
                              _make, _unbroadcast)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; the leading (batch) axes
    broadcast as in numpy.

    A 2-D weight ``b`` serves any number of leading axes of ``a``, and a
    batch-1 operand serves a batch of n. Backward sums each gradient back
    to its operand's shape. The layer nodes route their gradients exactly
    as chains of this primitive do.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(
            f"matmul: batch dims do not broadcast, {a.shape} @ {b.shape}") from e
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bwd(g, na, nb):
        if na is not None:
            _accumulate(na, _unbroadcast(
                np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape))
        if nb is None:
            return
        if len(b_shape) == 2:
            gb = np.matmul(
                a_data.reshape(-1, a_shape[-1]).T, g.reshape(-1, g.shape[-1])
            )
        else:
            gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape)
        _accumulate(nb, gb)

    return _make(data, (a, b), bwd)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g, na):
        _accumulate(na, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), bwd)


def grad_check(
    op_under_test: Callable[[Tensor], Tensor],
    point: np.ndarray,
    eps: float = 1e-4,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The op's (possibly non-scalar) output is reduced to a scalar with a
    fixed random linear functional so that no gradient direction is blind.
    """
    point = np.asarray(point, dtype=np.float64)
    w = np.random.default_rng(seed).standard_normal(
        op_under_test(Tensor(point)).data.shape
    )

    def scalar_fn(arr: np.ndarray) -> float:
        return float((op_under_test(Tensor(arr)).data * w).sum())

    x = Tensor(point.copy(), requires_grad=True)
    out = op_under_test(x)
    ad.backward(ad.tsum(ad.mul(out, w)))
    analytic = x.grad if x.grad is not None else np.zeros_like(point)

    worst = 0.0
    flat = point.ravel()
    for k in range(flat.size):
        bump = np.zeros_like(flat)
        bump[k] = eps
        hi = scalar_fn((flat + bump).reshape(point.shape))
        lo = scalar_fn((flat - bump).reshape(point.shape))
        numeric = (hi - lo) / (2 * eps)
        a = analytic.ravel()[k]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def summed_terms(batch, params, mode: str, lam: float, base_lp=None
                 ) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """The objective of ``mode`` as one tensor: the weighted
    ``adaptation_terms`` added in order, with both unweighted parts, None
    where a part is off. Its graph holds both terms at once."""
    total = None
    parts: dict[str, Tensor] = {}
    for name, term, weighted in obj.adaptation_terms(batch, params, mode, lam,
                                                     base_lp):
        parts[name] = term
        total = weighted if total is None else ad.add(total, weighted)
    return total, parts.get("vmlm"), parts.get("anchor")


# ---------------------------------------------------------------------------
# the formulas the faster kernels replaced


def attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      mask: np.ndarray, n_heads: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``ad.attention``'s merged heads and probabilities, with the softmax
    row max taken by ``np.max``."""
    bq, sq, d = q.shape
    dh = d // n_heads

    def split_heads(t: np.ndarray) -> np.ndarray:
        return t.reshape(t.shape[:2] + (n_heads, dh)).transpose(0, 2, 1, 3)

    qh, vh = split_heads(q), split_heads(v)
    kt = split_heads(k).transpose(0, 1, 3, 2)
    probs = np.matmul(qh, kt)
    probs *= float(1.0 / np.sqrt(dh))
    probs += mask
    probs -= np.max(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    merged = np.matmul(probs, vh).transpose(0, 2, 1, 3).reshape(bq, sq, d)
    return merged, probs


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax with a temporary per step."""
    a = _as_tensor(a)
    top = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - top)
    p = e / e.sum(axis=axis, keepdims=True)

    def bwd(g, na):
        inner = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(na, p * (g - inner))

    return _make(p, (a,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Layer norm with a temporary per step, forward and backward."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / n
    var = (centered ** 2).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = gain.data * xhat
    data += bias.data

    def bwd(g, nx, ngain, nbias):
        if nx is not None:
            gg = g * gain.data
            _accumulate(nx, inv * (
                gg
                - gg.sum(axis=-1, keepdims=True) / n
                - xhat * ((gg * xhat).sum(axis=-1, keepdims=True) / n)
            ))
        axes = tuple(range(g.ndim - 1))
        if ngain is not None:
            _accumulate(ngain, (g * xhat).sum(axis=axes))
        if nbias is not None:
            _accumulate(nbias, g.sum(axis=axes))

    return _make(data, (x, gain, bias), bwd)


def sequence_perplexity(dists: np.ndarray, y) -> float:
    """The perplexity of one target ``y`` under its ``dists``."""
    gold = np.asarray(y[1:])
    probs = dists[np.arange(len(gold)), gold]
    nll = -np.log(np.maximum(probs, 1e-300)).mean()
    return float(np.exp(nll))


def per_sequence_perplexities(scorer, srcs, images, tgts) -> list[float]:
    """Each sequence's perplexity under ``scorer``, a guided scorer's
    blend made one sequence at a time."""
    if isinstance(scorer, CfgScorer):
        pt = scorer.text_scorer.distributions(srcs, images, tgts)
        pm = scorer.mm_scorer.distributions(srcs, images, tgts)
        dists = [cfg_distribution(t, mm, scorer.gamma, scorer.space)
                 for t, mm in zip(pt, pm)]
    else:
        dists = scorer.distributions(srcs, images, tgts)
    return [sequence_perplexity(d, y) for d, y in zip(dists, tgts)]
