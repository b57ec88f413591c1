"""Reference computations the tests compare the program against: central
finite differences of any op, the matmul and transpose primitives that the
``linear``, ``mlp`` and ``attention`` nodes replace (their reference chains
are built from them), and an adaptation objective summed into one tensor
(training backpropagates its terms one at a time instead)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from zerommt import autodiff as ad
from zerommt import objectives as obj
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
