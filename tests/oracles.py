"""Reference computations the tests compare the program against: central
finite differences of any op, and an adaptation objective summed into one
tensor (training backpropagates its terms one at a time instead)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from zerommt import autodiff as ad
from zerommt import objectives as obj
from zerommt.autodiff import Tensor


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
