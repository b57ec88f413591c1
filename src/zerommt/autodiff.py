"""Dense float64 tensors with reverse-mode automatic differentiation.

Small op surface, just enough for a toy transformer: primitives (matmul,
elementwise arithmetic, ReLU/exp/log, stable softmax / log-softmax,
reshape, transpose, embedding lookup, concatenation, gather) and one node
per layer (``linear``, ``mlp``, multi-head ``attention``, ``layer_norm``).
``linear``, ``mlp`` and ``attention`` run the numpy calls of the primitive
chains they replace, in the same order, so their numbers are those chains'
bit for bit, but each keeps only the arrays its backward reads.
Everything is float64 and fully deterministic: two identical
forward+backward passes produce bit-identical numbers. ``backward``
consumes the graph it walks: interior nodes are freed as their gradients
pass, and only leaves keep ``.grad``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

# whether op outputs record their parents; off inside ``no_grad``
_recording = True


class ShapeError(ValueError):
    """Raised when operands have incompatible shapes for an op."""


class Tensor:
    """A node in the (eager) differentiation tape.

    Leaves are created directly; op outputs carry backpointers to their
    parents and a closure that routes the incoming gradient. Nodes whose
    parents all have ``requires_grad=False``, and every node made inside
    ``no_grad``, record nothing, so frozen-model and inference forwards
    build no graph at all. A closure computes the gradient of only those
    parents that require grad, so frozen weights cost no backward work.
    ``backward`` consumes the graph: afterwards each interior node keeps
    its ``data`` but no ``grad``, closure or parents, and only leaves
    (tensors made directly, such as parameters) hold gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the scope: ops compute the same numbers, but
    their outputs never require grad. The switch is process-wide; the
    previous state comes back on exit, also when the scope raises."""
    global _recording
    saved = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = saved


def is_recording() -> bool:
    """False inside ``no_grad``."""
    return _recording


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    # grads are only ever rebound (never mutated in place), so views are safe
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from e

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from e

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), bwd)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)

    def bwd(g):
        _accumulate(a, g * s)

    return _make(a.data * s, (a,), bwd)


# ---------------------------------------------------------------------------
# matmul


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; the leading (batch) axes
    broadcast as in numpy.

    A 2-D weight ``b`` serves any number of leading axes of ``a``, and a
    batch-1 operand serves a batch of n. Backward sums each gradient back
    to its operand's shape. The layer nodes below route their gradients
    exactly as chains of this primitive do.
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

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(
                np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if not b.requires_grad:
            return
        if b.ndim == 2:
            gb = np.matmul(
                a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1])
            )
        else:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        _accumulate(b, gb)

    return _make(data, (a, b), bwd)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, op: str) -> np.ndarray:
    """``x @ w + b`` for a 2-D ``w``, the bias added in place to the product."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ShapeError(f"{op}: {x.shape} @ {w.shape} + {b.shape} does not fit")
    out = np.matmul(x, w)
    out += b
    return out


def _affine_grads(x: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray,
                  need_x: bool) -> np.ndarray | None:
    """Give ``w`` and ``b`` their gradients of ``x @ w + b``, routed as
    ``add(matmul(x, w), b)`` routes them; return that of ``x`` if asked."""
    if b.requires_grad:
        _accumulate(b, _unbroadcast(g, b.shape))
    if w.requires_grad:
        _accumulate(w, np.matmul(x.reshape(-1, x.shape[-1]).T,
                                 g.reshape(-1, g.shape[-1])))
    if not need_x:
        return None
    return _unbroadcast(np.matmul(g, np.swapaxes(w.data, -1, -2)), x.shape)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node, bit for bit ``add(matmul(x, w), b)``
    with a 2-D weight and a bias of its width; no pre-bias array is kept."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    data = _affine(x.data, w.data, b.data, "linear")

    def bwd(g):
        gx = _affine_grads(x.data, w, b, g, x.requires_grad)
        if gx is not None:
            _accumulate(x, gx)

    return _make(data, (x, w, b), bwd)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` as one node, bit for bit the chain
    ``linear``, ``relu``, ``linear``; it keeps only the hidden activation."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    hidden = _affine(x.data, w1.data, b1.data, "mlp")
    np.maximum(hidden, 0.0, out=hidden)
    data = _affine(hidden, w2.data, b2.data, "mlp")

    def bwd(g):
        below = x.requires_grad or w1.requires_grad or b1.requires_grad
        gh = _affine_grads(hidden, w2, b2, g, below)
        if not below:
            return
        # relu's subgradient: hidden > 0 exactly where its input was
        gx = _affine_grads(x.data, w1, b1, gh * (hidden > 0.0), x.requires_grad)
        if gx is not None:
            _accumulate(x, gx)

    return _make(data, (x, w1, b1, w2, b2), bwd)


def attention(q, k, v, mask: np.ndarray, n_heads: int
              ) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention as one node, bit for bit the
    chain of reshape, transpose, matmul, scale, add, softmax, matmul,
    transpose and reshape it replaces.

    ``q`` is (B, Sq, d); ``k`` and ``v`` are (B, Sk, d), or (1, Sk, d) to
    serve all B query rows. ``mask`` is additive, broadcastable to
    (B, n_heads, Sq, Sk), -inf on the keys a query may not read. Returns
    the merged heads (B, Sq, d) and the probabilities (B, n_heads, Sq, Sk),
    the one array the node keeps beside its inputs.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    bq, sq, d = q.shape
    if d % n_heads or k.shape[2:] != (d,) or v.shape != k.shape \
            or k.shape[0] not in (1, bq):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"with {n_heads} heads")
    dh = d // n_heads
    s = float(1.0 / np.sqrt(dh))

    def split_heads(t: np.ndarray) -> np.ndarray:
        return t.reshape(t.shape[:2] + (n_heads, dh)).transpose(0, 2, 1, 3)

    qh, vh = split_heads(q.data), split_heads(v.data)
    kt = split_heads(k.data).transpose(0, 1, 3, 2)
    probs = np.matmul(qh, kt)
    probs *= s
    probs += mask
    probs -= np.max(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = np.matmul(probs, vh)
    data = out.transpose(0, 2, 1, 3).reshape(bq, sq, d)

    def merge_heads(gh: np.ndarray, shape) -> np.ndarray:
        return gh.transpose(0, 2, 1, 3).reshape(shape)

    def bwd(g):
        go = g.reshape((bq, sq, n_heads, dh)).transpose(0, 2, 1, 3)
        if v.requires_grad:
            gv = _unbroadcast(np.matmul(np.swapaxes(probs, -1, -2), go), vh.shape)
            _accumulate(v, merge_heads(gv, v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        gp = np.matmul(go, np.swapaxes(vh, -1, -2))
        gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * s
        if q.requires_grad:
            gq = _unbroadcast(np.matmul(gs, np.swapaxes(kt, -1, -2)), qh.shape)
            _accumulate(q, merge_heads(gq, q.shape))
        if k.requires_grad:
            gk = _unbroadcast(np.matmul(np.swapaxes(qh, -1, -2), gs), kt.shape)
            _accumulate(k, merge_heads(gk.transpose(0, 1, 3, 2), k.shape))

    return _make(data, (q, k, v), bwd), probs


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def bwd(g):
        # subgradient at the kink is 0 by convention
        _accumulate(a, g * (a.data > 0.0))

    return _make(data, (a,), bwd)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * data)

    return _make(data, (a,), bwd)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), bwd)


def clip_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient is 0 where the floor is active."""
    a = _as_tensor(a)
    floor = float(floor)
    data = np.maximum(a.data, floor)

    def bwd(g):
        _accumulate(a, g * (a.data > floor))

    return _make(data, (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax (max-subtracted). ``-inf`` entries get exactly 0."""
    a = _as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    p = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(a, p * (g - inner))

    return _make(p, (a,), bwd)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def bwd(g):
        p = np.exp(data)
        _accumulate(a, g - p * g.sum(axis=axis, keepdims=True))

    return _make(data, (a,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis, then apply elementwise gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs features {x.shape[-1]}"
        )
    n = x.shape[-1]
    # each mean is sum / n, which is what np.mean computes
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / n
    var = (centered ** 2).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = gain.data * xhat
    data += bias.data

    def bwd(g):
        if x.requires_grad:
            gg = g * gain.data
            _accumulate(x, inv * (
                gg
                - gg.sum(axis=-1, keepdims=True) / n
                - xhat * ((gg * xhat).sum(axis=-1, keepdims=True) / n)
            ))
        axes = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).sum(axis=axes))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=axes))

    return _make(data, (x, gain, bias), bwd)


# ---------------------------------------------------------------------------
# structural ops


def embedding(table, ids: np.ndarray) -> Tensor:
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.shape[0]}) in lookup"
        )
    data = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        _accumulate(table, gt)

    return _make(data, (table,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _make(data, tuple(tensors), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), bwd)


def gather(a, idx: np.ndarray) -> Tensor:
    """Pick ``a[..., idx]`` along the last axis, one index per row.

    ``idx`` has the shape of ``a`` minus its last axis.
    """
    a = _as_tensor(a)
    idx = np.asarray(idx)
    if idx.shape != a.shape[:-1]:
        raise ShapeError(f"gather: index shape {idx.shape} vs data {a.shape}")
    grid = np.ix_(*[np.arange(n) for n in idx.shape]) if idx.ndim else ()
    data = a.data[grid + (idx,)] if idx.ndim else a.data[idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        if idx.ndim:
            np.add.at(ga, grid + (idx,), g)
        else:
            ga[idx] = g
        _accumulate(a, ga)

    return _make(data, (a,), bwd)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def _consumed(g: np.ndarray) -> None:
    """Stands in for the closure of a node whose gradient has passed."""
    raise RuntimeError("backward: graph already consumed by an earlier "
                       "backward (run the forward again)")


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss that consumes its graph.

    Traverses the tape once, in reverse topological order. Once a node's
    closure has passed its gradient on, the node drops its ``.grad``, its
    closure and its parents, so activations are freed as the walk passes
    them. Only leaves keep ``.grad``; leaves with ``requires_grad=False``
    receive none. A second backward through a consumed node raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise RuntimeError(
            "backward: loss is not connected to any trainable tensor "
            "(was forward run with trainable inputs?)"
        )
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _consumed:
            _consumed(node.grad)  # fail before any gradient moves
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _consumed, ()


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
    backward(tsum(mul(out, w)))
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
