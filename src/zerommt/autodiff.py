"""Dense float64 tensors with reverse-mode automatic differentiation.

Small op surface, just enough for a toy transformer: primitives
(elementwise arithmetic, ReLU/exp/log, stable softmax / log-softmax,
reshape, embedding lookup, concatenation, gather) and one node per layer
(``linear``, ``mlp``, multi-head ``attention``, ``layer_norm``).
``linear``, ``mlp`` and ``attention`` compute the numbers of the primitive
chains they replace (matmul, transpose and the ops here; the tests keep
those chains as oracles) bit for bit, with the same numpy calls in the
same order, except that ``attention`` takes its softmax row max key column
by key column, which is exact.

The tape holds gradient routes, not tensors. A recorded op output gets a
small node (its gradient, its parents' nodes, its closure); a leaf is its
own node. Each closure keeps only the arrays and shapes its own backward
reads (None where no gradient needs an array), never a Tensor, so an
activation no backward reads is freed as soon as the caller drops its
tensor. A ``layer_norm`` or ``attention`` output also carries a recipe:
a function that rebuilds its array from arrays its own node keeps anyway,
with the forward's numpy calls in the forward's order. ``linear`` and
``mlp`` keep such an input's recipe instead of its array and rebuild it in
their backward, so these outputs too are freed with the caller's tensor.
The first consumer's backward builds the array, the others read that one,
and it dies with the last of them.
Everything is float64 and fully deterministic: two
identical forward+backward passes produce bit-identical numbers.
``backward`` consumes the graph it walks: nodes are freed as their
gradients pass, and only leaves keep ``.grad``.

A kernel writes in place only into arrays it allocated itself in the same
call. It never writes into an incoming gradient ``g`` (``add``'s backward
hands the same array to both parents, and ``_accumulate`` keeps it as a
gradient), into an array that a node or a recipe keeps, or into a
parameter.
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
    """An array, and the node its gradient takes in the (eager) tape.

    A leaf (made directly, such as a parameter) is its own node: it has no
    parents and no closure, and ``backward`` leaves its gradient in
    ``.grad``. An op output records a ``_Node`` when one of its parents
    requires grad and recording is on (outside ``no_grad``); otherwise it
    records nothing, so frozen-model and inference forwards build no graph
    at all. The node refers to no op output, so the tensor's array lives
    only as long as the caller holds the tensor, unless a backward reads it.
    A recorded output may carry ``_recipe``, which rebuilds its array.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_recipe",
                 "__weakref__")
    # a leaf's route: no parents, no closure
    _parents: tuple = ()
    _backward = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None
        self._recipe: Callable[[], np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    """The gradient route of one recorded op output: the gradient summed
    into it so far, its parents' routes (a leaf tensor or a ``_Node``;
    None for a parent that takes no gradient) and the closure that sends
    the gradient on, called as ``_backward(grad, *_parents)``."""

    __slots__ = ("grad", "_parents", "_backward", "__weakref__")
    requires_grad = True

    def __init__(self, parents: tuple, backward: Callable) -> None:
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward


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


def _route(t: Tensor) -> Tensor | _Node | None:
    """Where ``t``'s gradient goes: its node, the leaf itself, or None."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _make(data: np.ndarray, parents: Sequence[Tensor], backward,
          recipe: Callable[[], np.ndarray] | None = None) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(_route(p) for p in parents), backward)
        out._recipe = None if recipe is None else _built_once(recipe)
    return out


def _built_once(build: Callable[[], np.ndarray]) -> Callable[[], np.ndarray]:
    """A recipe that calls ``build`` on its first call and returns that
    array on every later one, so the consumers of an output rebuild it once
    between them. The array dies with the recipe: with the output tensor
    and the last consumer closure that keeps it."""
    built: list[np.ndarray] = []

    def recipe() -> np.ndarray:
        if not built:
            built.append(build())
        return built[0]

    return recipe


def _keep(t: Tensor) -> np.ndarray | Callable[[], np.ndarray]:
    """What a backward keeps to read ``t``'s array: its recipe if it has
    one, else the array."""
    return t.data if t._recipe is None else t._recipe


def _accumulate(node: Tensor | _Node | None, g: np.ndarray) -> None:
    if node is None or not node.requires_grad:
        return
    # grads are only ever rebound (never mutated in place), so views are safe
    node.grad = g if node.grad is None else node.grad + g


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
    a_shape, b_shape = a.shape, b.shape

    def bwd(g, na, nb):
        if na is not None:
            _accumulate(na, _unbroadcast(g, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, b_shape))

    return _make(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    # IEEE negation is multiplication by -1.0, in the data and the gradient
    return add(a, scale(b, -1.0))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from e
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bwd(g, na, nb):
        if na is not None:
            _accumulate(na, _unbroadcast(g * b_data, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g * a_data, b_shape))

    return _make(data, (a, b), bwd)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)

    def bwd(g, na):
        _accumulate(na, g * s)

    return _make(a.data * s, (a,), bwd)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, op: str) -> np.ndarray:
    """``x @ w + b`` for a 2-D ``w``, the bias added in place to the product."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ShapeError(f"{op}: {x.shape} @ {w.shape} + {b.shape} does not fit")
    out = np.matmul(x, w)
    out += b
    return out


def _affine_grads(x, w: np.ndarray | None, nw, nb,
                  g: np.ndarray) -> np.ndarray | None:
    """Give the routes ``nw`` and ``nb`` their gradients of ``x @ w + b``,
    routed as ``add(matmul(x, w), b)`` routes them; return that of ``x``
    when ``w`` is given. ``x`` (an array or a recipe, see ``_keep``) is
    read only for ``nw``."""
    if nb is not None:
        _accumulate(nb, _unbroadcast(g, g.shape[-1:]))
    if nw is not None:
        x = x() if callable(x) else x
        _accumulate(nw, np.matmul(x.reshape(-1, x.shape[-1]).T,
                                  g.reshape(-1, g.shape[-1])))
    if w is None:
        return None
    return np.matmul(g, np.swapaxes(w, -1, -2))


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node, bit for bit ``add(matmul(x, w), b)``
    with a 2-D weight and a bias of its width. It keeps ``x`` only for a
    weight that takes a gradient, as ``x``'s recipe where ``x`` has one,
    and no pre-bias array."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    data = _affine(x.data, w.data, b.data, "linear")
    x_kept = _keep(x) if w.requires_grad else None
    w_data = w.data if x.requires_grad else None

    def bwd(g, nx, nw, nb):
        _accumulate(nx, _affine_grads(x_kept, w_data, nw, nb, g))

    return _make(data, (x, w, b), bwd)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` as one node, bit for bit the chain
    ``linear``, ``relu``, ``linear``. It keeps the hidden activation, and
    ``x`` only for a first weight that takes a gradient, as ``x``'s recipe
    where ``x`` has one."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    hidden = _affine(x.data, w1.data, b1.data, "mlp")
    np.maximum(hidden, 0.0, out=hidden)
    data = _affine(hidden, w2.data, b2.data, "mlp")
    x_kept = _keep(x) if w1.requires_grad else None
    w1_data = w1.data if x.requires_grad else None
    below = x.requires_grad or w1.requires_grad or b1.requires_grad
    w2_data = w2.data if below else None

    def bwd(g, nx, nw1, nb1, nw2, nb2):
        gh = _affine_grads(hidden, w2_data, nw2, nb2, g)
        if gh is None:
            return
        # relu's subgradient: hidden > 0 exactly where its input was
        _accumulate(nx, _affine_grads(x_kept, w1_data, nw1, nb1,
                                      gh * (hidden > 0.0)))

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
    which the node keeps, with the heads of ``q``, ``k`` and ``v`` only
    where a gradient reads them. Where it keeps the heads of ``v``, the
    merged output carries a recipe (``probs @ vh``, heads merged), so no
    consumer needs to keep it.
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
    # the row max of the softmax, taken key column by key column: max is
    # exact, and np.max reduces many short rows slowly
    top = probs[..., 0].copy()
    for j in range(1, probs.shape[-1]):
        np.maximum(top, probs[..., j], out=top)
    probs -= top[..., None]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def merged() -> np.ndarray:
        return np.matmul(probs, vh).transpose(0, 2, 1, 3).reshape(bq, sq, d)

    data = merged()
    q_shape, kv_shape = q.shape, k.shape
    qh_shape, kt_shape, vh_shape = qh.shape, kt.shape, vh.shape
    # each head array stays only where a gradient reads it
    vh = vh if q.requires_grad or k.requires_grad else None
    qh = qh if k.requires_grad else None
    kt = kt if q.requires_grad else None

    def merge_heads(gh: np.ndarray, shape) -> np.ndarray:
        return gh.transpose(0, 2, 1, 3).reshape(shape)

    def bwd(g, nq, nk, nv):
        go = g.reshape((bq, sq, n_heads, dh)).transpose(0, 2, 1, 3)
        if nv is not None:
            gv = _unbroadcast(np.matmul(np.swapaxes(probs, -1, -2), go), vh_shape)
            _accumulate(nv, merge_heads(gv, kv_shape))
        if nq is None and nk is None:
            return
        gp = np.matmul(go, np.swapaxes(vh, -1, -2))
        gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * s
        if nq is not None:
            gq = _unbroadcast(np.matmul(gs, np.swapaxes(kt, -1, -2)), qh_shape)
            _accumulate(nq, merge_heads(gq, q_shape))
        if nk is not None:
            gk = _unbroadcast(np.matmul(np.swapaxes(qh, -1, -2), gs), kt_shape)
            _accumulate(nk, merge_heads(gk.transpose(0, 1, 3, 2), kv_shape))

    return _make(data, (q, k, v), bwd,
                 None if vh is None else merged), probs


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    a = _as_tensor(a)
    a_data = a.data
    data = np.maximum(a_data, 0.0)

    def bwd(g, na):
        # subgradient at the kink is 0 by convention
        _accumulate(na, g * (a_data > 0.0))

    return _make(data, (a,), bwd)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def bwd(g, na):
        _accumulate(na, g * data)

    return _make(data, (a,), bwd)


def log(a) -> Tensor:
    a = _as_tensor(a)
    a_data = a.data

    def bwd(g, na):
        _accumulate(na, g / a_data)

    return _make(np.log(a_data), (a,), bwd)


def clip_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient is 0 where the floor is active."""
    a = _as_tensor(a)
    a_data = a.data
    floor = float(floor)
    data = np.maximum(a_data, floor)

    def bwd(g, na):
        _accumulate(na, g * (a_data > floor))

    return _make(data, (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax (max-subtracted). ``-inf`` entries get exactly 0."""
    a = _as_tensor(a)
    p = np.subtract(a.data, np.max(a.data, axis=axis, keepdims=True))
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)

    def bwd(g, na):
        inner = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(na, p * (g - inner))

    return _make(p, (a,), bwd)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def bwd(g, na):
        p = np.exp(data)
        _accumulate(na, g - p * g.sum(axis=axis, keepdims=True))

    return _make(data, (a,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis, then apply elementwise gain and bias.

    The node keeps the normalised input and the inverse deviations; the
    output carries a recipe, ``gain * xhat + bias``, that rebuilds it from
    them."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} vs features {x.shape[-1]}"
        )
    n = x.shape[-1]
    # each mean is sum / n, which is what np.mean computes; xhat holds the
    # centred input until it is scaled, and out its square until the output
    mean = x.data.sum(axis=-1, keepdims=True)
    mean /= n
    xhat = np.subtract(x.data, mean)
    out = np.square(xhat)
    inv = out.sum(axis=-1, keepdims=True)
    inv /= n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    gain_data, bias_data = gain.data, bias.data

    def output(out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(gain_data, xhat, out=out)
        out += bias_data
        return out

    data = output(out)

    def bwd(g, nx, ngain, nbias):
        if nx is not None:
            # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), gg = g * gain
            gg = g * gain_data
            prod = gg * xhat
            mean_gx = prod.sum(axis=-1, keepdims=True)
            mean_gx /= n
            np.multiply(xhat, mean_gx, out=prod)
            mean_g = gg.sum(axis=-1, keepdims=True)
            mean_g /= n
            gg -= mean_g
            gg -= prod
            gg *= inv
            _accumulate(nx, gg)
        axes = tuple(range(g.ndim - 1))
        if ngain is not None:
            _accumulate(ngain, (g * xhat).sum(axis=axes))
        if nbias is not None:
            _accumulate(nbias, g.sum(axis=axes))

    return _make(data, (x, gain, bias), bwd, output)


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
    table_shape = table.shape

    def bwd(g, ntable):
        gt = np.zeros(table_shape)
        np.add.at(gt, ids, g)
        _accumulate(ntable, gt)

    return _make(data, (table,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g, *nodes):
        for node, piece in zip(nodes, np.split(g, splits, axis=axis)):
            _accumulate(node, piece)

    return _make(data, tuple(tensors), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    a_shape = a.shape

    def bwd(g, na):
        _accumulate(na, g.reshape(a_shape))

    return _make(a.data.reshape(shape), (a,), bwd)


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
    a_shape = a.shape

    def bwd(g, na):
        ga = np.zeros(a_shape)
        if idx.ndim:
            np.add.at(ga, grid + (idx,), g)
        else:
            ga[idx] = g
        _accumulate(na, ga)

    return _make(data, (a,), bwd)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    a_shape = a.shape

    def bwd(g, na):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(na, np.broadcast_to(g, a_shape).copy())

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def _consumed(*_) -> None:
    """Stands in for the closure of a node whose gradient has passed."""
    raise RuntimeError("backward: graph already consumed by an earlier "
                       "backward (run the forward again)")


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss that consumes its graph.

    Traverses the nodes once, in reverse topological order. Once a node's
    closure has passed its gradient on, the node drops its gradient, its
    closure and its parents, so the arrays that closure kept are freed as
    the walk passes them. Only leaves keep ``.grad``; leaves with
    ``requires_grad=False`` receive none. A second backward through a
    consumed node raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise RuntimeError(
            "backward: loss is not connected to any trainable tensor "
            "(was forward run with trainable inputs?)"
        )
    root = _route(loss)
    topo: list = []
    seen: set[int] = set()
    stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _consumed:
            _consumed()  # fail before any gradient moves
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p is not None and p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad, *node._parents)
            node.grad, node._backward, node._parents = None, _consumed, ()
