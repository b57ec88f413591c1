"""Tape correctness: hand-derived forward values, closed-form gradients
for the core ops, and finite-difference checks for the composites."""

import math
import weakref

import numpy as np
import pytest

from zerommt import autodiff as ad
from zerommt import decoding as dec
from zerommt import model as m
from zerommt import objectives as obj
from zerommt.autodiff import ShapeError, Tensor

from oracles import grad_check, matmul, summed_terms, transpose


def _sum_backward(out: Tensor) -> None:
    ad.backward(ad.tsum(out))


# ---------------------------------------------------------------------------
# forward oracles


def test_add_forward():
    out = ad.add(Tensor(np.array([1.0, 2.0])), Tensor(np.array([10.0, 20.0])))
    assert np.array_equal(out.data, [11.0, 22.0])


def test_sub_negates_data_and_gradient_exactly():
    x = np.array([1.5, -0.0, 0.0, -2.25, 3.0])
    y = np.array([0.5, 0.0, -0.0, 1e-300, -7.0])
    a, b = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
    out = ad.sub(a, b)
    assert out.data.tobytes() == (x + -y).tobytes()
    up = np.array([1.0, -0.0, 2.5, -3.0, 0.0])
    ad.backward(ad.tsum(ad.mul(out, up)))
    assert a.grad.tobytes() == up.tobytes()
    assert b.grad.tobytes() == (-up).tobytes()


def test_matmul_forward_hand():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    out = matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="batch dims do not broadcast"):
        matmul(Tensor(np.ones((2, 3, 4, 5))), Tensor(np.ones((3, 3, 5, 2))))


def test_softmax_forward_hand():
    # exp = [1, 2, 3], so probs are [1/6, 1/3, 1/2]
    logits = Tensor(np.array([0.0, math.log(2.0), math.log(3.0)]))
    out = ad.softmax(logits)
    assert np.allclose(out.data, [1 / 6, 1 / 3, 1 / 2], atol=1e-15)
    assert abs(out.data.sum() - 1.0) < 1e-15


def test_softmax_neg_inf_is_exact_zero():
    out = ad.softmax(Tensor(np.array([0.0, -np.inf, 1.0])))
    assert out.data[1] == 0.0
    assert abs(out.data.sum() - 1.0) < 1e-15


def test_log_softmax_matches_log_of_softmax():
    x = np.random.default_rng(3).standard_normal((4, 7))
    ls = ad.log_softmax(Tensor(x)).data
    assert np.allclose(ls, np.log(ad.softmax(Tensor(x)).data), atol=1e-12)


def test_layer_norm_forward_hand():
    # x = [1,2,3,4]: mean 2.5, variance 1.25
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    gain = np.array([1.0, 1.0, 2.0, 2.0])
    bias = np.array([0.0, 1.0, 0.0, 1.0])
    out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    z = (x[0] - 2.5) / math.sqrt(1.25 + 1e-5)
    assert np.allclose(out.data[0], gain * z + bias, atol=1e-12)


def test_gather_picks_last_axis_entries():
    a = Tensor(np.arange(12.0).reshape(3, 4))
    idx = np.array([0, 3, 2])
    out = ad.gather(a, idx)
    assert np.array_equal(out.data, [0.0, 7.0, 10.0])


def test_embedding_rejects_out_of_range_ids():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        ad.embedding(table, np.array([[0, 4]]))


def test_tsum_axis_and_keepdims():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    assert ad.tsum(a).data == 15.0
    assert np.array_equal(ad.tsum(a, axis=0).data, [3.0, 5.0, 7.0])
    assert ad.tsum(a, axis=1, keepdims=True).shape == (2, 1)


# ---------------------------------------------------------------------------
# closed-form gradients


def test_broadcast_add_gradient_unbroadcasts():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    _sum_backward(ad.add(a, b))
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, [2.0, 2.0, 2.0])


def test_mul_gradient_is_other_factor():
    a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([5.0, 7.0]), requires_grad=True)
    _sum_backward(ad.mul(a, b))
    assert np.array_equal(a.grad, [5.0, 7.0])
    assert np.array_equal(b.grad, [2.0, 3.0])


def test_relu_subgradient_zero_at_kink():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    _sum_backward(ad.relu(x))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_clip_min_gradient_zero_where_floor_active():
    x = Tensor(np.array([-5.0, 3.0]), requires_grad=True)
    _sum_backward(ad.clip_min(x, 0.0))
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_embedding_duplicate_ids_accumulate():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    _sum_backward(ad.embedding(table, np.array([1, 1, 2])))
    assert np.array_equal(table.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


def test_gather_gradient_scatters():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    _sum_backward(ad.gather(a, np.array([2, 2])))
    assert np.array_equal(a.grad, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


def test_concat_gradient_splits():
    a = Tensor(np.zeros((1, 2)), requires_grad=True)
    b = Tensor(np.zeros((1, 3)), requires_grad=True)
    out = ad.concat([a, b], axis=1)
    ad.backward(ad.tsum(ad.mul(out, np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))))
    assert np.array_equal(a.grad, [[1.0, 2.0]])
    assert np.array_equal(b.grad, [[3.0, 4.0, 5.0]])


def test_reshape_transpose_gradient_roundtrip():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    out = transpose(ad.reshape(x, (3, 2)), (1, 0))
    up = np.arange(6.0).reshape(2, 3)
    ad.backward(ad.tsum(ad.mul(out, up)))
    assert np.array_equal(x.grad, up.T.reshape(2, 3))


# ---------------------------------------------------------------------------
# finite-difference checks (points shifted off ReLU / clip kinks)


GRAD_TOL = 1e-6


def _shifted(shape, seed):
    r = np.random.default_rng(seed).standard_normal(shape)
    return np.where(np.abs(r) < 0.2, r + 0.5, r)


@pytest.mark.parametrize(
    "name,op,shape",
    [
        ("exp", lambda t: ad.exp(t), (3, 4)),
        ("sub", lambda t: ad.sub(0.5, t), (5,)),
        ("scale", lambda t: ad.scale(t, -2.5), (2, 3)),
        ("relu", lambda t: ad.relu(t), (3, 4)),
        ("softmax", lambda t: ad.softmax(t, axis=-1), (2, 5)),
        ("log_softmax", lambda t: ad.log_softmax(t, axis=-1), (2, 5)),
        ("sum_axis", lambda t: ad.tsum(t, axis=1), (3, 4)),
        ("clip", lambda t: ad.clip_min(t, 0.0), (3, 4)),
    ],
)
def test_grad_check_unary(name, op, shape):
    assert grad_check(op, _shifted(shape, 11)) < GRAD_TOL


def test_grad_check_log_positive_point():
    point = np.abs(_shifted((3, 3), 5)) + 0.5
    assert grad_check(lambda t: ad.log(t), point) < GRAD_TOL


def test_grad_check_matmul_both_sides():
    w = Tensor(np.random.default_rng(7).standard_normal((4, 3)))
    x0 = np.random.default_rng(8).standard_normal((2, 4))
    assert grad_check(lambda t: matmul(t, w), x0) < GRAD_TOL
    xc = Tensor(x0)
    w0 = np.random.default_rng(9).standard_normal((4, 3))
    assert grad_check(lambda t: matmul(xc, t), w0) < GRAD_TOL


def test_grad_check_batched_matmul():
    """Both operands, where leading axes are shared or broadcast."""
    for a_shape, b_shape in [
        ((2, 3, 2, 4), (2, 3, 4, 5)),
        ((3, 2, 2, 4), (1, 2, 4, 5)),  # n queries against one encoding
        ((1, 2, 2, 4), (3, 2, 4, 5)),
    ]:
        a0 = np.random.default_rng(14).standard_normal(a_shape)
        b0 = np.random.default_rng(13).standard_normal(b_shape)
        assert grad_check(lambda t: matmul(t, Tensor(b0)), a0) < GRAD_TOL
        assert grad_check(lambda t: matmul(Tensor(a0), t), b0) < GRAD_TOL


def test_grad_check_layer_norm_all_inputs():
    gain = Tensor(np.random.default_rng(1).uniform(0.5, 1.5, size=6))
    bias = Tensor(np.random.default_rng(2).standard_normal(6))
    x0 = np.random.default_rng(3).standard_normal((2, 6))
    assert grad_check(lambda t: ad.layer_norm(t, gain, bias), x0) < GRAD_TOL
    xc = Tensor(x0)
    assert grad_check(
        lambda t: ad.layer_norm(xc, t, bias), gain.data.copy()
    ) < GRAD_TOL
    assert grad_check(
        lambda t: ad.layer_norm(xc, gain, t), bias.data.copy()
    ) < GRAD_TOL


def test_grad_check_gather():
    idx = np.array([1, 4, 0])
    x0 = np.random.default_rng(21).standard_normal((3, 5))
    assert grad_check(lambda t: ad.gather(t, idx), x0) < GRAD_TOL


def test_grad_check_embedding_table():
    ids = np.array([[0, 2, 2], [1, 0, 3]])
    table0 = np.random.default_rng(22).standard_normal((4, 6))
    assert grad_check(lambda t: ad.embedding(t, ids), table0) < GRAD_TOL


def test_grad_check_composite_chain():
    w = Tensor(np.random.default_rng(31).standard_normal((4, 4)))

    def chain(t):
        h = ad.relu(matmul(t, w))
        return ad.log_softmax(ad.add(h, 0.3), axis=-1)

    assert grad_check(chain, _shifted((3, 4), 32)) < GRAD_TOL


# ---------------------------------------------------------------------------
# layer nodes: linear, attention and mlp against the primitive chains they
# replace (forward data and every input's gradient byte-equal), and finite
# differences on every input


def _ref_linear(x, w, b):
    return ad.add(matmul(x, w), b)


def _ref_mlp(x, w1, b1, w2, b2):
    return _ref_linear(ad.relu(_ref_linear(x, w1, b1)), w2, b2)


def _ref_attention(q, k, v, mask, n_heads):
    bq, sq, d = q.shape
    dh = d // n_heads

    def heads(t):
        return transpose(ad.reshape(t, t.shape[:2] + (n_heads, dh)),
                         (0, 2, 1, 3))

    scores = ad.scale(matmul(heads(q), transpose(heads(k), (0, 1, 3, 2))),
                      1.0 / np.sqrt(dh))
    probs = ad.softmax(ad.add(scores, mask), axis=-1)
    out = transpose(matmul(probs, heads(v)), (0, 2, 1, 3))
    return ad.reshape(out, (bq, sq, d)), probs.data


def _key_mask(valid):
    return m._additive_mask(np.asarray(valid, dtype=bool))


def _node_and_chain_agree(build, arrays, trainable):
    """Run ``build`` as the node and as its chain on fresh leaves made from
    ``arrays`` (those named in ``trainable`` require grad), backpropagate
    one random functional of the output, and compare bytes."""
    results = []
    for as_node in (True, False):
        leaves = {n: Tensor(a.copy(), requires_grad=n in trainable)
                  for n, a in arrays.items()}
        out = build(as_node, leaves)
        up = np.random.default_rng(0).standard_normal(out.shape)
        ad.backward(ad.tsum(ad.mul(out, up)))
        results.append((out.data.tobytes(),
                        {n: None if t.grad is None else t.grad.tobytes()
                         for n, t in leaves.items()}))
    (node_out, node_grads), (ref_out, ref_grads) = results
    assert node_out == ref_out
    assert node_grads == ref_grads
    assert all((node_grads[n] is None) == (n not in trainable) for n in arrays)


def _draw(seed, **shapes):
    rng = np.random.default_rng(seed)
    return {n: rng.standard_normal(s) for n, s in shapes.items()}


@pytest.mark.parametrize("trainable", [("x", "w", "b"), ("w", "b"), ("x",)])
def test_linear_node_is_add_of_matmul(trainable):
    arrays = _draw(40, x=(3, 4, 5), w=(5, 6), b=(6,))

    def build(as_node, t):
        f = ad.linear if as_node else _ref_linear
        return f(t["x"], t["w"], t["b"])

    _node_and_chain_agree(build, arrays, trainable)


@pytest.mark.parametrize("trainable", [
    ("x", "w1", "b1", "w2", "b2"), ("w1", "b1", "w2", "b2"), ("x",), ("w2",)])
def test_mlp_node_is_linear_relu_linear(trainable):
    arrays = _draw(41, x=(3, 4, 5), w1=(5, 7), b1=(7,), w2=(7, 5), b2=(5,))

    def build(as_node, t):
        f = ad.mlp if as_node else _ref_mlp
        return f(t["x"], t["w1"], t["b1"], t["w2"], t["b2"])

    _node_and_chain_agree(build, arrays, trainable)


SELF_ATTENTION = dict(x=(3, 5, 6), wq=(6, 6), wk=(6, 6), wv=(6, 6), b=(6,))
SELF_MASKS = {
    "none": np.zeros((1, 1, 1, 5)),
    "padding": _key_mask([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 1, 0, 0, 0]]),
    "causal+padding": (_key_mask([[1, 1, 1, 1, 1], [1, 1, 1, 1, 0],
                                  [1, 1, 0, 0, 0]]) + m._causal_mask(5)),
}


@pytest.mark.parametrize("mask", sorted(SELF_MASKS))
@pytest.mark.parametrize("trainable", [("x", "wq", "wk", "wv", "b"), ("wk",)])
def test_self_attention_node_is_its_chain(mask, trainable):
    """q, k and v are linears of one input, whose gradient sums the three
    paths in the order the parents (q, k, v) fix."""
    arrays = _draw(42, **SELF_ATTENTION)

    def build(as_node, t):
        x, b = t["x"], t["b"]
        q, k, v = (ad.linear(x, t[w], b) for w in ("wq", "wk", "wv"))
        f = ad.attention if as_node else _ref_attention
        return f(q, k, v, SELF_MASKS[mask], 2)[0]

    _node_and_chain_agree(build, arrays, trainable)


@pytest.mark.parametrize("trainable", [("q", "kv"), ("q",), ("kv",)])
def test_cross_attention_node_broadcasts_one_encoding(trainable):
    """A batch-1 k/v serves 4 query rows; a frozen side gets no gradient."""
    arrays = _draw(43, q=(4, 3, 6), kv=(1, 5, 6), wk=(6, 6), wv=(6, 6),
                   b=(6,))
    mask = _key_mask([[0, 1, 1, 1, 0]])

    def build(as_node, t):
        k = ad.linear(t["kv"], t["wk"], t["b"])
        v = ad.linear(t["kv"], t["wv"], t["b"])
        f = ad.attention if as_node else _ref_attention
        out, probs = f(t["q"], k, v, mask, 3)
        assert probs.shape == (4, 3, 3, 5)
        assert np.array_equal(probs[..., [0, 4]], np.zeros((4, 3, 3, 2)))
        return out

    _node_and_chain_agree(build, arrays, trainable)


def test_attention_returns_the_chain_probabilities():
    a = _draw(44, q=(2, 4, 6), k=(2, 4, 6), v=(2, 4, 6))
    mask = SELF_MASKS["causal+padding"][:2, :, :4, :4]
    q, k, v = (Tensor(a[n]) for n in "qkv")
    _, probs = ad.attention(q, k, v, mask, 2)
    _, want = _ref_attention(q, k, v, mask, 2)
    assert probs.tobytes() == want.tobytes()


def test_layer_node_shape_errors():
    with pytest.raises(ShapeError, match="linear"):
        ad.linear(np.ones((2, 3)), np.ones((4, 5)), np.zeros(5))
    with pytest.raises(ShapeError, match="mlp"):
        ad.mlp(np.ones((2, 3)), np.ones((3, 4)), np.zeros(3), np.ones((4, 3)),
               np.zeros(3))
    with pytest.raises(ShapeError, match="attention"):
        ad.attention(np.ones((2, 3, 6)), np.ones((3, 3, 6)), np.ones((3, 3, 6)),
                     np.zeros((1, 1, 1, 3)), 2)


def test_grad_check_linear_every_input():
    a = _draw(45, x=(2, 3, 4), w=(4, 5), b=(5,))
    x, w, b = (Tensor(a[n]) for n in "xwb")
    assert grad_check(lambda t: ad.linear(t, w, b), a["x"]) < GRAD_TOL
    assert grad_check(lambda t: ad.linear(x, t, b), a["w"]) < GRAD_TOL
    assert grad_check(lambda t: ad.linear(x, w, t), a["b"]) < GRAD_TOL


def test_grad_check_mlp_every_input():
    a = _draw(46, x=(2, 3, 4), w1=(4, 6), b1=(6,), w2=(6, 4), b2=(4,))
    names = ("x", "w1", "b1", "w2", "b2")
    # finite differences of 1e-4 never cross the ReLU kink from here
    pre = a["x"] @ a["w1"] + a["b1"]
    assert np.abs(pre).min() > 0.05

    for i, name in enumerate(names):
        def f(t, i=i):
            args = [Tensor(a[n]) for n in names]
            args[i] = t
            return ad.mlp(*args)

        assert grad_check(f, a[name]) < GRAD_TOL, name


@pytest.mark.parametrize("shapes,mask", [
    (dict(q=(3, 5, 6), k=(3, 5, 6), v=(3, 5, 6)),
     SELF_MASKS["causal+padding"]),
    (dict(q=(4, 3, 6), k=(1, 5, 6), v=(1, 5, 6)), _key_mask([[0, 1, 1, 1, 0]])),
])
def test_grad_check_attention_every_input(shapes, mask):
    a = _draw(47, **shapes)
    for i, name in enumerate("qkv"):
        def f(t, i=i):
            args = [Tensor(a[n]) for n in "qkv"]
            args[i] = t
            return ad.attention(*args, mask, 3)[0]

        assert grad_check(f, a[name]) < GRAD_TOL, name


def test_layer_norm_means_are_numpy_means():
    """layer_norm takes each mean as sum / n: to the bit what np.mean
    gives, at a width that is not a power of two."""
    a = _draw(48, x=(32, 9, 48), g=(48,), b=(48,))
    x, gain, bias = (Tensor(a[n], requires_grad=True) for n in "xgb")
    out = ad.layer_norm(x, gain, bias)
    up = np.random.default_rng(1).standard_normal(out.shape)
    ad.backward(ad.tsum(ad.mul(out, up)))

    mu = a["x"].mean(axis=-1, keepdims=True)
    var = ((a["x"] - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (a["x"] - mu) * inv
    assert out.data.tobytes() == (a["g"] * xhat + a["b"]).tobytes()
    gg = up * a["g"]
    gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
    assert x.grad.tobytes() == gx.tobytes()
    assert gain.grad.tobytes() == (up * xhat).sum(axis=(0, 1)).tobytes()
    assert bias.grad.tobytes() == up.sum(axis=(0, 1)).tobytes()


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.scale(x, 2.0))


def test_backward_rejects_unconnected_loss():
    frozen = Tensor(np.ones(3), requires_grad=False)
    with pytest.raises(RuntimeError):
        ad.backward(ad.tsum(ad.scale(frozen, 2.0)))


def test_frozen_leaves_get_no_gradient():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=False)
    _sum_backward(ad.mul(a, b))
    assert b.grad is None
    assert np.array_equal(a.grad, np.ones(3))


def test_frozen_parents_change_no_extra_gradient(tiny_params):
    """Backward skips the gradients of frozen parents: each extra's
    gradient is the one it gets with the base unfrozen, to the bit."""
    m.randomize_extras(tiny_params, seed=6)
    batch = obj.Batch([obj.BatchExample(
        src=[5, 6, 7], tgt=[m.BOS, 8, 9, m.EOS],
        image=np.linspace(-1.0, 1.0, tiny_params.config.image_dim),
        mask_set=(1,))])

    def backprop():
        tiny_params.zero_grads()
        loss, _, _ = summed_terms(batch, tiny_params, "full", 1.0)
        ad.backward(loss)
        return {n: tiny_params.tensors[n].grad.tobytes()
                for n in tiny_params.extra_names()}

    frozen = backprop()
    assert all(tiny_params.tensors[n].grad is None
               for n in tiny_params.base_names())
    tiny_params.unfreeze_base()
    assert backprop() == frozen
    assert all(tiny_params.tensors[n].grad is not None
               for n in tiny_params.base_names())


def test_grad_check_with_frozen_operands():
    rng = np.random.default_rng(3)
    w, c = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal(4))
    gain, bias = Tensor(rng.random(4) + 0.5), Tensor(rng.standard_normal(4))

    def f(x):
        return ad.layer_norm(ad.add(ad.mul(matmul(x, w), c), c), gain, bias)

    assert grad_check(f, rng.standard_normal((2, 3))) < GRAD_TOL
    assert all(t.grad is None for t in (w, c, gain, bias))


def test_gradient_accumulates_over_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    _sum_backward(ad.add(x, x))
    assert np.array_equal(x.grad, [2.0])


def test_backward_frees_interior_nodes_and_keeps_leaf_grads():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 0.25, 2.0]), requires_grad=True)
    h = ad.relu(ad.mul(x, w))
    loss = ad.tsum(ad.exp(h))
    # the loss's route reaches h's node, not the tensor h
    node, ref = loss._node, weakref.ref(h._node)
    del h
    assert ref() is not None and node._parents != ()
    ad.backward(loss)
    assert ref() is None
    assert node.grad is None and node._parents == ()
    assert node._backward is ad._consumed and loss.grad is None
    assert loss.data == np.exp(0.5) + 1.0 + np.exp(6.0)
    up = np.exp(np.maximum(x.data * w.data, 0.0)) * (x.data * w.data > 0.0)
    assert np.array_equal(x.grad, up * w.data)
    assert np.array_equal(w.grad, up * x.data)


def test_a_second_backward_on_a_consumed_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = ad.mul(x, x)
    loss = ad.tsum(h)
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(loss)
    # a new forward through a consumed node fails before any gradient moves
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(ad.tsum(ad.scale(h, 3.0)))
    assert np.array_equal(x.grad, [2.0, 4.0])


# ---------------------------------------------------------------------------
# nodes hold gradient routes: no op output outlives its caller unless a
# backward reads its array


def _batch(params):
    """Two examples of different lengths, with images and mask sets."""
    rng = np.random.default_rng(50)
    dim = params.config.image_dim
    return obj.Batch([
        obj.BatchExample(src=[5, 6, 7], tgt=[m.BOS, 8, 9, m.EOS],
                         image=rng.standard_normal(dim), mask_set=(1,)),
        obj.BatchExample(src=[11, 12], tgt=[m.BOS, 13, m.EOS],
                         image=rng.standard_normal(dim), mask_set=(0,)),
    ])


def _losses(params, mode):
    """The losses of one step: the weighted full-mode terms with the
    extras trainable, or the text-only NLL with the base trainable."""
    m.randomize_extras(params, seed=51)
    batch = _batch(params)
    if mode == "pretraining":
        params.unfreeze_base()
        return [obj.text_nll(batch, params)]
    return [weighted for _, _, weighted in
            obj.adaptation_terms(batch, params, "full", 0.7)]


def _held_by_graph(loss):
    """The recorded nodes below ``loss``, and every object they hold: each
    parent route and each closure cell's contents, opening (and listing)
    nested closures such as recipes, and opening tuples and lists."""
    nodes, held, seen, stack = [], [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        held.extend(node._parents)
        stack.extend(node._parents)
        cells = [node._backward]
        while cells:
            item = cells.pop()
            if callable(item) and getattr(item, "__closure__", None):
                held.append(item)
                cells.extend(c.cell_contents for c in item.__closure__)
            elif isinstance(item, (tuple, list)):
                cells.extend(item)
            else:
                held.append(item)
    return nodes, held


def _watch_recipe_outputs(monkeypatch):
    """Patch ``ad.layer_norm`` and ``ad.attention`` to collect every output
    they make: the ops whose outputs may carry a recipe."""
    outputs = []

    def layer_norm(*args, _ln=ad.layer_norm):
        outputs.append(_ln(*args))
        return outputs[-1]

    def attention(*args, _attention=ad.attention):
        out, probs = _attention(*args)
        outputs.append(out)
        return out, probs

    monkeypatch.setattr(ad, "layer_norm", layer_norm)
    monkeypatch.setattr(ad, "attention", attention)
    return outputs


@pytest.mark.parametrize("mode", ["adaptation", "pretraining"])
def test_no_node_or_closure_holds_an_op_output(tiny_params, mode,
                                               monkeypatch):
    leaves = {id(t) for t in tiny_params.tensors.values()}
    outputs = _watch_recipe_outputs(monkeypatch)
    losses = _losses(tiny_params, mode)
    recipes = [out._recipe for out in outputs if out._recipe is not None]
    for loss in losses:
        nodes, held = _held_by_graph(loss)
        tensors = [t for t in held if isinstance(t, Tensor)]
        assert len(nodes) > 30 and tensors
        assert all(id(t) in leaves for t in tensors)
        assert any(isinstance(t, np.ndarray) for t in held)
        # pretraining's layers keep recipes, whose closures were walked;
        # adaptation's trainable layers read no layer-norm or attention output
        kept = {id(r) for r in recipes} & {id(h) for h in held}
        assert recipes and len(kept) == (len(recipes) if mode == "pretraining"
                                         else 0)
        ad.backward(loss)


def test_a_residual_add_output_dies_with_its_caller(tiny_params, monkeypatch):
    m.randomize_extras(tiny_params, seed=52)
    batch = _batch(tiny_params)
    refs = []

    def watched(a, b, _add=ad.add):
        out = _add(a, b)
        if out.requires_grad:
            refs.append((weakref.ref(out), weakref.ref(out.data)))
        return out

    monkeypatch.setattr(ad, "add", watched)
    logits = m.teacher_forced_logits(
        tiny_params, [ex.src for ex in batch.examples],
        [ex.image for ex in batch.examples], [ex.tgt for ex in batch.examples])
    loss = ad.tsum(ad.log_softmax(logits))
    del logits
    # the residual stream and each adapter's sum: the tensors and arrays
    # are gone before the backward, which still reaches every extra
    assert len(refs) >= 6
    assert all(t() is None and a() is None for t, a in refs)
    ad.backward(loss)
    assert all(tiny_params.tensors[n].grad is not None
               for n in tiny_params.extra_names())


def _watch_layer_inputs(monkeypatch):
    """Patch ``ad.linear`` and ``ad.mlp`` to record each input whose
    (first) weight takes a gradient: a weak reference to its array, and
    whether it carries a recipe."""
    seen = []

    def linear(x, w, b, _linear=ad.linear):
        if w.requires_grad:
            seen.append((weakref.ref(x.data), x._recipe is not None))
        return _linear(x, w, b)

    def mlp(x, w1, b1, w2, b2, _mlp=ad.mlp):
        if w1.requires_grad:
            seen.append((weakref.ref(x.data), x._recipe is not None))
        return _mlp(x, w1, b1, w2, b2)

    monkeypatch.setattr(ad, "linear", linear)
    monkeypatch.setattr(ad, "mlp", mlp)
    return seen


def _leaf_grads(params):
    return {n: None if t.grad is None else t.grad.tobytes()
            for n, t in params.tensors.items()}


def test_layer_norm_and_attention_outputs_die_with_the_forward(
        tiny_params, monkeypatch):
    tiny_params.unfreeze_base()
    batch = _batch(tiny_params)
    with monkeypatch.context() as patched:
        # every layer keeps its input's array, as before recipes
        patched.setattr(ad, "_keep", lambda t: t.data)
        ad.backward(obj.text_nll(batch, tiny_params))
    want = _leaf_grads(tiny_params)
    tiny_params.zero_grads()
    seen = _watch_layer_inputs(monkeypatch)
    loss = obj.text_nll(batch, tiny_params)
    # in pretraining each linear and mlp reads a layer-norm or attention
    # output, and the tape keeps its recipe, not its array
    assert len(seen) >= 15
    assert all(has_recipe and ref() is None for ref, has_recipe in seen)
    ad.backward(loss)
    assert _leaf_grads(tiny_params) == want
    assert sum(g is not None for g in want.values()) > 20


def test_an_adapter_input_stays_reachable_until_backward(tiny_params,
                                                         monkeypatch):
    seen = _watch_layer_inputs(monkeypatch)
    losses = _losses(tiny_params, "adaptation")
    # an adapter's input is a projection's or FFN's output: no recipe, so
    # the tape holds its array, and only the tape
    assert len(seen) >= 10
    assert all(not has_recipe and ref() is not None for ref, has_recipe in seen)
    for loss in losses:
        ad.backward(loss)
    assert all(ref() is None for ref, _ in seen)


# ---------------------------------------------------------------------------
# recipes: an output rebuilt from the arrays its own node keeps


def _rebuilds_its_output(out):
    rebuilt = out._recipe()
    assert rebuilt is not out.data
    assert rebuilt.dtype == out.data.dtype and rebuilt.shape == out.shape
    assert rebuilt.strides == out.data.strides
    return rebuilt.tobytes() == out.data.tobytes()


@pytest.mark.parametrize("trainable", ["x", "gain", "bias"])
def test_a_layer_norm_recipe_rebuilds_its_output(trainable):
    a = _draw(60, x=(3, 5, 12), gain=(12,), bias=(12,))
    t = {n: Tensor(a[n], requires_grad=n == trainable) for n in a}
    assert _rebuilds_its_output(ad.layer_norm(t["x"], t["gain"], t["bias"]))


ATTENTION_CASES = [
    (dict(q=(3, 5, 6), k=(3, 5, 6), v=(3, 5, 6)),
     SELF_MASKS["causal+padding"]),
    (dict(q=(4, 3, 6), k=(1, 5, 6), v=(1, 5, 6)), _key_mask([[0, 1, 1, 1, 0]])),
]


@pytest.mark.parametrize("shapes,mask", ATTENTION_CASES)
@pytest.mark.parametrize("trainable", ["q", "k"])
def test_an_attention_recipe_rebuilds_its_output(shapes, mask, trainable):
    a = _draw(61, **shapes)
    q, k, v = (Tensor(a[n], requires_grad=n == trainable) for n in "qkv")
    assert _rebuilds_its_output(ad.attention(q, k, v, mask, 3)[0])


def test_attention_keeping_no_value_heads_has_no_recipe():
    # only v takes a gradient, which reads no heads of v
    a = _draw(62, q=(2, 4, 6), k=(2, 4, 6), v=(2, 4, 6))
    v = Tensor(a["v"], requires_grad=True)
    out, _ = ad.attention(Tensor(a["q"]), Tensor(a["k"]), v,
                          np.zeros((1, 1, 1, 4)), 2)
    assert out.requires_grad and out._recipe is None


def test_recipes_in_a_taped_forward_only(tiny_params, monkeypatch):
    outputs = _watch_recipe_outputs(monkeypatch)
    tiny_params.unfreeze_base()
    _model_forward(tiny_params)
    # enc ln1, attn, ln2, enc_ln; dec ln1, self, ln2, cross, ln3, dec_ln
    assert len(outputs) == 10
    assert all(_rebuilds_its_output(out) for out in outputs)
    outputs.clear()
    with ad.no_grad():
        _model_forward(tiny_params)
    assert len(outputs) == 10
    assert all(out._recipe is None for out in outputs)


# ---------------------------------------------------------------------------
# no_grad: same numbers, no tape


def _model_forward(params):
    """Logits of a small multimodal forward whose extras require grad."""
    enc = m.encode([5, 6, 7], np.linspace(-1.0, 1.0, params.config.image_dim),
                   params)
    ids = np.asarray([[m.BOS, 8, 9]])
    return m.decoder_logits(params, enc, ids, np.ones_like(ids, dtype=bool))


def test_no_grad_outputs_are_byte_identical(tiny_params):
    m.randomize_extras(tiny_params, seed=3)
    taped = _model_forward(tiny_params)
    with ad.no_grad():
        free = _model_forward(tiny_params)
    assert taped.requires_grad
    assert free.data.tobytes() == taped.data.tobytes()


def test_no_grad_records_nothing():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with ad.no_grad():
        assert not ad.is_recording()
        out = ad.tsum(ad.relu(ad.mul(ad.add(x, 1.0), x)))
    assert x.requires_grad
    assert not out.requires_grad
    assert out._node is None
    with pytest.raises(RuntimeError):
        ad.backward(out)
    assert x.grad is None


def test_nested_no_grad_restores_the_outer_state():
    x = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.is_recording()
        assert not ad.is_recording()
        assert not ad.scale(x, 2.0).requires_grad
    assert ad.is_recording()
    assert ad.scale(x, 2.0).requires_grad


def test_no_grad_restores_recording_after_an_exception():
    with pytest.raises(KeyError):
        with ad.no_grad():
            raise KeyError("inside the scope")
    assert ad.is_recording()
    point = np.array([[0.3, -0.7, 1.1], [0.2, 0.5, -0.4]])
    assert grad_check(lambda x: ad.softmax(ad.mul(x, x)), point) < GRAD_TOL


def test_beam_searches_unchanged_by_no_grad(tiny_params):
    # reference searches whose step functions record a tape, as every
    # decode step did before the searches ran tape-free
    m.randomize_extras(tiny_params, seed=4)
    src = [5, 6, 7]
    img = np.linspace(-1.0, 1.0, tiny_params.config.image_dim)
    max_len = tiny_params.config.max_len

    def taped_step(image):
        enc = m.encode(src, image, tiny_params)

        def step(prefixes):
            assert ad.is_recording()
            return np.stack([m.decode_step(enc, [p], tiny_params)[0]
                             for p in prefixes])

        return step

    text, mm = taped_step(None), taped_step(img)

    def key(h):
        return (h.tokens, h.logp, h.finished)

    want = dec.beam_search_steps(mm, 3, max_len)
    assert key(dec.beam_search(tiny_params, src, img, width=3)) == key(want)
    for gamma, ref in ((0.0, text), (1.0, mm), (
            2.0, lambda ps: dec.cfg_distribution(text(ps), mm(ps), 2.0))):
        want = dec.beam_search_steps(ref, 3, max_len)
        got = dec.cfg_beam_search(tiny_params, tiny_params, src, img, gamma,
                                  width=3)
        assert key(got) == key(want), gamma
