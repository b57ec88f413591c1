"""The faster forward kernels against the formulas they replaced, byte for
byte, over drawn shapes: attention's column-wise row max, and layer norm
and softmax on their own buffers. The old formulas live in ``oracles``."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from zerommt import autodiff as ad
from zerommt.autodiff import Tensor

import oracles

# the widths of the default configuration's layers and of the tests' tiny one
MODEL_WIDTHS = (64, 128, 8, 16, 2)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@st.composite
def attention_inputs(draw):
    heads = draw(st.sampled_from([1, 2, 4]))
    d = heads * draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["none", "keys", "causal"]))
    bq, sq = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    sk = sq if kind == "causal" else draw(st.integers(1, 24))
    # a batch-1 k/v serves every query row, as a cached encoding does
    bkv = draw(st.sampled_from([1, bq]))
    rng = _rng(draw(st.integers(0, 2**16)))
    q, k, v = (rng.standard_normal(s) * 3.0 for s in
               ((bq, sq, d), (bkv, sk, d), (bkv, sk, d)))
    mask = np.zeros((1, 1, 1, sk))
    if kind == "keys":
        # -inf on some keys of each row, never on all of them
        hidden = rng.random((bq, sk)) < 0.5
        hidden[np.arange(bq), rng.integers(0, sk, bq)] = False
        mask = np.where(hidden, -np.inf, 0.0)[:, None, None, :]
    elif kind == "causal":
        mask = np.triu(np.full((sq, sq), -np.inf), k=1)[None, None]
    return q, k, v, mask, heads


@given(attention_inputs())
def test_attention_equals_its_np_max_formula(inputs):
    q, k, v, mask, heads = inputs
    with ad.no_grad():
        out, probs = ad.attention(Tensor(q), Tensor(k), Tensor(v), mask, heads)
    want_out, want_probs = oracles.attention_forward(q, k, v, mask, heads)
    assert probs.tobytes() == want_probs.tobytes()
    assert out.data.tobytes() == want_out.tobytes()
    if np.isinf(mask).any():
        assert np.all(probs[np.broadcast_to(np.isinf(mask), probs.shape)] == 0.0)


def _ln_run(fn, x, gain, bias, up, trainable):
    xs = Tensor(x.copy(), requires_grad="x" in trainable)
    gs = Tensor(gain.copy(), requires_grad="gain" in trainable)
    bs = Tensor(bias.copy(), requires_grad="bias" in trainable)
    out = fn(xs, gs, bs)
    data = out.data.tobytes()
    ad.backward(ad.tsum(ad.mul(out, up)))
    grads = [None if t.grad is None else t.grad.tobytes() for t in (xs, gs, bs)]
    assert xs.data.tobytes() == x.tobytes()  # the input is never written
    return data, grads


@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 9),
                       st.sampled_from(MODEL_WIDTHS) | st.integers(1, 70)),
       trainable=st.sampled_from([("x", "gain", "bias"), ("x",),
                                  ("gain", "bias"), ("gain",)]),
       seed=st.integers(0, 2**16))
def test_layer_norm_equals_its_formula_forward_and_backward(shape, trainable,
                                                            seed):
    rng = _rng(seed)
    x = rng.standard_normal(shape) * rng.uniform(0.1, 10.0)
    gain, bias = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
    up = rng.standard_normal(shape)
    got = _ln_run(ad.layer_norm, x, gain, bias, up, trainable)
    assert got == _ln_run(oracles.layer_norm, x, gain, bias, up, trainable)
    with ad.no_grad():
        frozen = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    assert frozen.data.tobytes() == got[0]


@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 8),
                       st.sampled_from([8, 64])),
       seed=st.integers(0, 2**16))
def test_layer_norms_sharing_one_gradient_array_leave_it_intact(shape, seed):
    """``add`` hands its one gradient array to both parents, so a backward
    that wrote into it would corrupt the other parent's gradient."""
    rng = _rng(seed)
    x = rng.standard_normal(shape)
    params = [rng.standard_normal(shape[-1]) for _ in range(4)]
    up = rng.standard_normal(shape)
    results = []
    for fn in (ad.layer_norm, oracles.layer_norm):
        xs = Tensor(x.copy(), requires_grad=True)
        ps = [Tensor(p.copy(), requires_grad=True) for p in params]
        out = ad.add(fn(xs, ps[0], ps[1]), fn(xs, ps[2], ps[3]))
        ad.backward(ad.tsum(ad.mul(out, up)))
        results.append([t.grad.tobytes() for t in [xs, *ps]])
    assert results[0] == results[1]


@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 7),
                       st.integers(1, 70)),
       axis=st.sampled_from([-1, 0]), seed=st.integers(0, 2**16))
def test_softmax_equals_its_formula(shape, axis, seed):
    rng = _rng(seed)
    a = rng.standard_normal(shape) * 4.0
    a[rng.random(shape) < 0.2] = -np.inf
    # every line along ``axis`` keeps a finite entry
    np.moveaxis(a, axis, 0)[0] = rng.standard_normal(
        np.moveaxis(a, axis, 0).shape[1:])
    up = rng.standard_normal(shape)
    results = []
    for fn in (ad.softmax, oracles.softmax):
        t = Tensor(a.copy(), requires_grad=True)
        out = fn(t, axis=axis)
        ad.backward(ad.tsum(ad.mul(out, up)))
        results.append((out.data.tobytes(), t.grad.tobytes()))
    assert results[0] == results[1]
