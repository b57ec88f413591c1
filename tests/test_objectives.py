"""Loss correctness against independent numpy recombinations of the model's
own forward pass, plus exact structural identities."""

import numpy as np
import pytest

from zerommt import autodiff as ad
from zerommt import decoding as dec
from zerommt import model as m
from zerommt import objectives as obj
from zerommt.objectives import Batch, BatchExample

from oracles import summed_terms


def _img(dim, seed):
    return np.random.default_rng(seed).standard_normal(dim)


def _ex(params, src, tgt_body, seed=0, mask_set=()):
    return BatchExample(
        src=list(src),
        tgt=[m.BOS] + list(tgt_body) + [m.EOS],
        image=_img(params.config.image_dim, seed),
        mask_set=mask_set,
    )


def _manual_logprobs(params, src, tgt, image, masked_src=None):
    """Per-position log-probabilities computed directly from the forward
    pass, bypassing the loss plumbing; ``image`` None is the text-only
    base."""
    enc = m.encode(masked_src if masked_src is not None else src, image,
                   params)
    ids = np.asarray([tgt[:-1]], dtype=np.int64)
    valid = np.ones_like(ids, dtype=bool)
    logits = m.decoder_logits(params, enc, ids, valid)
    return ad.log_softmax(logits, axis=-1).data[0]


# ---------------------------------------------------------------------------
# validation


def test_batch_example_validation():
    with pytest.raises(ValueError):
        BatchExample(src=[5], tgt=[5, m.EOS]).validate()
    with pytest.raises(ValueError):
        BatchExample(src=[5], tgt=[m.BOS, 5]).validate()
    with pytest.raises(ValueError):
        BatchExample(src=[5], tgt=[m.BOS, 5, m.EOS], mask_set=(1,)).validate()
    BatchExample(src=[5], tgt=[m.BOS, 5, m.EOS], mask_set=(0,)).validate()


def test_loss_weights_validation(tiny_params):
    m.randomize_extras(tiny_params, seed=20)
    batch = Batch([_ex(tiny_params, [5, 6], [7], seed=20, mask_set=(0,))])
    for mode, lam in (("full", -0.1), ("full", float("nan")), ("nope", 1.0)):
        with pytest.raises(ValueError):
            summed_terms(batch, tiny_params, mode, lam)
    total, vmlm, kl = summed_terms(batch, tiny_params, "full", 0.0)
    assert float(total.data) == float(vmlm.data)
    assert kl is not None


def test_losses_reject_empty_batch(tiny_params):
    for fn in (obj.vmlm_loss, obj.text_nll, obj.mmt_loss):
        with pytest.raises(ValueError):
            fn(Batch([]), tiny_params)
    with pytest.raises(ValueError):
        obj.kl_penalty(Batch([]), tiny_params)


def test_image_losses_require_images(tiny_params):
    batch = Batch([BatchExample(src=[5], tgt=[m.BOS, 5, m.EOS])])
    for fn in (obj.vmlm_loss, obj.mmt_loss):
        with pytest.raises(ValueError):
            fn(batch, tiny_params)


# ---------------------------------------------------------------------------
# NLL-style losses vs manual recomputation


def test_vmlm_loss_matches_manual_single(tiny_params):
    m.randomize_extras(tiny_params, seed=1)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], mask_set=(1,))
    masked = [5, m.MASK, 7]
    lp = _manual_logprobs(tiny_params, ex.src, ex.tgt, ex.image, masked_src=masked)
    gold = np.asarray(ex.tgt[1:])
    want = -lp[np.arange(len(gold)), gold].mean()
    got = obj.vmlm_loss(Batch([ex]), tiny_params).data
    assert abs(got - want) < 1e-12


def test_vmlm_loss_padding_matches_token_weighted_mean(tiny_params):
    """A ragged batch reduces to the token-count-weighted mean of the
    single-example losses, so padding contributes nothing."""
    m.randomize_extras(tiny_params, seed=2)
    ex1 = _ex(tiny_params, [5, 6], [7], seed=3, mask_set=(0,))
    ex2 = _ex(tiny_params, [8, 9, 10], [11, 12, 13], seed=4, mask_set=(2,))
    l1 = obj.vmlm_loss(Batch([ex1]), tiny_params).data
    l2 = obj.vmlm_loss(Batch([ex2]), tiny_params).data
    both = obj.vmlm_loss(Batch([ex1, ex2]), tiny_params).data
    n1, n2 = len(ex1.tgt) - 1, len(ex2.tgt) - 1
    assert abs(both - (n1 * l1 + n2 * l2) / (n1 + n2)) < 1e-10


def test_text_nll_ignores_images_masks_and_extras(tiny_params):
    m.randomize_extras(tiny_params, seed=5)
    plain = BatchExample(src=[5, 6], tgt=[m.BOS, 7, m.EOS])
    decorated = _ex(tiny_params, [5, 6], [7], seed=6, mask_set=(1,))
    a = obj.text_nll(Batch([plain]), tiny_params).data
    b = obj.text_nll(Batch([decorated]), tiny_params).data
    assert a == b
    lp = _manual_logprobs(tiny_params, plain.src, plain.tgt, None)
    gold = np.asarray(plain.tgt[1:])
    want = -lp[np.arange(len(gold)), gold].mean()
    assert abs(a - want) < 1e-12


def test_mmt_loss_sees_unmasked_source(tiny_params):
    m.randomize_extras(tiny_params, seed=7)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=8, mask_set=(0,))
    lp = _manual_logprobs(tiny_params, ex.src, ex.tgt, ex.image)
    gold = np.asarray(ex.tgt[1:])
    want = -lp[np.arange(len(gold)), gold].mean()
    assert abs(obj.mmt_loss(Batch([ex]), tiny_params).data - want) < 1e-12


# ---------------------------------------------------------------------------
# KL penalty


def test_base_teacher_logprobs_are_input_invariant(tiny_params):
    """The cache depends only on (src, tgt): masks and images are invisible
    to the frozen text-only base."""
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=9, mask_set=(1,))
    bare = BatchExample(src=ex.src, tgt=ex.tgt)
    a = obj.base_teacher_logprobs(tiny_params, [ex])
    b = obj.base_teacher_logprobs(tiny_params, [bare])
    assert np.array_equal(a[0], b[0])
    assert a[0].shape == (len(ex.tgt) - 1, tiny_params.config.vocab_size)


def test_base_teacher_logprobs_equal_one_example_forwards(tiny_params):
    """Buckets of equal (source, target) lengths share a forward without
    padding: every array is the one-example forward's to the bit, in input
    order, whatever the bucket sizes."""
    m.randomize_extras(tiny_params, seed=23)
    shapes = [(3, 2), (4, 2), (3, 2), (2, 5), (1, 2), (3, 3), (3, 2), (4, 2),
              (6, 1)]
    rng = np.random.default_rng(24)
    examples = [
        _ex(tiny_params, rng.integers(4, 16, size=s), rng.integers(4, 16, size=t),
            seed=k, mask_set=(0,))
        for k, (s, t) in enumerate(shapes)
    ]
    got = obj.base_teacher_logprobs(tiny_params, examples)
    assert len(got) == len(examples)
    for ex, lp in zip(examples, got):
        want = _manual_logprobs(tiny_params, ex.src, ex.tgt, None)
        assert lp.shape == want.shape
        assert lp.tobytes() == want.tobytes()
    assert obj.base_teacher_logprobs(tiny_params, []) == []


def test_kl_matches_manual_full_vocab_sum(tiny_params):
    m.randomize_extras(tiny_params, seed=10)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=11)
    q_lp = obj.base_teacher_logprobs(tiny_params, [ex])[0]
    p_lp = np.maximum(
        _manual_logprobs(tiny_params, ex.src, ex.tgt, ex.image),
        np.log(dec.PROB_FLOOR),
    )
    want = (np.exp(q_lp) * (q_lp - p_lp)).sum(axis=-1).mean()
    got = obj.kl_penalty(Batch([ex]), tiny_params).data
    assert abs(got - want) < 1e-12


def test_kl_of_distribution_with_itself_is_zero(tiny_params):
    """Feeding the adapted model's own log-probabilities as the anchor
    cache makes both sides identical, so the divergence vanishes."""
    m.randomize_extras(tiny_params, seed=12)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=13)
    own = [_manual_logprobs(tiny_params, ex.src, ex.tgt, ex.image)]
    kl = obj.kl_penalty(Batch([ex]), tiny_params, base_lp=own)
    assert abs(kl.data) < 1e-10


def test_kl_is_nonnegative_and_positive_when_models_differ(tiny_params):
    m.randomize_extras(tiny_params, seed=14)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=15)
    kl = obj.kl_penalty(Batch([ex]), tiny_params).data
    assert kl > 0.0


def test_kl_cache_path_equals_recompute_path(tiny_params):
    m.randomize_extras(tiny_params, seed=19)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=20)
    cache = obj.base_teacher_logprobs(tiny_params, [ex])
    direct = obj.kl_penalty(Batch([ex]), tiny_params).data
    cached = obj.kl_penalty(Batch([ex]), tiny_params, base_lp=cache).data
    assert direct == cached


# ---------------------------------------------------------------------------
# combination and gradient routing


def test_adaptation_loss_is_exact_composition(tiny_params):
    m.randomize_extras(tiny_params, seed=21)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=22, mask_set=(1,))
    batch = Batch([ex])
    vmlm = float(obj.vmlm_loss(batch, tiny_params).data)
    kl = float(obj.kl_penalty(batch, tiny_params).data)
    nll = float(obj.mmt_loss(batch, tiny_params).data)
    want = {
        "full": (vmlm + 0.3 * kl, vmlm, kl),
        "no_vmlm": (0.3 * kl, None, kl),
        "no_kl": (vmlm, vmlm, None),
        "mmt_no_kl": (vmlm + 0.3 * nll, vmlm, nll),
    }
    assert set(want) == set(obj.ADAPTATION_MODES)
    for mode, parts in want.items():
        got = summed_terms(batch, tiny_params, mode, 0.3)
        got = tuple(None if t is None else float(t.data) for t in got)
        assert got == parts, mode


def test_adaptation_terms_build_the_accept_mask_once(tiny_params, monkeypatch):
    m.randomize_extras(tiny_params, seed=36)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=37, mask_set=(1,))
    ex.accept = _accept(ex.tgt, tiny_params.config.vocab_size, extra=[(1, 4)])
    calls = []

    def counting(*args, _mask=obj._accept_mask):
        calls.append(1)
        return _mask(*args)

    monkeypatch.setattr(obj, "_accept_mask", counting)
    for mode in obj.ADAPTATION_MODES:
        calls.clear()
        terms = list(obj.adaptation_terms(Batch([ex]), tiny_params, mode, 0.5))
        assert len(calls) == 1, mode
        assert [name for name, _, _ in terms] == [
            name for name, on in zip(("vmlm", "anchor"),
                                     obj.ADAPTATION_MODES[mode]) if on], mode


def test_gradients_reach_only_extras(tiny_params):
    m.randomize_extras(tiny_params, seed=23)
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=24, mask_set=(0,))
    total, _, _ = summed_terms(Batch([ex]), tiny_params, "full", 1.0)
    ad.backward(total)
    for name in tiny_params.base_names():
        assert tiny_params.tensors[name].grad is None, name
    touched = [
        name for name in tiny_params.extra_names()
        if tiny_params.tensors[name].grad is not None
    ]
    assert "proj.w" in touched
    assert any(name.endswith("up_w") for name in touched)


# ---------------------------------------------------------------------------
# accepted target sets


def test_accepted_tokens_matches_hand_threshold():
    # gold tokens 0, 2 and 3; ratio 0.25 puts the bar at a quarter of the
    # gold token's probability: 0.175, 0.0875 and 0.2425
    q = np.array([
        [0.70, 0.20, 0.06, 0.04],
        [0.10, 0.50, 0.35, 0.05],
        [0.01, 0.01, 0.01, 0.97],
    ])
    tgt = [m.BOS, 0, 2, 3]
    want = np.array([
        [True, True, False, False],
        [True, True, True, False],
        [False, False, False, True],
    ])
    got = obj.accepted_tokens(np.log(q), tgt, ratio=0.25)
    assert np.array_equal(got, want)
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError):
            obj.accepted_tokens(np.log(q), tgt, ratio=bad)


def test_batch_example_rejects_accept_without_gold():
    accept = np.zeros((2, 16), dtype=bool)
    accept[0, 5] = True
    with pytest.raises(ValueError):
        BatchExample(src=[5], tgt=[m.BOS, 6, m.EOS], accept=accept).validate()
    accept[0, 6] = accept[1, m.EOS] = True
    BatchExample(src=[5], tgt=[m.BOS, 6, m.EOS], accept=accept).validate()
    with pytest.raises(ValueError):
        BatchExample(src=[5], tgt=[m.BOS, 6, m.EOS],
                     accept=accept[:1]).validate()


def _accept(tgt, vocab, extra=()):
    """One-hot gold rows plus (position, token) pairs from ``extra``."""
    gold = np.asarray(tgt[1:])
    out = np.zeros((len(gold), vocab), dtype=bool)
    out[np.arange(len(gold)), gold] = True
    for j, tok in extra:
        out[j, tok] = True
    return out


def test_vmlm_accept_set_is_mass_on_the_set(tiny_params):
    m.randomize_extras(tiny_params, seed=25)
    v = tiny_params.config.vocab_size
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=26, mask_set=(1,))
    ex.accept = _accept(ex.tgt, v, extra=[(0, 10), (2, 5), (2, 11)])
    lp = _manual_logprobs(tiny_params, ex.src, ex.tgt, ex.image,
                          masked_src=[5, m.MASK, 7])
    p = np.exp(lp)
    want = -np.mean([
        np.log(p[0, 8] + p[0, 10]),
        lp[1, 9],
        np.log(p[2, m.EOS] + p[2, 5] + p[2, 11]),
    ])
    got = obj.vmlm_loss(Batch([ex]), tiny_params).data
    assert abs(got - want) < 1e-12


def test_vmlm_gold_only_accept_equals_plain_loss(tiny_params):
    """One-hot accept rows are the plain loss; in a ragged batch that mixes
    examples with and without sets, padding still contributes nothing."""
    m.randomize_extras(tiny_params, seed=27)
    v = tiny_params.config.vocab_size
    ex1 = _ex(tiny_params, [5, 6], [7], seed=28, mask_set=(0,))
    ex2 = _ex(tiny_params, [8, 9, 10], [11, 12, 13], seed=29, mask_set=(2,))
    plain = obj.vmlm_loss(Batch([ex1, ex2]), tiny_params).data
    ex1.accept = _accept(ex1.tgt, v)
    onehot = obj.vmlm_loss(Batch([ex1, ex2]), tiny_params).data
    assert abs(onehot - plain) < 1e-12

    ex2.accept = _accept(ex2.tgt, v, extra=[(1, 4)])
    l1 = obj.vmlm_loss(Batch([ex1]), tiny_params).data
    l2 = obj.vmlm_loss(Batch([ex2]), tiny_params).data
    both = obj.vmlm_loss(Batch([ex1, ex2]), tiny_params).data
    n1, n2 = len(ex1.tgt) - 1, len(ex2.tgt) - 1
    assert abs(both - (n1 * l1 + n2 * l2) / (n1 + n2)) < 1e-10


def test_kl_merges_multi_token_sets_into_one_outcome(tiny_params):
    m.randomize_extras(tiny_params, seed=31)
    v = tiny_params.config.vocab_size
    ex = _ex(tiny_params, [5, 6, 7], [8, 9], seed=32)
    plain_full = obj.kl_penalty(Batch([ex]), tiny_params).data
    ex.accept = _accept(ex.tgt, v)
    assert obj.kl_penalty(Batch([ex]), tiny_params).data == plain_full

    ex.accept = _accept(ex.tgt, v, extra=[(0, 10), (0, 11)])
    q_lp = obj.base_teacher_logprobs(tiny_params, [ex])[0]
    p_lp = np.maximum(
        _manual_logprobs(tiny_params, ex.src, ex.tgt, ex.image),
        np.log(dec.PROB_FLOOR),
    )
    q, p = np.exp(q_lp), np.exp(p_lp)
    s0 = [8, 10, 11]
    rest = [t for t in range(v) if t not in s0]
    q_s, p_s = q[0, s0].sum(), p[0, s0].sum()
    full_rows = (q * (q_lp - p_lp)).sum(axis=-1)
    want_full = np.mean([
        (q[0, rest] * (q_lp[0, rest] - p_lp[0, rest])).sum()
        + q_s * (np.log(q_s) - np.log(p_s)),
        full_rows[1],
        full_rows[2],
    ])
    got = obj.kl_penalty(Batch([ex]), tiny_params).data
    assert abs(got - want_full) < 1e-12


def test_loss_with_accept_sets_gradient_matches_finite_differences(tiny_params):
    m.randomize_extras(tiny_params, seed=33)
    v = tiny_params.config.vocab_size
    ex1 = _ex(tiny_params, [5, 6, 7], [8, 9], seed=34, mask_set=(1,))
    ex1.accept = _accept(ex1.tgt, v, extra=[(0, 10), (1, 4), (1, 12)])
    ex2 = _ex(tiny_params, [11, 12], [13], seed=35, mask_set=(0,))
    batch = Batch([ex1, ex2])

    def value():
        total, _, _ = summed_terms(batch, tiny_params, "full", 0.7)
        return float(total.data)

    total, _, _ = summed_terms(batch, tiny_params, "full", 0.7)
    ad.backward(total)
    eps = 1e-6
    worst = 0.0
    for name in ("proj.w", "enc0.attn_adapter.up_w", "dec0.cross_adapter.up_w",
                 "dec0.ffn_adapter.down_w"):
        tensor = tiny_params.tensors[name]
        flat = tensor.data.ravel()
        analytic = tensor.grad.ravel()
        for k in range(0, flat.size, max(1, flat.size // 4)):
            saved = flat[k]
            flat[k] = saved + eps
            hi = value()
            flat[k] = saved - eps
            lo = value()
            flat[k] = saved
            numeric = (hi - lo) / (2 * eps)
            worst = max(worst, abs(analytic[k] - numeric)
                        / max(abs(analytic[k]), abs(numeric), 1e-6))
    tiny_params.zero_grads()
    assert worst < 1e-5
