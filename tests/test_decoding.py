"""Guidance blend identities against hand-computed values, and beam search
against exhaustive enumeration and against its one-candidate-at-a-time
form."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zerommt import decoding as dec
from zerommt import model as m
from zerommt.decoding import Hypothesis


# ---------------------------------------------------------------------------
# cfg_distribution


def _rand_dist(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


def test_cfg_gamma_one_reproduces_multimodal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pt, pm = _rand_dist(rng, 8), _rand_dist(rng, 8)
        out = dec.cfg_distribution(pt, pm, 1.0)
        assert np.allclose(out, pm, atol=1e-12)


def test_cfg_gamma_zero_reproduces_text():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pt, pm = _rand_dist(rng, 8), _rand_dist(rng, 8)
        out = dec.cfg_distribution(pt, pm, 0.0)
        assert np.allclose(out, pt, atol=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("space", ["log", "prob_clip"])
def test_cfg_output_is_a_distribution(gamma, space):
    rng = np.random.default_rng(2)
    for _ in range(10):
        pt, pm = _rand_dist(rng, 6), _rand_dist(rng, 6)
        out = dec.cfg_distribution(pt, pm, gamma, space=space)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0.0)


def test_cfg_log_space_hand_value():
    # p_t * (p_m / p_t)^2 = p_m^2 / p_t = [1.28, 0.08] -> [16/17, 1/17]
    out = dec.cfg_distribution(
        np.array([0.5, 0.5]), np.array([0.8, 0.2]), 2.0, space="log"
    )
    assert np.allclose(out, [16 / 17, 1 / 17], atol=1e-12)


def test_cfg_prob_clip_hand_value():
    # 0.6 + 2*(0.1-0.6) = -0.4 -> clipped to 0; 0.4 + 2*(0.9-0.4) = 1.4
    out = dec.cfg_distribution(
        np.array([0.6, 0.4]), np.array([0.1, 0.9]), 2.0, space="prob_clip"
    )
    assert np.allclose(out, [0.0, 1.0], atol=1e-12)


def test_cfg_prob_clip_degenerate_falls_back_to_text():
    out = dec.cfg_distribution(
        np.array([0.7, 0.3]), np.array([0.7, 0.3]), 0.0, space="prob_clip"
    )
    assert np.allclose(out, [0.7, 0.3], atol=1e-12)
    # all-zero inputs exercise the fallback branch: uniform over the floor
    zeros = np.zeros(4)
    out = dec.cfg_distribution(zeros, zeros, 1.0, space="prob_clip")
    assert np.allclose(out, 0.25, atol=1e-12)


def test_cfg_input_validation():
    with pytest.raises(ValueError):
        dec.cfg_distribution(np.ones(3) / 3, np.ones(4) / 4, 1.0)
    with pytest.raises(ValueError):
        dec.cfg_distribution(np.ones(3) / 3, np.ones(3) / 3, 1.0, space="geo")
    p = np.ones(3) / 3
    with pytest.raises(ValueError):
        dec.cfg_distribution(p, p, -0.5)
    with pytest.raises(ValueError):
        dec.cfg_distribution(p, p, float("inf"))
    assert np.array_equal(dec.cfg_distribution(p, p, 1.0), p)


# ---------------------------------------------------------------------------
# beam search vs exhaustive enumeration


def _random_step_fn(seed, vocab):
    """Deterministic stochastic next-token table keyed by the prefix."""

    def step(prefix):
        key = [seed, len(prefix)] + list(prefix)
        p = np.random.default_rng(key).random(vocab) + 1e-3
        return p / p.sum()

    return step


def _batched(row_fn):
    """The batched step protocol over a one-prefix table: one stacked row
    per prefix."""
    return lambda prefixes: np.stack([row_fn(p) for p in prefixes])


def _exhaustive_best(step_fn, vocab, max_len, eos_id, forbidden):
    """Enumerate every decode path and apply the same ranking rules."""
    allowed = [t for t in range(vocab) if t not in forbidden]
    finished = []
    unfinished = []

    def walk(tokens, logp):
        if len(tokens) == max_len:
            unfinished.append(Hypothesis(tuple(tokens), logp))
            return
        probs = step_fn((m.BOS,) + tuple(tokens))
        logs = np.log(np.maximum(probs, dec.PROB_FLOOR))
        for tok in allowed:
            lp = logp + float(logs[tok])
            if tok == eos_id:
                finished.append(Hypothesis(tuple(tokens), lp, finished=True))
            else:
                walk(tokens + [tok], lp)

    walk([], 0.0)
    pool = finished if finished else unfinished
    pool.sort(key=lambda h: (-h.logp, h.tokens))
    return pool[0]


@pytest.mark.parametrize("seed", range(12))
def test_beam_equals_exhaustive_enumeration(seed):
    vocab, max_len = 5, 4
    step = _random_step_fn(seed, vocab)
    # width >= the 4^3 * 5 candidates at the last depth: nothing is pruned
    got = dec.beam_search_steps(_batched(step), width=512, max_len=max_len,
                                eos_id=2, forbidden=())
    want = _exhaustive_best(step, vocab, max_len, eos_id=2, forbidden=())
    assert got.tokens == want.tokens
    assert abs(got.logp - want.logp) < 1e-12
    assert got.finished == want.finished


def test_beam_respects_forbidden_tokens():
    step = _random_step_fn(99, 6)
    hyp = dec.beam_search_steps(_batched(step), width=8, max_len=5)
    assert all(t not in (m.PAD, m.BOS, m.MASK) for t in hyp.tokens)


def test_beam_hand_example_prefers_high_probability_path():
    # token 4 carries 0.9 each step, EOS 0.05: one step of 4 then EOS beats
    # immediate EOS (0.9*0.05 > 0.05 is false; check the actual argmax)
    table = {
        (m.BOS,): np.array([0.0, 0.0, 0.3, 0.0, 0.7]),
        (m.BOS, 4): np.array([0.0, 0.0, 0.8, 0.0, 0.2]),
        (m.BOS, 4, 4): np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
    }

    def step(prefix):
        return table[prefix]

    hyp = dec.beam_search_steps(_batched(step), width=4, max_len=3)
    # candidates: () at log 0.3 ~ -1.20, (4,) at log(0.7*0.8) ~ -0.58,
    # (4,4) at log(0.7*0.2*1.0) ~ -1.97
    assert hyp.tokens == (4,)
    assert hyp.finished
    assert abs(hyp.logp - math.log(0.7 * 0.8)) < 1e-12


def test_beam_uniform_distribution_breaks_ties_lexicographically():
    def step(prefix):
        return np.full(8, 1.0 / 8)

    hyp = dec.beam_search_steps(_batched(step), width=4, max_len=3)
    # every candidate has equal score; EOS (token 2) wins by token order
    assert hyp.tokens == ()
    assert hyp.finished


def test_beam_returns_unfinished_when_eos_unreachable():
    def step(prefix):
        p = np.zeros(6)
        p[5] = 1.0
        return p

    # width 1 keeps only the probability-1 token, so EOS never enters
    hyp = dec.beam_search_steps(_batched(step), width=1, max_len=4)
    assert not hyp.finished
    assert hyp.tokens == (5, 5, 5, 5)


def _loop_beam_search_steps(step_fn, width, max_len, eos_id=m.EOS,
                            forbidden=(m.PAD, m.BOS, m.MASK)):
    """The reference selection: one Hypothesis per (live hypothesis, token)
    candidate, all sorted by (-logp, tokens) in Python."""
    live = [Hypothesis(tokens=(), logp=0.0)]
    done = []
    for _ in range(max_len):
        candidates = []
        probs = step_fn([(m.BOS,) + hyp.tokens for hyp in live])
        for hyp, row in zip(live, probs):
            logs = np.log(np.maximum(row, dec.PROB_FLOOR))
            for tok in range(len(row)):
                if tok in forbidden:
                    continue
                candidates.append(
                    Hypothesis(hyp.tokens + (tok,), hyp.logp + float(logs[tok])))
        candidates.sort(key=lambda h: (-h.logp, h.tokens))
        live = []
        for cand in candidates[:width]:
            if cand.tokens[-1] == eos_id:
                done.append(Hypothesis(cand.tokens[:-1], cand.logp, finished=True))
            else:
                live.append(cand)
        if not live:
            break
        if done and max(h.logp for h in done) >= live[0].logp:
            break
    pool = done if done else live
    pool.sort(key=lambda h: (-h.logp, h.tokens))
    return pool[0]


@given(st.integers(0, 2**32 - 1), st.integers(3, 9), st.integers(1, 6),
       st.integers(1, 5), st.sets(st.integers(0, 8), max_size=2),
       st.integers(1, 4))
# cases where tied candidates of different parents straddle the width cut,
# so ranking parents by beam order instead of token order picks wrongly
@example(58, 6, 2, 3, set(), 4)
@example(124, 9, 5, 5, set(), 4)
@example(206, 6, 6, 4, set(), 2)
def test_vectorised_selection_equals_candidate_loop(seed, vocab, width,
                                                    max_len, forbidden, levels):
    """Rows drawn from ``levels`` powers of two repeat the same log terms
    under different parents, so candidates of different parents tie exactly
    (addition commutes) and the token-order tie-break decides."""
    forbidden = tuple(sorted(forbidden))
    values = 2.0 ** -np.arange(1, levels + 1)

    def row(prefix):
        rng = np.random.default_rng([seed, len(prefix), *prefix])
        p = rng.choice(values, size=vocab)
        p[rng.random(vocab) < 0.2] = 0.0
        return p

    got = dec.beam_search_steps(_batched(row), width, max_len, eos_id=2,
                                forbidden=forbidden)
    want = _loop_beam_search_steps(_batched(row), width, max_len, eos_id=2,
                                   forbidden=forbidden)
    assert got.tokens == want.tokens
    assert got.logp.hex() == want.logp.hex()
    assert got.finished == want.finished


def test_beam_rejects_bad_width():
    with pytest.raises(ValueError):
        dec.beam_search_steps(lambda ps: np.ones((len(ps), 4)) / 4, width=0,
                              max_len=2)


# ---------------------------------------------------------------------------
# model-level wrappers


def test_cfg_beam_endpoints_bit_exact(tiny_params):
    from zerommt import model as mm

    mm.randomize_extras(tiny_params, seed=3)
    src = [5, 6, 7]
    img = np.random.default_rng(4).standard_normal(tiny_params.config.image_dim)

    base_hyp = dec.beam_search(tiny_params, src, image=None, width=3)
    mm_hyp = dec.beam_search(tiny_params, src, image=img, width=3)
    g0 = dec.cfg_beam_search(tiny_params, tiny_params, src, img, 0.0, width=3)
    g1 = dec.cfg_beam_search(tiny_params, tiny_params, src, img, 1.0, width=3)
    assert g0.tokens == base_hyp.tokens and g0.logp == base_hyp.logp
    assert g1.tokens == mm_hyp.tokens and g1.logp == mm_hyp.logp


def test_cfg_beam_encodes_only_the_models_it_reads(tiny_params, monkeypatch):
    # the endpoints run one model alone: at gamma = 0 the image is never
    # encoded, so one of the wrong dimension is accepted as translate does
    m.randomize_extras(tiny_params, seed=7)
    src = [5, 6, 7]
    img = np.random.default_rng(8).standard_normal(tiny_params.config.image_dim)
    encoded = []
    encode = m.encode

    def counting(x, i, params):
        encoded.append(i is not None)
        return encode(x, i, params)

    monkeypatch.setattr(m, "encode", counting)
    for gamma, want in ((0.0, [False]), (1.0, [True]), (2.0, [False, True])):
        encoded.clear()
        dec.cfg_beam_search(tiny_params, tiny_params, src, img, gamma, width=2)
        assert encoded == want, gamma
    wrong = np.zeros(tiny_params.config.image_dim + 3)
    encoded.clear()
    hyp = dec.cfg_beam_search(tiny_params, tiny_params, src, wrong, 0.0,
                              width=2)
    assert encoded == [False]
    assert hyp == dec.translate(tiny_params, src, wrong, 0.0, width=2)


def test_cfg_beam_rejects_vocab_mismatch(tiny_params, tiny_config):
    import dataclasses

    from zerommt import model as mm

    other_config = dataclasses.replace(tiny_config, vocab_size=32)
    other = mm.build_model(other_config, seed=0)
    img = np.zeros(tiny_params.config.image_dim)
    with pytest.raises(ValueError):
        dec.cfg_beam_search(tiny_params, other, [5], img, 2.0)


def test_beam_search_emits_valid_translation(tiny_params):
    hyp = dec.beam_search(tiny_params, [5, 6], image=None, width=4)
    assert all(0 <= t < tiny_params.config.vocab_size for t in hyp.tokens)
    assert all(t not in (m.PAD, m.BOS, m.MASK) for t in hyp.tokens)


def test_searches_with_the_extras_on_need_an_image(tiny_params):
    # the image picks the model: a search without one runs the text-only
    # base, as translate does at gamma = 0, where the image is never read;
    # any gamma that reads the multimodal model needs the image
    m.randomize_extras(tiny_params, seed=9)
    src = [5, 6, 7]
    for gamma in (1.0, 2.0):
        with pytest.raises(ValueError) as err:
            dec.translate(tiny_params, src, None, gamma)
        assert str(err.value) == m.IMAGE_REQUIRED
    assert dec.beam_search(tiny_params, src) == \
        dec.translate(tiny_params, src, None, 0.0)
    assert dec.translate(tiny_params, src, None, 0.0, width=2) == \
        dec.beam_search(tiny_params, src, None, width=2)


def test_multimodal_passes_without_an_image_raise(tiny_params):
    # the multimodal scorer, objective and guided search each need every
    # sequence's image
    from zerommt import evaluation as ev
    from zerommt import objectives as obj

    img = np.zeros(tiny_params.config.image_dim)
    src, tgt = [5, 6, 7], [m.BOS, 8, m.EOS]
    batch = obj.Batch([obj.BatchExample(src, tgt, image=img),
                       obj.BatchExample(src, tgt)])
    calls = [
        lambda: ev.MultimodalScorer(tiny_params).distributions(
            [src, src], [img, None], [tgt, tgt]),
        lambda: ev.MultimodalScorer(tiny_params).distributions(
            [src], None, [tgt]),
        lambda: ev.CfgScorer(ev.TextOnlyScorer(tiny_params),
                             ev.MultimodalScorer(tiny_params),
                             2.0).distributions([src], [None], [tgt]),
        lambda: obj.vmlm_loss(batch, tiny_params),
        lambda: obj.kl_penalty(batch, tiny_params),
        lambda: dec.cfg_beam_search(tiny_params, tiny_params, src, None, 1.0),
    ]
    for k, call in enumerate(calls):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == m.IMAGE_REQUIRED, k


def test_translate_dispatch_matches_the_searches(tiny_params):
    from zerommt import model as mm

    mm.randomize_extras(tiny_params, seed=5)
    src = [5, 6, 7]
    img = np.random.default_rng(6).standard_normal(tiny_params.config.image_dim)

    def same(a, b):
        return (a.tokens, a.logp, a.finished) == (b.tokens, b.logp, b.finished)

    # gamma = 0: the text-only base (extras off), whatever the image
    base_hyp = dec.beam_search(tiny_params, src, image=None, width=3)
    for image in (img, None):
        assert same(dec.translate(tiny_params, src, image, 0.0, width=3),
                    base_hyp)
    assert same(dec.translate(tiny_params, src, img, 1.0, width=3),
                dec.beam_search(tiny_params, src, image=img, width=3))
    for gamma, space in ((0.5, "log"), (2.0, "prob_clip")):
        assert same(
            dec.translate(tiny_params, src, img, gamma, width=3, space=space),
            dec.cfg_beam_search(tiny_params, tiny_params, src, img, gamma,
                                width=3, space=space),
        )
    with pytest.raises(ValueError):
        dec.translate(tiny_params, src, img, -1.0, width=3)


# ---------------------------------------------------------------------------
# batched steps against the one-prefix search


def _one_prefix_search(row_fn, width, max_len, eos_id=m.EOS,
                       forbidden=(m.PAD, m.BOS, m.MASK)):
    """Beam search that asks for one prefix at a time, hypothesis by
    hypothesis, with the same ranking and stopping rules."""
    live, done = [Hypothesis((), 0.0)], []
    for _ in range(max_len):
        candidates = []
        for hyp in live:
            probs = row_fn((m.BOS,) + hyp.tokens)
            logs = np.log(np.maximum(probs, dec.PROB_FLOOR))
            candidates += [Hypothesis(hyp.tokens + (tok,),
                                      hyp.logp + float(logs[tok]))
                           for tok in range(len(probs)) if tok not in forbidden]
        candidates.sort(key=lambda h: (-h.logp, h.tokens))
        live = []
        for cand in candidates[:width]:
            if cand.tokens[-1] == eos_id:
                done.append(Hypothesis(cand.tokens[:-1], cand.logp, True))
            else:
                live.append(cand)
        if not live or (done and max(h.logp for h in done) >= live[0].logp):
            break
    pool = done if done else live
    pool.sort(key=lambda h: (-h.logp, h.tokens))
    return pool[0]


def _one_prefix_rows(params, src, image):
    enc = m.encode(src, image, params)
    return lambda prefix: m.decode_step(enc, [prefix], params)[0]


@pytest.mark.parametrize("width", [1, 4])
def test_batched_searches_equal_one_prefix_search(tiny_params, width):
    m.randomize_extras(tiny_params, seed=9)
    img = np.random.default_rng(10).standard_normal(
        tiny_params.config.image_dim)
    max_len = tiny_params.config.max_len

    def key(h):
        return (h.tokens, h.logp, h.finished)

    for src in ([5, 6, 7], [9, 4, 12, 8, 5]):
        text = _one_prefix_rows(tiny_params, src, None)
        mm = _one_prefix_rows(tiny_params, src, img)
        assert key(dec.beam_search(tiny_params, src, img, width=width)) == \
            key(_one_prefix_search(mm, width, max_len))
        for gamma in (0.0, 1.0, 1.5, 2.0, 3.0):
            # the endpoints run one model alone
            rows = {0.0: text, 1.0: mm}.get(
                gamma, lambda p: dec.cfg_distribution(text(p), mm(p), gamma))
            want = _one_prefix_search(rows, width, max_len)
            got = dec.cfg_beam_search(tiny_params, tiny_params, src, img,
                                      gamma, width=width)
            assert key(got) == key(want), (src, gamma)
