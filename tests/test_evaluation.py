"""Scoring harness: perplexity and BLEU against scalar hand oracles, the
two-orientation contrastive protocol, and the scorer and BLEU
dispatchers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerommt import autodiff as ad
from zerommt import decoding as dec
from zerommt import evaluation as ev
from zerommt import model as m
from zerommt import objectives as obj
from zerommt.evaluation import ContrastiveInstance

import oracles


class TableScorer:
    """Fixed per-position next-token distributions, keyed by the target."""

    def __init__(self, table):
        self.table = table

    def distributions(self, srcs, images, tgts):
        return [np.asarray(self.table[tuple(t)], dtype=np.float64)
                for t in tgts]


def _dist(vocab, pairs):
    row = np.full(vocab, 1e-9)
    for tok, p in pairs:
        row[tok] = p
    return row


# ---------------------------------------------------------------------------
# perplexity


def test_sequence_perplexity_hand_oracle():
    # p(5)=0.5 at step 1, p(EOS)=0.25 at step 2
    tgt = [m.BOS, 5, m.EOS]
    table = {
        tuple(tgt): [_dist(8, [(5, 0.5)]), _dist(8, [(m.EOS, 0.25)])],
    }
    dists = TableScorer(table).distributions([(5,)], [None], [tuple(tgt)])[0]
    ppl = ev.sequence_perplexity(dists, tgt)
    want = math.exp(-(math.log(0.5) + math.log(0.25)) / 2)
    assert abs(ppl - want) < 1e-12


def test_sequence_perplexity_certain_model_is_one():
    tgt = [m.BOS, 6, 7, m.EOS]
    table = {
        tuple(tgt): [_dist(8, [(6, 1.0)]), _dist(8, [(7, 1.0)]),
                     _dist(8, [(m.EOS, 1.0)])],
    }
    dists = TableScorer(table).distributions([(6,)], [None], [tuple(tgt)])[0]
    assert abs(ev.sequence_perplexity(dists, tgt) - 1.0) < 1e-12


def test_sequence_perplexity_rejects_malformed_target():
    with pytest.raises(ValueError):
        ev.sequence_perplexity(np.zeros((0, 8)), [m.BOS])
    with pytest.raises(ValueError):
        ev.sequence_perplexity(np.full((2, 8), 0.125), [m.BOS, 5, 6])
    # one distribution per target token after BOS, no more, no less
    with pytest.raises(ValueError):
        ev.sequence_perplexity(np.full((3, 8), 0.125), [m.BOS, 5, m.EOS])


@given(lead=st.lists(st.integers(1, 5), min_size=0, max_size=2),
       t=st.integers(1, 12), vocab=st.sampled_from([8, 16, 64]),
       seed=st.integers(0, 2**16))
def test_sequence_perplexity_over_batch_axes_equals_each_sequence(lead, t,
                                                                  vocab, seed):
    rng = np.random.default_rng(seed)
    dists = rng.dirichlet(np.full(vocab, 0.5), size=(*lead, t))
    dists[rng.random(dists.shape) < 0.05] = 0.0  # gold tokens may get 0
    y = rng.integers(4, vocab, size=(*lead, t + 1))
    y[..., 0], y[..., -1] = m.BOS, m.EOS
    got = ev.sequence_perplexity(dists, y)
    if not lead:
        assert type(got) is float
        assert got == oracles.sequence_perplexity(dists, list(y))
        return
    assert got.shape == tuple(lead)
    for idx in np.ndindex(*lead):
        assert got[idx] == oracles.sequence_perplexity(dists[idx], list(y[idx]))


def test_sequence_perplexity_rejects_a_batch_with_one_bad_target():
    y = np.array([[m.BOS, 5, m.EOS], [m.BOS, 5, 6]])
    with pytest.raises(ValueError, match="EOS-terminated"):
        ev.sequence_perplexity(np.full((2, 2, 8), 0.125), y)
    with pytest.raises(ValueError, match="3 distributions for 2 tokens"):
        ev.sequence_perplexity(np.full((2, 3, 8), 0.125), y[:1].repeat(2, 0))


# ---------------------------------------------------------------------------
# contrastive protocol


def _two_target_scorer(p_good, p_bad, image_sensitive):
    """Scorer that assigns target token 5 probability p_good under image 0
    and p_bad under image 1 (or p_good always, if image-blind)."""

    class S:
        def distributions(self, srcs, images, tgts):
            return [self._one(image, tgt) for image, tgt in zip(images, tgts)]

        def _one(self, image, tgt):
            body = tgt[1:-1]
            if image_sensitive and image is not None and image[0] > 0.5:
                p = {5: p_bad, 6: p_good}
            else:
                p = {5: p_good, 6: p_bad}
            rows = [_dist(8, [(t, p.get(t, 0.5))]) for t in body]
            rows.append(_dist(8, [(m.EOS, 0.9)]))
            return np.asarray(rows)

    return S()


def _instance(k=0):
    return ContrastiveInstance(
        id=k,
        src=[4],
        img_a=np.zeros(2),
        tgt_a=[m.BOS, 5, m.EOS],
        img_b=np.ones(2),
        tgt_b=[m.BOS, 6, m.EOS],
    )


def test_contrastive_score_strict_inequality():
    """A row scores 1 only when the correct translation's perplexity is
    strictly lower; a tie scores 0 in both orientations."""
    good = _two_target_scorer(0.9, 0.1, image_sensitive=True)
    assert [r.score for r in ev.commute_rows(good, [_instance()])] == [1, 1]
    tied = _two_target_scorer(0.5, 0.5, image_sensitive=False)
    rows = ev.commute_rows(tied, [_instance()])
    assert all(r.ppl_correct == r.ppl_wrong for r in rows)
    assert [r.score for r in rows] == [0, 0]


def test_image_sensitive_scorer_scores_100():
    scorer = _two_target_scorer(0.9, 0.1, image_sensitive=True)
    assert ev.commute_accuracy(scorer, [_instance(k) for k in range(3)]) == 100.0


def test_image_blind_scorer_scores_exactly_50():
    """Without ties, an image-blind scorer wins one orientation and loses
    the mirrored one, always."""
    scorer = _two_target_scorer(0.9, 0.1, image_sensitive=False)
    instances = [_instance(k) for k in range(4)]
    assert ev.commute_accuracy(scorer, instances) == 50.0
    report = ev.evaluate_contrastive(scorer, instances)
    assert report.n_ties == 0
    assert report.contrastive_accuracy == 50.0
    assert len(report.rows) == 8


def test_commute_rows_rejects_empty():
    with pytest.raises(ValueError):
        ev.commute_rows(_two_target_scorer(0.9, 0.1, True), [])


def test_contrastive_margin_hand_value():
    rows = [
        ev.InstanceRow(id=0, orientation="a", ppl_correct=2.0, ppl_wrong=4.0,
                       score=1),
        ev.InstanceRow(id=0, orientation="b", ppl_correct=3.0, ppl_wrong=1.0,
                       score=0),
    ]
    want = (math.log(4.0 / 2.0) + math.log(1.0 / 3.0)) / 2
    assert abs(ev.contrastive_margin(rows) - want) < 1e-15
    # an image-blind scorer's mirrored rows cancel exactly
    blind = _two_target_scorer(0.9, 0.1, image_sensitive=False)
    assert abs(ev.contrastive_margin(ev.commute_rows(blind, [_instance()]))) < 1e-15
    with pytest.raises(ValueError):
        ev.contrastive_margin([])


def test_eval_report_csv_layout():
    scorer = _two_target_scorer(0.9, 0.1, image_sensitive=True)
    report = ev.evaluate_contrastive(scorer, [_instance()])
    lines = report.rows_csv().splitlines()
    assert lines[0] == "id,orientation,ppl_correct,ppl_wrong,score"
    assert len(lines) == 3
    assert lines[1].startswith("0,a,") and lines[2].startswith("0,b,")
    assert report.contrastive_accuracy == 100.0
    assert len(report.rows) == 2


# ---------------------------------------------------------------------------
# BLEU hand oracles


def test_bleu_perfect_match_is_100():
    assert abs(ev.bleu([[5, 6, 7, 8]], [[5, 6, 7, 8]]) - 100.0) < 1e-12


def test_bleu_brevity_penalty_hand_value():
    # all precisions 1, hyp 3 tokens vs ref 4: BLEU = 100 * exp(1 - 4/3)
    got = ev.bleu([[5, 6, 7]], [[5, 6, 7, 8]])
    assert abs(got - 100.0 * math.exp(1.0 - 4.0 / 3.0)) < 1e-12


def test_bleu_clipping_zeroes_unsupported_orders():
    # the hypothesis has a trigram the reference lacks: matched 3-grams = 0
    assert ev.bleu([[5, 5, 5, 5]], [[5, 5]]) == 0.0


def test_bleu_short_corpus_uses_achievable_orders():
    # longest hypothesis is 2 tokens, so only 1- and 2-gram precision count
    assert abs(ev.bleu([[5, 6]], [[5, 6]]) - 100.0) < 1e-12


def test_bleu_corpus_aggregation_hand_value():
    # corpus counts pool across sentences before the geometric mean:
    # 1-grams 5/6, 2-grams 2/4, 3-grams 1/2, hyp 6 = ref 6 so bp = 1
    hyps = [[5, 6, 7], [5, 9, 7]]
    refs = [[5, 6, 7], [5, 8, 7]]
    want = 100.0 * math.exp(
        (math.log(5 / 6) + math.log(2 / 4) + math.log(1 / 2)) / 3
    )
    assert abs(ev.bleu(hyps, refs) - want) < 1e-12


def test_bleu_empty_hypothesis_corpus_is_zero():
    assert ev.bleu([[]], [[5, 6]]) == 0.0


def test_bleu_input_validation():
    with pytest.raises(ValueError):
        ev.bleu([[5]], [[5], [6]])
    with pytest.raises(ValueError):
        ev.bleu([], [])


# ---------------------------------------------------------------------------
# model-backed scorers


def test_cfg_scorer_gamma_one_matches_multimodal(tiny_params):
    m.randomize_extras(tiny_params, seed=8)
    text = ev.TextOnlyScorer(tiny_params)
    mm = ev.MultimodalScorer(tiny_params)
    blend = ev.CfgScorer(text, mm, gamma=1.0)
    src = [5, 6]
    img = np.random.default_rng(9).standard_normal(tiny_params.config.image_dim)
    tgt = [m.BOS, 7, 8, m.EOS]
    assert np.allclose(
        blend.distributions([src], [img], [tgt])[0],
        mm.distributions([src], [img], [tgt])[0],
        atol=1e-9,
    )


def test_text_only_scorer_ignores_image(tiny_params):
    m.randomize_extras(tiny_params, seed=10)
    scorer = ev.TextOnlyScorer(tiny_params)
    src, tgt = [5, 6], [m.BOS, 7, m.EOS]
    img = np.ones(tiny_params.config.image_dim)
    assert np.array_equal(
        scorer.distributions([src], [None], [tgt])[0],
        scorer.distributions([src], [img], [tgt])[0],
    )


def test_multimodal_scorer_shape_and_normalization(tiny_params):
    m.randomize_extras(tiny_params, seed=11)
    scorer = ev.MultimodalScorer(tiny_params)
    tgt = [m.BOS, 7, 8, m.EOS]
    img = np.zeros(tiny_params.config.image_dim)
    dists = scorer.distributions([[5, 6]], [img], [tgt])[0]
    assert dists.shape == (3, tiny_params.config.vocab_size)
    assert np.allclose(dists.sum(axis=-1), 1.0, atol=1e-12)


def test_multimodal_scorer_requires_images(tiny_params):
    # the scorer and the image objectives share one teacher-forced forward,
    # and with it one error for a sequence without an image
    img = np.zeros(tiny_params.config.image_dim)
    batch = obj.Batch([obj.BatchExample(src=[5, 6], tgt=[m.BOS, 7, m.EOS],
                                        image=img),
                       obj.BatchExample(src=[5], tgt=[m.BOS, 7, m.EOS])])
    mm = ev.MultimodalScorer(tiny_params)
    cfg = ev.CfgScorer(ev.TextOnlyScorer(tiny_params), mm, 2.0)
    srcs, tgts = [(5, 6), (5,)], [(m.BOS, 7, m.EOS)] * 2
    calls = [
        lambda: mm.distributions(srcs, [img, None], tgts),
        lambda: mm.distributions(srcs, None, tgts),
        lambda: cfg.distributions(srcs, None, tgts),
        lambda: obj.vmlm_loss(batch, tiny_params),
        lambda: obj.mmt_loss(batch, tiny_params),
        lambda: obj.kl_penalty(batch, tiny_params),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match="image") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1


# ---------------------------------------------------------------------------
# batched scorers against a batch-1 reference forward


def _reference_distributions(params, src, image, tgt):
    """The simple path: one unpadded forward per sequence, tape recorded."""
    enc = m.encode(list(src), image, params)
    ids = np.asarray([tgt[:-1]], dtype=np.int64)
    logits = m.decoder_logits(params, enc, ids, np.ones_like(ids, dtype=bool))
    return ad.softmax(logits, axis=-1).data[0]


def _mixed_length_set(config, n, seed):
    """``n`` (src, image, tgt) triples with sources of 1-7 and targets of
    2-9 tokens, so some shapes repeat and others stand alone."""
    rng = np.random.default_rng(seed)
    words = np.arange(4, config.vocab_size)
    srcs, images, tgts = [], [], []
    for _ in range(n):
        srcs.append(tuple(int(t) for t in rng.choice(words, rng.integers(1, 8))))
        images.append(rng.standard_normal(config.image_dim))
        body = [int(t) for t in rng.choice(words, rng.integers(0, 8))]
        tgts.append(tuple([m.BOS] + body + [m.EOS]))
    return srcs, images, tgts


def _max_relative_error(got, want):
    """Largest per-row max-norm error, relative to the row's max-norm."""
    return float((np.abs(got - want).max(axis=-1)
                  / np.abs(want).max(axis=-1)).max())


def test_batched_scorers_match_batch_one_reference(tiny_params):
    m.randomize_extras(tiny_params, seed=17)
    n = 133
    srcs, images, tgts = _mixed_length_set(tiny_params.config, n, seed=18)
    text_ref = [_reference_distributions(tiny_params, x, None, y)
                for x, y in zip(srcs, tgts)]
    mm_ref = [_reference_distributions(tiny_params, x, i, y)
              for x, i, y in zip(srcs, images, tgts)]
    text = ev.TextOnlyScorer(tiny_params)
    mm = ev.MultimodalScorer(tiny_params)
    # the text side batches only sequences of one shape, so it is exact
    got = text.distributions(srcs, images, tgts)
    assert len(got) == n
    for g, w in zip(got, text_ref):
        assert g.tobytes() == w.tobytes()
    checks = [(mm, mm_ref)]
    for space in ("log", "prob_clip"):
        blend_ref = [
            np.stack([dec.cfg_distribution(pt[j], pm[j], 2.5, space)
                      for j in range(len(pt))])
            for pt, pm in zip(text_ref, mm_ref)
        ]
        checks.append((ev.CfgScorer(text, mm, 2.5, space), blend_ref))
    for scorer, want in checks:
        got = scorer.distributions(srcs, images, tgts)
        assert len(got) == n
        for g, w, y in zip(got, want, tgts):
            assert g.shape == (len(y) - 1, tiny_params.config.vocab_size)
            assert _max_relative_error(g, w) < 1e-12


def _count_encoded_rows(monkeypatch):
    """Record the batch of every ``model.encode_batch`` call."""
    encoded = []
    encode_batch = m.encode_batch

    def counting(params, src_ids, *args, **kwargs):
        encoded.append(len(src_ids))
        return encode_batch(params, src_ids, *args, **kwargs)

    monkeypatch.setattr(m, "encode_batch", counting)
    return encoded


def test_text_only_scorer_scores_each_pair_once(tiny_params, monkeypatch):
    # the same (src, tgt) under two images goes through one forward row, so
    # both get the same floats and the text-only base sits at exactly 50%;
    # a source is encoded once per target length, whatever its targets
    m.randomize_extras(tiny_params, seed=19)
    srcs, images, tgts = _mixed_length_set(tiny_params.config, 64, seed=20)
    # 16 sources again, each under another target of its target's length
    srcs += srcs[:16]
    images += images[:16]
    tgts += [(m.BOS,) + (5,) * (len(y) - 2) + (m.EOS,) for y in tgts[:16]]
    encoded = _count_encoded_rows(monkeypatch)
    flipped = [-i for i in images]
    got = ev.TextOnlyScorer(tiny_params).distributions(
        srcs + srcs[::-1], images + flipped[::-1], tgts + tgts[::-1])
    assert sum(encoded) == len({(x, len(y)) for x, y in zip(srcs, tgts)})
    assert sum(encoded) < len(set(zip(srcs, tgts)))
    for a, b in zip(got[: len(srcs)], got[len(srcs):][::-1]):
        assert a is b


@pytest.mark.parametrize("multimodal", [True, False])
def test_each_bucket_encodes_its_distinct_inputs_once(tiny_params,
                                                      monkeypatch, multimodal):
    """One encoder row per distinct input of each (source length, target
    length) bucket: the source, plus its image's bytes with the extras on."""
    m.randomize_extras(tiny_params, seed=23)
    rng = np.random.default_rng(24)
    words = np.arange(4, tiny_params.config.vocab_size)
    instances = []
    for k in range(12):
        src = [int(t) for t in rng.choice(words, rng.integers(1, 4))]
        instances.append(ContrastiveInstance(
            id=k, src=src, img_a=rng.standard_normal(4),
            tgt_a=[m.BOS, *src, m.EOS], img_b=rng.standard_normal(4),
            tgt_b=[m.BOS, *src[::-1], m.EOS]))
    instances += instances[:3]  # repeated instances share their inputs too
    encoded = _count_encoded_rows(monkeypatch)
    scorer = ev.MultimodalScorer(tiny_params) if multimodal \
        else ev.TextOnlyScorer(tiny_params)
    ev.commute_rows(scorer, instances)
    # commute_rows' sequences: per orientation, its image under both targets
    inputs = {}
    for inst in instances:
        for img in (inst.img_a, inst.img_a, inst.img_b, inst.img_b):
            key = (tuple(inst.src), img.tobytes()) if multimodal \
                else tuple(inst.src)
            inputs.setdefault((len(inst.src), len(inst.tgt_a)), set()).add(key)
    assert encoded == [len(keys) for keys in inputs.values()]
    assert sum(encoded) == (24 if multimodal else 12)


def test_vectorised_cfg_distribution_equals_row_loop_bytewise():
    rng = np.random.default_rng(21)
    pt = rng.dirichlet(np.ones(16), size=(3, 5))
    pm = rng.dirichlet(np.full(16, 0.3), size=(3, 5))
    pm[0, 0] = 0.0  # a row the clipped blend cannot renormalize
    pt[0, 0] = 0.0
    for space in ("log", "prob_clip"):
        for gamma in (0.0, 0.5, 1.0, 2.0, 3.0):
            got = dec.cfg_distribution(pt, pm, gamma, space)
            want = np.stack([
                np.stack([dec.cfg_distribution(pt[a, b], pm[a, b], gamma, space)
                          for b in range(pt.shape[1])])
                for a in range(pt.shape[0])
            ])
            assert got.tobytes() == want.tobytes(), (space, gamma)


def test_make_scorer_dispatch(tiny_params):
    m.randomize_extras(tiny_params, seed=12)
    text = ev.make_scorer(tiny_params, 0.0)
    assert type(text) is ev.TextOnlyScorer and text.params is tiny_params
    plain = ev.make_scorer(tiny_params, 1.0)
    assert type(plain) is ev.MultimodalScorer and plain.params is tiny_params
    for gamma in (0.5, 2.0):
        blend = ev.make_scorer(tiny_params, gamma, "prob_clip")
        assert type(blend) is ev.CfgScorer
        assert (blend.gamma, blend.space) == (gamma, "prob_clip")
        assert type(blend.text_scorer) is ev.TextOnlyScorer
        assert type(blend.mm_scorer) is ev.MultimodalScorer
        assert blend.text_scorer.params is blend.mm_scorer.params is tiny_params


def test_gamma_zero_is_the_text_only_base_bit_for_bit(tiny_params):
    # scoring and decoding agree at gamma = 0: both are the extras-off base,
    # not a guidance blend that reproduces it up to rounding
    m.randomize_extras(tiny_params, seed=15)
    src, tgt = [5, 6, 7], [m.BOS, 7, 8, m.EOS]
    img = np.random.default_rng(16).standard_normal(tiny_params.config.image_dim)
    scorer = ev.make_scorer(tiny_params, 0.0)
    assert type(scorer) is ev.TextOnlyScorer
    want = ev.TextOnlyScorer(tiny_params).distributions([src], [None], [tgt])[0]
    assert np.array_equal(scorer.distributions([src], [img], [tgt])[0], want)
    hyp = dec.translate(tiny_params, src, img, 0.0, width=3)
    base = dec.beam_search(tiny_params, src, image=None, width=3)
    assert (hyp.tokens, hyp.logp) == (base.tokens, base.logp)


def test_translation_bleu_scores_the_dispatched_translations(tiny_params):
    m.randomize_extras(tiny_params, seed=13)
    rng = np.random.default_rng(14)
    dim = tiny_params.config.image_dim
    examples = [
        SimpleNamespace(src=src, image=rng.standard_normal(dim), tgt=tgt)
        for src, tgt in (([5, 6], [m.BOS, 7, 8, m.EOS]),
                         ([6, 9, 5], [m.BOS, 8, 7, m.EOS]))
    ]
    for gamma in (0.0, 1.0, 2.0):
        hyps = [list(dec.translate(tiny_params, ex.src, ex.image, gamma,
                                   width=2).tokens) for ex in examples]
        want = ev.bleu(hyps, [ex.tgt[1:-1] for ex in examples])
        got = ev.translation_bleu(tiny_params, examples, gamma, width=2)
        assert got == want


def _mixed_length_instances(config, n, seed):
    """``n`` contrastive instances whose two targets have 2-9 tokens each,
    so orientations of one instance fall into different length groups."""
    rng = np.random.default_rng(seed)
    words = np.arange(4, config.vocab_size)

    def seq(lo, hi):
        return [int(t) for t in rng.choice(words, rng.integers(lo, hi))]

    return [ContrastiveInstance(
        id=k, src=seq(1, 8),
        img_a=rng.standard_normal(config.image_dim),
        tgt_a=[m.BOS] + seq(0, 8) + [m.EOS],
        img_b=rng.standard_normal(config.image_dim),
        tgt_b=[m.BOS] + seq(0, 8) + [m.EOS]) for k in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commute_rows_equal_a_per_sequence_loop(tiny_params, seed):
    """Blends and perplexities per length group give every row the bytes
    of one sequence at a time."""
    m.randomize_extras(tiny_params, seed=30 + seed)
    instances = _mixed_length_instances(tiny_params.config, 23, seed)
    assert len({len(i.tgt_a) for i in instances}
               | {len(i.tgt_b) for i in instances}) > 3
    srcs, images, tgts = [], [], []
    for inst in instances:
        for img, y_c, y_w in ((inst.img_a, inst.tgt_a, inst.tgt_b),
                              (inst.img_b, inst.tgt_b, inst.tgt_a)):
            srcs += [tuple(inst.src)] * 2
            images += [img, img]
            tgts += [tuple(y_c), tuple(y_w)]
    text = ev.TextOnlyScorer(tiny_params)
    mm = ev.MultimodalScorer(tiny_params)
    scorers = [text, mm, ev.CfgScorer(text, mm, 2.0),
               ev.CfgScorer(text, mm, 3.0, "prob_clip")]
    for scorer in scorers:
        want = oracles.per_sequence_perplexities(scorer, srcs, images, tgts)
        rows = ev.commute_rows(scorer, instances)
        got = [p for r in rows for p in (r.ppl_correct, r.ppl_wrong)]
        assert all(type(p) is float for p in got)
        assert got == want
        assert [r.score for r in rows] == [
            int(c < w) for c, w in zip(want[::2], want[1::2])]
