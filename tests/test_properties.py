"""Property tests: each batched path equals its one-at-a-time form over
drawn batches, to the bit, or within 1e-12 relative where the images go
through one batched projection or sums run over padded keys; shared
encodings equal unshared forwards; a checkpoint round trip returns what
was saved (the profile is set in conftest)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import TINY
from zerommt import autodiff as ad
from zerommt import model as m
from zerommt import objectives as obj

PARAMS = m.build_model(TINY, seed=0)
m.randomize_extras(PARAMS, seed=1)
VOCAB, MAX_LEN = TINY.vocab_size, TINY.max_len
tokens = st.integers(0, VOCAB - 1)


@st.composite
def prefix_sets(draw):
    """A source and 1-5 BOS-led prefixes of one drawn length."""
    length = draw(st.integers(1, MAX_LEN))
    prefix = st.lists(tokens, min_size=length - 1, max_size=length - 1)
    prefixes = draw(st.lists(prefix, min_size=1, max_size=5))
    source = draw(st.lists(tokens, min_size=1, max_size=MAX_LEN))
    return source, [[m.BOS] + p for p in prefixes]


@given(prefix_sets(), st.booleans())
def test_decode_step_rows_equal_one_prefix_calls(case, multimodal):
    source, prefixes = case
    image = np.linspace(-1.0, 1.0, TINY.image_dim) if multimodal else None
    with ad.no_grad():
        enc = m.encode(source, image, PARAMS)
        rows = m.decode_step(enc, prefixes, PARAMS)
        for row, prefix in zip(rows, prefixes):
            one = m.decode_step(enc, [prefix], PARAMS)
            assert row.tobytes() == one[0].tobytes()


examples = st.builds(
    lambda src, body: obj.BatchExample(src=src, tgt=[m.BOS] + body + [m.EOS]),
    st.lists(st.integers(4, VOCAB - 1), min_size=1, max_size=4),
    st.lists(st.integers(4, VOCAB - 1), min_size=1, max_size=3),
)


@given(st.lists(examples, min_size=1, max_size=12))
def test_bucketed_teacher_equals_one_example_forwards(batch):
    got = obj.base_teacher_logprobs(PARAMS, batch)
    assert len(got) == len(batch)
    for ex, lp in zip(batch, got):
        logits = m.teacher_forced_logits(PARAMS, [ex.src], None, [ex.tgt])
        want = ad.log_softmax(logits, axis=-1).data[0]
        assert lp.tobytes() == want.tobytes()


words = st.lists(st.integers(4, VOCAB - 1), min_size=1, max_size=4)


@st.composite
def sequence_mixes(draw):
    """1-12 (source, image, target) triples drawn from up to five
    (source, target) pairs of mixed lengths, so pairs repeat under their
    own images."""
    pool = draw(st.lists(st.tuples(words, words), min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = list(rng.standard_normal((len(picks), TINY.image_dim)))
    return ([tuple(x) for x, _ in picks], images,
            [(m.BOS, *body, m.EOS) for _, body in picks])


@given(sequence_mixes(), st.booleans(),
       st.sampled_from([ad.softmax, ad.log_softmax]))
def test_teacher_forced_rows_equal_one_sequence_calls(case, multimodal,
                                                      normalize):
    srcs, images, tgts = case
    got = m.teacher_forced_rows(PARAMS, srcs, images if multimodal else None,
                                tgts, normalize)
    assert len(got) == len(tgts)
    shared = {}
    for rows, src, image, tgt in zip(got, srcs, images, tgts):
        logits = m.teacher_forced_logits(PARAMS, [src],
                                         [image] if multimodal else None, [tgt])
        want = normalize(logits, axis=-1).data[0]
        assert rows.shape == want.shape
        if multimodal:
            err = np.abs(rows - want).max(axis=-1) / np.abs(want).max(axis=-1)
            assert err.max() < 1e-12
        else:
            assert rows.tobytes() == want.tobytes()
            assert rows is shared.setdefault((src, tgt), rows)


@st.composite
def shared_inputs(draw):
    """(source, image, target) triples whose (source, image) inputs repeat
    under 1-3 targets of one length. Sources and images come from small
    pools, so inputs also share a source or an image with other inputs."""
    sources = draw(st.lists(words, min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = list(rng.standard_normal((3, TINY.image_dim)))
    triples = []
    for _ in range(draw(st.integers(1, 6))):
        src = tuple(draw(st.sampled_from(sources)))
        image = pool[draw(st.integers(0, 2))]
        n_body = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(1, 3))):
            tail = draw(st.lists(st.integers(4, VOCAB - 1), min_size=n_body,
                                 max_size=n_body))
            triples.append((src, image, (m.BOS, *tail, m.EOS)))
    triples = draw(st.permutations(triples))
    return [list(column) for column in zip(*triples)]


@given(shared_inputs(), st.booleans(),
       st.sampled_from([ad.softmax, ad.log_softmax]))
def test_shared_encodings_equal_unshared_forwards(case, multimodal, normalize):
    """Each target reads its input's one encoding. With two or more distinct
    images in a bucket, its rows equal the bucket's unshared forward bit for
    bit; a bucket of one image projects it as a one-row product, which
    rounds differently, so there the rows match one-sequence forwards within
    1e-12. Text-only rows match one-sequence forwards bit for bit."""
    srcs, images, tgts = case
    got = m.teacher_forced_rows(PARAMS, srcs, images if multimodal else None,
                                tgts, normalize)
    buckets = {}
    for k, (x, y) in enumerate(zip(srcs, tgts)):
        buckets.setdefault((len(x), len(y)), []).append(k)
    with ad.no_grad():
        for seqs in buckets.values():
            if not multimodal:
                for k in seqs:
                    alone = m.teacher_forced_logits(PARAMS, [srcs[k]], None,
                                                    [tgts[k]])
                    want = normalize(alone, axis=-1).data[0]
                    assert got[k].tobytes() == want.tobytes()
                continue
            if len({images[k].tobytes() for k in seqs}) >= 2:
                logits = m.teacher_forced_logits(
                    PARAMS, [srcs[k] for k in seqs], [images[k] for k in seqs],
                    [tgts[k] for k in seqs])
                want = normalize(logits, axis=-1).data
                for k, w in zip(seqs, want):
                    assert got[k].tobytes() == w.tobytes()
                continue
            for k in seqs:
                alone = m.teacher_forced_logits(PARAMS, [srcs[k]], [images[k]],
                                                [tgts[k]])
                want = normalize(alone, axis=-1).data[0]
                err = np.abs(got[k] - want).max(axis=-1) / np.abs(want).max(axis=-1)
                assert err.max() < 1e-12


long_words = st.lists(st.integers(4, VOCAB - 1), min_size=1,
                      max_size=MAX_LEN - 1)


@given(st.lists(st.tuples(long_words, long_words), min_size=2, max_size=2),
       st.integers(0, 2**32 - 1), st.booleans())
def test_padding_leaves_teacher_forced_logits_alone(pairs, seed, multimodal):
    """Two triples of different lengths in one padded forward: each one's
    rows match its forward alone. The masks keep padded keys out, but the
    softmax and weighted sums still run over them, which regroups float
    sums, so the match is within 1e-12 of the logit scale, not bitwise."""
    assume(len({(len(x), len(y)) for x, y in pairs}) == 2)
    srcs = [tuple(x) for x, _ in pairs]
    tgts = [(m.BOS, *y, m.EOS) for _, y in pairs]
    images = list(np.random.default_rng(seed).standard_normal(
        (2, TINY.image_dim)))
    with ad.no_grad():
        both = m.teacher_forced_logits(PARAMS, srcs,
                                       images if multimodal else None,
                                       tgts).data
        for b in range(2):
            alone = m.teacher_forced_logits(
                PARAMS, [srcs[b]], [images[b]] if multimodal else None,
                [tgts[b]]).data[0]
            rows = both[b, :len(tgts[b]) - 1]
            assert np.abs(rows - alone).max() <= 1e-12 * np.abs(alone).max()


@given(st.integers(0, 2**32 - 1), st.booleans(),
       st.sets(st.sampled_from(PARAMS.extra_names())))
def test_checkpoint_round_trip_keeps_names_bytes_and_flags(
        seed, base_frozen, frozen_extras):
    params = m.build_model(TINY, seed=0)
    m.randomize_extras(params, seed=seed)
    if base_frozen:
        params.freeze_base()
    else:
        params.unfreeze_base()
    for name in frozen_extras:
        params.tensors[name].requires_grad = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        m.save_checkpoint(path, params, meta={"seed": seed})
        back, meta = m.load_checkpoint(path)
    assert meta == {"seed": seed}
    assert back.config == params.config
    assert list(back.tensors) == list(params.tensors)
    assert back.is_extra == params.is_extra
    for name, t in params.tensors.items():
        got = back.tensors[name]
        assert got.data.shape == t.data.shape, name
        assert got.data.tobytes() == t.data.tobytes(), name
        assert got.requires_grad == t.requires_grad, name
