"""Property tests: each batched path equals its one-at-a-time form to the
bit, over drawn batches (the profile is set in conftest)."""

import numpy as np
from hypothesis import given
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
def test_decode_step_rows_equal_one_prefix_calls(case, use_extras):
    source, prefixes = case
    image = np.linspace(-1.0, 1.0, TINY.image_dim) if use_extras else None
    with ad.no_grad():
        enc = m.encode(source, image, PARAMS, use_extras=use_extras)
        rows = m.decode_step(enc.repeat(len(prefixes)), prefixes, PARAMS,
                             use_extras=use_extras)
        for row, prefix in zip(rows, prefixes):
            one = m.decode_step(enc, [prefix], PARAMS, use_extras=use_extras)
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
        logits = m.teacher_forced_logits(PARAMS, [ex.src], None, [ex.tgt],
                                         use_extras=False)
        want = ad.log_softmax(logits, axis=-1).data[0]
        assert lp.tobytes() == want.tobytes()
