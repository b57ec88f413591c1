"""World construction, split invariants, pseudo-translation bookkeeping,
and the JSONL round trip."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from zerommt import model as m
from zerommt import synthcorpus as sc


SPEC = sc.WorldSpec(
    n_plain_words=4, n_ambiguous_words=2, sent_len_min=2, sent_len_max=4,
    image_dim=4, seed=0,
)
SIZES = sc.SplitSizes(
    pretrain_parallel=60, mmt_train=20, val_contrastive=4,
    val_translation=4, test_contrastive=6, test_translation=6,
)


@pytest.fixture(scope="module")
def world():
    return sc.generate_world(dataclasses.replace(SPEC), vocab_budget=32)


@pytest.fixture(scope="module")
def splits(world):
    return sc.generate_splits(world, dataclasses.replace(SIZES))


# ---------------------------------------------------------------------------
# world layout


def test_world_vocabulary_layout(world):
    ids = (
        world.plain_src
        + list(world.plain_tgt.values())
        + world.amb_src
        + [t for pair in world.amb_tgt.values() for t in pair]
        + list(world.cue.values())
    )
    assert len(ids) == len(set(ids)), "lexicon ids overlap"
    assert min(ids) >= sc.N_SPECIALS
    assert max(ids) == world.vocab_used - 1
    # 4 specials + 2 ids per plain word + 5 per ambiguous word
    assert world.vocab_used == 4 + 2 * 4 + 5 * 2


def test_world_rejects_tiny_vocab_budget():
    with pytest.raises(ValueError):
        sc.generate_world(dataclasses.replace(SPEC), vocab_budget=16)


def test_spec_validation():
    for bad in (
        dict(n_plain_words=0),
        dict(sent_len_min=5, sent_len_max=3),
        dict(ambiguity_rate=1.5),
        dict(caption_domain_fraction=0.0),
        dict(sense_cluster_separation=0.0),
        dict(image_noise_sigma=-1.0),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(SPEC, **bad).validate()
    # json.load accepts NaN and Infinity; each is rejected by field name
    for field in ("sense_cluster_separation", "image_noise_sigma"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                dataclasses.replace(SPEC, **{field: value}).validate()


def test_translate_token_rules(world):
    plain = world.plain_src[0]
    amb = world.amb_src[0]
    cue = world.cue[(amb, 0)]
    assert world.translate_token(plain, None) == world.plain_tgt[plain]
    assert world.translate_token(amb, 1) == world.amb_tgt[amb][1]
    assert world.translate_token(cue, None) is None
    with pytest.raises(ValueError):
        world.translate_token(amb, None)


def test_caption_sublexicon_takes_leading_fraction(world):
    spec = dataclasses.replace(world.spec, caption_domain_fraction=0.5)
    small = dataclasses.replace(world, spec=spec)
    assert small.caption_plain_src == world.plain_src[:2]
    assert world.caption_plain_src == world.plain_src


def test_noise_free_image_is_the_centroid(world):
    spec = dataclasses.replace(world.spec, image_noise_sigma=0.0)
    quiet = dataclasses.replace(world, spec=spec)
    amb = world.amb_src[0]
    img = quiet.sample_image(amb, 1, np.random.default_rng(0))
    assert np.array_equal(img, quiet.centroid(amb, 1))


def test_image_noise_scales_inversely_with_separation(world):
    wide_spec = dataclasses.replace(world.spec, sense_cluster_separation=4.0)
    wide = dataclasses.replace(world, spec=wide_spec)
    amb = world.amb_src[0]
    a = world.sample_image(amb, 0, np.random.default_rng(3))
    b = wide.sample_image(amb, 0, np.random.default_rng(3))
    da = a - world.centroid(amb, 0)
    db = b - wide.centroid(amb, 0)
    assert np.allclose(da, 4.0 * db, atol=1e-12)


# ---------------------------------------------------------------------------
# split invariants


def test_split_sizes_are_honored(splits):
    assert len(splits.pretrain_parallel) == 60
    assert len(splits.mmt_train) == 20
    assert len(splits.val_contrastive) == 4
    assert len(splits.val_translation) == 4
    assert len(splits.test_contrastive) == 6
    assert len(splits.test_translation) == 6


def test_generation_is_deterministic(world):
    a = sc.generate_splits(world, dataclasses.replace(SIZES))
    b = sc.generate_splits(world, dataclasses.replace(SIZES))
    for ex_a, ex_b in zip(a.mmt_train, b.mmt_train):
        assert ex_a.src == ex_b.src and ex_a.tgt == ex_b.tgt
        assert np.array_equal(ex_a.image, ex_b.image)
    for ia, ib in zip(a.test_contrastive, b.test_contrastive):
        assert ia.src == ib.src and ia.tgt_a == ib.tgt_a
        assert np.array_equal(ia.img_a, ib.img_a)


@pytest.mark.parametrize("seed", [0, 1, 5, 42, 2**31 + 7])
def test_pool_draws_match_generator_choice(seed):
    # generation draws list elements through one bounded integer draw; it
    # must be the draw Generator.choice makes, or every split would change
    pools = [[9], [4, 5], list(range(10, 17)), list(range(20, 61))]
    via_integers = np.random.default_rng(seed)
    via_choice = np.random.default_rng(seed)
    for pool in pools * 25:
        assert sc._draw(pool, via_integers) == int(via_choice.choice(pool))
    assert via_integers.bit_generator.state == via_choice.bit_generator.state


def test_examples_are_wellformed(world, splits):
    cue_ids = set(world.cue.values())
    for ex in splits.pretrain_parallel + splits.mmt_train:
        assert ex.tgt[0] == m.BOS and ex.tgt[-1] == m.EOS
        assert all(sc.N_SPECIALS <= t < world.vocab_used for t in ex.src)
        n_cues = sum(1 for t in ex.src if t in cue_ids)
        assert n_cues <= 1
        # cues appear on the source side only
        assert not any(t in cue_ids for t in ex.tgt)
        assert len(ex.tgt) - 2 == len(ex.src) - n_cues


def test_pretrain_uncued_ambiguity_comes_in_sense_pairs(world, splits):
    """Every uncued ambiguous source appears with both sense translations,
    so the text alone never identifies the sense."""
    uncued = {}
    for ex in splits.pretrain_parallel:
        if ex.amb_word is not None and not ex.has_cue:
            uncued.setdefault(tuple(ex.src), set()).add(ex.sense)
    assert uncued, "corpus has no uncued ambiguous sentences"
    complete = [senses for senses in uncued.values() if senses == {0, 1}]
    # the final sentence can lose its twin to the size cutoff
    assert len(complete) >= len(uncued) - 1


def test_mmt_train_has_images_translation_splits_unambiguous(world, splits):
    amb = set(world.amb_src)
    for ex in splits.mmt_train:
        assert ex.image is not None
        assert ex.image.shape == (world.spec.image_dim,)
    for ex in splits.val_translation + splits.test_translation:
        assert ex.image is not None
        assert not any(t in amb for t in ex.src), "translation split must be unambiguous"


def test_contrastive_instances_have_one_ambiguous_word(world, splits):
    amb = set(world.amb_src)
    for inst in splits.val_contrastive + splits.test_contrastive:
        amb_positions = [t for t in inst.src if t in amb]
        assert len(amb_positions) == 1
        word = amb_positions[0]
        t0, t1 = world.sense_tokens(word)
        diff = [
            (a, b) for a, b in zip(inst.tgt_a, inst.tgt_b) if a != b
        ]
        assert diff == [(t0, t1)]
        assert len(inst.tgt_a) == len(inst.tgt_b)


def test_contrastive_requires_ambiguous_world():
    spec = dataclasses.replace(SPEC, n_ambiguous_words=0)
    world = sc.generate_world(spec, vocab_budget=32)
    with pytest.raises(ValueError):
        sc.generate_splits(world, dataclasses.replace(SIZES))


# ---------------------------------------------------------------------------
# pseudo-translation


def test_pseudo_translate_bookkeeping(world, splits):
    from conftest import TINY

    config = dataclasses.replace(TINY, vocab_size=32)
    params = m.build_model(config, seed=0)
    out, report = sc.pseudo_translate(params, splits.mmt_train, world, width=2)
    assert report.n_total == len(splits.mmt_train)
    assert len(out) == report.n_total - report.n_dropped
    for ex in out:
        assert ex.tgt[0] == m.BOS and ex.tgt[-1] == m.EOS
        assert ex.image is not None
    n_amb = sum(1 for ex in splits.mmt_train if ex.amb_word is not None)
    counted = (
        report.cued_total
        + sum(report.uncued_sense_counts.values())
        + report.unambiguous_total
    )
    assert counted == report.n_total - report.n_dropped
    assert report.unambiguous_total <= report.n_total - n_amb
    assert 0.0 <= report.unambiguous_match_rate <= 1.0
    assert 0.0 <= report.cued_sense_match_rate <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("separation", [1.0, 2.0])
def test_annotate_reproduces_generator_metadata(seed, separation):
    world = sc.generate_world(
        dataclasses.replace(sc.WorldSpec(), seed=seed,
                            sense_cluster_separation=separation)
    )
    splits = sc.generate_splits(world, sc.SplitSizes(
        pretrain_parallel=300, mmt_train=300, val_contrastive=1,
        val_translation=20, test_contrastive=1, test_translation=20,
    ))
    for ex in (splits.pretrain_parallel + splits.mmt_train
               + splits.val_translation + splits.test_translation):
        # what a JSONL file keeps: id, tokens, image
        bare = sc.Example(id=ex.id, src=ex.src, tgt=ex.tgt, image=ex.image)
        got = sc.annotate(world, bare)
        assert (got.amb_word, got.sense, got.has_cue) == (
            ex.amb_word, ex.sense, ex.has_cue), ex
        assert (got.id, got.src, got.tgt, got.image) == (
            ex.id, ex.src, ex.tgt, ex.image)
        assert bare.amb_word is None  # the input is left as it was


def test_pseudo_translate_needs_no_side_metadata(world, splits):
    from conftest import TINY

    params = m.build_model(dataclasses.replace(TINY, vocab_size=32), seed=0)
    bare = [sc.Example(id=ex.id, src=ex.src, tgt=ex.tgt, image=ex.image)
            for ex in splits.mmt_train]
    out_meta, with_meta = sc.pseudo_translate(params, splits.mmt_train, world,
                                              width=2)
    out_bare, without = sc.pseudo_translate(params, bare, world, width=2)
    assert with_meta == without
    assert [(ex.amb_word, ex.sense, ex.has_cue) for ex in out_bare] == [
        (ex.amb_word, ex.sense, ex.has_cue) for ex in out_meta]


def test_realized_sense_detection(world):
    amb = world.amb_src[0]
    t0, t1 = world.sense_tokens(amb)
    assert sc._realized_sense(world, amb, [m.BOS, t0, m.EOS]) == 0
    assert sc._realized_sense(world, amb, [m.BOS, t1, m.EOS]) == 1
    assert sc._realized_sense(world, amb, [m.BOS, t0, t1, m.EOS]) is None
    assert sc._realized_sense(world, amb, [m.BOS, m.EOS]) is None


# ---------------------------------------------------------------------------
# serialization


def test_examples_jsonl_roundtrip(splits, tmp_path):
    path = tmp_path / "mmt.jsonl"
    sc.write_examples(path, splits.mmt_train)
    back = sc.read_examples(path)
    assert len(back) == len(splits.mmt_train)
    for orig, got in zip(splits.mmt_train, back):
        assert got.id == orig.id
        assert got.src == orig.src and got.tgt == orig.tgt
        assert np.array_equal(got.image, orig.image)


def test_examples_jsonl_roundtrip_without_images(splits, tmp_path):
    path = tmp_path / "plain.jsonl"
    sc.write_examples(path, splits.pretrain_parallel)
    back = sc.read_examples(path)
    assert all(ex.image is None for ex in back)
    assert [ex.src for ex in back] == [ex.src for ex in splits.pretrain_parallel]


def test_contrastive_jsonl_roundtrip(splits, tmp_path):
    path = tmp_path / "contrastive.jsonl"
    sc.write_contrastive(path, splits.test_contrastive)
    back = sc.read_contrastive(path)
    for orig, got in zip(splits.test_contrastive, back):
        assert got.src == orig.src
        assert got.tgt_a == orig.tgt_a and got.tgt_b == orig.tgt_b
        assert np.array_equal(got.img_a, orig.img_a)
        assert np.array_equal(got.img_b, orig.img_b)


def test_malformed_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": 0, "src": [5], "tgt": [1, 5, 2]}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        sc.read_examples(path)
    path.write_text('{"id": 0, "src": [5]}\n')
    with pytest.raises(ValueError, match="line 1"):
        sc.read_examples(path)
    with pytest.raises(ValueError, match="line 1"):
        sc.read_contrastive(path)


@pytest.mark.parametrize("field,value,message", [
    ("src", [], "empty source sequence"),
    ("tgt", [5, 2], "target must be BOS-led and EOS-terminated"),
    ("tgt", [1, 5], "target must be BOS-led and EOS-terminated"),
    ("tgt", [1], "target must be BOS-led and EOS-terminated"),
    # no id, token or image value is cast; ``{key}`` is the field as each
    # reader names it
    ("id", "3", 'id must be int, got "3"'),
    ("id", 3.0, "id must be int, got 3.0"),
    ("src", [5.7, 6], "src[0] must be int, got 5.7"),
    ("src", [True], "src[0] must be int, got true"),
    ("src", "5", 'src must be list, got "5"'),
    ("tgt", [1, 8.9, 2], "{key}[1] must be int, got 8.9"),
    ("tgt", [1, True, 2], "{key}[1] must be int, got true"),
    ("img", ["1.5", True, 3, 4], '{key}[0] must be float, got "1.5"'),
    ("img", [1.5, True, 3, 4], "{key}[1] must be float, got true"),
    # Python's json reads NaN and Infinity; an image must not hold them
    ("img", [math.nan, math.inf, 0.0, 1.0],
     "{key}[0] must be a finite number, got NaN"),
    ("img", [0.0, math.inf], "{key}[1] must be a finite number, got Infinity"),
    ("img", [0.0, 1.0, -math.inf],
     "{key}[2] must be a finite number, got -Infinity"),
])
def test_jsonl_readers_reject_malformed_sequences(tmp_path, field, value,
                                                  message):
    # both readers name the file and line, with BatchExample.validate's
    # message or the mistyped value's key, for the source and for every
    # target and image
    path = tmp_path / "bad.jsonl"
    example = {"id": 0, "src": [5], "tgt": [1, 5, 2]}
    instance = {"id": 0, "src": [5], "img_a": [0.0, 1.0], "tgt_a": [1, 5, 2],
                "img_b": [1.0, 0.0], "tgt_b": [1, 6, 2]}
    cases = [(sc.read_examples, example, [field]),
             (sc.read_contrastive, instance,
              [field + s for s in ("_a", "_b")] if field in ("tgt", "img")
              else [field])]
    for read, good, keys in cases:
        for key in keys:
            bad = dict(good, **{key: value})
            path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
            with pytest.raises(ValueError) as err:
                read(path)
            assert str(err.value) == (f"{path}: malformed line 2: "
                                      + message.format(key=key))


def test_world_dict_roundtrip(world):
    back = sc.world_from_dict(json.loads(json.dumps(sc.world_to_dict(world))))
    assert back.spec == world.spec
    assert back.plain_src == world.plain_src
    assert back.plain_tgt == world.plain_tgt
    assert back.amb_src == world.amb_src
    assert back.amb_tgt == world.amb_tgt
    assert back.cue == world.cue
    assert back.vocab_used == world.vocab_used
    for key in world.centroids:
        assert back.centroids[key] == world.centroids[key]


def test_world_with_unknown_spec_key_fails_by_name(world):
    payload = sc.world_to_dict(world)
    payload["spec"]["caption_cue_rate"] = 0.5
    with pytest.raises(ValueError,
                       match=re.escape("world.spec: unknown keys "
                                       "['caption_cue_rate']")):
        sc.world_from_dict(payload)


def _bump_first_sense(payload):
    word = next(iter(payload["amb_tgt"]))
    payload["amb_tgt"][word][0] += 0.9


# (edit of world_to_dict's payload, message)
MALFORMED_WORLDS = {
    "image_dim_string": (lambda w: w["spec"].update(image_dim="16"),
                         'world.spec.image_dim must be int, got "16"'),
    "negative_separation": (
        lambda w: w["spec"].update(sense_cluster_separation=-1.0),
        "world.spec: sense_cluster_separation must be finite and positive"),
    "spec_without_seed": (lambda w: w["spec"].pop("seed"),
                          "world.spec without ['seed']"),
    "float_sense_id": (_bump_first_sense,
                       "world.amb_tgt is not the one world.spec generates"),
}


@pytest.mark.parametrize("name", MALFORMED_WORLDS)
def test_world_with_malformed_spec_or_lexicon_fails_by_key(world, name):
    # a string image_dim, a spec WorldSpec.validate rejects, a spec without
    # its seed (which must not fall back to 0) and an id 7.9 (which must not
    # read as 7)
    edit, message = MALFORMED_WORLDS[name]
    payload = json.loads(json.dumps(sc.world_to_dict(world)))
    edit(payload)
    with pytest.raises(ValueError) as err:
        sc.world_from_dict(payload)
    assert str(err.value) == message
