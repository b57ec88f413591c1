"""Model structure: parameter bookkeeping, pass-through initialization,
attention masking, source masking, and the checkpoint format."""

import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from zerommt import model as m
from zerommt.autodiff import Tensor


def _example(params, src=(5, 6, 7), image=True):
    rng = np.random.default_rng(0)
    img = rng.standard_normal(params.config.image_dim) if image else None
    return list(src), img


def _encode_with_sink(params, src, img):
    """``encode``'s batch-1 forward, with the encoder's attention kept."""
    sink = {}
    ids, valid = m.pad_batch([src])
    enc = m.encode_batch(params, ids, valid, None if img is None else img[None],
                         attn_sink=sink)
    return enc, sink


# ---------------------------------------------------------------------------
# configuration and parameter store


def test_config_validation_errors():
    with pytest.raises(ValueError):
        m.ModelConfig(vocab_size=4).validate()
    with pytest.raises(ValueError):
        m.ModelConfig(d_model=10, n_heads=4).validate()
    with pytest.raises(ValueError):
        m.ModelConfig(d_model=8, n_heads=2, adapter_reduction=16).validate()
    with pytest.raises(ValueError):
        m.ModelConfig(n_layers_enc=0).validate()


def test_default_trainable_scalar_count():
    # 10 adapters x (64*8 + 8 + 8*64 + 64) + projector (16*64 + 64) = 12048
    params = m.build_model(m.ModelConfig(), seed=0)
    assert sum(t.data.size for t in params.tensors.values()
               if t.requires_grad) == 12048


def test_freeze_partitions_trainables(tiny_params):
    names = set(tiny_params.tensors)
    trainable = set(tiny_params.trainable_names())
    assert trainable == set(tiny_params.extra_names())
    assert trainable.isdisjoint(tiny_params.base_names())
    assert set(tiny_params.base_names()) | trainable == names


def test_adapter_up_projections_start_at_zero(tiny_params):
    for name in tiny_params.extra_names():
        if name.endswith(("up_w", "up_b")):
            assert np.all(tiny_params.tensors[name].data == 0.0)
    assert np.any(tiny_params.tensors["proj.w"].data != 0.0)


def test_build_model_deterministic(tiny_config):
    a = m.build_model(tiny_config, seed=3)
    b = m.build_model(dataclasses.replace(tiny_config), seed=3)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name].data, b.tensors[name].data)


def test_reinit_extras_is_deterministic_and_restores_passthrough(tiny_config):
    a = m.build_model(tiny_config, seed=0)
    b = m.build_model(tiny_config, seed=0)
    m.randomize_extras(a, seed=4)
    m.randomize_extras(b, seed=8)
    m.reinit_extras(a, seed=5)
    m.reinit_extras(b, seed=5)
    for name in a.extra_names():
        assert np.array_equal(a.tensors[name].data, b.tensors[name].data), name
        if name.endswith(("up_w", "up_b")):
            assert np.all(a.tensors[name].data == 0.0), name


def test_copy_load_extras_roundtrip(tiny_params):
    snap = tiny_params.copy_extras()
    m.randomize_extras(tiny_params, seed=9)
    tiny_params.load_extras(snap)
    for name, arr in snap.items():
        assert np.array_equal(tiny_params.tensors[name].data, arr)


# ---------------------------------------------------------------------------
# forward-pass behavior


def test_fresh_extras_are_exact_passthrough(tiny_params):
    """Zero adapter up-projections: every fresh adapter returns its input
    bit for bit, so a decoder that runs the extras on a base encoding is
    the base decoder."""
    d = tiny_params.config.d_model
    x = Tensor(np.random.default_rng(3).standard_normal((2, 3, d)))
    adapters = [n[: -len(".down_w")] for n in tiny_params.extra_names()
                if n.endswith(".down_w")]
    assert len(adapters) == 2 * tiny_params.config.n_layers_enc \
        + 3 * tiny_params.config.n_layers_dec
    for prefix in adapters:
        assert m._adapter(tiny_params, prefix, x).data.tobytes() \
            == x.data.tobytes(), prefix

    src, _ = _example(tiny_params, image=False)
    enc_base = m.encode(src, None, tiny_params)
    assert enc_base.extras is False
    marked = dataclasses.replace(enc_base, extras=True)
    ids = np.array([[m.BOS, 5, 9]])
    valid = np.ones_like(ids, dtype=bool)
    base = m.decoder_logits(tiny_params, enc_base, ids, valid)
    on = m.decoder_logits(tiny_params, marked, ids, valid)
    assert on.data.tobytes() == base.data.tobytes()


def test_visual_token_changes_encoder_output(tiny_params):
    m.randomize_extras(tiny_params, seed=1)
    src, img = _example(tiny_params)
    with_img, with_sink = _encode_with_sink(tiny_params, src, img)
    without, without_sink = _encode_with_sink(tiny_params, src, None)
    assert with_img.states.shape == (1, len(src) + 1, tiny_params.config.d_model)
    assert without.states.shape == (1, len(src), tiny_params.config.d_model)
    # every position attends to the visual token (column 0)
    assert sorted(with_sink) == [f"enc{l}.attn" for l in
                                 range(tiny_params.config.n_layers_enc)]
    for name, probs in with_sink.items():
        assert probs.shape[-1] == len(src) + 1, name
        assert np.all(probs[..., 0] > 0.0), name
        assert without_sink[name].shape[-1] == len(src), name


def test_cross_attention_never_sees_visual_position(tiny_params):
    m.randomize_extras(tiny_params, seed=2)
    src, img = _example(tiny_params)
    enc, enc_sink = _encode_with_sink(tiny_params, src, img)
    assert enc.states.shape[1] == len(src) + 1
    assert not enc.text_valid[0, 0]
    # the encoder's own attention does read the visual position
    assert all(np.all(probs[..., 0] > 0.0) for probs in enc_sink.values())
    sink = {}
    m.decode_step(enc, [[m.BOS, 5, 6]], tiny_params, attn_sink=sink)
    cross = [sink[k] for k in sink if ".cross" in k]
    assert cross
    for probs in cross:
        assert np.all(probs[..., 0] == 0.0)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_decoder_self_attention_is_causal(tiny_params):
    src, img = _example(tiny_params)
    sink = {}
    enc = m.encode(src, img, tiny_params)
    m.decode_step(enc, [[m.BOS, 5, 6, 7]], tiny_params, attn_sink=sink)
    self_probs = [sink[k] for k in sink if ".self" in k]
    assert self_probs
    for probs in self_probs:
        t = probs.shape[-1]
        upper = np.triu_indices(t, k=1)
        assert np.all(probs[0, :, upper[0], upper[1]] == 0.0)


def test_encode_input_validation(tiny_params):
    with pytest.raises(ValueError):
        m.encode([], None, tiny_params)
    with pytest.raises(ValueError):
        m.encode([tiny_params.config.vocab_size], None, tiny_params)
    too_long = [5] * (tiny_params.config.max_len + 1)
    with pytest.raises(ValueError):
        m.encode(too_long, None, tiny_params)


def test_decode_step_requires_bos(tiny_params):
    enc = m.encode([5, 6], None, tiny_params)
    with pytest.raises(ValueError, match="BOS"):
        m.decode_step(enc, [[5, 6]], tiny_params)


def test_decode_step_rejects_bad_prefix_batches(tiny_params):
    enc = m.encode([5, 6], None, tiny_params)
    with pytest.raises(ValueError, match="at least one prefix"):
        m.decode_step(enc, [], tiny_params)
    with pytest.raises(ValueError, match="equal length"):
        m.decode_step(enc, [[m.BOS, 5], [m.BOS]], tiny_params)
    with pytest.raises(ValueError, match="BOS"):
        m.decode_step(enc, [[m.BOS, 5], [6, 5]], tiny_params)
    ids, valid = m.pad_batch([[5, 6], [7, 8]])
    two = m.encode_batch(tiny_params, ids, valid, None)
    with pytest.raises(ValueError, match="encoder batch 2 != 1"):
        m.decode_step(two, [[m.BOS, 5], [m.BOS, 6]], tiny_params)


def test_decode_step_returns_distribution(tiny_params):
    enc = m.encode([5, 6], None, tiny_params)
    probs = m.decode_step(enc, [[m.BOS]], tiny_params)
    assert probs.shape == (1, tiny_params.config.vocab_size)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs >= 0.0)


@pytest.mark.parametrize("image", [True, False])
def test_decode_step_rows_equal_one_prefix_calls(tiny_params, image):
    """Equal-length prefixes share a call, and the one batch-1 encoding,
    without padding: every row, and every attention row in the sink, is the
    one-prefix call's to the bit."""
    m.randomize_extras(tiny_params, seed=11)
    src, img = _example(tiny_params, image=image)
    enc = m.encode(src, img, tiny_params)
    prefixes = [[m.BOS, 5, 6], [m.BOS, 9, 4], [m.BOS, 5, 6], [m.BOS, 2, 15]]
    sink = {}
    rows = m.decode_step(enc, prefixes, tiny_params, attn_sink=sink)
    assert rows.shape == (4, tiny_params.config.vocab_size)
    heads = tiny_params.config.n_heads
    keys = len(src) + int(image)
    assert sink["dec0.self"].shape == (4, heads, 3, 3)
    assert sink["dec0.cross"].shape == (4, heads, 3, keys)
    for k, prefix in enumerate(prefixes):
        one_sink = {}
        one = m.decode_step(enc, [prefix], tiny_params, attn_sink=one_sink)
        assert rows[k].tobytes() == one[0].tobytes()
        for name, probs in one_sink.items():
            assert sink[name][k].tobytes() == probs[0].tobytes(), name


def test_project_image_checks_dimension(tiny_params):
    with pytest.raises(ValueError):
        m.project_image(np.zeros(tiny_params.config.image_dim + 1), tiny_params)


# ---------------------------------------------------------------------------
# source masking


def test_apply_source_mask_count_rounds_half_up():
    rng = np.random.default_rng(0)
    for n, rate, want in [(4, 0.25, 1), (6, 0.25, 2), (5, 0.5, 3), (3, 0.1, 1)]:
        chosen = m.apply_source_mask(list(range(10, 10 + n)), rate, rng)
        assert len(chosen) == want, (n, rate)
        assert list(chosen) == sorted(set(chosen))
        assert all(0 <= j < n for j in chosen)


def test_apply_source_mask_edge_rates():
    rng = np.random.default_rng(1)
    src = [5, 6, 7, 8]
    assert m.apply_source_mask(src, 0.0, rng) == ()
    assert m.apply_source_mask(src, 1.0, rng) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        m.apply_source_mask(src, 1.5, rng)


def test_apply_source_mask_deterministic_in_rng():
    a = m.apply_source_mask([5, 6, 7, 8, 9], 0.4, np.random.default_rng(7))
    b = m.apply_source_mask([5, 6, 7, 8, 9], 0.4, np.random.default_rng(7))
    assert a == b


# ---------------------------------------------------------------------------
# checkpoint format


def test_checkpoint_roundtrip_bit_exact(tiny_params, tmp_path):
    m.randomize_extras(tiny_params, seed=4)
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(path, tiny_params, meta={"stage": "test"})
    loaded, meta = m.load_checkpoint(path)
    assert meta == {"stage": "test"}
    assert loaded.config == tiny_params.config
    assert set(loaded.tensors) == set(tiny_params.tensors)
    for name, t in tiny_params.tensors.items():
        assert np.array_equal(loaded.tensors[name].data, t.data), name
        assert loaded.tensors[name].requires_grad == t.requires_grad
        assert loaded.is_extra[name] == tiny_params.is_extra[name]


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        m.load_checkpoint(path)


def _with_header(edit):
    """A corruption that rewrites the header's bytes with ``edit``."""
    def corrupt(raw: bytes) -> bytes:
        version, hlen = struct.unpack("<II", raw[4:12])
        blob = edit(raw[12:12 + hlen])
        return (raw[:4] + struct.pack("<II", version, len(blob)) + blob
                + raw[12 + hlen:])

    return corrupt


def _with_json_header(edit):
    """A corruption that edits the header's JSON object in place."""
    def rewrite(blob: bytes) -> bytes:
        header = json.loads(blob)
        edit(header)
        return json.dumps(header).encode("utf-8")

    return _with_header(rewrite)


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: raw[:10], "file ends inside the header"),
    (lambda raw: raw[:-4], "file ends inside tensor 'proj.b'"),
    (lambda raw: raw + b"\x00", "trailing bytes after the last tensor"),
    (_with_json_header(
        lambda h: h["config"].update(visual_positional_encoding=False)),
     "config: unknown keys ['visual_positional_encoding']"),
    (lambda raw: raw[:-4] + bytes([raw[-4] ^ 1]) + raw[-3:],
     "payload sha256 mismatch"),
    (lambda raw: raw[:4] + struct.pack("<I", 1) + raw[8:],
     "unsupported checkpoint version 1"),
    (_with_header(lambda blob: b"{" + blob[2:]), "header is not JSON"),
    (_with_json_header(lambda h: h.pop("tensors")),
     "header without ['tensors']"),
    (_with_json_header(lambda h: h["config"].update(n_heads=3, d_model=8)),
     "invalid model config: d_model 8 not divisible by n_heads 3"),
    (_with_json_header(lambda h: h["tensors"][2].pop("frozen")),
     "tensor entry 2 without ['frozen']"),
    (_with_json_header(lambda h: h["config"].update(max_len="12")),
     'config.max_len must be int, got "12"'),
    (_with_json_header(lambda h: h["tensors"][3].update(name="enc0.ln1.g")),
     'tensor entry 3: name "enc0.ln1.g" where the layout has "enc0.ln1.b"'),
    (_with_json_header(lambda h: h["tensors"][1].update(shape=[11.0, 8])),
     "tensor entry 1: shape [11.0, 8] where the layout has [11, 8]"),
    (_with_json_header(lambda h: h["tensors"][1].update(shape=[-2, -32])),
     "tensor entry 1: shape [-2, -32] where the layout has [11, 8]"),
    (_with_json_header(lambda h: h["tensors"][2].update(frozen="no")),
     'tensor entry 2.frozen must be bool, got "no"'),
    (_with_json_header(lambda h: h["tensors"][2].update(extra="yes")),
     'tensor entry 2: extra "yes" where the layout has false'),
    (_with_json_header(lambda h: h["tensors"].pop()),
     "tensor entries, the layout has"),
    (_with_json_header(lambda h: h["config"].pop("max_len")),
     "config without ['max_len']"),
], ids=["cut_header", "cut_payload", "trailing_bytes", "unknown_config_key",
        "flipped_payload_byte", "version_without_digest", "header_not_json",
        "header_without_tensors", "invalid_config", "tensor_entry_without_key",
        "config_value_of_wrong_type", "duplicated_tensor_name", "float_shape",
        "negative_shape", "frozen_not_bool", "extra_not_bool",
        "tensor_entry_dropped", "config_without_key"])
def test_checkpoint_rejects_malformed_file(tiny_params, tmp_path, corrupt,
                                           message):
    path = tmp_path / "model.ckpt"
    m.save_checkpoint(path, tiny_params)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        m.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_base_bytes_tracks_only_base(tiny_params):
    before = tiny_params.base_bytes()
    m.randomize_extras(tiny_params, seed=6)
    assert tiny_params.base_bytes() == before
    tiny_params.tensors["embed"].data = tiny_params.tensors["embed"].data + 1.0
    assert tiny_params.base_bytes() != before
