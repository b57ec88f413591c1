"""Toy multimodal translation transformer.

A small pre-LN encoder-decoder over a shared vocabulary. The frozen text
path is augmented with three kinds of trainable extras: bottleneck adapters
after every attention and feed-forward sublayer, a one-layer ReLU visual
projector, and a single projected image token prepended to the encoder
input. Decoder cross-attention is masked so it can only look at text
positions, never the visual one.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Sequence
from dataclasses import dataclass, asdict, fields, is_dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD, BOS, EOS, MASK = 0, 1, 2, 3
SPECIAL_TOKENS = {"pad": PAD, "bos": BOS, "eos": EOS, "mask": MASK}

# the one message for a multimodal pass given a sequence without an image
IMAGE_REQUIRED = "every sequence needs an image with the extras on"

CHECKPOINT_MAGIC = b"ZMMT"
CHECKPOINT_VERSION = 2


@dataclass
class ModelConfig:
    vocab_size: int = 64
    d_model: int = 64
    n_heads: int = 4
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    d_ffn: int = 128
    image_dim: int = 16
    adapter_reduction: int = 8
    max_len: int = 24

    def validate(self) -> None:
        if self.vocab_size <= len(SPECIAL_TOKENS):
            raise ValueError(f"vocab_size {self.vocab_size} too small")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.d_model // self.adapter_reduction < 1:
            raise ValueError(
                f"adapter bottleneck would be empty: d_model {self.d_model} "
                f"/ reduction {self.adapter_reduction}"
            )
        for name in ("n_layers_enc", "n_layers_dec", "d_ffn", "image_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def adapter_dim(self) -> int:
        return self.d_model // self.adapter_reduction


@dataclass
class ModelParams:
    """Named parameter store split into frozen base and trainable extras."""

    config: ModelConfig
    tensors: dict[str, Tensor]
    is_extra: dict[str, bool]

    def base_names(self) -> list[str]:
        return [n for n in self.tensors if not self.is_extra[n]]

    def extra_names(self) -> list[str]:
        return [n for n in self.tensors if self.is_extra[n]]

    def freeze_base(self) -> None:
        for n, t in self.tensors.items():
            t.requires_grad = self.is_extra[n]

    def unfreeze_base(self) -> None:
        for n, t in self.tensors.items():
            if not self.is_extra[n]:
                t.requires_grad = True

    def trainable_names(self) -> list[str]:
        return [n for n, t in self.tensors.items() if t.requires_grad]

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def base_bytes(self) -> bytes:
        return b"".join(
            self.tensors[n].data.astype("<f8").tobytes() for n in self.base_names()
        )

    def copy_extras(self) -> dict[str, np.ndarray]:
        return {n: self.tensors[n].data.copy() for n in self.extra_names()}

    def load_extras(self, snapshot: dict[str, np.ndarray]) -> None:
        for n, arr in snapshot.items():
            self.tensors[n].data = arr.copy()


@dataclass
class EncoderStates:
    """Encoder output (B, S, d_model), the (B, S) mask of what decoder
    cross-attention may read (the real text positions, never the visual
    one or padding) and whether the extras ran: the decoder runs the model
    that made the encoding. A batch-1 encoding serves any number of decoder
    rows, since cross-attention broadcasts it over them."""

    states: Tensor
    text_valid: np.ndarray
    extras: bool


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _init_extra(name: str, shape, config: ModelConfig,
                rng: np.random.Generator) -> np.ndarray:
    """The one init policy of the extras. Adapter down-projections and the
    visual projector weight get scaled uniform noise (the projector's not
    zero: a zero ReLU pre-activation would never receive gradient under the
    subgradient-0 convention); every other extra starts at zero, so fresh
    adapters are an exact pass-through."""
    if name.endswith(".down_w"):
        return _uniform(rng, shape, config.d_model)
    if name == "proj.w":
        return _uniform(rng, shape, config.image_dim)
    return np.zeros(shape)


def build_model(config: ModelConfig, seed: int) -> ModelParams:
    """Initialize all parameters, deterministically in ``seed``: base
    weights get scaled uniform noise, the extras ``_init_extra``'s, drawn
    from the same generator in parameter order."""
    config.validate()
    rng = np.random.default_rng(seed)
    d, v, f, r = config.d_model, config.vocab_size, config.d_ffn, config.adapter_dim
    tensors: dict[str, Tensor] = {}
    is_extra: dict[str, bool] = {}

    def base(name: str, arr: np.ndarray) -> None:
        tensors[name] = Tensor(arr)
        is_extra[name] = False

    def extra(name: str, shape) -> None:
        tensors[name] = Tensor(_init_extra(name, shape, config, rng),
                               requires_grad=True)
        is_extra[name] = True

    base("embed", _uniform(rng, (v, d), d))
    # one row more than any text position uses: the shape fixes the init
    # stream, so every later tensor (and the base bytes) depends on it
    base("pos_embed", _uniform(rng, (config.max_len + 1, d), d))

    def attn(prefix: str) -> None:
        for w in ("q", "k", "v", "o"):
            base(f"{prefix}.w{w}", _uniform(rng, (d, d), d))
            base(f"{prefix}.b{w}", np.zeros(d))

    def ln(prefix: str) -> None:
        base(f"{prefix}.g", np.ones(d))
        base(f"{prefix}.b", np.zeros(d))

    def ffn(prefix: str) -> None:
        base(f"{prefix}.w1", _uniform(rng, (d, f), d))
        base(f"{prefix}.b1", np.zeros(f))
        base(f"{prefix}.w2", _uniform(rng, (f, d), f))
        base(f"{prefix}.b2", np.zeros(d))

    def adapter(prefix: str) -> None:
        extra(f"{prefix}.down_w", (d, r))
        extra(f"{prefix}.down_b", (r,))
        extra(f"{prefix}.up_w", (r, d))
        extra(f"{prefix}.up_b", (d,))

    for l in range(config.n_layers_enc):
        ln(f"enc{l}.ln1")
        attn(f"enc{l}.attn")
        adapter(f"enc{l}.attn_adapter")
        ln(f"enc{l}.ln2")
        ffn(f"enc{l}.ffn")
        adapter(f"enc{l}.ffn_adapter")
    ln("enc_ln")

    for l in range(config.n_layers_dec):
        ln(f"dec{l}.ln1")
        attn(f"dec{l}.self")
        adapter(f"dec{l}.self_adapter")
        ln(f"dec{l}.ln2")
        attn(f"dec{l}.cross")
        adapter(f"dec{l}.cross_adapter")
        ln(f"dec{l}.ln3")
        ffn(f"dec{l}.ffn")
        adapter(f"dec{l}.ffn_adapter")
    ln("dec_ln")

    base("head_w", _uniform(rng, (d, v), d))
    base("head_b", np.zeros(v))

    extra("proj.w", (config.image_dim, d))
    extra("proj.b", (d,))

    params = ModelParams(config=config, tensors=tensors, is_extra=is_extra)
    params.freeze_base()
    return params


def reinit_extras(params: ModelParams, seed: int) -> None:
    """Redraw the extras by ``build_model``'s policy (``_init_extra``), in
    its order, from a fresh generator seeded with ``seed``. The noise is
    not ``build_model``'s at that seed, whose generator draws the base
    weights first."""
    rng = np.random.default_rng(seed)
    for name in params.extra_names():
        t = params.tensors[name]
        t.data = _init_extra(name, t.data.shape, params.config, rng)


def randomize_extras(params: ModelParams, seed: int, scale: float = 0.05) -> None:
    """Give every extra small nonzero values (for gradient checking)."""
    rng = np.random.default_rng(seed)
    for name in params.extra_names():
        t = params.tensors[name]
        t.data = rng.uniform(-scale, scale, size=t.data.shape)


# ---------------------------------------------------------------------------
# forward passes (batched; the single-source API below wraps them)


def pad_batch(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad token sequences with PAD: ids (B, S) and the (B, S) mask
    of real positions."""
    if not seqs or any(len(s) == 0 for s in seqs):
        raise ValueError("empty batch or empty sequence in batch")
    ids = np.full((len(seqs), max(len(s) for s in seqs)), PAD, dtype=np.int64)
    valid = np.zeros(ids.shape, dtype=bool)
    for b, s in enumerate(seqs):
        ids[b, : len(s)] = s
        valid[b, : len(s)] = True
    return ids, valid


def _additive_mask(valid: np.ndarray) -> np.ndarray:
    # (B, Sk) bool -> (B, 1, 1, Sk) additive, -inf on masked keys
    m = np.where(valid, 0.0, -np.inf)
    return m[:, None, None, :]


def _causal_mask(t: int) -> np.ndarray:
    m = np.triu(np.full((t, t), -np.inf), k=1)
    return m[None, None, :, :]


def _multi_head_attention(params: ModelParams, prefix: str, x_q: Tensor,
                          x_kv: Tensor, mask: np.ndarray,
                          attn_sink: dict | None = None) -> Tensor:
    """One attention sublayer: q, k and v projections, ``ad.attention``
    under the additive ``mask``, and the output projection. A batch-1
    ``x_kv`` broadcasts over the rows of ``x_q``."""
    p = params.tensors
    q = ad.linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k = ad.linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
    v = ad.linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
    out, probs = ad.attention(q, k, v, mask, params.config.n_heads)
    if attn_sink is not None:
        attn_sink[prefix] = probs
    return ad.linear(out, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _adapter(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    p = params.tensors
    return ad.add(x, ad.mlp(x, p[f"{prefix}.down_w"], p[f"{prefix}.down_b"],
                            p[f"{prefix}.up_w"], p[f"{prefix}.up_b"]))


def _ffn(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    p = params.tensors
    return ad.mlp(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"],
                  p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def _ln(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    p = params.tensors
    return ad.layer_norm(x, p[f"{prefix}.g"], p[f"{prefix}.b"])


def project_image(images: np.ndarray, params: ModelParams) -> Tensor:
    """ReLU(W i + b): (B, image_dim) image vectors to (B, d_model)."""
    images = np.asarray(images, dtype=np.float64)
    cfg = params.config
    if images.shape[-1] != cfg.image_dim:
        raise ValueError(
            f"image vector length {images.shape[-1]} != image_dim {cfg.image_dim}"
        )
    return ad.relu(ad.linear(Tensor(images), params.tensors["proj.w"],
                             params.tensors["proj.b"]))


def encode_batch(
    params: ModelParams,
    src_ids: np.ndarray,
    src_valid: np.ndarray,
    images: np.ndarray | None,
    attn_sink: dict | None = None,
) -> EncoderStates:
    """Encode a padded batch. ``images`` (B, image_dim) adds the visual
    token and runs the extras; None runs the frozen text-only base."""
    cfg = params.config
    p = params.tensors
    b, s = src_ids.shape
    if s > cfg.max_len:
        raise ValueError(f"source length {s} exceeds max_len {cfg.max_len}")

    x = ad.embedding(p["embed"], src_ids)
    x = ad.add(x, ad.embedding(p["pos_embed"], np.arange(s)))
    text_valid = src_valid
    self_valid = src_valid
    extras = images is not None
    if extras:
        # the visual token gets no positional encoding
        vis = ad.reshape(project_image(images, params), (b, 1, cfg.d_model))
        x = ad.concat([vis, x], axis=1)
        col_true = np.ones((b, 1), dtype=bool)
        col_false = np.zeros((b, 1), dtype=bool)
        self_valid = np.concatenate([col_true, src_valid], axis=1)
        text_valid = np.concatenate([col_false, src_valid], axis=1)

    self_mask = _additive_mask(self_valid)
    for l in range(cfg.n_layers_enc):
        normed = _ln(params, f"enc{l}.ln1", x)
        h = _multi_head_attention(
            params, f"enc{l}.attn", normed, normed, self_mask,
            attn_sink=attn_sink,
        )
        if extras:
            h = _adapter(params, f"enc{l}.attn_adapter", h)
        x = ad.add(x, h)
        h = _ffn(params, f"enc{l}.ffn", _ln(params, f"enc{l}.ln2", x))
        if extras:
            h = _adapter(params, f"enc{l}.ffn_adapter", h)
        x = ad.add(x, h)
    x = _ln(params, "enc_ln", x)
    return EncoderStates(states=x, text_valid=text_valid, extras=extras)


def decoder_logits(
    params: ModelParams,
    enc: EncoderStates,
    tgt_in: np.ndarray,
    tgt_valid: np.ndarray,
    attn_sink: dict | None = None,
) -> Tensor:
    """Teacher-forced decoder pass: logits (B, T, V) for every position,
    with the extras on exactly where they made ``enc``."""
    cfg = params.config
    p = params.tensors
    b, t = tgt_in.shape
    if t > cfg.max_len:
        raise ValueError(f"target length {t} exceeds max_len {cfg.max_len}")

    y = ad.embedding(p["embed"], tgt_in)
    y = ad.add(y, ad.embedding(p["pos_embed"], np.arange(t)))
    self_mask = _additive_mask(tgt_valid) + _causal_mask(t)
    cross_mask = _additive_mask(enc.text_valid)
    for l in range(cfg.n_layers_dec):
        normed = _ln(params, f"dec{l}.ln1", y)
        h = _multi_head_attention(
            params, f"dec{l}.self", normed, normed, self_mask,
            attn_sink=attn_sink,
        )
        if enc.extras:
            h = _adapter(params, f"dec{l}.self_adapter", h)
        y = ad.add(y, h)
        h = _multi_head_attention(
            params, f"dec{l}.cross", _ln(params, f"dec{l}.ln2", y),
            enc.states, cross_mask, attn_sink=attn_sink,
        )
        if enc.extras:
            h = _adapter(params, f"dec{l}.cross_adapter", h)
        y = ad.add(y, h)
        h = _ffn(params, f"dec{l}.ffn", _ln(params, f"dec{l}.ln3", y))
        if enc.extras:
            h = _adapter(params, f"dec{l}.ffn_adapter", h)
        y = ad.add(y, h)
    y = _ln(params, "dec_ln", y)
    return ad.linear(y, p["head_w"], p["head_b"])


def _float_images(images) -> list[np.ndarray] | None:
    """``images`` as float64 arrays, or None for None (the text-only base);
    a list missing one raises ``IMAGE_REQUIRED``."""
    if images is None:
        return None
    if any(i is None for i in images):
        raise ValueError(IMAGE_REQUIRED)
    return [np.asarray(i, dtype=np.float64) for i in images]


def _padded_batch(srcs, images, tgts):
    """The arrays of a teacher-forced forward: ``srcs`` padded with their
    mask, the images stacked as float64 (``_float_images``) and the BOS-led
    ``tgts`` but their last tokens, padded with their mask."""
    floats = _float_images(images)
    src_ids, src_valid = pad_batch(srcs)
    tgt_in, tgt_valid = pad_batch([t[:-1] for t in tgts])
    stacked = None if floats is None else np.stack(floats)
    return src_ids, src_valid, stacked, tgt_in, tgt_valid


def teacher_forced_logits(params: ModelParams, srcs, images, tgts) -> Tensor:
    """The one teacher-forced forward of a (source, image, target) batch:
    logits (B, T, V) after each BOS-led target's tokens but its last, with
    sources and targets right-padded. ``images`` None runs the text-only
    base."""
    src_ids, src_valid, stacked, tgt_in, tgt_valid = _padded_batch(
        srcs, images, tgts)
    enc = encode_batch(params, src_ids, src_valid, stacked)
    return decoder_logits(params, enc, tgt_in, tgt_valid)


def teacher_forced_rows(params: ModelParams, srcs, images, tgts,
                        normalize) -> list[np.ndarray]:
    """``normalize`` (``ad.softmax`` or ``ad.log_softmax``) of the
    teacher-forced logits, tape-free: one (len(tgt) - 1, V) array per
    sequence, in input order.

    One forward per (source length, target length) leaves no padding. It
    encodes each distinct encoder input of the bucket once (the source,
    plus its image's bytes where images are given) and every target reads
    its input's states by index. numpy computes each batch item apart, so
    the rows equal the unshared forward of the bucket bit for bit, except
    that a bucket of one distinct image projects it as a one-row product.
    With ``images`` None (the text-only base), each distinct (source,
    target) is decoded once and matches its forward alone bit for bit."""
    floats = _float_images(images)
    inputs = [tuple(x) if floats is None else (tuple(x), floats[k].tobytes())
              for k, x in enumerate(srcs)]
    keys = [(inputs[k], tuple(y)) if floats is None else k
            for k, y in enumerate(tgts)]
    # (source length, target length) -> {key: index of its first sequence}
    buckets: dict[tuple[int, int], dict] = {}
    for k, key in enumerate(keys):
        buckets.setdefault((len(srcs[k]), len(tgts[k])), {}).setdefault(key, k)
    rows = {}
    with ad.no_grad():
        for firsts in buckets.values():
            seqs = list(firsts.values())
            # encoder input -> (its row in the encoding, its first sequence)
            encoded: dict = {}
            reads = [encoded.setdefault(inputs[k], (len(encoded), k))[0]
                     for k in seqs]
            firsts_in = [k for _, k in encoded.values()]
            src_ids, src_valid, stacked, tgt_in, tgt_valid = _padded_batch(
                [srcs[k] for k in firsts_in],
                None if floats is None else [floats[k] for k in firsts_in],
                [tgts[k] for k in seqs])
            states = encode_batch(params, src_ids, src_valid, stacked)
            # target b reads its input's encoding, gathered off the tape
            shared = EncoderStates(Tensor(states.states.data[reads]),
                                   states.text_valid[reads], states.extras)
            logits = decoder_logits(params, shared, tgt_in, tgt_valid)
            rows.update(zip(firsts, normalize(logits, axis=-1).data))
    return [rows[key] for key in keys]


# ---------------------------------------------------------------------------
# single-source API: one source encoded at batch 1, its prefixes decoded
# as one batch


def encode(
    x: list[int],
    i: np.ndarray | None,
    params: ModelParams,
) -> EncoderStates:
    ids, valid = pad_batch([x])
    images = None if i is None else np.asarray([i], dtype=np.float64)
    return encode_batch(params, ids, valid, images)


def decode_step(
    enc: EncoderStates,
    prefixes: Sequence[Sequence[int]],
    params: ModelParams,
    attn_sink: dict | None = None,
) -> np.ndarray:
    """Next-token probabilities (n, V), one row per prefix, for n BOS-led
    prefixes of equal length in one ``decoder_logits`` call.

    ``enc`` is the source's one batch-1 encoding (``encode``), which
    cross-attention broadcasts over the n prefixes. Equal lengths leave no
    padding, so each row is bit-identical to a call with its prefix alone.
    """
    if len(prefixes) == 0:
        raise ValueError("decode_step needs at least one prefix")
    if any(len(p) != len(prefixes[0]) for p in prefixes):
        raise ValueError("prefixes must have equal length")
    if any(len(p) == 0 or p[0] != BOS for p in prefixes):
        raise ValueError("prefix must begin with BOS")
    if len(prefixes[0]) > params.config.max_len:
        raise ValueError(
            f"prefix length {len(prefixes[0])} exceeds max_len "
            f"{params.config.max_len}"
        )
    if enc.states.shape[0] != 1:
        raise ValueError(f"decode_step reads one source: encoder batch "
                         f"{enc.states.shape[0]} != 1")
    ids = np.asarray(prefixes, dtype=np.int64)
    valid = np.ones_like(ids, dtype=bool)
    logits = decoder_logits(params, enc, ids, valid, attn_sink=attn_sink)
    return ad.softmax(logits, axis=-1).data[:, -1]


def apply_source_mask(
    x: list[int], mask_rate: float, rng: np.random.Generator
) -> tuple[int, ...]:
    """The sorted positions of ``x`` to mask: round(mask_rate * n) of them
    (min 1 for positive rates), uniformly without replacement."""
    if not 0.0 <= mask_rate <= 1.0:
        raise ValueError(f"mask_rate {mask_rate} outside [0, 1]")
    n = len(x)
    count = int(np.floor(mask_rate * n + 0.5))
    if mask_rate > 0.0 and count == 0:
        count = 1
    if count == 0:
        return ()
    picks = rng.choice(n, size=count, replace=False)
    return tuple(sorted(int(j) for j in picks))


# ---------------------------------------------------------------------------
# reading JSON: one type rule for every file the program reads


def json_value(want: type, value, where: str):
    """``value`` if the JSON value has the type ``want`` (an int may stand
    for a float; a bool is no number), else ValueError naming ``where``."""
    if type(value) is not want and (want, type(value)) != (float, int):
        raise ValueError(f"{where} must be {want.__name__}, got "
                         f"{json.dumps(value)}")
    return value


def json_list(want: type, value, where: str) -> list:
    """``value`` if it is a JSON list of ``want`` values (``json_value``),
    else ValueError naming ``where`` and the first bad item."""
    json_value(list, value, where)
    if not set(map(type, value)) <= {want}:
        for k, item in enumerate(value):
            json_value(want, item, f"{where}[{k}]")
    return value


def _require_keys(obj, keys: Sequence[str], what: str) -> None:
    """Raise ValueError if ``obj`` is not a JSON object with all ``keys``."""
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise ValueError(f"{what} without {missing}")


def from_json(cls, obj, where: str, partial: bool = False):
    """The dataclass ``cls`` read from the JSON object ``obj`` at ``where``.
    Unknown keys fail, and each value must have its default's type
    (``json_value``); a field whose default is a dataclass is read the same
    way. A missing key keeps its default if ``partial``, else fails."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {json.dumps(obj)}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    if not partial:
        _require_keys(obj, names, where)
    defaults = cls()
    kwargs = {}
    for key, value in obj.items():
        default, at = getattr(defaults, key), f"{where}.{key}"
        kwargs[key] = (from_json(type(default), value, at, partial)
                       if is_dataclass(default)
                       else json_value(type(default), value, at))
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, JSON header, raw little-endian float64;
# the header holds the sha256 of that payload


def save_checkpoint(path, params: ModelParams, meta: dict | None = None) -> None:
    names = list(params.tensors)
    # the payload in file order, hashed and written without a joined copy
    payload = [np.ascontiguousarray(params.tensors[n].data, dtype="<f8")
               for n in names]
    digest = hashlib.sha256()
    for arr in payload:
        digest.update(arr)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "meta": meta or {},
        "tensors": [
            {
                "name": n,
                "shape": list(params.tensors[n].data.shape),
                "frozen": not params.tensors[n].requires_grad,
                "extra": params.is_extra[n],
            }
            for n in names
        ],
        "payload_sha256": digest.hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for arr in payload:
            fh.write(arr)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a ``save_checkpoint`` file: the config by ``from_json``, tensor
    entries that list ``build_model``'s layout of it (names in order,
    shapes, ``extra``) with a bool ``frozen``, and a payload that hashes to
    the header's sha256. A malformed file raises ValueError naming ``path``
    and, where it applies, the tensor entry or config key."""
    with open(path, "rb") as fh:

        def read(n: int, what: str) -> bytes:
            raw = fh.read(n)
            if len(raw) != n:
                raise ValueError(f"{path}: file ends inside {what} "
                                 f"({len(raw)} of {n} bytes)")
            return raw

        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (magic {magic!r})")
        version, hlen = struct.unpack("<II", read(8, "the header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = json.loads(read(hlen, "the header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValueError(f"{path}: header is not JSON: {e}") from e
        _require_keys(header, ("config", "meta", "tensors"), f"{path}: header")
        config = from_json(ModelConfig, header["config"], f"{path}: config")
        try:
            layout = build_model(config, seed=0)
        except ValueError as e:
            raise ValueError(f"{path}: invalid model config: {e}") from e
        entries = json_list(dict, header["tensors"], f"{path}: tensors")
        if len(entries) != len(layout.tensors):
            raise ValueError(f"{path}: {len(entries)} tensor entries, the "
                             f"layout has {len(layout.tensors)}")
        digest = hashlib.sha256()
        for i, (entry, (name, t)) in enumerate(
                zip(entries, layout.tensors.items())):
            where = f"{path}: tensor entry {i}"
            _require_keys(entry, ("name", "shape", "frozen", "extra"), where)
            # compared as JSON, so 64.0 is no 64 and "yes" no true
            for key, want in (("name", name), ("shape", list(t.data.shape)),
                              ("extra", layout.is_extra[name])):
                if json.dumps(entry[key]) != json.dumps(want):
                    raise ValueError(f"{where}: {key} {json.dumps(entry[key])} "
                                     f"where the layout has {json.dumps(want)}")
            t.requires_grad = not json_value(bool, entry["frozen"],
                                             f"{where}.frozen")
            raw = read(8 * t.data.size, f"tensor {name!r}")
            digest.update(raw)
            t.data = np.frombuffer(raw, dtype="<f8").reshape(
                t.data.shape).astype(np.float64)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last tensor")
        if digest.hexdigest() != header.get("payload_sha256"):
            raise ValueError(f"{path}: payload sha256 mismatch (header "
                             f"{header.get('payload_sha256')}, payload "
                             f"{digest.hexdigest()})")
    return layout, header["meta"]
