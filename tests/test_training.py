"""Optimizer correctness against a scalar Adam oracle, term-by-term
backward against one backward of the summed objective, freezing
enforcement, batching, checkpoint selection, and the log format."""

import dataclasses
import math
import platform
import resource
import weakref

import numpy as np
import pytest

from zerommt import autodiff as ad
from zerommt import model as m
from zerommt import objectives as obj
from zerommt import synthcorpus as sc
from zerommt import training as tr
from zerommt.objectives import Batch, BatchExample
from zerommt.training import (
    AdamState,
    Checkpoint,
    FreezingViolation,
    PretrainConfig,
    TrainConfig,
    TrainData,
)

from oracles import summed_terms


def _scalar_params(tiny_config, value=1.0, trainable=True):
    t = ad.Tensor(np.array([value]), requires_grad=trainable)
    return m.ModelParams(
        config=tiny_config, tensors={"x": t}, is_extra={"x": trainable}
    )


# ---------------------------------------------------------------------------
# Adam


def test_adam_matches_scalar_oracle(tiny_config):
    """Three updates on one scalar parameter, checked against a hand-rolled
    bias-corrected Adam."""
    assert (tr.BETA1, tr.BETA2, tr.EPS_ADAM) == (0.9, 0.99, 1e-8)
    params = _scalar_params(tiny_config, value=1.0)
    state = AdamState()
    x = 1.0
    mm = vv = 0.0
    for t, g in enumerate([0.5, -1.5, 2.0], start=1):
        tr.adam_step(params, {"x": np.array([g])}, state, 0.1)
        mm = 0.9 * mm + 0.1 * g
        vv = 0.99 * vv + 0.01 * g * g
        m_hat = mm / (1 - 0.9**t)
        v_hat = vv / (1 - 0.99**t)
        x = x - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(params.tensors["x"].data[0] - x) < 1e-12, t
    assert state.step == 3


def test_adam_equals_the_out_of_place_recursion_byte_for_byte(tiny_params):
    """Moments updated in place round as ``b1 * m + (1 - b1) * g`` does:
    300 steps of random gradients over every trainable tensor of the tiny
    model (some steps leave a tensor out), compared byte for byte."""
    b1, b2, lr = tr.BETA1, tr.BETA2, 3e-3
    want = {n: tiny_params.tensors[n].data.copy()
            for n in tiny_params.trainable_names()}
    mm = {n: np.zeros_like(w) for n, w in want.items()}
    vv = {n: np.zeros_like(w) for n, w in want.items()}
    steps = dict.fromkeys(want, 0)
    state = AdamState()
    rng = np.random.default_rng(11)
    for t in range(1, 301):
        grads = {n: rng.standard_normal(w.shape) * 10.0 ** rng.integers(-6, 3)
                 for n, w in want.items() if rng.random() < 0.9}
        tr.adam_step(tiny_params, grads, state, lr)
        for n, g in grads.items():
            mm[n] = b1 * mm[n] + (1 - b1) * g
            vv[n] = b2 * vv[n] + (1 - b2) * g * g
            m_hat = mm[n] / (1 - b1**t)
            v_hat = vv[n] / (1 - b2**t)
            want[n] = want[n] - lr * m_hat / (np.sqrt(v_hat) + tr.EPS_ADAM)
            steps[n] += 1
    assert min(steps.values()) < 300
    for n, w in want.items():
        assert tiny_params.tensors[n].data.tobytes() == w.tobytes(), n
        assert state.m[n].tobytes() == mm[n].tobytes(), n
        assert state.v[n].tobytes() == vv[n].tobytes(), n


def test_adam_rejects_gradient_for_frozen_tensor(tiny_config):
    params = _scalar_params(tiny_config, trainable=False)
    with pytest.raises(FreezingViolation):
        tr.adam_step(params, {"x": np.array([1.0])}, AdamState(), 1e-3)


def test_adam_skips_params_without_gradient(tiny_config):
    params = _scalar_params(tiny_config, value=2.0)
    tr.adam_step(params, {}, AdamState(), 1e-3)
    assert params.tensors["x"].data[0] == 2.0


def test_train_config_validation():
    for bad in (
        dict(lr=0.0),
        dict(batch_size=0),
        dict(mode="nope"),
        dict(lam=-0.1),
        dict(lam=float("nan")),
        dict(eval_every=0),
        dict(mask_rate=-0.1),
        dict(mask_rate=2.0),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()
    TrainConfig().validate()
    TrainConfig(lam=0.0, mask_rate=1.0, eval_every=1).validate()
    for bad in (dict(lr=-1.0), dict(batch_size=0), dict(max_steps=0)):
        with pytest.raises(ValueError):
            PretrainConfig(**bad).validate()
    PretrainConfig().validate()
    # json.load accepts NaN and Infinity; each is rejected by field name
    for value in (float("nan"), float("inf")):
        for cls in (TrainConfig, PretrainConfig):
            with pytest.raises(ValueError, match="^lr must be finite"):
                cls(lr=value).validate()


# ---------------------------------------------------------------------------
# batching


def test_batches_cover_each_epoch_exactly_once():
    gen = tr._batches(6, 3, 4, np.random.default_rng(0))
    batches = list(gen)
    assert len(batches) == 4
    assert sorted(batches[0] + batches[1]) == list(range(6))
    assert sorted(batches[2] + batches[3]) == list(range(6))


def test_batches_deterministic_in_rng():
    a = list(tr._batches(10, 4, 7, np.random.default_rng(5)))
    b = list(tr._batches(10, 4, 7, np.random.default_rng(5)))
    assert a == b


# ---------------------------------------------------------------------------
# checkpoint selection


def _cp(step, margin, bleu, acc=60.0):
    return Checkpoint(step=step, extras={}, contrastive_acc=acc, bleu=bleu,
                      contrastive_margin=margin)


def test_select_model_balances_both_metrics():
    # second checkpoint wins 0.5*1.0 + 0.5*1.0; others are dominated
    cps = [_cp(1, 0.05, 90.0), _cp(2, 0.25, 95.0), _cp(3, 0.15, 92.0)]
    assert tr.select_model(cps).step == 2


def test_select_model_tie_goes_to_earliest():
    cps = [_cp(1, 0.1, 90.0), _cp(2, 0.1, 90.0), _cp(3, 0.1, 90.0)]
    assert tr.select_model(cps).step == 1


def test_select_model_mixed_tradeoff():
    # normalized scores: a -> 0.5*1 + 0.5*0 = 0.5, b -> 0.5*0 + 0.5*1 = 0.5
    cps = [_cp(1, 0.2, 80.0), _cp(2, 0.0, 100.0)]
    assert tr.select_model(cps).step == 1


def test_select_model_ranks_by_margin_when_every_checkpoint_has_one():
    # accuracy ties steps 2 and 3, which would go to step 2; the margins
    # normalize to 0, 0.5 and 1 and BLEU is constant (0.5 each), so the
    # scores are 0.25, 0.5 and 0.75
    cps = [_cp(1, 0.25, 100.0, acc=60.0), _cp(2, 0.5, 100.0, acc=70.0),
           _cp(3, 0.75, 100.0, acc=70.0)]
    assert tr.select_model(cps).step == 3
    assert [cp.selection_score for cp in cps] == [0.25, 0.5, 0.75]


def test_select_model_margin_tie_goes_to_earliest():
    # accuracy alone would pick step 3; the margins of steps 2 and 3 tie at
    # the top (normalized 0, 1, 1; BLEU constant at 0.5), so step 2 wins
    cps = [_cp(1, 0.1, 100.0, acc=60.0), _cp(2, 0.3, 100.0, acc=60.0),
           _cp(3, 0.3, 100.0, acc=70.0)]
    assert tr.select_model(cps).step == 2
    assert [cp.selection_score for cp in cps] == [0.25, 0.75, 0.75]


def test_select_model_rejects_empty():
    with pytest.raises(ValueError):
        tr.select_model([])


# ---------------------------------------------------------------------------
# log format


def test_log_rows_to_csv_layout():
    rows = [
        {"step": 1, "vmlm": 0.5, "kl": 0.25, "total": 0.525,
         "val_contrastive": "", "val_bleu": ""},
        {"step": 2, "vmlm": 0.4, "kl": 0.2, "total": 0.42,
         "val_contrastive": 62.5, "val_bleu": 88.0},
    ]
    text = tr.log_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "step,vmlm,kl,total,val_contrastive,val_bleu"
    assert lines[1] == "1,0.5,0.25,0.525,,"
    assert lines[2] == "2,0.4,0.2,0.42,62.5,88.0"
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# term-by-term backward


def _term_batch(params):
    """Two examples of different lengths with mask sets; the first accepts
    several tokens at two target positions."""
    v, dim = params.config.vocab_size, params.config.image_dim
    rng = np.random.default_rng(40)
    ex1 = BatchExample(src=[5, 6, 7], tgt=[m.BOS, 8, 9, m.EOS],
                       image=rng.standard_normal(dim), mask_set=(1,))
    ex1.accept = np.zeros((3, v), dtype=bool)
    ex1.accept[np.arange(3), ex1.tgt[1:]] = True
    ex1.accept[0, 10] = ex1.accept[1, 4] = ex1.accept[1, 12] = True
    ex2 = BatchExample(src=[11, 12], tgt=[m.BOS, 13, m.EOS],
                       image=rng.standard_normal(dim), mask_set=(0,))
    return Batch([ex1, ex2])


def _summed(batch, params, mode, lam):
    """vmlm + lam * anchor of ``mode`` composed into one tensor from the
    loss functions, with its parts."""
    vmlm_on, anchor_kind = obj.ADAPTATION_MODES[mode]
    vmlm = obj.vmlm_loss(batch, params) if vmlm_on else None
    anchor = None if anchor_kind is None else {
        "kl": obj.kl_penalty, "nll": obj.mmt_loss}[anchor_kind](batch, params)
    if anchor is None:
        return vmlm, vmlm, None
    weighted = ad.scale(anchor, lam)
    return (weighted if vmlm is None else ad.add(vmlm, weighted)), vmlm, anchor


@pytest.mark.parametrize("base", ["frozen", "unfrozen"])
@pytest.mark.parametrize("mode", tr.TRAIN_MODES)
def test_term_by_term_backward_matches_one_backward_of_the_sum(
        tiny_params, mode, base):
    m.randomize_extras(tiny_params, seed=41)
    if base == "unfrozen":
        tiny_params.unfreeze_base()
    batch = _term_batch(tiny_params)

    def taken_grads():
        out = {n: None if t.grad is None else t.grad.tobytes()
               for n, t in tiny_params.tensors.items()}
        tiny_params.zero_grads()
        return out

    def hexed(*values):
        return [None if v is None else float(v).hex() for v in values]

    total, vmlm, anchor = _summed(batch, tiny_params, mode, 0.7)
    ad.backward(total)
    want = taken_grads()
    assert all(want[n] is not None for n in tiny_params.trainable_names())
    want_values = hexed(total.data, None if vmlm is None else vmlm.data,
                        None if anchor is None else anchor.data)

    got_total, values = tr._backpropagate_terms(
        obj.adaptation_terms(batch, tiny_params, mode, 0.7))
    assert taken_grads() == want
    assert hexed(got_total, values.get("vmlm"), values.get("anchor")) \
        == want_values

    total, vmlm, anchor = summed_terms(batch, tiny_params, mode, 0.7)
    ad.backward(total)
    assert taken_grads() == want
    assert hexed(total.data, None if vmlm is None else vmlm.data,
                 None if anchor is None else anchor.data) == want_values


# ---------------------------------------------------------------------------
# end-to-end on a miniature world


@pytest.fixture(scope="module")
def mini_world():
    spec = sc.WorldSpec(
        n_plain_words=3, n_ambiguous_words=1, sent_len_min=2, sent_len_max=3,
        image_dim=4, seed=0,
    )
    world = sc.generate_world(spec, vocab_budget=16)
    sizes = sc.SplitSizes(
        pretrain_parallel=24, mmt_train=12, val_contrastive=2,
        val_translation=2, test_contrastive=2, test_translation=2,
    )
    return world, sc.generate_splits(world, sizes)


@pytest.fixture(scope="module")
def mini_base(mini_world):
    from conftest import TINY

    _, splits = mini_world
    config = dataclasses.replace(TINY)
    return tr.pretrain_base(
        splits.pretrain_parallel, config,
        PretrainConfig(max_steps=10, batch_size=8),
    )


def _mini_train_config(**overrides):
    defaults = dict(max_steps=6, batch_size=8, eval_every=3, lr=1e-3)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def _mini_data(splits):
    return TrainData(
        mmt_train=splits.mmt_train,
        val_contrastive=splits.val_contrastive,
        val_translation=splits.val_translation,
    )


def test_pretrain_freezes_base(mini_base):
    assert mini_base.trainable_names() == mini_base.extra_names()
    for name in mini_base.base_names():
        assert not mini_base.tensors[name].requires_grad


def test_train_runs_all_modes_without_touching_base(mini_world, mini_base):
    _, splits = mini_world
    data = _mini_data(splits)
    before = mini_base.base_bytes()
    for mode in tr.TRAIN_MODES:
        result = tr.train(_mini_train_config(mode=mode), data, mini_base)
        assert len(result.log_rows) == 6
        assert [cp.step for cp in result.checkpoints] == [3, 6]
        assert result.best in result.checkpoints
        assert result.params.base_bytes() == before
        kl_col = [r["kl"] for r in result.log_rows]
        vmlm_col = [r["vmlm"] for r in result.log_rows]
        if mode == "no_kl":
            assert all(v == 0.0 for v in kl_col)
        if mode == "no_vmlm":
            assert all(v == 0.0 for v in vmlm_col)
    assert mini_base.base_bytes() == before


def test_train_is_deterministic(mini_world, mini_base):
    _, splits = mini_world
    data = _mini_data(splits)
    a = tr.train(_mini_train_config(), data, mini_base)
    b = tr.train(_mini_train_config(), data, mini_base)
    assert tr.log_rows_to_csv(a.log_rows) == tr.log_rows_to_csv(b.log_rows)
    for name in a.params.extra_names():
        assert np.array_equal(
            a.params.tensors[name].data, b.params.tensors[name].data
        )


def test_train_rejects_empty_corpus(mini_base):
    data = TrainData(mmt_train=[], val_contrastive=[], val_translation=[])
    with pytest.raises(ValueError):
        tr.train(TrainConfig(), data, mini_base)


def _counting_adam(monkeypatch):
    calls = []

    def counting(*args, _step=tr.adam_step):
        calls.append(1)
        return _step(*args)

    monkeypatch.setattr(tr, "adam_step", counting)
    return calls


@pytest.mark.parametrize("empty", ["mmt_train", "val_contrastive",
                                   "val_translation"])
def test_train_rejects_an_empty_split_by_name_before_step_1(
        mini_world, mini_base, monkeypatch, empty):
    # an empty validation split used to fail only at the first snapshot,
    # eval_every steps in, with a bare "empty corpus"
    _, splits = mini_world
    data = _mini_data(splits)
    setattr(data, empty, [])
    calls = _counting_adam(monkeypatch)
    with pytest.raises(ValueError, match=f"empty {empty} corpus"):
        tr.train(_mini_train_config(), data, mini_base)
    assert calls == []


def test_pretraining_divergence_names_the_step(mini_world):
    from conftest import TINY

    world, _ = mini_world
    splits = sc.generate_splits(world, sc.SplitSizes(
        pretrain_parallel=64, mmt_train=1, val_contrastive=1,
        val_translation=1, test_contrastive=1, test_translation=1))
    config = dataclasses.replace(TINY, d_model=16)
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="pretraining diverged at step 2: loss="):
        tr.pretrain_base(splits.pretrain_parallel, config,
                         PretrainConfig(lr=1e150, max_steps=10, batch_size=8))


def _nan_at_call(monkeypatch, name, k):
    """Patch ``objectives.<name>`` so that its ``k``-th call returns NaN
    through the tape; returns the list of its calls."""
    calls = []

    def patched(*args, _loss=getattr(tr.obj, name), **kwargs):
        loss = _loss(*args, **kwargs)
        calls.append(loss)
        return ad.scale(loss, math.nan) if len(calls) == k else loss

    monkeypatch.setattr(tr.obj, name, patched)
    return calls


def test_training_divergence_stops_before_the_update(
        mini_world, mini_base, monkeypatch):
    # the anchor, the last term of a full-mode step, is NaN at step 3
    _, splits = mini_world
    data = _mini_data(splits)
    losses = _nan_at_call(monkeypatch, "kl_penalty", 3)
    calls = _counting_adam(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="training diverged at step 3: loss=nan"):
        tr.train(_mini_train_config(), data, mini_base)
    assert len(losses) == 3
    assert len(calls) == 2


def test_training_divergence_in_the_first_term_stops_before_the_update(
        mini_world, mini_base, monkeypatch):
    # the VMLM term is NaN at step 3: its backward has run when the total
    # is checked, yet the extras keep the bytes of step 2's update
    _, splits = mini_world
    losses = _nan_at_call(monkeypatch, "vmlm_loss", 3)
    updated = []

    def recording(params, grads, state, lr, _step=tr.adam_step):
        _step(params, grads, state, lr)
        updated.append((params, params.copy_extras()))

    monkeypatch.setattr(tr, "adam_step", recording)
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="training diverged at step 3: loss=nan"):
        tr.train(_mini_train_config(), _mini_data(splits), mini_base)
    assert len(losses) == 3
    assert len(updated) == 2
    params, after_step_2 = updated[-1]
    for name, data in after_step_2.items():
        assert params.tensors[name].data.tobytes() == data.tobytes(), name


def _interior_nodes(root):
    """Every recorded node below ``root``'s node, that node itself
    excluded; leaves (no closure) and untaken routes (None) are skipped."""
    out, seen, stack = [], set(), list(root._node._parents)
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._parents)
    return out


def _watch_vmlm_graph(monkeypatch):
    """Patch ``objectives.vmlm_loss`` to keep a weak reference to every
    interior node of each VMLM graph, taken before its backward."""
    refs = []

    def watched(*args, _loss=tr.obj.vmlm_loss, **kwargs):
        vmlm = _loss(*args, **kwargs)
        refs.append([weakref.ref(node) for node in _interior_nodes(vmlm)])
        return vmlm

    monkeypatch.setattr(tr.obj, "vmlm_loss", watched)
    return refs


def test_no_step_graph_survives_into_the_next_forward(
        mini_world, mini_base, monkeypatch):
    # the caller's loop still holds step k's loss values when step k+1's
    # forward runs; backward has freed everything below them
    _, splits = mini_world
    refs = _watch_vmlm_graph(monkeypatch)

    def watched(*args, _loss=tr.obj.vmlm_loss, **kwargs):
        assert all(ref() is None for step in refs for ref in step)
        return _loss(*args, **kwargs)

    monkeypatch.setattr(tr.obj, "vmlm_loss", watched)
    tr.train(_mini_train_config(max_steps=3), _mini_data(splits), mini_base)
    assert len(refs) == 3
    assert all(refs)


@pytest.mark.parametrize("stage, forward", [("pretraining", "text_nll"),
                                            ("adaptation", "vmlm_loss")])
def test_no_step_gradient_survives_into_the_next_forward(
        mini_world, mini_base, monkeypatch, stage, forward):
    # step k's gradients go with its update: none is alive when step k+1's
    # forward starts
    from conftest import TINY

    _, splits = mini_world
    refs, forwards = [], []

    def recording(params, grads, state, lr, _step=tr.adam_step):
        refs.append([weakref.ref(g) for g in grads.values()])
        _step(params, grads, state, lr)

    def watched(*args, _loss=getattr(tr.obj, forward), **kwargs):
        assert all(ref() is None for step in refs for ref in step)
        forwards.append(1)
        return _loss(*args, **kwargs)

    monkeypatch.setattr(tr, "adam_step", recording)
    monkeypatch.setattr(tr.obj, forward, watched)
    if stage == "pretraining":
        tr.pretrain_base(splits.pretrain_parallel, dataclasses.replace(TINY),
                         PretrainConfig(max_steps=3, batch_size=8))
    else:
        tr.train(_mini_train_config(max_steps=3), _mini_data(splits),
                 mini_base)
    assert len(refs) == len(forwards) == 3
    assert all(refs)


@pytest.mark.parametrize("mode, anchor", [("full", "kl_penalty"),
                                          ("mmt_no_kl", "mmt_loss")])
def test_vmlm_graph_is_freed_before_the_anchor_forward(
        mini_world, mini_base, monkeypatch, mode, anchor):
    # a step backpropagates each term as soon as its forward ends, so it
    # never holds both terms' graphs
    _, splits = mini_world
    refs = _watch_vmlm_graph(monkeypatch)
    anchors = []

    def watched(*args, _loss=getattr(tr.obj, anchor), **kwargs):
        assert all(ref() is None for ref in refs[-1])
        anchors.append(1)
        return _loss(*args, **kwargs)

    monkeypatch.setattr(tr.obj, anchor, watched)
    tr.train(_mini_train_config(max_steps=3, mode=mode), _mini_data(splits),
             mini_base)
    assert len(anchors) == len(refs) == 3
    assert all(refs)


def test_clone_params_is_independent(mini_base):
    source = tr.clone_params(mini_base)
    clone = tr.clone_params(source)
    assert source.extra_names() == source.trainable_names()
    for name, t in source.tensors.items():
        c = clone.tensors[name]
        assert c.requires_grad == t.requires_grad
        assert c.data.tobytes() == t.data.tobytes()
        # frozen arrays are shared; trainable ones are copies
        if t.requires_grad:
            assert not np.shares_memory(c.data, t.data), name
        else:
            assert c.data is t.data, name
    # rebinding either side leaves the other as it was
    for a, b in ((clone, source), (source, clone)):
        for name in ("embed", "proj.w"):
            before = b.tensors[name].data.tobytes()
            a.tensors[name].data = a.tensors[name].data + 1.0
            assert b.tensors[name].data.tobytes() == before, name


def test_train_never_reads_gold_annotations(mini_world, mini_base):
    """Adaptation is zero-shot: the word, sense and cue annotations that
    the corpus generator keeps for diagnostics cannot change training."""
    world, splits = mini_world
    pseudo, _ = sc.pseudo_translate(mini_base, splits.mmt_train, world)
    assert any(ex.amb_word is not None for ex in pseudo)
    assert any(ex.has_cue for ex in pseudo)
    cleared = [
        dataclasses.replace(ex, amb_word=None, sense=None, has_cue=False)
        for ex in pseudo
    ]
    for mode in tr.TRAIN_MODES:
        logs = []
        for corpus in (pseudo, cleared):
            data = TrainData(
                mmt_train=corpus,
                val_contrastive=splits.val_contrastive,
                val_translation=splits.val_translation,
            )
            result = tr.train(_mini_train_config(mode=mode), data, mini_base)
            logs.append(tr.log_rows_to_csv(result.log_rows).encode())
        assert logs[0] == logs[1], mode


# ---------------------------------------------------------------------------
# the descent loop's heap, and what a pretraining step rebuilds


@pytest.fixture(scope="module")
def default_corpus():
    """Pretraining pairs that fit the default ``ModelConfig``."""
    world = sc.generate_world(sc.WorldSpec(seed=3), vocab_budget=64)
    return sc.generate_splits(world, sc.SplitSizes(
        pretrain_parallel=96, mmt_train=1, val_contrastive=1,
        val_translation=1, test_contrastive=1, test_translation=1,
    )).pretrain_parallel


def _pretraining_descent(corpus, model_config, config):
    """``_descend`` as ``pretrain_base`` drives it, and its parameters."""
    params = m.build_model(model_config, seed=config.seed)
    params.unfreeze_base()

    def terms_of(idxs):
        nll = obj.text_nll(Batch([BatchExample(src=corpus[k].src,
                                               tgt=corpus[k].tgt)
                                  for k in idxs]), params)
        return [("nll", nll, nll)]

    return params, tr._descend(params, config, len(corpus),
                               np.random.default_rng([config.seed, 17]),
                               terms_of, "pretraining")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's malloc's")
def test_steady_pretraining_steps_take_almost_no_minor_faults(default_corpus):
    # with glibc's default policy each backward hands the freed heap top
    # back to the kernel and the next forward faults it in again: about
    # 1.3k minor faults a step at this size
    _, steps = _pretraining_descent(default_corpus, m.ModelConfig(),
                                    PretrainConfig(max_steps=10, seed=3))
    faults = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
    for _ in steps:
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    # two warm-up steps grow the heap to its working size
    steady = np.diff(faults)[2:]
    assert len(steady) == 8
    assert steady.sum() < 50 * len(steady), steady


def test_the_heap_policy_moves_no_float(mini_world, monkeypatch):
    from conftest import TINY

    _, splits = mini_world
    runs = []
    for libc in (tr._LIBC, None):
        monkeypatch.setattr(tr, "_LIBC", libc)
        params, steps = _pretraining_descent(
            splits.pretrain_parallel, dataclasses.replace(TINY),
            PretrainConfig(max_steps=6, batch_size=8))
        totals = [(step, total.hex(), values["nll"].hex())
                  for step, total, values in steps]
        runs.append((totals, params.base_bytes()))
    assert len(runs[0][0]) == 6
    assert runs[0] == runs[1]


class _RecordingLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append(("mallopt", param, value))
        return 1

    def malloc_trim(self, pad):
        self.calls.append(("malloc_trim", pad))
        return 1


@pytest.mark.parametrize("lr", [1e-3, 1e150])
def test_the_loop_keeps_its_heap_and_trims_it_once_on_the_way_out(
        mini_world, monkeypatch, lr):
    # the policy is set before the first step, and the heap is trimmed
    # after the last, also when a step diverges
    from conftest import TINY

    _, splits = mini_world
    libc = _RecordingLibc()
    monkeypatch.setattr(tr, "_LIBC", libc)
    _, steps = _pretraining_descent(
        splits.pretrain_parallel, dataclasses.replace(TINY, d_model=16),
        PretrainConfig(lr=lr, max_steps=4, batch_size=8))
    seen = []
    with np.errstate(all="ignore"):
        try:
            for step, _, _ in steps:
                seen.append((step, list(libc.calls)))
        except RuntimeError as e:
            assert "pretraining diverged at step 2" in str(e)
    policy = [("mallopt", tr.M_TRIM_THRESHOLD, tr.HEAP_TRIM_THRESHOLD)]
    assert seen[0] == (1, policy)
    assert all(calls == policy for _, calls in seen)
    assert len(seen) == (4 if lr == 1e-3 else 1)
    assert libc.calls == policy + [("malloc_trim", 0)]


def test_each_recipe_output_is_rebuilt_once_per_backward(default_corpus,
                                                        monkeypatch):
    # a pretraining step at the default size has 18 recipe'd outputs; one
    # rebuild per consumer took 29 rebuilds, with the same gradients
    built, per_backward, grads = [], [], []

    def counting(build, wrap):
        def rebuild():
            array = build()
            built.append(weakref.ref(array))
            return array

        return wrap(rebuild)

    def backward(loss, _backward=ad.backward):
        built.clear()
        _backward(loss)
        per_backward.append(len(built))
        # every rebuilt array died with the last closure that read it
        assert all(ref() is None for ref in built)

    def recording(params, g, state, lr, _step=tr.adam_step):
        grads.append({n: a.tobytes() for n, a in g.items()})
        _step(params, g, state, lr)

    monkeypatch.setattr(ad, "backward", backward)
    monkeypatch.setattr(tr, "adam_step", recording)
    runs = {}
    for cached, wrap in ((False, lambda build: build),
                         (True, ad._built_once)):
        monkeypatch.setattr(ad, "_built_once",
                            lambda build, wrap=wrap: counting(build, wrap))
        _, steps = _pretraining_descent(default_corpus, m.ModelConfig(),
                                        PretrainConfig(max_steps=2, seed=3))
        assert len(list(steps)) == 2
        runs[cached] = (per_backward[:], grads[:])
        per_backward.clear()
        grads.clear()
    assert runs[False][0] == [29, 29] and runs[True][0] == [18, 18]
    assert runs[True][1] == runs[False][1]
