"""Optimizer correctness against a scalar Adam oracle, freezing
enforcement, batching, checkpoint selection, and the log format."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from zerommt import autodiff as ad
from zerommt import model as m
from zerommt import synthcorpus as sc
from zerommt import training as tr
from zerommt.training import (
    AdamState,
    Checkpoint,
    FreezingViolation,
    PretrainConfig,
    TrainConfig,
    TrainData,
)


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


def test_training_divergence_stops_before_the_update(
        mini_world, mini_base, monkeypatch):
    _, splits = mini_world
    data = _mini_data(splits)
    losses = []

    def nan_at_step_3(*args, _loss=tr.obj.adaptation_loss, **kwargs):
        total, vmlm, anchor = _loss(*args, **kwargs)
        losses.append(total)
        if len(losses) == 3:
            total = ad.scale(total, math.nan)
        return total, vmlm, anchor

    monkeypatch.setattr(tr.obj, "adaptation_loss", nan_at_step_3)
    calls = _counting_adam(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="training diverged at step 3: loss=nan"):
        tr.train(_mini_train_config(), data, mini_base)
    assert len(losses) == 3
    assert len(calls) == 2


def test_no_step_graph_survives_into_the_next_forward(
        mini_world, mini_base, monkeypatch):
    # the caller's loop still holds step k's loss tensors when step k+1's
    # forward runs; backward has freed everything below them
    _, splits = mini_world
    refs = []

    def watched(*args, _loss=tr.obj.adaptation_loss, **kwargs):
        assert all(ref() is None for ref in refs)
        total, vmlm, anchor = _loss(*args, **kwargs)
        interior = [p for p in vmlm._parents if p._backward is not None]
        refs.append(weakref.ref(interior[0]))
        return total, vmlm, anchor

    monkeypatch.setattr(tr.obj, "adaptation_loss", watched)
    tr.train(_mini_train_config(max_steps=3), _mini_data(splits), mini_base)
    assert len(refs) == 3


def test_clone_params_is_independent(mini_base):
    clone = tr.clone_params(mini_base)
    clone.tensors["embed"].data = clone.tensors["embed"].data + 1.0
    assert not np.array_equal(
        clone.tensors["embed"].data, mini_base.tensors["embed"].data
    )


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
