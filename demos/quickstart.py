"""Walk the whole pipeline in-process on a small configuration.

Builds a synthetic bilingual world with visually-resolvable ambiguity,
pretrains and freezes a text-only translation model, pseudo-translates
the multimodal corpus with it, adapts the frozen model on the two-term
objective (masked multimodal loss + divergence anchor), and compares the
base and adapted models on the contrastive disambiguation benchmark.

Runs in a couple of minutes on one core:

    python3 demos/quickstart.py
"""

import time

from zerommt import decoding, model, synthcorpus, training
from zerommt import evaluation as ev


def main() -> None:
    t0 = time.time()

    # 1. A world with 6 plain words and 4 ambiguous ones. Each ambiguous
    # word has two sense-dependent translations; images are noisy sense
    # centroids, so only the visual channel resolves uncued sentences.
    spec = synthcorpus.WorldSpec(
        n_plain_words=6, n_ambiguous_words=4, sense_cluster_separation=2.0,
        seed=0,
    )
    world = synthcorpus.generate_world(spec)
    sizes = synthcorpus.SplitSizes(
        pretrain_parallel=1200, mmt_train=400, val_contrastive=16,
        val_translation=16, test_contrastive=64, test_translation=32,
    )
    splits = synthcorpus.generate_splits(world, sizes)
    print(f"world: {world.vocab_used} vocabulary ids, "
          f"{len(world.amb_src)} ambiguous words")

    # 2. Pretrain the text-only base and freeze it byte for byte.
    base = training.pretrain_base(
        splits.pretrain_parallel,
        model.ModelConfig(),
        training.PretrainConfig(max_steps=400),
    )
    base_acc = ev.commute_accuracy(ev.make_scorer(base, 0.0),
                                   splits.test_contrastive)
    print(f"frozen base: contrastive accuracy {base_acc:.1f} "
          f"(image-blind, so chance)   [{time.time() - t0:.0f}s]")

    # 3. Replace gold targets with the base's own beam translations: the
    # adaptation stage never sees parallel supervision.
    pseudo, rep = synthcorpus.pseudo_translate(base, splits.mmt_train, world)
    print(f"pseudo-translation: {rep.n_total - rep.n_dropped}/{rep.n_total} "
          f"kept, unambiguous match {rep.unambiguous_match_rate:.3f}, "
          f"cued sense match {rep.cued_sense_match_rate:.3f}")

    # 4. Adapt only the extras (adapters + visual projector) on the
    # masked multimodal loss, anchored to the frozen base's distributions.
    data = training.TrainData(
        mmt_train=pseudo,
        val_contrastive=splits.val_contrastive,
        val_translation=splits.val_translation,
    )
    result = training.train(
        training.TrainConfig(lr=3e-3, max_steps=300, eval_every=75),
        data, base,
    )
    print(f"adaptation: best step {result.best.step}, "
          f"val contrastive {result.best.contrastive_acc:.1f}, "
          f"val BLEU {result.best.bleu:.1f}   [{time.time() - t0:.0f}s]")

    # 5. The adapted model reads the image; guidance (gamma > 1) pushes
    # further away from the image-blind base at decoding time.
    acc_mm = ev.commute_accuracy(ev.make_scorer(result.params),
                                 splits.test_contrastive)
    acc_guided = ev.commute_accuracy(ev.make_scorer(result.params, 2.0),
                                     splits.test_contrastive)
    print(f"test contrastive accuracy: base {base_acc:.1f} -> "
          f"adapted {acc_mm:.1f} -> guided (gamma=2) {acc_guided:.1f}")

    # one concrete example: same source, two images, two translations
    inst = splits.test_contrastive[0]
    for label, img in (("image A", inst.img_a), ("image B", inst.img_b)):
        hyp = decoding.translate(result.params, inst.src, img, 2.0)
        print(f"  src {inst.src} + {label} -> {list(hyp.tokens)}")
    print(f"done in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
