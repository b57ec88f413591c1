"""Sweep the guidance scale and print the accuracy/quality trade-off.

The guidance blend extrapolates away from the image-blind base model:
gamma=1 is the adapted multimodal model, larger gammas amplify whatever
the image changed. Disambiguation accuracy keeps climbing for a while,
but translation quality eventually collapses because extrapolated
distributions stop being calibrated. This script reproduces that curve
on a small configuration.

    python3 demos/guidance_tradeoff.py
"""

import time

from zerommt import model, synthcorpus, training
from zerommt import evaluation as ev

GAMMAS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


def main() -> None:
    t0 = time.time()
    world = synthcorpus.generate_world(
        synthcorpus.WorldSpec(sense_cluster_separation=2.0, seed=0)
    )
    splits = synthcorpus.generate_splits(
        world,
        synthcorpus.SplitSizes(
            pretrain_parallel=1500, mmt_train=500, val_contrastive=16,
            val_translation=16, test_contrastive=96, test_translation=32,
        ),
    )
    base = training.pretrain_base(
        splits.pretrain_parallel, model.ModelConfig(),
        training.PretrainConfig(max_steps=500),
    )
    pseudo, _ = synthcorpus.pseudo_translate(base, splits.mmt_train, world)
    result = training.train(
        training.TrainConfig(lr=3e-3, max_steps=400, eval_every=100),
        training.TrainData(pseudo, splits.val_contrastive,
                           splits.val_translation),
        base,
    )
    print(f"setup done in {time.time() - t0:.0f}s\n")

    print(f"{'gamma':>6} {'contrastive':>12} {'bleu':>8}")
    for gamma in GAMMAS:
        acc = ev.commute_accuracy(ev.make_scorer(result.params, gamma),
                                  splits.test_contrastive)
        bleu = ev.translation_bleu(result.params, splits.test_translation,
                                   gamma)
        print(f"{gamma:>6.1f} {acc:>12.2f} {bleu:>8.2f}")
    print(f"\ntotal {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
