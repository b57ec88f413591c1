"""Desk-scale zero-shot multimodal machine translation.

A frozen toy translation transformer is adapted to images using only
monolingual multimodal data: a visually conditioned masked-LM loss forces
the model to use the image, a KL penalty against the frozen base preserves
translation quality, and classifier-free guidance trades the two off at
decoding time.
"""

__version__ = "0.1.0"

import os

# One OpenBLAS thread unless the user chose otherwise: at this model's
# matrix sizes a second thread burns CPU without saving wall time, and it
# changes no result. It must be set before numpy first loads, so here,
# before any submodule imports it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import autodiff, decoding, evaluation, model, objectives, synthcorpus, training

__all__ = [
    "__version__",
    "autodiff",
    "decoding",
    "evaluation",
    "model",
    "objectives",
    "synthcorpus",
    "training",
]
