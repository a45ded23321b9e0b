"""Cross-modal hashing for long-tail multi-label data.

Library layout:

- ``nn``          dense-layer substrate with manual backprop and SGD
- ``datagen``     synthetic Zipf long-tail two-modality datasets
- ``affinity``    pairwise similarity, Hausdorff label affinity, prototype
                  Laplacian regularizer
- ``hsic``        Hilbert-Schmidt independence criterion: the trainer's
                  value-and-gradient path
- ``autoencoder`` individuality-commonality autoencoder (phase 1): one
                  both-modality encoder pass, loss, trainer, calibration
- ``meta``        per-modality projector, selector and fusion: the meta-feature
                  forward pass of training and query encoding, and its backward
- ``hashing``     likelihood loss, sign update, phase-2 trainer, ablations
- ``retrieval``   query encoding, Hamming ranking, MAP, head/tail breakdown
- ``store``       bit-exact dataset/checkpoint/codes/report file formats
- ``experiment``  the one run configuration (``RunConfig``), read by both
                  phases; phase 1 and the variant runner (``train_variants``)
- ``verify``      gradient checks and every oracle (also `tailhash check-grad`)
                  and their helpers: finite differences, flat parameter
                  views, the composed HSIC path
- ``cli``         command-line interface
"""

from .datagen import Dataset, LongTailSpec, generate, mu_from_if, split, zipf_counts
from .experiment import RunConfig, TrainedModel, evaluate_model, train_full
from .hashing import VARIANTS, Variant
from .retrieval import EvalReport, mean_average_precision

__all__ = [
    "Dataset", "LongTailSpec", "generate", "mu_from_if", "split",
    "zipf_counts", "RunConfig", "TrainedModel", "evaluate_model",
    "train_full", "VARIANTS", "Variant", "EvalReport",
    "mean_average_precision",
]

__version__ = "0.1.0"
