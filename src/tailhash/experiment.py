"""End-to-end orchestration: the run configuration, two-phase training (one
phase 1, then train_variants, the variant runner) and retrieval evaluation."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from . import autoencoder, hashing, meta, retrieval
from .datagen import Dataset


@dataclass
class RunConfig:
    """Hyper-parameters of a full run, with the published defaults.

    The one settings object: phase 1 (autoencoder.train_ae) and phase 2
    (hashing.train_hash) both read it.
    """
    k: int = 16
    alpha: float = 0.05
    beta: float = 0.05
    gamma: float = 1.0
    eta: float = 1.0
    batch_size: int = 128
    lr_feat: float = 10.0 ** (-1.5)   # hash-side (feature extraction) SGD
    lr_ae: float = 1e-2               # autoencoder SGD
    max_epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("code length k must be >= 1")
        if self.lr_feat <= 0 or self.lr_ae <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")
        if self.gamma < 0 or self.eta < 0:
            raise ValueError("gamma and eta must be non-negative")


@dataclass
class TrainedModel:
    icae: autoencoder.IcaeParams
    side: meta.HashSideParams
    B: np.ndarray
    loss1_trace: list[float] = field(default_factory=list)
    loss2_trace: list[float] = field(default_factory=list)
    variant: hashing.Variant = hashing.VARIANTS["full"]


def init_params(dataset: Dataset, cfg: RunConfig
                ) -> tuple[autoencoder.IcaeParams, meta.HashSideParams]:
    rng = np.random.default_rng(cfg.seed)
    side = meta.init_side_params(dataset.Fx_raw.shape[1],
                                 dataset.Fy_raw.shape[1], cfg.k, rng)
    icae = autoencoder.init_icae(dataset.Fx_raw.shape[1],
                                 dataset.Fy_raw.shape[1], cfg.k, rng)
    return icae, side


# (autoencoder, initial hash side, loss trace), as a phase-1 checkpoint holds
Phase1 = tuple[autoencoder.IcaeParams, meta.HashSideParams, list[float]]


def train_phase1(dataset: Dataset, cfg: RunConfig) -> Phase1:
    icae, side = init_params(dataset, cfg)
    icae, trace = autoencoder.train_ae(dataset, icae, cfg)
    return icae, side, trace


def train_phase2(dataset: Dataset, cfg: RunConfig,
                 icae: autoencoder.IcaeParams, side: meta.HashSideParams,
                 variant: hashing.Variant = hashing.VARIANTS["full"]
                 ) -> tuple[meta.HashSideParams, np.ndarray, list[float]]:
    """Phase 2 of one variant on ``side`` itself (train_variants copies it)."""
    return hashing.train_hash(dataset, icae, side, cfg, variant)


def train_variants(dataset: Dataset, cfg: RunConfig, phase1: Phase1,
                   variants: Iterable[hashing.Variant]
                   ) -> Iterator[TrainedModel]:
    """Phase 2 of each variant from one phase 1, yielding each model as it
    finishes. Each trains its own copy of the initial hash side, so the side
    in ``phase1`` is never changed."""
    icae, side0, trace1 = phase1
    for variant in variants:
        side, B, trace2 = hashing.train_hash(
            dataset, icae, copy.deepcopy(side0), cfg, variant)
        yield TrainedModel(icae, side, B, trace1, trace2, variant)


def train_full(dataset: Dataset, cfg: RunConfig,
               variant: hashing.Variant = hashing.VARIANTS["full"]
               ) -> TrainedModel:
    return next(train_variants(dataset, cfg, train_phase1(dataset, cfg),
                               [variant]))


def evaluate_model(dataset: Dataset, model: TrainedModel,
                   head_count: Optional[int] = None
                   ) -> dict[str, retrieval.EvalReport]:
    """Cross-modal retrieval in both directions: queries encoded with the
    per-modality hash functions, ranked against the trained unified codes B."""
    if dataset.query_indices.size == 0:
        raise ValueError("dataset has no query split")
    Xq, Yq, Lq = dataset.query()
    _, _, Lb = dataset.base()
    counts = dataset.meta.get("label_counts", Lb.sum(axis=0))
    raws = {"x": Xq, "y": Yq}
    reports = {}
    for direction, (modality, _) in retrieval.DIRECTIONS.items():
        q_codes = retrieval.encode_query(modality, raws[modality], model.icae,
                                         model.side, model.variant)
        reports[direction] = retrieval.evaluate(
            direction, q_codes, Lq, model.B, Lb, counts, head_count,
            variant=model.variant.name)
    return reports
