"""Query encoding, Hamming ranking, MAP and head/tail breakdowns.

Relevance rule: a base item is relevant to a query iff they share at least
one label. Rankings sort by Hamming distance ascending with ties broken by
ascending base index; queries without any relevant base item are excluded
from MAP and surfaced in the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autoencoder, hashing, meta


@dataclass
class EvalReport:
    direction: str                      # "i2t" or "t2i"
    map: float
    precision_at: list[tuple[int, float]]
    per_label_map: list[Optional[float]]
    head_tail_split_index: int
    head_map: Optional[float]
    tail_map: Optional[float]
    n_queries: int
    n_excluded: int
    runtime: float
    variant: str = "full"
    extra: dict = field(default_factory=dict)


def encode_query(modality: str, raw: np.ndarray,
                 icae: autoencoder.IcaeParams, side: meta.HashSideParams,
                 variant: hashing.Variant = hashing.VARIANTS["full"]
                 ) -> np.ndarray:
    """Per-modality hash function: raw features -> (k, n) codes in {-1, +1}.

    The commonality encoder sees the other modality's block zero-imputed,
    matching the modality-dropout regime it was trained under; the
    individuality enters as its label-memory feature.
    """
    if modality not in ("x", "y"):
        raise ValueError("modality must be 'x' or 'y'")
    side_v = side.x if modality == "x" else side.y
    F = meta.direct_features(side_v.projector, raw)
    Cstar, Iv = autoencoder.hash_codes(icae, modality, raw)
    use_c, use_i = variant.flags(modality)
    M = meta.meta_features(F, Cstar, Iv, meta.selectors(side_v, F),
                           use_c, use_i)
    return np.where(M >= 0.0, 1.0, -1.0)


def hamming(b1: np.ndarray, b2: np.ndarray) -> int:
    """Number of disagreeing bits between two codes."""
    b1 = np.asarray(b1).ravel()
    b2 = np.asarray(b2).ravel()
    if b1.shape != b2.shape:
        raise ValueError("code lengths must match")
    return int(np.count_nonzero(b1 != b2))


def hamming_matrix(query_codes: np.ndarray, base_codes: np.ndarray) -> np.ndarray:
    """All pairwise Hamming distances, (nq, nb), via (k - <b1, b2>) / 2."""
    Q = np.asarray(query_codes, dtype=np.float64)
    D = np.asarray(base_codes, dtype=np.float64)
    k = Q.shape[0]
    # in place: one (nq, nb) matrix alive instead of two
    dist = Q.T @ D
    np.subtract(k, dist, out=dist)
    dist /= 2.0
    return dist


def _ranking(query_codes, query_labels, base_codes, base_labels
             ) -> tuple[np.ndarray, np.ndarray]:
    """Relevance (nq, nb) and each query's base order by Hamming distance.

    The distances are small integers, so the stable sort runs on the
    narrowest unsigned type that holds k: the same keys in the same stable
    order, sorted far faster than as float64. The float matrix is freed
    before the order array is allocated.
    """
    rel = (np.asarray(query_labels, dtype=np.int64)
           @ np.asarray(base_labels, dtype=np.int64).T) > 0
    k = np.shape(query_codes)[0]
    order = np.argsort(hamming_matrix(query_codes, base_codes)
                       .astype(np.min_scalar_type(k)), axis=1, kind="stable")
    return rel, order


def _average_precisions(rel: np.ndarray, order: np.ndarray,
                        topR: Optional[int]) -> np.ndarray:
    nq, nb = rel.shape
    limit = nb if topR is None else min(topR, nb)
    aps = np.full(nq, np.nan)
    for i in range(nq):
        if not rel[i].any():
            continue
        r = rel[i, order[i, :limit]]
        hits = int(r.sum())
        if hits == 0:
            aps[i] = 0.0
            continue
        prec = np.cumsum(r) / np.arange(1, limit + 1)
        aps[i] = float(prec[r].sum() / hits)
    return aps


def _precision_at(rel: np.ndarray, order: np.ndarray,
                  ks: Sequence[int]) -> list[tuple[int, float]]:
    valid = rel.any(axis=1)
    out = []
    for k in ks:
        k_eff = min(k, rel.shape[1])
        hits = np.take_along_axis(rel, order[:, :k_eff], axis=1).sum(axis=1)
        out.append((int(k), float((hits[valid] / k_eff).mean())))
    return out


def average_precisions(query_codes: np.ndarray, query_labels: np.ndarray,
                       base_codes: np.ndarray, base_labels: np.ndarray,
                       topR: Optional[int] = None) -> np.ndarray:
    """Per-query AP; NaN marks queries with no relevant base item."""
    rel, order = _ranking(query_codes, query_labels, base_codes, base_labels)
    return _average_precisions(rel, order, topR)


def mean_average_precision(query_codes, query_labels, base_codes, base_labels,
                           topR: Optional[int] = None) -> float:
    aps = average_precisions(query_codes, query_labels, base_codes,
                             base_labels, topR)
    valid = aps[~np.isnan(aps)]
    if valid.size == 0:
        raise ValueError("no query has a relevant base item")
    return float(valid.mean())


def precision_at(query_codes, query_labels, base_codes, base_labels,
                 ks: Sequence[int]) -> list[tuple[int, float]]:
    rel, order = _ranking(query_codes, query_labels, base_codes, base_labels)
    return _precision_at(rel, order, ks)


def per_label_breakdown(aps: np.ndarray, query_labels: np.ndarray,
                        label_order: np.ndarray, head_count: int
                        ) -> tuple[list[Optional[float]], Optional[float],
                                   Optional[float]]:
    """Per-label MAP over the queries carrying each label, plus head/tail means.

    label_order lists label indices by descending sample count; the first
    head_count of them are the head. Labels without valid queries are None
    and excluded from the aggregate means.
    """
    query_labels = np.asarray(query_labels)
    c = query_labels.shape[1]
    per_label: list[Optional[float]] = [None] * c
    for a in range(c):
        mask = (query_labels[:, a] > 0) & ~np.isnan(aps)
        if mask.any():
            per_label[a] = float(aps[mask].mean())
    head = [per_label[a] for a in label_order[:head_count]
            if per_label[a] is not None]
    tail = [per_label[a] for a in label_order[head_count:]
            if per_label[a] is not None]
    head_map = float(np.mean(head)) if head else None
    tail_map = float(np.mean(tail)) if tail else None
    return per_label, head_map, tail_map


def evaluate(direction: str, query_codes, query_labels, base_codes,
             base_labels, label_counts: np.ndarray, head_count: int,
             ks: Sequence[int] = (10, 50, 100), topR: Optional[int] = None,
             variant: str = "full") -> EvalReport:
    """Full retrieval evaluation in one direction."""
    start = time.perf_counter()
    # one ranking serves both AP and precision@k
    rel, order = _ranking(query_codes, query_labels, base_codes, base_labels)
    aps = _average_precisions(rel, order, topR)
    valid = ~np.isnan(aps)
    if not valid.any():
        raise ValueError("no query has a relevant base item")
    label_order = np.argsort(-np.asarray(label_counts), kind="stable")
    per_label, head_map, tail_map = per_label_breakdown(
        aps, query_labels, label_order, head_count)
    return EvalReport(
        direction=direction,
        map=float(aps[valid].mean()),
        precision_at=_precision_at(rel, order, ks),
        per_label_map=per_label,
        head_tail_split_index=int(head_count),
        head_map=head_map,
        tail_map=tail_map,
        n_queries=int(aps.size),
        n_excluded=int((~valid).sum()),
        runtime=time.perf_counter() - start,
        variant=variant)
