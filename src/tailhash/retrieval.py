"""Query encoding, Hamming ranking, MAP and head/tail breakdowns.

Relevance rule: a base item is relevant to a query iff they share at least
one label. Rankings sort by Hamming distance ascending with ties broken by
ascending base index; queries without any relevant base item are excluded
from MAP and surfaced in the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import affinity, autoencoder, hashing, meta, nn

# direction -> the modalities of its (query, base) codes
DIRECTIONS = {"i2t": ("x", "y"), "t2i": ("y", "x")}


@dataclass
class EvalReport:
    direction: str                      # a key of DIRECTIONS
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


def encode_query(modality: str, raw: np.ndarray,
                 icae: autoencoder.IcaeParams, side: meta.HashSideParams,
                 variant: hashing.Variant = hashing.VARIANTS["full"]
                 ) -> np.ndarray:
    """Per-modality hash function: raw features -> (k, n) codes in {-1, +1}.

    The commonality encoder sees the other modality's block zero-imputed,
    matching the modality-dropout regime it was trained under; the
    individuality enters as its label-memory feature. The codes and the meta
    features come from the same calls training makes
    (hashing.modality_codes, meta.meta_forward), one row block at a time
    (hashing.meta_pass), so only the codes outlive a block.
    """
    if modality not in ("x", "y"):
        raise ValueError("modality must be 'x' or 'y'")
    raw = np.asarray(raw, dtype=np.float64)
    side_v = side.x if modality == "x" else side.y
    M = hashing.meta_pass(side_v, raw, lambda blk: hashing.modality_codes(
        icae, modality, raw[blk], variant))
    # the sign in place, without a data-dependent branch: M >= 0 -> +1,
    # else -1, as 2 * (M >= 0) - 1
    np.multiply(M >= 0.0, 2.0, out=M)
    M -= 1.0
    return M


def _packed(query_codes: np.ndarray, base_codes: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Both (k, n) code matrices of exact +/-1 bit-packed along k, into
    ceil(k / 8) bytes per item, and k."""
    Q = np.asarray(query_codes)
    D = np.asarray(base_codes)
    if Q.ndim != 2 or D.ndim != 2:
        raise ValueError("codes must be (k, n) matrices")
    k = Q.shape[0]
    if D.shape[0] != k:
        raise ValueError(f"code lengths must match: {k} vs {D.shape[0]}")
    if not all(np.all((C == 1) | (C == -1)) for C in (Q, D)):
        raise ValueError("codes must be exactly +/-1")
    # packing cannot tell k = 9 from k = 10, hence the length check above;
    # the zero pad bits agree in both operands and add nothing
    return np.packbits(Q > 0, axis=0), np.packbits(D > 0, axis=0), k


def _distances(q: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Hamming distances of packed query and base codes, (nq, nb): the
    popcount of the XOR of each byte, summed in the narrowest unsigned type
    that holds k."""
    dist = np.zeros((q.shape[1], b.shape[1]), dtype=np.min_scalar_type(k))
    byte = np.empty(dist.shape, dtype=np.uint8)
    for qi, bi in zip(q, b):
        np.bitwise_xor(qi[:, None], bi[None, :], out=byte)
        np.bitwise_count(byte, out=byte)
        dist += byte
    return dist


def hamming_matrix(query_codes: np.ndarray, base_codes: np.ndarray) -> np.ndarray:
    """All pairwise Hamming distances, (nq, nb), of (k, n) codes of exact
    +/-1, from bit-packed codes."""
    return _distances(*_packed(query_codes, base_codes))


def _score(query_codes, query_labels, base_codes, base_labels,
           topR: Optional[int], ks: Sequence[int]
           ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Per-query AP, relevance flags and precision@k for each k in ks.

    A base item is ranked by Hamming distance, ties by base index (a stable
    sort). Queries are scored in blocks of about nn.BLOCK_ELEMS ranked
    items, so only one block's distances and order exist at a time; both
    code sets are packed once, and each block's distances come from the
    packed bytes.
    The blocks run on the calling thread: they are short, and numpy holds
    the interpreter lock in part of each, so worker threads would mostly
    pass the lock back and forth, with timings that follow the host's load.
    Relevance is affinity.shares_label of the label sets, bit-packed once
    like the codes.
    """
    if topR is not None and topR < 1:
        raise ValueError(f"top R must be >= 1, got {topR}")
    q, b, bits = _packed(query_codes, base_codes)
    if np.shape(query_labels)[1] != np.shape(base_labels)[1]:
        raise ValueError("query and base labels must have as many columns")
    lq = affinity.pack_labels(query_labels)
    lb = affinity.pack_labels(base_labels)
    nq, nb = q.shape[1], b.shape[1]
    for what, n, rows in (("query", nq, lq.shape[1]),
                          ("base", nb, lb.shape[1])):
        if n != rows:
            raise ValueError(f"{what} codes have {n} columns but {what} "
                             f"labels have {rows} rows")
    limit = nb if topR is None else min(topR, nb)
    aps = np.full(nq, np.nan)
    valid = np.zeros(nq, dtype=bool)
    hits_at = [np.zeros(nq, dtype=np.int64) for _ in ks]
    rows = max(1, nn.BLOCK_ELEMS // max(nb, 1))
    for start in range(0, nq, rows):
        blk = slice(start, start + rows)
        rel = affinity.shares_label(lq[:, blk], lb)
        valid[blk] = rel.any(axis=1)
        ap, hits = _rank(_distances(q[:, blk], b, bits), rel, limit, ks)
        aps[blk] = np.where(valid[blk], ap, np.nan)
        for total, counts in zip(hits_at, hits):
            total[blk] = counts
    return aps, valid, [hits / min(k, nb) for k, hits in zip(ks, hits_at)]


def _rank(dist: np.ndarray, rel: np.ndarray, limit: int,
          ks: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """AP over the first ``limit`` ranks, and the hits in the first k ranks
    for each k in ks, of query rows with (rows, nb) distances ``dist`` and
    relevance flags ``rel``; 0 AP for a row without hits.

    The j-th hit at 0-based rank p adds j / (p + 1) to its query's AP,
    which sums its own hits in rank order. The temporaries end with the
    call, before the next block starts.
    """
    nb = dist.shape[1]
    order = np.argsort(dist, axis=1, kind="stable")
    # offset each row's order into the flat flags, so that one flat take
    # ranks them (about 3x faster than take_along_axis)
    order += np.arange(rel.shape[0])[:, None] * nb
    ranked = rel.ravel().take(order)
    del order   # its room goes to the hit arrays below
    hits = [ranked[:, :min(k, nb)].sum(axis=1) for k in ks]
    top = ranked[:, :limit]
    n_hits = np.count_nonzero(top, axis=1)
    ends = np.cumsum(n_hits)
    # flat indices of the hits, row by row, then each hit's 1-based count j
    # and 1-based rank p + 1 within its row, in place where they allow
    hit = np.flatnonzero(top)
    j = np.arange(1, hit.size + 1)
    j -= np.repeat(ends - n_hits, n_hits)
    hit %= limit
    hit += 1
    terms = j / hit
    sums = [terms[s:e].sum() for s, e in zip(ends - n_hits, ends)]
    ap = np.zeros(len(sums))
    np.divide(sums, n_hits, out=ap, where=n_hits > 0)
    return ap, hits


def average_precisions(query_codes: np.ndarray, query_labels: np.ndarray,
                       base_codes: np.ndarray, base_labels: np.ndarray,
                       topR: Optional[int] = None) -> np.ndarray:
    """Per-query AP; NaN marks queries with no relevant base item."""
    return _score(query_codes, query_labels, base_codes, base_labels,
                  topR, ())[0]


def mean_average_precision(query_codes, query_labels, base_codes, base_labels,
                           topR: Optional[int] = None) -> float:
    aps = average_precisions(query_codes, query_labels, base_codes,
                             base_labels, topR)
    valid = aps[~np.isnan(aps)]
    if valid.size == 0:
        raise ValueError("no query has a relevant base item")
    return float(valid.mean())


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
             base_labels, label_counts: np.ndarray,
             head_count: Optional[int] = None,
             ks: Sequence[int] = (10, 50, 100), topR: Optional[int] = None,
             variant: str = "full") -> EvalReport:
    """Full retrieval evaluation in one direction; the head is the first
    head_count (0..c, c // 2 when None) labels by descending count."""
    start = time.perf_counter()
    c = np.shape(query_labels)[1]
    if head_count is None:
        head_count = c // 2
    if not 0 <= head_count <= c:
        raise ValueError(f"head count must be in 0..{c}, got {head_count}")
    # one ranking serves both AP and precision@k
    aps, valid, per_query = _score(query_codes, query_labels, base_codes,
                                   base_labels, topR, ks)
    if not valid.any():
        raise ValueError("no query has a relevant base item")
    label_order = np.argsort(-np.asarray(label_counts), kind="stable")
    per_label, head_map, tail_map = per_label_breakdown(
        aps, query_labels, label_order, head_count)
    return EvalReport(
        direction=direction,
        map=float(aps[valid].mean()),
        precision_at=[(int(k), float(p[valid].mean()))
                      for k, p in zip(ks, per_query)],
        per_label_map=per_label,
        head_tail_split_index=int(head_count),
        head_map=head_map,
        tail_map=tail_map,
        n_queries=int(aps.size),
        n_excluded=int((~valid).sum()),
        runtime=time.perf_counter() - start,
        variant=variant)
