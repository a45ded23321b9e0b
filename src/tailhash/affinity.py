"""Label- and sample-level similarity structures.

Pairwise sample similarity S (share at least one label, tested on
bit-packed label sets, as retrieval's relevance is), per-modality label
affinity built from average Hausdorff distances between per-label sample
sets, and the graph-Laplacian regularizer on commonality label prototypes
with its gradient. The affinity's nearest-member search screens each
label's members with a float32 GEMM of bounded error and measures the
candidates it leaves in float64, so every distance is the exact float64
minimum over all members.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import nn

SIGMA_FLOOR = 1e-8
# elements of one row block's distance matrix in the nearest-member pass;
# bounds each thread's temporaries to a few MB whatever the label sizes
BLOCK_ELEMS = 1 << 18


@dataclass
class LabelAffinity:
    """One modality's affinity over all c labels; see j1_batch for a batch."""
    H: np.ndarray       # (c, c) average Hausdorff distances, zero diagonal
    R: np.ndarray       # (c, c) similarities exp(-H / sigma^2), in (0, 1]
    sigma: float

    @property
    def laplacian(self) -> np.ndarray:
        return _laplacian(self.R)


def _laplacian(R: np.ndarray) -> np.ndarray:
    """D - R, with degrees D the row sums of R."""
    return np.diag(R.sum(axis=1)) - R


def pack_labels(L: np.ndarray) -> np.ndarray:
    """(n, c) 0/1 labels bit-packed along c: (ceil(c / 8), n) bytes, row j
    holding labels 8j..8j+7 of every sample, as shares_label takes them."""
    return np.ascontiguousarray(np.packbits(np.asarray(L) > 0, axis=1).T)


def shares_label(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(nq, nb) flags: whether each sample of the packed labels ``q`` shares
    at least one label with each of ``b`` (pack_labels of both).

    The AND of each byte pair, ORed over the bytes; the zero pad bits agree
    in both operands and add nothing, so it is exact for any c.
    """
    if q.shape[0] != b.shape[0]:
        raise ValueError(f"packed label sets of {q.shape[0]} and "
                         f"{b.shape[0]} bytes")
    shared = np.zeros((q.shape[1], b.shape[1]), dtype=np.uint8)
    byte = np.empty_like(shared)
    for qi, bi in zip(q, b):
        np.bitwise_and(qi[:, None], bi[None, :], out=byte)
        shared |= byte
    return shared != 0


def pair_similarity(L: np.ndarray) -> np.ndarray:
    """S_ij = 1 iff samples i and j share at least one label."""
    packed = pack_labels(L)
    if not packed.any(axis=0).all():
        raise ValueError("every sample must carry at least one label")
    return shares_label(packed, packed).view(np.uint8)


def label_affinity(features: np.ndarray, L: np.ndarray,
                   name: str = "features") -> LabelAffinity:
    """Label similarity R_ab = exp(-H_ab / sigma^2) from per-label sets.

    H_ab is the average Hausdorff distance between the sample sets of
    labels a and b. With nearest[b, i] the distance from sample i to its
    nearest member of label b (0 for a member; _nearest_member_sq_dists)
    and S[a, b] its sum over the members of a, H = (S + S^T) / (n_a + n_b)
    with a zero diagonal. sigma is the mean of the off-diagonal H entries
    (floored to avoid blow-up on degenerate all-identical data). Raises
    ValueError for a label without samples, and for features that are not
    all finite or whose squared distances overflow float64, which ``name``
    names.
    """
    features = np.asarray(features, dtype=np.float64)
    bad = features.size - np.count_nonzero(np.isfinite(features))
    if bad:
        raise ValueError(f"{name} hold {bad} NaN or infinite value(s); the "
                         f"label affinity needs finite features")
    members = np.asarray(L) > 0
    c = members.shape[1]
    counts = members.sum(axis=0)
    for a in range(c):
        if counts[a] == 0:
            raise ValueError(f"label {a} has no samples")
    nn2 = _nearest_member_sq_dists(features, members)
    if not np.isfinite(nn2).all():
        raise ValueError(f"{name} are too large for the label affinity: "
                         f"their squared distances overflow float64")
    # one C-ordered row per label, so that every sum runs pairwise along a
    # contiguous row
    nearest = np.sqrt(nn2.T.copy())
    S = np.stack([np.compress(members[:, a], nearest, axis=1).sum(axis=1)
                  for a in range(c)])
    H = (S + S.T) / (counts[:, None] + counts[None, :])
    np.fill_diagonal(H, 0.0)
    off = H[~np.eye(c, dtype=bool)]
    sigma = max(float(off.mean()) if off.size else 0.0, SIGMA_FLOOR)
    R = np.exp(-H / sigma ** 2)
    return LabelAffinity(H, R, sigma)


try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:          # platforms without CPU affinity
    WORKERS = os.cpu_count() or 1
# a pass is split only when every worker gets at least this many full blocks;
# below that, the threads' allocator arenas and hand-offs cost more memory and
# time than the overlap saves
MIN_BLOCKS_PER_WORKER = 8


def _workers_for(n_blocks: float) -> int:
    """Threads to split a pass of ``n_blocks`` full blocks across; 1 = inline."""
    return max(1, min(WORKERS, int(n_blocks // MIN_BLOCKS_PER_WORKER)))


def _nearest_member_sq_dists(features: np.ndarray,
                             members: np.ndarray) -> np.ndarray:
    """(n, c) squared distance from each sample to its nearest member of
    each label; exactly 0 where the sample carries the label.

    Each entry is the float64 minimum of ||x - y||^2, summed in difference
    form, over all members y of the label: a float32 screen (_screen)
    narrows the members down, and only its candidates are measured. The
    result depends on the data alone, not on the screen's rounding, the
    row blocks, the thread count or the memory layout.

    One pass per label fills only that label's column. A large enough set
    of passes is dealt, largest first, to the least-loaded of several
    lists; the calling thread runs one list and threads opened for this
    call run the others. numpy releases the interpreter lock inside the
    GEMMs and reductions, so the lists overlap on separate CPUs. Every row
    block holds up to BLOCK_ELEMS elements whatever the thread count. The
    passes call numpy only: the tracing in ``perfbench`` assumes that every
    span of the package nests on one thread.
    """
    n, c = members.shape
    screen = _screen(features)
    nn2 = np.zeros((n, c))
    counts = members.sum(axis=0)
    # a member is its own nearest member, so only the others are searched
    work = (n - counts) * counts
    workers = _workers_for(work.sum() / BLOCK_ELEMS)
    lists: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for b in np.argsort(-work, kind="stable"):
        w = loads.index(min(loads))
        lists[w].append(b)
        loads[w] += work[b]

    def run(labels: list[int]) -> None:
        # per thread: an overflowing distance stays inf, and label_affinity
        # refuses it
        with np.errstate(over="ignore"):
            for b in labels:
                _label_pass(features, screen, members[:, b], nn2[:, b])

    if workers == 1:
        run(lists[0])
    else:
        # leaving the block joins the threads; a helper's error is raised
        # by its result(), the caller's after the helpers have finished
        with ThreadPoolExecutor(workers - 1,
                                thread_name_prefix="tailhash") as pool:
            helpers = [pool.submit(run, labels) for labels in lists[1:]]
            run(lists[0])
            for helper in helpers:
                helper.result()
    return nn2


@dataclass
class _Screen:
    """float32 screen operands of one feature matrix; see _screen."""
    rows: np.ndarray     # (n, d + 1) float32 [z, 1]
    sq: np.ndarray       # (n,) float64 ||z||^2
    rel: float           # error bound per unit of ||z_i||^2 + max ||w||^2
    floor: float         # absolute part of the error bound


_U32 = 2.0 ** -24        # unit round-off of float32


def _screen(features: np.ndarray) -> _Screen:
    """The float32 screen of ``features``, with its error bound.

    The rows x are scaled by a power of two to max |x| < 1, so that their
    mean mu cannot overflow, then centred and scaled by a power of two
    again, z = s (x - mu) with max |z| in [1/2, 1), which keeps float32
    clear of overflow. For a sample z and a member w, the screen value
    [z, 1] . [-2w, ||w||^2] = s^2 (||x - y||^2 - ||x - mu||^2), so along a
    row it orders the members as ||x - y||^2 does. Its float32 error is at
    most
    e = rel (||z||^2 + max ||w||^2) + floor, with u = 2^-24:
    - the dot product of d + 1 terms adds at most gamma_{d+1} times the
      sum of their magnitudes, ||z||^2 + 2 ||w||^2 at most, whatever the
      summation order (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., 2002, sec. 3.1), with gamma_n = nu / (1 - nu);
    - rounding z, w and ||w||^2 to float32 adds at most
      (2u + u^2)(||z||^2 + ||w||^2) + u ||w||^2;
    so rel = (2d + 8) u / (1 - (d + 1) u) exceeds both coefficients by
    3u or more, which absorbs the float64 rounding of the centring, of
    ||z||^2, of the bound itself and of the measured distances, all of
    order 2^-53 per term. The floor covers float32 underflow of operands
    and products, 2^-150 apiece; float64 underflow of the measured squares,
    2^-1075 apiece before the scaling; and the first scaling's, 2^-1075 per
    coordinate before the second, which moves a screen value by less than
    16 times that per coordinate. The pass (_label_pass) keeps every member
    within 2e of a row's smallest screen value, which holds the member of
    least float64 ||x - y||^2. The centring and the scalings leave that
    measurement alone: it reads the original features.
    """
    n, d = features.shape
    pre = -int(np.frexp(np.abs(features).max(initial=0.0))[1])
    z = np.ldexp(features, pre)
    z -= z.mean(axis=0)
    shift = -int(np.frexp(np.abs(z).max(initial=0.0))[1])
    np.ldexp(z, shift, out=z)
    rows = np.empty((n, d + 1), dtype=np.float32)
    rows[:, :d] = z
    rows[:, d] = 1.0
    floor = (d + 1) * float(2.0 ** -144 + np.ldexp(1.0, shift - 1071)
                            + np.ldexp(1.0, 2 * (pre + shift) - 1074))
    return _Screen(rows, np.einsum("ij,ij->i", z, z),
                   (2 * d + 8) * _U32 / (1 - (d + 1) * _U32), floor)


def _label_pass(features: np.ndarray, screen: _Screen, member: np.ndarray,
                out: np.ndarray) -> None:
    """Squared distance from every non-member to its nearest member, written
    into ``out`` (a column of the result); members keep their 0.

    Per row block, one float32 GEMM gives the screen values of every
    member, and each row's argmin is measured in float64. A row whose
    second-smallest value also lies within twice its bound (_screen) has
    more candidates; it takes the float64 minimum over all of them."""
    rows = np.flatnonzero(~member)
    cols = np.flatnonzero(member)
    W = screen.rows[cols]
    W[:, :-1] *= -2.0        # exact in float32
    W[:, -1] = screen.sq[cols]
    tol = 2.0 * (screen.rel * (screen.sq[rows] + screen.sq[cols].max())
                 + screen.floor)
    best = np.empty(rows.size, dtype=np.intp)
    # rows with further candidates: their positions and least squares
    more: list[tuple[np.ndarray, np.ndarray]] = []
    step = max(1, BLOCK_ELEMS // cols.size)
    for start in range(0, rows.size, step):
        G = screen.rows[rows[start:start + step]] @ W.T
        j = G.argmin(axis=1)
        best[start:start + step] = j
        at = np.arange(j.size)
        # float64 bounds: a float32 value compares with them exactly
        bound = G[at, j] + tol[start:start + step]
        G[at, j] = np.inf
        multi = np.flatnonzero(G.min(axis=1) <= bound)
        if multi.size:
            r, k = np.nonzero(G[multi] <= bound[multi, None])
            d2 = _sq_dists(features, rows[start + multi[r]], cols[k])
            firsts = np.flatnonzero(np.diff(r, prepend=-1))
            more.append((start + multi, np.minimum.reduceat(d2, firsts)))
    nn2 = _sq_dists(features, rows, cols[best])
    for at, d2 in more:
        nn2[at] = np.minimum(nn2[at], d2)
    out[rows] = nn2


def _sq_dists(features: np.ndarray, rows: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """float64 ||features[rows[k]] - features[cols[k]]||^2 for each pair k,
    each a sum over one C-ordered row of squared differences, taken in
    chunks of at most BLOCK_ELEMS elements."""
    out = np.empty(rows.size)
    step = max(1, BLOCK_ELEMS // max(1, features.shape[1]))
    for start in range(0, rows.size, step):
        diff = features[rows[start:start + step]]
        diff -= features[cols[start:start + step]]
        diff *= diff
        out[start:start + step] = diff.sum(axis=1)
    return out


def pooling_matrix(L: np.ndarray) -> np.ndarray:
    """(n, c) mean-pooling map: W[i, a] = 1/n_a if sample i carries label a.

    float32 labels give a float32 map; any other dtype gives float64.
    """
    L = nn._as_float(L)
    counts = L.sum(axis=0)
    if np.any(counts == 0):
        raise ValueError("every label must have at least one sample")
    return L / counts[None, :]


def j1_trace(prototypes: np.ndarray, lap: np.ndarray
             ) -> tuple[float, np.ndarray]:
    """tr(C lap C^T) and its gradient 2 C lap for a symmetric (c, c) lap.

    The gradient runs in the prototypes' dtype (float32 stays float32,
    anything else becomes float64). The value is formed in float64: a
    float32 trace cancels once the prototypes are large, even below zero.
    """
    C = nn._as_float(prototypes)
    if C.shape[1] != lap.shape[0]:
        raise ValueError("prototype columns must match label count")
    CL = C @ lap.astype(C.dtype, copy=False)
    C64 = C.astype(np.float64, copy=False)
    CL64 = CL if C.dtype == np.float64 else C64 @ lap
    return float(np.sum(CL64 * C64)), 2.0 * CL


def j1_batch(Cs_cols: np.ndarray, L: np.ndarray, aff_x: LabelAffinity,
             aff_y: LabelAffinity) -> tuple[float, np.ndarray]:
    """J1 of one batch and its gradient wrt the (k, n) commonality codes.

    The prototypes pool the codes over each label the (n, c) labels L
    hold (pooling_matrix); the Laplacian sums both modalities' R restricted
    to those labels, with degrees taken from the sub-block.
    """
    L = np.asarray(L)
    present = np.flatnonzero(L.sum(axis=0) > 0)
    W = pooling_matrix(L[:, present])                        # (n, cp)
    sub = np.ix_(present, present)
    lap = _laplacian(aff_x.R[sub]) + _laplacian(aff_y.R[sub])
    value, g_prot = j1_trace(Cs_cols @ W, lap)               # (k, cp)
    return value, g_prot @ W.T
