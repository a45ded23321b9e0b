"""Label- and sample-level similarity structures.

Pairwise sample similarity S (share at least one label), per-modality label
affinity built from average Hausdorff distances between per-label sample
sets, and the graph-Laplacian regularizer on commonality label prototypes
with its gradient.
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
    H: np.ndarray       # (c, c) average Hausdorff distances, zero diagonal
    R: np.ndarray       # (c, c) similarities exp(-H / sigma^2), in (0, 1]
    D: np.ndarray       # (c,) degree vector, row sums of R
    sigma: float

    @property
    def laplacian(self) -> np.ndarray:
        return np.diag(self.D) - self.R

    def restrict(self, labels: np.ndarray) -> "LabelAffinity":
        """Affinity over a label subset; degrees recomputed on the sub-block."""
        H = self.H[np.ix_(labels, labels)]
        R = self.R[np.ix_(labels, labels)]
        return LabelAffinity(H, R, R.sum(axis=1), self.sigma)


def pair_similarity(L: np.ndarray) -> np.ndarray:
    """S_ij = 1 iff samples i and j share at least one label."""
    L = np.asarray(L, dtype=np.float64)
    if np.any(L.sum(axis=1) == 0):
        raise ValueError("every sample must carry at least one label")
    # shared-label counts are exact in float64, and a float GEMM runs in BLAS
    # where an integer product has no fast path
    return (L @ L.T > 0).astype(np.uint8)


def label_affinity(features: np.ndarray, L: np.ndarray) -> LabelAffinity:
    """Label similarity R_ab = exp(-H_ab / sigma^2) from per-label sets.

    H_ab is the average Hausdorff distance between the sample sets of
    labels a and b. One blocked pass per label b finds every sample's
    distance to its nearest member of b as ||x||^2 + ||y||^2 - 2 x.y^T
    (one GEMM per row block), so each label pair costs two masked sums
    instead of a distance matrix. sigma is the mean of the off-diagonal H
    entries (floored to avoid blow-up on degenerate all-identical data).
    The features are taken column-major, copied if need be, so the result
    has the same bits for either memory layout.
    """
    features = np.asfortranarray(features, dtype=np.float64)
    members = np.asarray(L) > 0
    c = members.shape[1]
    counts = members.sum(axis=0)
    for a in range(c):
        if counts[a] == 0:
            raise ValueError(f"label {a} has no samples")
    nearest = np.sqrt(_nearest_member_sq_dists(features, members))
    H = np.zeros((c, c))
    for a in range(c):
        for b in range(a + 1, c):
            H[a, b] = H[b, a] = ((nearest[members[:, a], b].sum()
                                  + nearest[members[:, b], a].sum())
                                 / (counts[a] + counts[b]))
    off = H[~np.eye(c, dtype=bool)]
    sigma = max(float(off.mean()) if off.size else 0.0, SIGMA_FLOOR)
    R = np.exp(-H / sigma ** 2)
    return LabelAffinity(H, R, R.sum(axis=1), sigma)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


WORKERS = _usable_cpus()
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

    One pass per label fills only that label's column. A large enough set
    of passes is dealt, largest first, to the least-loaded of several
    lists; the calling thread runs one list and threads opened for this
    call run the others. numpy releases the interpreter lock inside the
    GEMMs and reductions, so the lists overlap on separate CPUs. Every row
    block holds up to BLOCK_ELEMS elements whatever the thread count, so
    the result depends on the data alone. The passes call numpy only: the
    tracing in ``perfbench`` assumes that every span of the package nests
    on one thread.
    """
    n, c = members.shape
    sq = np.einsum("ij,ij->i", features, features)
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
        for b in labels:
            _label_pass(features, sq, members[:, b], nn2[:, b])

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
    # GEMM round-off can leave a tiny negative square
    return np.maximum(nn2, 0.0)


def _label_pass(features: np.ndarray, sq: np.ndarray, member: np.ndarray,
                out: np.ndarray) -> None:
    """Squared distance from every non-member to its nearest member, written
    into ``out`` (a column of the result); members keep their 0."""
    rows = np.flatnonzero(~member)
    Ym2 = features[member]
    Ym2 *= -2.0              # exact scaling: X @ Ym2.T == -2 X Y^T
    sq_y = sq[member]
    step = max(1, BLOCK_ELEMS // Ym2.shape[0])
    for start in range(0, rows.size, step):
        blk = rows[start:start + step]
        G = features[blk] @ Ym2.T
        G += sq_y
        # ||x||^2 is constant along a row: add it after the min
        out[blk] = sq[blk] + G.min(axis=1)


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

    Runs in the prototypes' dtype (float32 stays float32, anything else
    becomes float64); lap is cast to it.
    """
    C = nn._as_float(prototypes)
    if C.shape[1] != lap.shape[0]:
        raise ValueError("prototype columns must match label count")
    CL = C @ lap.astype(C.dtype, copy=False)
    return float(np.sum(CL * C)), 2.0 * CL
