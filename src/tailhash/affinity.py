"""Label- and sample-level similarity structures.

Pairwise sample similarity S (share at least one label), per-modality label
affinity built from average Hausdorff distances between per-label sample
sets, and the graph-Laplacian regularizer on commonality label prototypes
with its gradient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _pool, nn

SIGMA_FLOOR = 1e-8
# elements of one row block's distance matrix in the nearest-member pass;
# bounds its temporaries to a few MB whatever the label sizes
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
    """
    features = np.asarray(features, dtype=np.float64)
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


def _nearest_member_sq_dists(features: np.ndarray,
                             members: np.ndarray) -> np.ndarray:
    """(n, c) squared distance from each sample to its nearest member of
    each label; exactly 0 where the sample carries the label.

    Each label's pass fills only its own column. A large enough set of
    passes is shared among worker threads, largest first; the row blocks
    then split BLOCK_ELEMS among the workers, which keeps the temporaries
    in the same budget.
    """
    n, c = members.shape
    sq = np.einsum("ij,ij->i", features, features)
    nn2 = np.zeros((n, c))
    counts = members.sum(axis=0)
    # a member is its own nearest member, so only the others are searched
    work = (n - counts) * counts
    workers = _pool.workers_for(work.sum() / BLOCK_ELEMS)
    budget = BLOCK_ELEMS // workers

    def label_pass(b: int) -> None:
        rows = np.flatnonzero(~members[:, b])
        Ym2 = features[members[:, b]]
        Ym2 *= -2.0              # exact scaling: X @ Ym2.T == -2 X Y^T
        sq_y = sq[members[:, b]]
        step = max(1, budget // Ym2.shape[0])
        for start in range(0, rows.size, step):
            blk = rows[start:start + step]
            G = features[blk] @ Ym2.T
            G += sq_y
            # ||x||^2 is constant along a row: add it after the min
            nn2[blk, b] = sq[blk] + G.min(axis=1)

    _pool.run([functools.partial(label_pass, b)
               for b in np.argsort(-work, kind="stable")], workers)
    # GEMM round-off can leave a tiny negative square
    return np.maximum(nn2, 0.0)


def pooling_matrix(L: np.ndarray) -> np.ndarray:
    """(n, c) mean-pooling map: W[i, a] = 1/n_a if sample i carries label a.

    float32 labels give a float32 map; any other dtype gives float64.
    """
    L = nn._as_float(L)
    counts = L.sum(axis=0)
    if np.any(counts == 0):
        raise ValueError("every label must have at least one sample")
    return L / counts[None, :]


def j1_loss_and_grad(prototypes: np.ndarray, aff_x: LabelAffinity,
                     aff_y: LabelAffinity) -> tuple[float, np.ndarray]:
    """Cross-modal commonality regularizer tr(C (Lx + Ly) C^T).

    Returns the value and its gradient 2 C (Lx + Ly) with respect to the
    (k, c) prototype matrix.
    """
    return j1_trace(prototypes, aff_x.laplacian + aff_y.laplacian)


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
