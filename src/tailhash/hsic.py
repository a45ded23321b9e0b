"""Hilbert-Schmidt independence criterion between two code matrices.

RBF kernels over rows (samples as rows here), projector centering, the
biased trace estimator (n-1)^(-2) tr(Kx A Ky A), and its analytic gradient
with the bandwidths treated as constants during differentiation. This is
the trainer's path only; it follows its input's dtype (float32 stays
float32, anything else becomes float64). The composed path it is checked
against is an oracle in ``verify``.
"""

from __future__ import annotations

import numpy as np

from . import nn

BANDWIDTH_FLOOR = 1e-8


def pairwise_sq_dists(P: np.ndarray) -> np.ndarray:
    P = nn._as_float(P)
    sq = np.sum(P * P, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (P @ P.T)
    return np.maximum(d2, 0.0)


def _mean_offdiagonal(d2: np.ndarray) -> float:
    """Mean off-diagonal entry of a pairwise squared-distance matrix,
    floored: the RBF bandwidth."""
    n = d2.shape[0]
    off = d2[~np.eye(n, dtype=bool)]
    return max(float(off.mean()) if off.size else 0.0, BANDWIDTH_FLOOR)


def hsic_value_and_grad(Px: np.ndarray, Py: np.ndarray
                        ) -> tuple[float, np.ndarray, np.ndarray]:
    """HSIC of the rows of Px and Py at their own bandwidths, with its
    gradient wrt the rows of each.

    The value equals the composed oracle in verify,
    hsic_value(rbf_kernel(P, bandwidth(P)), ...), bit for bit. The
    bandwidths are constants in the gradient (no gradient through sigma).
    d value / d Kx is (n-1)^(-2) A Ky A, formed by double centering Ky in
    O(n^2) rather than by two dense products with A.
    """
    Px = nn._as_float(Px)
    Py = nn._as_float(Py)
    if Px.shape[0] != Py.shape[0]:
        raise ValueError("row counts must match")
    n = Px.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")

    def kernel(P):
        d2 = pairwise_sq_dists(P)
        sigma = _mean_offdiagonal(d2)
        K = np.exp(-d2 / sigma)
        return sigma, K, K - K.mean(axis=1, keepdims=True)   # K A

    sx, Kx, KxC = kernel(Px)
    sy, Ky, KyC = kernel(Py)
    value = float(np.sum(KxC * KyC.T) / (n - 1) ** 2)

    def kernel_chain(KC_other, K, P, sigma):
        # (A K_other A) * K, elementwise; A K_other A = K_other A minus its
        # column means
        T = (KC_other - KC_other.mean(axis=0, keepdims=True)) * K
        row = T.sum(axis=1)
        return (-4.0 / (sigma * (n - 1) ** 2)) * (row[:, None] * P - T @ P)

    return (value, kernel_chain(KyC, Kx, Px, sx),
            kernel_chain(KxC, Ky, Py, sy))
