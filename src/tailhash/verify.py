"""Self-verification harness: gradient checks and independent oracles.

Each suite returns (name, passed, detail). The oracles here are coded
independently of the library paths they check: expanded double sums, brute
force enumeration, quadratic-time ranking walks and central finite
differences.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from . import affinity, autoencoder, hashing, hsic, nn, retrieval

REL_TOL = 1e-4
EXACT_TOL = 1e-10


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def _maybe_bug(g: np.ndarray, bug: bool) -> np.ndarray:
    return g + 1e-2 if bug else g


def check_mlp_gradients(seed: int = 0, trials: int = 5, bug: bool = False):
    """Analytic backprop vs finite differences on random small nets."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dims = [int(rng.integers(2, 5)) for _ in range(3)]
        net = nn.init_mlp(dims, rng)
        x = rng.standard_normal((dims[0], 4))

        def loss_at(vec):
            nn.set_flat(net, vec)
            out, _ = nn.forward(net, x)
            return 0.5 * float(np.sum(out ** 2))

        theta = nn.get_flat(net)
        out, tape = nn.forward(net, x)
        grads, _ = nn.backward(net, tape, out)
        analytic = _maybe_bug(nn.flat_grads(grads), bug)
        numeric = nn.finite_diff_grad(loss_at, theta)
        nn.set_flat(net, theta)
        worst = max(worst, _rel_err(analytic, numeric))
    return ("mlp_gradients", worst <= REL_TOL, f"worst rel err {worst:.2e}")


def hsic_expanded_oracle(Px: np.ndarray, Py: np.ndarray,
                         sx: float, sy: float) -> float:
    """Expanded double-sum estimator sum_ab (AKxA)_ab (AKyA)_ab / (n-1)^2."""
    n = Px.shape[0]
    Kx = np.array([[np.exp(-np.sum((Px[a] - Px[b]) ** 2) / sx)
                    for b in range(n)] for a in range(n)])
    Ky = np.array([[np.exp(-np.sum((Py[a] - Py[b]) ** 2) / sy)
                    for b in range(n)] for a in range(n)])
    A = np.eye(n) - np.ones((n, n)) / n
    Kxc = A @ Kx @ A
    Kyc = A @ Ky @ A
    total = 0.0
    for a in range(n):
        for b in range(n):
            total += Kxc[a, b] * Kyc[a, b]
    return total / (n - 1) ** 2


def hsic_grad_oracle(Px: np.ndarray, Py: np.ndarray, sx: float, sy: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """HSIC gradient wrt the rows of Px and Py at fixed bandwidths, from
    the dense centering products A K A with A = I - ee^T/n."""
    n = Px.shape[0]
    A = np.eye(n) - np.ones((n, n)) / n

    def kernel(P, sigma):
        return np.exp(-np.sum((P[:, None, :] - P[None, :, :]) ** 2,
                              axis=2) / sigma)

    def chain(W, K, P, sigma):
        # d/dP_a of sum_ab W_ab exp(-|P_a - P_b|^2 / sigma), W symmetric
        T = W * K
        return (-4.0 / sigma) * (T.sum(axis=1)[:, None] * P - T @ P)

    Kx, Ky = kernel(Px, sx), kernel(Py, sy)
    scale = 1.0 / (n - 1) ** 2
    return (chain(scale * (A @ Ky @ A), Kx, Px, sx),
            chain(scale * (A @ Kx @ A), Ky, Py, sy))


def check_hsic(seed: int = 0, trials: int = 20, bug: bool = False):
    """hsic_value_and_grad: the value bit for bit against the composed
    bandwidth / rbf_kernel / hsic_value path and near the expanded double
    sum; the gradient against finite differences at small n and against
    the dense oracle at batch sizes."""
    rng = np.random.default_rng(seed)
    worst_val, worst_grad, worst_dense = 0.0, 0.0, 0.0
    exact = True

    def fused(Px, Py):
        nonlocal exact
        sx, sy = hsic.bandwidth(Px), hsic.bandwidth(Py)
        val, gx, gy = hsic.hsic_value_and_grad(Px, Py)
        exact = exact and val == hsic.hsic_value(hsic.rbf_kernel(Px, sx),
                                                 hsic.rbf_kernel(Py, sy))
        return sx, sy, val, _maybe_bug(gx, bug), gy

    for _ in range(trials):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 5))
        Px = rng.standard_normal((n, d))
        Py = rng.standard_normal((n, d))
        sx, sy, val, gx, gy = fused(Px, Py)
        worst_val = max(worst_val, abs(val - hsic_expanded_oracle(Px, Py, sx, sy)))
        fx = nn.finite_diff_grad(
            lambda P: hsic.hsic_value(hsic.rbf_kernel(P, sx),
                                      hsic.rbf_kernel(Py, sy)), Px)
        fy = nn.finite_diff_grad(
            lambda P: hsic.hsic_value(hsic.rbf_kernel(Px, sx),
                                      hsic.rbf_kernel(P, sy)), Py)
        worst_grad = max(worst_grad, _rel_err(gx, fx), _rel_err(gy, fy))

    for n in (2, 3, 128, 129):
        Px = rng.standard_normal((n, 16))
        Py = rng.standard_normal((n, 16))
        sx, sy, _, gx, gy = fused(Px, Py)
        ox, oy = hsic_grad_oracle(Px, Py, sx, sy)
        worst_dense = max(worst_dense, _rel_err(gx, ox), _rel_err(gy, oy))
    ok = (exact and worst_val <= EXACT_TOL and worst_grad <= REL_TOL
          and worst_dense <= 1e-12)
    return ("hsic_value_and_grad", ok,
            f"value {'bit-identical' if exact else 'DIFFERS'} to the "
            f"composed path, err {worst_val:.2e} vs expanded sum; grad rel "
            f"err {worst_grad:.2e} vs finite differences, {worst_dense:.2e} "
            f"vs dense oracle")


def j1_pairwise(prototypes: np.ndarray, aff_x: affinity.LabelAffinity,
                aff_y: affinity.LabelAffinity) -> float:
    """Pairwise-sum form 1/2 sum_ab ||C_a - C_b||^2 (Rx_ab + Ry_ab).

    Independent of the trace form of affinity.j1_trace; the two
    must agree to rounding.
    """
    C = np.asarray(prototypes, dtype=np.float64)
    R = aff_x.R + aff_y.R
    c = C.shape[1]
    total = 0.0
    for a in range(c):
        for b in range(c):
            total += 0.5 * float(np.sum((C[:, a] - C[:, b]) ** 2)) * R[a, b]
    return total


def check_j1(seed: int = 0, trials: int = 20, bug: bool = False):
    """Trace form vs pairwise-sum form; zero on constant prototypes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        c = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        n = c * 3
        feats = rng.standard_normal((n, 3))
        L = np.zeros((n, c), dtype=np.uint8)
        L[np.arange(n), np.arange(n) % c] = 1
        aff = affinity.label_affinity(feats, L)
        C = rng.standard_normal((k, c))
        val, _ = affinity.j1_trace(C, aff.laplacian + aff.laplacian)
        val = val + (1e-2 if bug else 0.0)
        worst = max(worst, abs(val - j1_pairwise(C, aff, aff)))
        const_val, _ = affinity.j1_trace(
            np.tile(rng.standard_normal((k, 1)), (1, c)),
            aff.laplacian + aff.laplacian)
        worst = max(worst, abs(const_val))
    return ("j1_dual_form", worst <= 1e-8, f"worst abs err {worst:.2e}")


def avg_hausdorff(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Average Hausdorff distance between two point sets (Euclidean).

    Sum of nearest-neighbor distances in both directions, divided by the
    total number of points |A| + |B|.
    """
    A = np.atleast_2d(np.asarray(set_a, dtype=np.float64))
    B = np.atleast_2d(np.asarray(set_b, dtype=np.float64))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("point sets must be non-empty")
    d = cdist(A, B)
    return float((d.min(axis=1).sum() + d.min(axis=0).sum())
                 / (A.shape[0] + B.shape[0]))


def check_label_affinity(seed: int = 0, trials: int = 3, bug: bool = False):
    """Blocked nearest-member affinity vs the per-pair average Hausdorff
    definition, on multi-label sets of unequal sizes whose nearest-member
    passes span several row blocks; two labels with identical sample sets
    must get H == 0 exactly."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(trials):
        c = int(rng.integers(3, 6))
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1500, 2000))
        feats = rng.uniform(0.5, 3.0) * rng.standard_normal((n, d))
        # label 0 on about half the samples: its pass over the other half
        # takes several blocks; the rest are rarer and overlap it
        freq = rng.uniform(0.05, 0.4, size=c)
        L = (rng.random((n, c)) < freq).astype(np.uint8)
        L[:, 0] = rng.random(n) < 0.5
        L[L.sum(axis=1) == 0, 0] = 1
        L[:, c - 1] = L[:, 1]
        aff = affinity.label_affinity(feats, L)
        sets = [feats[L[:, a] > 0] for a in range(c)]
        H = np.zeros((c, c))
        for a in range(c):
            for b in range(a + 1, c):
                H[a, b] = H[b, a] = avg_hausdorff(sets[a], sets[b])
        sigma = H[~np.eye(c, dtype=bool)].mean()
        R = np.exp(-H / sigma ** 2)
        for got, want in ((_maybe_bug(aff.H, bug), H), (aff.R, R),
                          (aff.D, R.sum(axis=1))):
            err = np.abs(got - want)
            # exact where the definition gives 0: the diagonal and the
            # identical pair (1, c - 1)
            ok = ok and bool(np.all(err <= 1e-12 * np.abs(want)))
            nz = want != 0
            worst = max(worst, float(np.max(err[nz] / np.abs(want[nz]))))
    return ("label_affinity_oracle", ok, f"worst rel err {worst:.2e}")


def check_loss1_gradients(seed: int = 0, trials: int = 3, bug: bool = False):
    """Full phase-1 loss gradient vs finite differences on tiny instances."""
    rng = np.random.default_rng(seed)
    alpha, beta = 0.3, 0.5
    worst = 0.0
    for _ in range(trials):
        n, k, d = 6, 2, 3
        c = 3
        # two discarded [d, 3, d] nets keep the seeded instances on which
        # acceptance criterion 1 was measured
        nn.init_mlp([d, 3, d], rng)
        nn.init_mlp([d, 3, d], rng)
        # tiny hidden layers keep the finite-difference sweep fast
        icae = autoencoder.IcaeParams(
            enc_ind_x=nn.init_mlp([d, 3, k], rng),
            enc_ind_y=nn.init_mlp([d, 3, k], rng),
            enc_common=nn.init_mlp([2 * d, 3, k], rng),
            dec_x=nn.init_mlp([2 * k, 3, d], rng),
            dec_y=nn.init_mlp([2 * k, 3, d], rng))
        Fx = rng.standard_normal((n, d))
        Fy = rng.standard_normal((n, d))
        L = np.zeros((n, c), dtype=np.uint8)
        L[np.arange(n), np.arange(n) % c] = 1
        aff_x = affinity.label_affinity(Fx, L)
        aff_y = affinity.label_affinity(Fy, L)
        _, _, grads = autoencoder.loss1(icae, Fx, Fy, L, aff_x, aff_y,
                                        alpha, beta)
        for name, net in icae.nets().items():
            theta = nn.get_flat(net)
            # bandwidths are pinned at the base point: the analytic gradient
            # deliberately does not differentiate through sigma
            numeric = _finite_diff_frozen_sigma(icae, Fx, Fy, L, aff_x, aff_y,
                                                alpha, beta, net, theta)
            analytic = _maybe_bug(nn.flat_grads(grads[name]), bug)
            worst = max(worst, _rel_err(analytic, numeric))
    return ("loss1_gradients", worst <= REL_TOL, f"worst rel err {worst:.2e}")


def _finite_diff_frozen_sigma(icae, Fx, Fy, L, aff_x, aff_y, alpha, beta,
                              net, theta):
    """Central differences of Loss1 over one net's parameters with the HSIC
    bandwidths pinned at their base-point values (matching the analytic
    stop-gradient through sigma)."""
    codes0 = autoencoder.encode(icae, Fx, Fy)
    sx = hsic.bandwidth(codes0.Px)
    sy = hsic.bandwidth(codes0.Py)

    def value_at(vec):
        nn.set_flat(net, vec)
        codes = autoencoder.encode(icae, Fx, Fy)
        present = np.flatnonzero(np.asarray(L).sum(axis=0) > 0)
        W = affinity.pooling_matrix(np.asarray(L)[:, present])
        prot = codes.Cstar.T @ W
        j1, _ = affinity.j1_trace(prot, aff_x.restrict(present).laplacian
                                  + aff_y.restrict(present).laplacian)
        j2 = hsic.hsic_value(hsic.rbf_kernel(codes.Px, sx),
                             hsic.rbf_kernel(codes.Py, sy))
        j3, _ = autoencoder.reconstruction_loss(icae, Fx, Fy, codes)
        nn.set_flat(net, theta)
        return alpha * j1 + beta * j2 + j3

    return nn.finite_diff_grad(value_at, theta)


def check_loss2_gradients(seed: int = 0, trials: int = 10, bug: bool = False):
    """Analytic meta-feature gradient vs finite differences of Loss2."""
    rng = np.random.default_rng(seed)
    gamma, eta = 0.7, 0.3
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(3, 6))
        Mx = rng.standard_normal((k, n))
        My = rng.standard_normal((k, n))
        S = (rng.random((n, n)) < 0.5).astype(float)
        S = np.maximum(S, S.T)
        B = np.where(rng.random((k, n)) < 0.5, 1.0, -1.0)
        gx = _maybe_bug(hashing.grad_meta(Mx, My, S, B, gamma, eta), bug)
        gy = hashing.grad_meta(My, Mx, S.T, B, gamma, eta)
        fx = nn.finite_diff_grad(
            lambda M: hashing.loss2(M, My, S, B, gamma, eta)[0], Mx)
        fy = nn.finite_diff_grad(
            lambda M: hashing.loss2(Mx, M, S, B, gamma, eta)[0], My)
        worst = max(worst, _rel_err(gx, fx), _rel_err(gy, fy))
    return ("loss2_gradients", worst <= REL_TOL, f"worst rel err {worst:.2e}")


def check_sign_update(seed: int = 0, trials: int = 100, bug: bool = False):
    """update_B maximizes tr(B (Mx+My)^T) over all +/-1 matrices, k*n <= 12."""
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, max(2, 12 // k + 1)))
        if k * n > 12:
            n = 12 // k
        Mx = rng.standard_normal((k, n))
        My = rng.standard_normal((k, n))
        B = hashing.update_B(Mx, My)
        if bug:
            B = -B
        target = Mx + My
        best = -np.inf
        for bits in itertools.product((-1.0, 1.0), repeat=k * n):
            cand = np.array(bits).reshape(k, n)
            best = max(best, float(np.sum(cand * target)))
        if float(np.sum(B * target)) < best - 1e-12:
            ok = False
    return ("sign_update_optimality", ok, "exhaustive enumeration")


def map_oracle(query_codes, query_labels, base_codes, base_labels,
               topR=None) -> float:
    """Quadratic-time MAP: explicit bit loops and a per-query ranking walk."""
    Q = np.asarray(query_codes)
    D = np.asarray(base_codes)
    Lq = np.asarray(query_labels)
    Lb = np.asarray(base_labels)
    nq, nb = Q.shape[1], D.shape[1]
    aps = []
    for i in range(nq):
        dists = []
        for j in range(nb):
            d = sum(1 for t in range(Q.shape[0]) if Q[t, i] != D[t, j])
            dists.append((d, j))
        dists.sort()
        if topR is not None:
            dists = dists[:topR]
        relevant_total = sum(
            1 for j in range(nb)
            if any(Lq[i, a] and Lb[j, a] for a in range(Lq.shape[1])))
        if relevant_total == 0:
            continue
        hits, prec_sum, retrieved_hits = 0, 0.0, 0
        for rank, (_, j) in enumerate(dists, start=1):
            rel = any(Lq[i, a] and Lb[j, a] for a in range(Lq.shape[1]))
            if rel:
                hits += 1
                prec_sum += hits / rank
                retrieved_hits += 1
        aps.append(prec_sum / retrieved_hits if retrieved_hits else 0.0)
    if not aps:
        raise ValueError("no valid queries")
    return float(np.mean(aps))


def check_map(seed: int = 0, trials: int = 100, bug: bool = False):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(2, 8))
        nb = int(rng.integers(3, 31))
        nq = int(rng.integers(1, 11))
        c = int(rng.integers(2, 5))
        Q = np.where(rng.random((k, nq)) < 0.5, 1.0, -1.0)
        D = np.where(rng.random((k, nb)) < 0.5, 1.0, -1.0)
        Lq = (rng.random((nq, c)) < 0.5).astype(np.uint8)
        Lb = (rng.random((nb, c)) < 0.5).astype(np.uint8)
        Lq[Lq.sum(axis=1) == 0, 0] = 1
        Lb[Lb.sum(axis=1) == 0, 0] = 1
        got = retrieval.mean_average_precision(Q, Lq, D, Lb)
        if bug:
            got += 1e-3
        worst = max(worst, abs(got - map_oracle(Q, Lq, D, Lb)))
    return ("map_oracle", worst <= 1e-12, f"worst abs err {worst:.2e}")


ALL_SUITES: list[Callable] = [
    check_mlp_gradients, check_hsic, check_j1, check_label_affinity,
    check_loss1_gradients, check_loss2_gradients, check_sign_update,
    check_map,
]


def run_all(seed: int = 0, bug: bool = False) -> list[tuple[str, bool, str]]:
    return [suite(seed=seed, bug=bug) for suite in ALL_SUITES]
