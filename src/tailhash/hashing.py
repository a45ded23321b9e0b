"""Hash-code learning: pairwise likelihood loss, analytic meta-feature
gradients, closed-form sign update of the unified codes, and the phase-2
alternating trainer.

Meta features are (k, n) with samples as columns. The unified code matrix B
is (k, n) with entries exactly +/-1 and is refreshed once per epoch by
B = sign(Mx + My) over the full base set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import affinity, autoencoder, meta, nn
from .datagen import Dataset

if TYPE_CHECKING:
    from .experiment import RunConfig


@dataclass(frozen=True)
class Variant:
    """Which meta-feature terms are active; implements the ablations."""
    name: str
    use_common: bool = True
    use_individual: bool = True
    use_meta_x: bool = True     # False: M^x := F^x
    use_meta_y: bool = True     # False: M^y := F^y

    def flags(self, modality: str) -> tuple[bool, bool]:
        """Whether this modality keeps its (commonality, individuality)
        term; modality_codes zeroes a dropped one."""
        use_meta = self.use_meta_x if modality == "x" else self.use_meta_y
        return (self.use_common and use_meta,
                self.use_individual and use_meta)


VARIANTS: dict[str, Variant] = {
    "full": Variant("full"),
    "wo_c": Variant("wo_c", use_common=False),
    "wo_i": Variant("wo_i", use_individual=False),
    "wo_ic": Variant("wo_ic", use_common=False, use_individual=False),
    "wo_meta_i": Variant("wo_meta_i", use_meta_x=False),
    "wo_meta_t": Variant("wo_meta_t", use_meta_y=False),
}


def phi(Mx: np.ndarray, My: np.ndarray) -> np.ndarray:
    """phi_ij = 1/2 <Mx_col_i, My_col_j>, an (n, n) matrix."""
    Mx = np.asarray(Mx, dtype=np.float64)
    My = np.asarray(My, dtype=np.float64)
    if Mx.shape != My.shape:
        raise ValueError("meta feature shapes must match")
    return 0.5 * Mx.T @ My


def loss2(Mx: np.ndarray, My: np.ndarray, S: np.ndarray, B: np.ndarray,
          gamma: float, eta: float) -> tuple[float, dict]:
    """Negative log likelihood + quantization + bit-balance terms."""
    S = np.asarray(S, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    ph = phi(Mx, My)
    nll = -float(np.sum(S * ph - nn.softplus(ph)))
    quant = float(np.sum((B - Mx) ** 2) + np.sum((B - My) ** 2))
    bal = float(np.sum(Mx.sum(axis=1) ** 2) + np.sum(My.sum(axis=1) ** 2))
    total = nll + gamma * quant + eta * bal
    if not np.isfinite(total):
        raise nn.NumericsError(
            f"non-finite Loss2 (nll={nll}, quant={quant}, bal={bal})")
    return total, {"nll": nll, "quantization": quant, "balance": bal}


def grad_meta(M, M_other, S, B, gamma: float, eta: float) -> np.ndarray:
    """d Loss2 / d M for the modality whose meta features are M, column i:
    1/2 sum_j (sigma(phi_ij) - S_ij) M_other_j + 2 gamma (M_i - B_i)
    + 2 eta M 1, with phi = phi(M, M_other).

    S is indexed (this modality's sample, other modality's sample): the
    first modality passes S, the second S.T.
    """
    M = np.asarray(M, dtype=np.float64)
    M_other = np.asarray(M_other, dtype=np.float64)
    A = nn.sigmoid(phi(M, M_other)) - np.asarray(S, dtype=np.float64)
    g = 0.5 * M_other @ A.T
    g += 2.0 * gamma * (M - np.asarray(B, dtype=np.float64))
    g += 2.0 * eta * M.sum(axis=1)[:, None]
    return g


def update_B(Mx: np.ndarray, My: np.ndarray) -> np.ndarray:
    """Closed-form code update B = sign(Mx + My); sign(0) -> +1."""
    Mx = np.asarray(Mx, dtype=np.float64)
    My = np.asarray(My, dtype=np.float64)
    if Mx.shape != My.shape:
        raise ValueError("meta feature shapes must match")
    return 2.0 * (Mx + My >= 0.0) - 1.0


# (commonality code, individuality memory feature) of one modality, (n, k) each
ModalityCodes = tuple[np.ndarray, np.ndarray]


def modality_codes(icae: autoencoder.IcaeParams, modality: str,
                   raw: np.ndarray, variant: Variant) -> ModalityCodes:
    """The autoencoder codes one modality's meta features receive
    (autoencoder.hash_codes), with the terms the variant drops set to zero.

    Training and query encoding both call this, so the codes a sample
    receives in either role are identical.
    """
    codes = autoencoder.hash_codes(icae, modality, raw)
    return tuple(c if keep else np.zeros_like(c)
                 for c, keep in zip(codes, variant.flags(modality)))


def meta_pass(side_v: meta.ModalitySide, raw: np.ndarray,
              codes: Callable[[slice], ModalityCodes]) -> np.ndarray:
    """(k, n) meta features of one modality over a whole split.

    Runs meta.meta_forward one row block at a time (nn.row_blocks), so each
    block's tapes are dropped before the next block starts; ``codes(blk)``
    gives the modality codes of the rows ``blk``. Phase 2's base pass and
    query encoding (retrieval.encode_query) both run it.
    """
    n = np.shape(raw)[0]
    # filled by rows and returned transposed, the layout meta_forward's M has
    M = np.empty((n, side_v.projector.out_dim))
    for blk in nn.row_blocks(n, side_v.projector):
        M[blk] = meta.meta_forward(side_v, raw[blk], *codes(blk)).M.T
    return M.T


def full_base_codes(side: meta.HashSideParams, Xb: np.ndarray,
                    Yb: np.ndarray,
                    codes: tuple[ModalityCodes, ModalityCodes]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Mx, My, B) over the whole base split with the current parameters;
    codes are the variant's modality_codes of the base split."""
    (Cx, Ix), (Cy, Iy) = codes
    Mx = meta_pass(side.x, Xb, lambda blk: (Cx[blk], Ix[blk]))
    My = meta_pass(side.y, Yb, lambda blk: (Cy[blk], Iy[blk]))
    return Mx, My, update_B(Mx, My)


def _step_side(side_v: meta.ModalitySide, fwd: meta.MetaForward,
               g_meta: np.ndarray, lr: float) -> None:
    grads = meta.meta_backward(side_v, fwd, g_meta)
    nn.sgd_step(side_v.projector, grads["projector"], lr)
    nn.sgd_step(side_v.selector1, grads["selector1"], lr)


def train_hash(dataset: Dataset, icae: autoencoder.IcaeParams,
               side: meta.HashSideParams, cfg: RunConfig,
               variant: Variant = VARIANTS["full"]
               ) -> tuple[meta.HashSideParams, np.ndarray, list[float]]:
    """Phase-2 alternating optimization of the hash-side parameters and B.

    Per minibatch the image-side parameters are updated first, the text side
    second (with the image side's fresh forward); B is recomputed over the
    full base set at the end of each epoch. The autoencoder is frozen and
    its codes enter as constants. Reads gamma, eta, lr_feat, batch_size,
    max_epochs and seed from cfg.
    """
    Xb, Yb, Lb = dataset.base()
    n = Xb.shape[0]
    if n == 0:
        raise ValueError("empty base split")
    rng = np.random.default_rng(cfg.seed)
    t = int(np.ceil(n / cfg.batch_size))
    gamma, eta = cfg.gamma, cfg.eta

    # the autoencoder is frozen, so every sample's codes are constant
    # through phase 2; compute them once
    base_codes = (modality_codes(icae, "x", Xb, variant),
                  modality_codes(icae, "y", Yb, variant))

    _, _, B = full_base_codes(side, Xb, Yb, base_codes)
    trace: list[float] = []
    for _ in range(cfg.max_epochs):
        batch_losses = []
        for _ in range(t):
            idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
            S = affinity.pair_similarity(Lb[idx]).astype(np.float64)
            B_batch = B[:, idx]
            codes = tuple((C[idx], I[idx]) for C, I in base_codes)

            fwd_x = meta.meta_forward(side.x, Xb[idx], *codes[0])
            fwd_y = meta.meta_forward(side.y, Yb[idx], *codes[1])
            value, _ = loss2(fwd_x.M, fwd_y.M, S, B_batch, gamma, eta)
            batch_losses.append(value)

            # the pairwise loss gradient grows with the batch size, and
            # backprop sums over the batch again; normalize by nb^2 so the
            # parameter step size is batch-size independent
            nb = idx.size
            gx = grad_meta(fwd_x.M, fwd_y.M, S, B_batch, gamma, eta) / nb ** 2
            _step_side(side.x, fwd_x, gx, cfg.lr_feat)

            # image side moved: re-run its forward before the text-side step;
            # the text side has not moved, so its forward is still current
            fwd_x2 = meta.meta_forward(side.x, Xb[idx], *codes[0])
            gy = grad_meta(fwd_y.M, fwd_x2.M, S.T, B_batch, gamma,
                           eta) / nb ** 2
            _step_side(side.y, fwd_y, gy, cfg.lr_feat)

        del B       # replaced below; the whole-split pass needs the room
        _, _, B = full_base_codes(side, Xb, Yb, base_codes)
        trace.append(float(np.mean(batch_losses)))
    return side, B, trace
