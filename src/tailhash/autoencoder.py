"""Individuality-commonality autoencoder and its phase-1 trainer.

Per-modality individuality encoders, a joint commonality encoder over the
concatenated raw features of both modalities, and per-modality decoders
that reconstruct a modality from [commonality, individuality]. The
training objective is

    Loss1 = alpha * J1 + beta * J2 + J3

where J1 is the label-affinity Laplacian regularizer on commonality
prototypes, J2 the HSIC between the two individuality codes and J3 the
normalized reconstruction error.

After training, the codes are standardized over the base split and each
modality's individuality code gets a label memory: the labels that only
that modality's individuality expresses (the modality-exclusive tail labels
the commonality cannot carry) are recalled from per-label prototypes, so
the hash side receives them as a clean, label-consistent feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import affinity, hsic, nn
from .datagen import Dataset

if TYPE_CHECKING:
    from .experiment import RunConfig


@dataclass
class IcaeParams:
    enc_ind_x: nn.Mlp      # raw_dim_x -> k
    enc_ind_y: nn.Mlp      # raw_dim_y -> k
    enc_common: nn.Mlp     # raw_dim_x + raw_dim_y -> k
    dec_x: nn.Mlp          # 2k -> raw_dim_x
    dec_y: nn.Mlp          # 2k -> raw_dim_y
    # per-dimension RMS of each code stream over the base split, measured
    # once after phase 1; downstream consumers divide by these so the code
    # terms enter the meta fusion at unit scale (the raw commonality output
    # can be orders of magnitude smaller than the direct features); the
    # individuality streams are also centred ("px_mean" / "py_mean")
    code_scales: Optional[dict[str, np.ndarray]] = None
    # per-modality label memory of the individuality code, built after
    # phase 1 from the base split (see build_memory)
    memory: Optional[dict[str, "LabelMemory"]] = None

    @property
    def k(self) -> int:
        return self.enc_ind_x.out_dim

    def nets(self) -> dict[str, nn.Mlp]:
        return {"enc_ind_x": self.enc_ind_x, "enc_ind_y": self.enc_ind_y,
                "enc_common": self.enc_common, "dec_x": self.dec_x,
                "dec_y": self.dec_y}


@dataclass
class Codes:
    Px: np.ndarray        # (n, k)
    Py: np.ndarray        # (n, k)
    Cstar: np.ndarray     # (n, k)


def init_icae(raw_dim_x: int, raw_dim_y: int, k: int,
              rng: np.random.Generator) -> IcaeParams:
    """Initialize the autoencoder over the raw features of each modality."""
    hidden = max(2 * k, 64)
    d_x, d_y = raw_dim_x, raw_dim_y
    return IcaeParams(
        enc_ind_x=nn.init_mlp([d_x, hidden, k], rng),
        enc_ind_y=nn.init_mlp([d_y, hidden, k], rng),
        enc_common=nn.init_mlp([d_x + d_y, hidden, k], rng),
        dec_x=nn.init_mlp([2 * k, hidden, d_x], rng),
        dec_y=nn.init_mlp([2 * k, hidden, d_y], rng))


def _common_input(Fx: np.ndarray, Fy: np.ndarray,
                  drop: Optional[str]) -> np.ndarray:
    """Concatenated (d_x + d_y, n) input with one modality optionally zeroed."""
    Fx_t = np.asarray(Fx, dtype=np.float64).T
    Fy_t = np.asarray(Fy, dtype=np.float64).T
    if drop == "x":
        Fx_t = np.zeros_like(Fx_t)
    elif drop == "y":
        Fy_t = np.zeros_like(Fy_t)
    elif drop is not None:
        raise ValueError("drop must be None, 'x' or 'y'")
    return np.vstack([Fx_t, Fy_t])


def encode(params: IcaeParams, Fx: np.ndarray, Fy: np.ndarray) -> Codes:
    """Unscaled individuality and commonality codes of a batch, (n, k) each."""
    if np.shape(Fx)[0] != np.shape(Fy)[0]:
        raise ValueError("modalities must have the same sample count")
    Px, _ = nn.forward(params.enc_ind_x, np.asarray(Fx, dtype=np.float64).T)
    Py, _ = nn.forward(params.enc_ind_y, np.asarray(Fy, dtype=np.float64).T)
    Cs, _ = nn.forward(params.enc_common, _common_input(Fx, Fy, None))
    return Codes(Px.T, Py.T, Cs.T)


SCALE_FLOOR = 1e-8


def calibrate_code_scales(params: IcaeParams, Xb: np.ndarray,
                          Yb: np.ndarray, Lb: np.ndarray) -> None:
    """Measure per-dimension code statistics over the base split; store them,
    then build the label memories (build_memory) from the base labels Lb.

    The individuality codes are centred ("px_mean" / "py_mean") and scaled
    by the RMS about that mean: an off-centre code would enter every hash
    bit as a bias, which the phase-2 bit-balance term then works against.
    "cx" / "cy" are the commonality scales when only that modality is
    present, the query-time regime that hash_codes encodes.
    """
    rms = lambda a: np.maximum(np.sqrt(np.mean(a ** 2, axis=0)), SCALE_FLOOR)
    both = encode(params, Xb, Yb)

    def common_rms(drop):
        # a single-modality pass only needs the commonality code
        Cs, _ = nn.forward(params.enc_common, _common_input(Xb, Yb, drop))
        return rms(Cs.T)

    px_mean, py_mean = both.Px.mean(axis=0), both.Py.mean(axis=0)
    px, py = rms(both.Px - px_mean), rms(both.Py - py_mean)
    params.code_scales = {"px_mean": px_mean, "py_mean": py_mean,
                          "px": px, "py": py,
                          "cx": common_rms("y"), "cy": common_rms("x")}
    params.memory = build_memory((both.Px - px_mean) / px,
                                 (both.Py - py_mean) / py, Lb)


# sharpness of the memory's label attention, relative to the mean squared
# distance of a base sample to its nearest prototype
MEMORY_TEMPERATURE = 0.25


@dataclass
class LabelMemory:
    """Label memory of one modality's standardized individuality code."""
    prototypes: np.ndarray    # (c, k) additive per-label code components
    weights: np.ndarray       # (c,) exclusivity of each label to this side
    dist_scale: float         # mean nearest-prototype squared distance
    out_scale: float          # RMS of the raw recall over the base split


def _sq_dists(P: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Squared distances of (n, k) code rows to (c, k) prototypes, (n, c)."""
    return (np.sum(P ** 2, axis=1)[:, None] - 2.0 * P @ prototypes.T
            + np.sum(prototypes ** 2, axis=1)[None, :])


def recall(memory: LabelMemory, P: np.ndarray) -> np.ndarray:
    """Memory feature of (n, k) standardized individuality codes, (n, k).

    Each row attends over the label prototypes (a softmax of negative
    squared distances) and returns their exclusivity-weighted mix, at unit
    RMS over the base split.
    """
    d2 = _sq_dists(np.asarray(P, dtype=np.float64), memory.prototypes)
    d2 -= d2.min(axis=1, keepdims=True)
    o = np.exp(-d2 / (MEMORY_TEMPERATURE * memory.dist_scale))
    o /= o.sum(axis=1, keepdims=True)
    return (o * memory.weights) @ memory.prototypes / memory.out_scale


def build_memory(Px: np.ndarray, Py: np.ndarray, Lb: np.ndarray
                 ) -> dict[str, LabelMemory]:
    """Each modality's label memory, from the standardized (n, k)
    individuality codes Px, Py of the base split and its labels Lb.

    Prototypes are the least-squares per-label components of the
    standardized individuality code (P ~ L @ prototypes). A label's weight
    on side v is how far its prototype energy on v exceeds the other side's,
    (|p_v|^2 - |p_u|^2) / (|p_v|^2 + |p_u|^2) clipped to [0, 1]: a label
    whose signal only one modality's individuality carries (a
    modality-exclusive tail label) has weight near 1 there, while labels
    both modalities express, which the commonality and the direct features
    already serve, are left out of the memory.
    """
    Lf = np.asarray(Lb, dtype=np.float64)
    P = {"x": np.asarray(Px, dtype=np.float64),
         "y": np.asarray(Py, dtype=np.float64)}
    protos = {v: np.linalg.lstsq(Lf, P[v], rcond=None)[0] for v in P}
    energy = {v: np.sum(protos[v] ** 2, axis=1) for v in P}
    memory = {}
    for v, u in (("x", "y"), ("y", "x")):
        total = np.maximum(energy[v] + energy[u], SCALE_FLOOR)
        weights = np.clip((energy[v] - energy[u]) / total, 0.0, 1.0)
        d2 = _sq_dists(P[v], protos[v])
        dist_scale = max(float(np.mean(d2.min(axis=1))), SCALE_FLOOR)
        mem = LabelMemory(protos[v], weights, dist_scale, 1.0)
        raw = recall(mem, P[v])
        mem.out_scale = max(float(np.sqrt(np.mean(raw ** 2))), SCALE_FLOOR)
        memory[v] = mem
    return memory


def hash_codes(params: IcaeParams, modality: str, raw: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Codes one modality contributes to its meta features, (n, k) each.

    Returns the commonality code with the other modality zero-imputed and
    the individuality memory feature. Only the commonality encoder and this
    modality's individuality encoder run. Training and query encoding both
    call this, so a sample gets the same codes in either role.
    """
    if modality not in ("x", "y"):
        raise ValueError("modality must be 'x' or 'y'")
    if params.memory is None:
        raise ValueError("build the label memory before hashing")
    own, other = ((params.enc_ind_x, params.enc_ind_y) if modality == "x"
                  else (params.enc_ind_y, params.enc_ind_x))
    raw_t = np.asarray(raw, dtype=np.float64).T
    P, _ = nn.forward(own, raw_t)
    zeros = np.zeros((other.in_dim, raw_t.shape[1]))
    Cs, _ = nn.forward(params.enc_common, np.vstack(
        [raw_t, zeros] if modality == "x" else [zeros, raw_t]))
    s = params.code_scales
    P = (P.T - s[f"p{modality}_mean"]) / s[f"p{modality}"]
    return Cs.T / s[f"c{modality}"], recall(params.memory[modality], P)


def reconstruction_loss(params: IcaeParams, Fx: np.ndarray, Fy: np.ndarray,
                        codes: Codes) -> tuple[float, dict]:
    """J3 = sum_v ||F^v - dec_v([C*, P^v])||_F^2 / (n d_v), with decoder grads.

    Returned dict has per-decoder parameter grads and the gradient wrt the
    (n, k) Cstar / Px / Py inputs.
    """
    n = np.shape(Fx)[0]
    k = params.k
    value = 0.0
    out = {"dCstar": np.zeros((n, k)), "dPx": None, "dPy": None}
    for v, (F, P, dec) in {"x": (Fx, codes.Px, params.dec_x),
                           "y": (Fy, codes.Py, params.dec_y)}.items():
        F_t = np.asarray(F, dtype=np.float64).T
        U = np.vstack([np.asarray(codes.Cstar).T, np.asarray(P).T])
        recon, tape = nn.forward(dec, U)
        resid = recon - F_t
        d_v = F_t.shape[0]
        value += float(np.sum(resid ** 2)) / (n * d_v)
        grads, dU = nn.backward(dec, tape, 2.0 * resid / (n * d_v))
        out[f"dec_{v}"] = grads
        out["dCstar"] += dU[:k].T
        out[f"dP{v}"] = dU[k:].T
    return value, out


def loss1(params: IcaeParams, Fx: np.ndarray, Fy: np.ndarray, L: np.ndarray,
          aff_x: affinity.LabelAffinity, aff_y: affinity.LabelAffinity,
          alpha: float, beta: float, drop: Optional[str] = None
          ) -> tuple[float, dict, dict]:
    """Full phase-1 loss alpha * J1 + beta * J2 + J3 with analytic gradients
    for all five nets.

    Returns (value, parts, grads) where parts has the raw J1/J2/J3 values and
    grads maps net name -> per-layer (dW, db) list.
    """
    Fx = np.asarray(Fx, dtype=np.float64)
    Fy = np.asarray(Fy, dtype=np.float64)
    n = Fx.shape[0]
    k = params.k

    Px_cols, tape_ix = nn.forward(params.enc_ind_x, Fx.T)
    Py_cols, tape_iy = nn.forward(params.enc_ind_y, Fy.T)
    Cs_cols, tape_c = nn.forward(params.enc_common, _common_input(Fx, Fy, drop))
    codes = Codes(Px_cols.T, Py_cols.T, Cs_cols.T)

    # J1 on mean-pooled prototypes of the labels present in the batch
    present = np.flatnonzero(np.asarray(L).sum(axis=0) > 0)
    L_sub = np.asarray(L)[:, present]
    W = affinity.pooling_matrix(L_sub)                       # (n, cp)
    prototypes = Cs_cols @ W                                 # (k, cp)
    j1, g_prot = affinity.j1_loss_and_grad(
        prototypes, aff_x.restrict(present), aff_y.restrict(present))
    dCs_j1 = g_prot @ W.T                                    # (k, n)

    # J2 between individuality codes, batch bandwidths held constant
    if n >= 2:
        j2, gPx_rows, gPy_rows = hsic.hsic_value_and_grad(codes.Px, codes.Py)
    else:
        j2, gPx_rows, gPy_rows = 0.0, np.zeros((n, k)), np.zeros((n, k))

    j3, rec = reconstruction_loss(params, Fx, Fy, codes)

    dCs = alpha * dCs_j1 + rec["dCstar"].T
    dPx = beta * gPx_rows.T + rec["dPx"].T
    dPy = beta * gPy_rows.T + rec["dPy"].T

    grads = {
        "enc_ind_x": nn.backward(params.enc_ind_x, tape_ix, dPx,
                                 input_grad=False)[0],
        "enc_ind_y": nn.backward(params.enc_ind_y, tape_iy, dPy,
                                 input_grad=False)[0],
        "enc_common": nn.backward(params.enc_common, tape_c, dCs,
                                  input_grad=False)[0],
        "dec_x": rec["dec_x"],
        "dec_y": rec["dec_y"],
    }
    value = alpha * j1 + beta * j2 + j3
    if not np.isfinite(value):
        raise nn.NumericsError(
            f"non-finite Loss1 (j1={j1}, j2={j2}, j3={j3})")
    return value, {"j1": j1, "j2": j2, "j3": j3}, grads


def train_ae(dataset: Dataset, params: IcaeParams, cfg: RunConfig
             ) -> tuple[IcaeParams, list[float]]:
    """Phase-1 minibatch SGD over the base split; returns per-epoch mean Loss1.

    The autoencoder reads the raw features of both modalities; with
    probability 1/2 per batch one modality's block of the commonality-encoder
    input is zeroed so that single-modality query encoding stays well
    defined. After the last epoch the code scales are calibrated and the
    label memories built over the base split. Reads alpha, beta,
    batch_size, lr_ae, max_epochs and seed from cfg.
    """
    Xb, Yb, Lb = dataset.base()
    if Xb.shape[0] == 0:
        raise ValueError("empty base split")
    n = Xb.shape[0]
    rng = np.random.default_rng(cfg.seed)

    # the label affinity depends only on the raw features; compute it once.
    # Its row norms round differently by memory layout, and phase 1 feeds
    # it column-major features, on which the acceptance criteria were
    # measured
    aff_x = affinity.label_affinity(np.asfortranarray(Xb), Lb)
    aff_y = affinity.label_affinity(np.asfortranarray(Yb), Lb)

    trace: list[float] = []
    t = int(np.ceil(n / cfg.batch_size))
    for _ in range(cfg.max_epochs):
        epoch_losses = []
        for _ in range(t):
            idx = rng.choice(n, size=min(cfg.batch_size, n), replace=False)
            r = rng.random()
            drop = "x" if r < 0.25 else ("y" if r < 0.5 else None)
            value, _, grads = loss1(params, Xb[idx], Yb[idx], Lb[idx],
                                    aff_x, aff_y, cfg.alpha, cfg.beta,
                                    drop=drop)
            for name, net in params.nets().items():
                nn.sgd_step(net, grads[name], cfg.lr_ae)
            epoch_losses.append(value)
        trace.append(float(np.mean(epoch_losses)))
    calibrate_code_scales(params, Xb, Yb, Lb)
    return params, trace
