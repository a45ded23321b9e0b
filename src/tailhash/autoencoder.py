"""Individuality-commonality autoencoder and its phase-1 trainer.

Per-modality individuality encoders, a joint commonality encoder over the
concatenated raw features of both modalities, and per-modality decoders
that reconstruct a modality from [commonality, individuality]. The
training objective is

    Loss1 = alpha * J1 + beta * J2 + J3

where J1 is the label-affinity Laplacian regularizer on commonality
prototypes, J2 the HSIC between the two individuality codes and J3 the
normalized reconstruction error.

After training, each modality's codes are calibrated over the base split
(one Calibration record per modality): they are standardized, and the
individuality code gets a label memory: the labels that only
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
class Calibration:
    """What the hash side needs of one modality's frozen codes, measured
    once after phase 1 over the base split (see calibrate)."""
    # the individuality code is centred and scaled per dimension, so that
    # it enters the label memory at unit scale
    ind_mean: np.ndarray      # (k,)
    ind_scale: np.ndarray     # (k,) RMS about ind_mean
    # per-dimension RMS of the commonality code with the other modality
    # zeroed; the raw output can be orders of magnitude smaller than the
    # direct features it is fused with
    common_scale: np.ndarray  # (k,)
    # label memory of the standardized individuality code (see recall)
    prototypes: np.ndarray    # (c, k) additive per-label code components
    weights: np.ndarray       # (c,) exclusivity of each label to this side
    dist_scale: float         # mean nearest-prototype squared distance
    out_scale: float          # RMS of the raw recall over the base split


@dataclass
class IcaeParams:
    enc_ind_x: nn.Mlp      # raw_dim_x -> k
    enc_ind_y: nn.Mlp      # raw_dim_y -> k
    enc_common: nn.Mlp     # raw_dim_x + raw_dim_y -> k
    dec_x: nn.Mlp          # 2k -> raw_dim_x
    dec_y: nn.Mlp          # 2k -> raw_dim_y
    # per-modality ("x", "y") calibration, set by calibrate after phase 1
    calibration: Optional[dict[str, Calibration]] = None

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
    """Concatenated (d_x + d_y, n) input with the ``drop`` modality's block
    (if any) zeroed."""
    if drop not in (None, "x", "y"):
        raise ValueError("drop must be None, 'x' or 'y'")
    d_x = np.shape(Fx)[1]
    common_in = np.vstack([nn._as_float(Fx).T, nn._as_float(Fy).T])
    if drop == "x":
        common_in[:d_x] = 0.0
    elif drop == "y":
        common_in[d_x:] = 0.0
    return common_in


def encode(params: IcaeParams, Fx: np.ndarray, Fy: np.ndarray,
           drop: Optional[str] = None) -> tuple[Codes, dict[str, list]]:
    """The three encoders over a two-modality batch, in the features'
    dtype: the unscaled (n, k) codes and each encoder's tape by net name.
    ``drop`` zeroes one modality's commonality block (phase-1 dropout)."""
    Fx = nn._as_float(Fx)
    Fy = nn._as_float(Fy)
    if Fx.shape[0] != Fy.shape[0]:
        raise ValueError("modalities must have the same sample count")
    Px, tape_x = nn.forward(params.enc_ind_x, Fx.T)
    Py, tape_y = nn.forward(params.enc_ind_y, Fy.T)
    Cs, tape_c = nn.forward(params.enc_common, _common_input(Fx, Fy, drop))
    return (Codes(Px.T, Py.T, Cs.T),
            {"enc_ind_x": tape_x, "enc_ind_y": tape_y, "enc_common": tape_c})


SCALE_FLOOR = 1e-8
# sharpness of the memory's label attention, relative to the mean squared
# distance of a base sample to its nearest prototype
MEMORY_TEMPERATURE = 0.25


def raw_codes(params: IcaeParams, modality: str, raw: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled commonality and individuality codes of one modality, (n, k)
    each.

    The commonality encoder sees the other modality's block as zeros; only
    it and this modality's individuality encoder run, one row block at a
    time (nn.row_blocks), so each block's tapes are dropped before the next
    block starts.
    """
    if modality not in ("x", "y"):
        raise ValueError("modality must be 'x' or 'y'")
    raw = np.asarray(raw, dtype=np.float64)
    own, other = ((params.enc_ind_x, params.enc_ind_y) if modality == "x"
                  else (params.enc_ind_y, params.enc_ind_x))
    # filled by columns and returned transposed, the layout a whole-split
    # forward returns, which sets the rounding of calibrate's reductions
    Cs = np.empty((params.k, raw.shape[0]))
    P = np.empty_like(Cs)
    for blk in nn.row_blocks(raw.shape[0], own, params.enc_common):
        part = raw[blk]
        P[:, blk] = nn.forward(own, part.T)[0]
        # a zero-stride stand-in for the dropped block; the input is pinned
        # row-major, as its layout sets the BLAS rounding
        absent = np.broadcast_to(0.0, (part.shape[0], other.in_dim))
        Fx, Fy, drop = ((part, absent, "y") if modality == "x"
                        else (absent, part, "x"))
        common_in = np.ascontiguousarray(_common_input(Fx, Fy, drop))
        Cs[:, blk] = nn.forward(params.enc_common, common_in)[0]
    return Cs.T, P.T


def hash_codes(params: IcaeParams, modality: str, raw: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Codes one modality contributes to its meta features, (n, k) each.

    Returns the scaled commonality code (raw_codes) and the label-memory
    recall of the standardized individuality code. Training and query
    encoding both call this, so a sample gets the same codes in either role.
    """
    if params.calibration is None:
        raise ValueError("calibrate the autoencoder before hashing")
    C, P = raw_codes(params, modality, raw)
    cal = params.calibration[modality]
    P = (P - cal.ind_mean) / cal.ind_scale
    return C / cal.common_scale, recall(cal, P)


def _sq_dists(P: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Squared distances of (n, k) code rows to (c, k) prototypes, (n, c)."""
    return (np.sum(P ** 2, axis=1)[:, None] - 2.0 * P @ prototypes.T
            + np.sum(prototypes ** 2, axis=1)[None, :])


def recall(cal: Calibration, P: np.ndarray) -> np.ndarray:
    """Memory feature of (n, k) standardized individuality codes, (n, k).

    Each row attends over the label prototypes (a softmax of negative
    squared distances) and returns their exclusivity-weighted mix, at unit
    RMS over the base split.
    """
    d2 = _sq_dists(np.asarray(P, dtype=np.float64), cal.prototypes)
    # in place: the (n, c) attention is the largest array of a recall
    d2 -= d2.min(axis=1, keepdims=True)
    np.negative(d2, out=d2)
    d2 /= MEMORY_TEMPERATURE * cal.dist_scale
    o = np.exp(d2, out=d2)
    o /= o.sum(axis=1, keepdims=True)
    o *= cal.weights
    return o @ cal.prototypes / cal.out_scale


def calibrate(params: IcaeParams, Xb: np.ndarray, Yb: np.ndarray,
              Lb: np.ndarray) -> None:
    """Measure each modality's Calibration over the base split, from the
    same pass hash_codes runs, and store them on params.

    The individuality codes are centred and scaled by the RMS about their
    mean: an off-centre code would enter every hash bit as a bias, which
    the phase-2 bit-balance term then works against.

    The label memory's prototypes are the least-squares per-label
    components of the standardized individuality code (P ~ Lb @
    prototypes). A label's weight on side v is how far its prototype energy
    on v exceeds the other side's, (|p_v|^2 - |p_u|^2) / (|p_v|^2 +
    |p_u|^2) clipped to [0, 1]: a label whose signal only one modality's
    individuality carries (a modality-exclusive tail label) has weight near
    1 there, while labels both modalities express, which the commonality
    and the direct features already serve, are left out of the memory.
    """
    rms = lambda a: np.maximum(np.sqrt(np.mean(a ** 2, axis=0)), SCALE_FLOOR)
    Lf = np.asarray(Lb, dtype=np.float64)
    scales, P, protos, energy = {}, {}, {}, {}
    for v, raw in (("x", Xb), ("y", Yb)):
        C, Pv = raw_codes(params, v, raw)
        mean = Pv.mean(axis=0)
        scale = rms(Pv - mean)
        scales[v] = (mean, scale, rms(C))
        P[v] = (Pv - mean) / scale
        protos[v] = np.linalg.lstsq(Lf, P[v], rcond=None)[0]
        energy[v] = np.sum(protos[v] ** 2, axis=1)
        # the raw codes are done with before the next modality's pass, the
        # float labels after the last; recall's passes need the room
        del C, Pv
    del Lf
    params.calibration = {}
    for v, u in (("x", "y"), ("y", "x")):
        total = np.maximum(energy[v] + energy[u], SCALE_FLOOR)
        weights = np.clip((energy[v] - energy[u]) / total, 0.0, 1.0)
        dist_scale = max(float(np.mean(
            _sq_dists(P[v], protos[v]).min(axis=1))), SCALE_FLOOR)
        cal = Calibration(*scales[v], protos[v], weights, dist_scale, 1.0)
        cal.out_scale = max(float(np.sqrt(np.mean(recall(cal, P[v]) ** 2))),
                            SCALE_FLOOR)
        params.calibration[v] = cal


def reconstruction_loss(params: IcaeParams, Fx: np.ndarray, Fy: np.ndarray,
                        codes: Codes) -> tuple[float, dict]:
    """J3 = sum_v ||F^v - dec_v([C*, P^v])||_F^2 / (n d_v), with decoder grads.

    Returned dict has per-decoder parameter grads and the gradient wrt the
    (n, k) Cstar / Px / Py inputs.
    """
    n = np.shape(Fx)[0]
    k = params.k
    value = 0.0
    Cs_t = nn._as_float(codes.Cstar).T
    out = {"dCstar": np.zeros((n, k), dtype=Cs_t.dtype), "dPx": None,
           "dPy": None}
    for v, (F, P, dec) in {"x": (Fx, codes.Px, params.dec_x),
                           "y": (Fy, codes.Py, params.dec_y)}.items():
        F_t = nn._as_float(F).T
        U = np.vstack([Cs_t, np.asarray(P).T])
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
    grads maps net name -> per-layer (dW, db) list. Runs in the dtype of the
    nets and features (float32 stays float32, anything else becomes
    float64); J1's value is formed in float64 either way (affinity.j1_trace).
    """
    Fx = nn._as_float(Fx)
    Fy = nn._as_float(Fy)
    n = Fx.shape[0]
    k = params.k

    codes, tapes = encode(params, Fx, Fy, drop)
    j1, dCs_j1 = affinity.j1_batch(codes.Cstar.T, L, aff_x, aff_y)

    # J2 between individuality codes, batch bandwidths held constant
    if n >= 2:
        j2, gPx_rows, gPy_rows = hsic.hsic_value_and_grad(codes.Px, codes.Py)
    else:
        j2, gPx_rows, gPy_rows = (0.0, np.zeros((n, k), dtype=Fx.dtype),
                                  np.zeros((n, k), dtype=Fx.dtype))

    j3, rec = reconstruction_loss(params, Fx, Fy, codes)

    dCs = alpha * dCs_j1 + rec["dCstar"].T
    dPx = beta * gPx_rows.T + rec["dPx"].T
    dPy = beta * gPy_rows.T + rec["dPy"].T

    grads = {
        "enc_ind_x": nn.backward(params.enc_ind_x, tapes["enc_ind_x"], dPx,
                                 input_grad=False)[0],
        "enc_ind_y": nn.backward(params.enc_ind_y, tapes["enc_ind_y"], dPy,
                                 input_grad=False)[0],
        "enc_common": nn.backward(params.enc_common, tapes["enc_common"],
                                  dCs, input_grad=False)[0],
        "dec_x": rec["dec_x"],
        "dec_y": rec["dec_y"],
    }
    value = alpha * j1 + beta * j2 + j3
    if not np.isfinite(value):
        raise nn.NumericsError(
            f"non-finite Loss1 (j1={j1}, j2={j2}, j3={j3})")
    return value, {"j1": j1, "j2": j2, "j3": j3}, grads


# a phase-1 batch loss above this multiple of the first batch's is taken as
# divergence; healthy runs stay within 3 times the first batch's loss
DIVERGENCE_FACTOR = 1e3


def train_ae(dataset: Dataset, params: IcaeParams, cfg: RunConfig
             ) -> tuple[IcaeParams, list[float]]:
    """Phase-1 minibatch SGD over the base split; returns per-epoch mean Loss1.

    The autoencoder reads the raw features of both modalities; with
    probability 1/2 per batch one modality's block of the commonality-encoder
    input is zeroed so that single-modality query encoding stays well
    defined. The SGD loop runs in float32, on float32 copies of the nets,
    the features and the labels, so every term of Loss1 runs in float32
    (J1's value alone is summed in float64); after the last epoch the
    trained weights are written back into ``params`` (float32 widens to
    float64 exactly), and a run that takes no step leaves them as given.
    Each modality's codes are then calibrated over the base split
    (calibrate), in float64. Reads alpha, beta, batch_size, lr_ae,
    max_epochs and seed from cfg.

    Raises NumericsError when a batch loss is non-finite or exceeds
    DIVERGENCE_FACTOR (1e3) times the first batch's loss; the one-line
    message ends with that batch's j1, j2 and j3.
    """
    Xb, Yb, Lb = dataset.base()
    if Xb.shape[0] == 0:
        raise ValueError("empty base split")
    n = Xb.shape[0]
    rng = np.random.default_rng(cfg.seed)

    # the label affinity depends only on the raw features; compute it once
    aff_x = affinity.label_affinity(Xb, Lb, name="base x features")
    aff_y = affinity.label_affinity(Yb, Lb, name="base y features")

    f32 = IcaeParams(**{name: nn.cast(net, np.float32)
                        for name, net in params.nets().items()})
    X32, Y32, L32 = (a.astype(np.float32) for a in (Xb, Yb, Lb))
    trace: list[float] = []
    first: Optional[float] = None
    t = int(np.ceil(n / cfg.batch_size))
    # a diverging run overflows float32 long before float64; the finiteness
    # checks then raise NumericsError, and numpy's own warnings on the way
    # there would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_epochs):
            epoch_losses = []
            for _ in range(t):
                idx = rng.choice(n, size=min(cfg.batch_size, n),
                                 replace=False)
                r = rng.random()
                drop = "x" if r < 0.25 else ("y" if r < 0.5 else None)
                value, parts, grads = loss1(f32, X32[idx], Y32[idx],
                                            L32[idx], aff_x, aff_y, cfg.alpha,
                                            cfg.beta, drop=drop)
                if first is None:
                    first = value
                elif value > DIVERGENCE_FACTOR * first:
                    raise nn.NumericsError(
                        f"phase 1 diverged: batch loss {value:.3g} exceeds "
                        f"{DIVERGENCE_FACTOR:g} x the first batch's "
                        f"{first:.3g} (j1={parts['j1']:.3g}, "
                        f"j2={parts['j2']:.3g}, j3={parts['j3']:.3g})")
                for name, net in f32.nets().items():
                    nn.sgd_step(net, grads[name], cfg.lr_ae)
                epoch_losses.append(value)
            trace.append(float(np.mean(epoch_losses)))
    if trace:
        for name, net in params.nets().items():
            for layer, trained in zip(net.layers, f32.nets()[name].layers):
                layer.weight[...] = trained.weight
                layer.bias[...] = trained.bias
    # the float32 copies are done with; calibrate's passes need the room
    del f32, X32, Y32, L32
    calibrate(params, Xb, Yb, Lb)
    return params, trace
