"""Synthetic long-tail two-modality dataset generation.

Label frequencies follow Zipf's law z_a = z1 * a^(-mu); the exponent can be
set directly or derived from a target imbalance factor IF = z1 / zc. Each
label plants a shared latent prototype (visible to both modalities) and one
private prototype per modality; a configurable fraction of the rarest labels
is made modality-exclusive: their signal appears only in one modality's
private term, alternating between modalities. The features are built in
place, and their noise is drawn in row chunks from the one stream, in the
order of a whole-matrix draw, so the chunk size changes no byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

# elements of one chunk of noise; bounds generate's temporaries to a few MB
BLOCK_ELEMS = 1 << 18


@dataclass
class LongTailSpec:
    c: int                      # number of labels
    z1: int                     # samples of the most frequent label
    mu: Optional[float] = None  # Zipf exponent; derived from IF if None
    imbalance_factor: Optional[float] = None
    raw_dim_x: int = 64
    raw_dim_y: int = 48
    shared_dim: int = 8
    private_dim: int = 4
    noise_sigma: float = 0.1
    exclusive_tail_fraction: float = 0.0
    secondary_label_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.imbalance_factor is not None and self.imbalance_factor <= 1:
            raise ValueError("imbalance factor must exceed 1")
        if self.c < 2:
            raise ValueError("need at least 2 labels")
        if self.z1 < 1:
            raise ValueError("z1 must be >= 1")
        if self.mu is None:
            if self.imbalance_factor is None:
                raise ValueError("give either mu or imbalance_factor")
            self.mu = mu_from_if(self.imbalance_factor, self.c)
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        for d in (self.raw_dim_x, self.raw_dim_y, self.shared_dim,
                  self.private_dim):
            if d < 1:
                raise ValueError("dimensions must be >= 1")
        if not 0.0 <= self.exclusive_tail_fraction <= 1.0:
            raise ValueError("exclusive_tail_fraction must be in [0, 1]")
        if not 0.0 <= self.secondary_label_prob <= 1.0:
            raise ValueError("secondary_label_prob must be in [0, 1]")


@dataclass
class Dataset:
    """Two modality feature matrices (samples as rows) plus binary labels;
    a load that reads only some of the arrays leaves the others None."""
    Fx_raw: Optional[np.ndarray]    # (n, raw_dim_x) float64
    Fy_raw: Optional[np.ndarray]    # (n, raw_dim_y) float64
    L: Optional[np.ndarray]         # (n, c) uint8
    base_indices: np.ndarray    # int64
    query_indices: np.ndarray   # int64
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def c(self) -> int:
        return self.L.shape[1]

    def base(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._rows(self.base_indices)

    def query(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._rows(self.query_indices)

    def _rows(self, i: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``i`` of (Fx_raw, Fy_raw, L): read-only views when ``i`` is
        a contiguous ascending range, gathered copies otherwise."""
        lo = int(i[0]) if i.size else 0
        if not np.array_equal(i, np.arange(lo, lo + i.size)):
            return self.Fx_raw[i], self.Fy_raw[i], self.L[i]
        views = tuple(a[lo:lo + i.size]
                      for a in (self.Fx_raw, self.Fy_raw, self.L))
        for v in views:
            v.flags.writeable = False
        return views

    def keep_splits(self, query: bool = True) -> None:
        """Keep only the base rows, then the query rows (when ``query``;
        otherwise the query split is dropped), one array at a time, in
        place. The splits become contiguous ranges, so base() and query()
        then view them without a copy, and a caller that holds no other
        reference to the old arrays holds each row once."""
        nb = self.base_indices.size
        rows = (np.concatenate([self.base_indices, self.query_indices])
                if query else self.base_indices)
        for name in ("Fx_raw", "Fy_raw", "L"):
            setattr(self, name, getattr(self, name)[rows])
        self.base_indices = np.arange(nb, dtype=np.int64)
        self.query_indices = np.arange(nb, rows.size, dtype=np.int64)


def mu_from_if(imbalance_factor: float, c: int) -> float:
    """Exponent giving z1 / zc = IF, i.e. mu = ln(IF) / ln(c)."""
    if imbalance_factor <= 1:
        raise ValueError("imbalance factor must exceed 1")
    if c < 2:
        raise ValueError("need at least 2 labels")
    return float(np.log(imbalance_factor) / np.log(c))


def zipf_counts(z1: int, c: int, mu: float) -> np.ndarray:
    """Per-label sample counts z_a = max(1, round(z1 * a^(-mu))), a = 1..c."""
    if z1 < 1 or c < 1 or mu < 0:
        raise ValueError("require z1 >= 1, c >= 1, mu >= 0")
    a = np.arange(1, c + 1, dtype=np.float64)
    # half-up rounding, kept deterministic across platforms
    z = np.floor(z1 * a ** (-mu) + 0.5).astype(np.int64)
    return np.maximum(z, 1)


def generate(spec: LongTailSpec) -> Dataset:
    """Draw a planted-structure long-tail dataset from the spec.

    Sample with label set A:
        Fx_raw = G_x (sum_a s_a) + H_x (sum_a p_a^x) + noise
    and analogously for y. Exclusive tail labels have s_a = 0 and a zero
    private prototype in the excluded modality.
    """
    rng = np.random.default_rng(spec.seed)
    counts = zipf_counts(spec.z1, spec.c, spec.mu)
    n = int(counts.sum())
    c = spec.c

    shared = rng.standard_normal((c, spec.shared_dim))
    priv_x = rng.standard_normal((c, spec.private_dim))
    priv_y = rng.standard_normal((c, spec.private_dim))

    n_exclusive = int(round(spec.exclusive_tail_fraction * c))
    exclusive = np.zeros(c, dtype=bool)
    if n_exclusive > 0:
        tail = np.arange(c - n_exclusive, c)
        exclusive[tail] = True
        shared[tail] = 0.0
        # the surviving private prototype is rescaled so every label plants
        # the same expected signal power in its informative modality
        # (a non-exclusive label spreads power over shared + private dims)
        boost = np.sqrt((spec.shared_dim + spec.private_dim) / spec.private_dim)
        # alternate which modality keeps the private signal
        for j, a in enumerate(tail):
            if j % 2 == 0:
                priv_y[a] = 0.0   # signal lives in x only
                priv_x[a] *= boost
            else:
                priv_x[a] = 0.0   # signal lives in y only
                priv_y[a] *= boost

    Gx = rng.standard_normal((spec.raw_dim_x, spec.shared_dim)) / np.sqrt(spec.shared_dim)
    Hx = rng.standard_normal((spec.raw_dim_x, spec.private_dim)) / np.sqrt(spec.private_dim)
    Gy = rng.standard_normal((spec.raw_dim_y, spec.shared_dim)) / np.sqrt(spec.shared_dim)
    Hy = rng.standard_normal((spec.raw_dim_y, spec.private_dim)) / np.sqrt(spec.private_dim)

    L = np.zeros((n, c), dtype=np.uint8)
    i = 0
    for a in range(c):
        for _ in range(counts[a]):
            L[i, a] = 1
            if rng.random() < spec.secondary_label_prob:
                b = int(rng.integers(0, c - 1))
                if b >= a:
                    b += 1
                L[i, b] = 1
            i += 1

    Lf = L.astype(np.float64)
    s_sum = Lf @ shared                          # (n, shared_dim)
    px_sum, py_sum = Lf @ priv_x, Lf @ priv_y
    del Lf
    Fx = s_sum @ Gx.T
    Fx += px_sum @ Hx.T
    Fy = s_sum @ Gy.T
    Fy += py_sum @ Hy.T
    if spec.noise_sigma > 0:
        for F in (Fx, Fy):
            _add_noise(F, spec.noise_sigma, rng)

    meta = {
        "spec": asdict(spec),
        "label_counts": counts,                       # Zipf schedule (primary)
        "exclusive_labels": np.flatnonzero(exclusive).astype(np.int64),
        "arrays": {
            "shared_prototypes": shared, "private_x": priv_x, "private_y": priv_y,
            "mix_Gx": Gx, "mix_Hx": Hx, "mix_Gy": Gy, "mix_Hy": Hy,
        },
    }
    return Dataset(Fx, Fy, L,
                   base_indices=np.arange(n, dtype=np.int64),
                   query_indices=np.zeros(0, dtype=np.int64),
                   meta=meta)


def _add_noise(F: np.ndarray, sigma: float, rng: np.random.Generator
               ) -> None:
    """F += sigma * N(0, 1), drawn in row chunks of at most BLOCK_ELEMS
    elements into one buffer. The chunks take the stream's values in the
    order one (n, d) draw would, so F is the same as with that draw."""
    n, d = F.shape
    step = max(1, BLOCK_ELEMS // d)
    buf = np.empty((min(step, n), d))
    for start in range(0, n, step):
        noise = buf[:min(step, n - start)]
        rng.standard_normal(out=noise)
        noise *= sigma
        F[start:start + noise.shape[0]] += noise


def split(dataset: Dataset, query_size: int, seed: int = 0) -> Dataset:
    """Fill base/query indices; every label with >= 2 samples stays in base.

    Samples are considered for the query set in a seeded random order; one is
    accepted only if each of its labels keeps at least one sample in base.
    """
    n = dataset.n
    if not 0 <= query_size < n:
        raise ValueError("query_size must lie in 0..n-1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    in_base = np.ones(n, dtype=bool)
    base_label_counts = dataset.L.sum(axis=0).astype(np.int64)
    picked = []
    for i in order:
        if len(picked) == query_size:
            break
        labels = np.flatnonzero(dataset.L[i])
        if np.all(base_label_counts[labels] >= 2):
            picked.append(i)
            in_base[i] = False
            base_label_counts[labels] -= 1
    query_idx = np.sort(np.asarray(picked, dtype=np.int64))
    base_idx = np.flatnonzero(in_base).astype(np.int64)
    return Dataset(dataset.Fx_raw, dataset.Fy_raw, dataset.L,
                   base_idx, query_idx, dataset.meta)
