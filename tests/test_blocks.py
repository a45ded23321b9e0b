"""Passes over a whole split run in row blocks: their results do not depend
on the block size, and their memory is bounded by a block, not the split."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from tailhash import (autoencoder, datagen, experiment, hashing, meta, nn,
                      retrieval)


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_row_blocks_cover_the_rows_in_order(monkeypatch, rows):
    net = nn.init_mlp([10, 64, 4], np.random.default_rng(0))
    monkeypatch.setattr(nn, "BLOCK_ELEMS", rows * net.width)
    assert nn.row_blocks(0, net) == []
    for n in (1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows,
              5 * rows + 3):
        if n < 1:
            continue
        blocks = nn.row_blocks(n, net)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        # every block but the last has ``rows`` rows; the last takes the
        # remainder, so none is shorter than the others
        assert all(b.stop - b.start == rows for b in blocks[:-1])
        assert min(n, rows) <= blocks[-1].stop - blocks[-1].start < 2 * rows


def test_row_blocks_start_on_aligned_rows():
    # the default block of the widest net here, 112 inputs, is 2340 rows
    # before alignment
    net = nn.init_mlp([112, 64, 16], np.random.default_rng(0))
    blocks = nn.row_blocks(10_000, net)
    assert [b.start for b in blocks] == [0, 2304, 4608, 6912]
    assert blocks[-1].stop == 10_000


def _model():
    # every net's widest layer is the hidden one (64 units), so one
    # BLOCK_ELEMS gives every pass the same rows per block
    spec = datagen.LongTailSpec(c=4, z1=60, imbalance_factor=8.0,
                                raw_dim_x=10, raw_dim_y=8, shared_dim=3,
                                private_dim=2, noise_sigma=0.3,
                                secondary_label_prob=0.3, seed=1)
    ds = datagen.split(datagen.generate(spec), 12, seed=1)
    model = experiment.train_full(
        ds, experiment.RunConfig(k=4, max_epochs=3, seed=1),
        hashing.VARIANTS["full"])
    nets = [*model.icae.nets().values(), model.side.x.projector,
            model.side.y.projector]
    assert {net.width for net in nets} == {64}
    return ds, model


def _passes(ds, model):
    """Every blocked pass on the model: the raw codes, the calibration,
    the base pass and the query codes of each variant, and the reports."""
    Xb, Yb, Lb = ds.base()
    Xq, Yq, Lq = ds.query()
    icae = copy.deepcopy(model.icae)
    raw = {m: autoencoder.raw_codes(icae, m, F)
           for m, F in (("x", Xb), ("y", Yb))}
    autoencoder.calibrate(icae, Xb, Yb, Lb)
    calibration = {m: dataclasses.asdict(c)
                   for m, c in icae.calibration.items()}
    full = hashing.full_base_codes(model.side, Xb, Yb, tuple(
        hashing.modality_codes(model.icae, m, F, model.variant)
        for m, F in (("x", Xb), ("y", Yb))))
    codes, reports = {}, {}
    for variant in hashing.VARIANTS.values():
        for split, X, Y in (("query", Xq, Yq), ("base", Xb, Yb)):
            for m, F in (("x", X), ("y", Y)):
                codes[variant.name, split, m] = retrieval.encode_query(
                    m, F, model.icae, model.side, variant)
        for direction, q, b in (("i2t", "x", "y"), ("t2i", "y", "x")):
            report = retrieval.evaluate(
                direction, codes[variant.name, "query", q], Lq,
                codes[variant.name, "base", b], Lb, ds.meta["label_counts"],
                ks=(1, 5, 100))
            report.runtime = 0.0
            reports[variant.name, direction] = report
    return raw, calibration, full, codes, reports


@pytest.mark.parametrize("rows", [1, 7])
def test_blocked_passes_agree_at_any_block_size(monkeypatch, rows):
    ds, model = _model()
    default = _passes(ds, model)
    nb = ds.base_indices.size
    monkeypatch.setattr(nn, "BLOCK_ELEMS", rows * 64)
    monkeypatch.setattr(retrieval, "BLOCK_ELEMS", rows * nb)
    raw, calibration, full, codes, reports = _passes(ds, model)
    # the +/-1 codes, B and the reports are exact. The float results agree
    # to rounding only: BLAS takes another kernel for a product over a few
    # columns (a matrix-vector one for a single sample), which rounds
    # differently (see nn.row_blocks)
    assert codes.keys() == default[3].keys()
    for key, c in codes.items():
        np.testing.assert_array_equal(c, default[3][key], err_msg=str(key))
    assert reports == default[4]
    np.testing.assert_array_equal(full[2], default[2][2])
    close = dict(rtol=1e-12, atol=1e-13)
    for m in ("x", "y"):
        for got, want in zip(raw[m], default[0][m]):
            np.testing.assert_allclose(got, want, **close)
        for field, want in default[1][m].items():
            np.testing.assert_allclose(calibration[m][field], want, **close,
                                       err_msg=field)
    for got, want in zip(full[:2], default[2][:2]):
        np.testing.assert_allclose(got, want, **close)


@pytest.mark.parametrize("rows", [1, 7])
def test_blocked_passes_on_an_empty_split_and_one_row_past_a_block(
        monkeypatch, rows):
    ds, model = _model()
    Xb, Yb, _ = ds.base()
    k = model.side.k
    want = {n: [retrieval.encode_query(m, F[:n], model.icae, model.side,
                                       variant)
                for variant in hashing.VARIANTS.values()
                for m, F in (("x", Xb), ("y", Yb))]
            for n in (0, rows + 1)}
    monkeypatch.setattr(nn, "BLOCK_ELEMS", rows * 64)
    for n, codes in want.items():
        assert len(nn.row_blocks(n, model.side.x.projector)) == n // rows
        C, P = autoencoder.raw_codes(model.icae, "x", Xb[:n])
        assert C.shape == P.shape == (n, k)
        Mx, My, B = hashing.full_base_codes(model.side, Xb[:n], Yb[:n], tuple(
            hashing.modality_codes(model.icae, m, F[:n], model.variant)
            for m, F in (("x", Xb), ("y", Yb))))
        assert Mx.shape == My.shape == B.shape == (k, n)
        got = [retrieval.encode_query(m, F[:n], model.icae, model.side,
                                      variant)
               for variant in hashing.VARIANTS.values()
               for m, F in (("x", Xb), ("y", Yb))]
        for g, w in zip(got, codes):
            assert g.shape == (k, n)
            np.testing.assert_array_equal(g, w)


def _random_model(rng, c=8, calibrate_rows=300):
    """Untrained nets on 64- and 48-dimensional features, calibrated on
    random data."""
    icae = autoencoder.init_icae(64, 48, 16, rng)
    side = meta.init_side_params(64, 48, 16, rng)
    L = (rng.random((calibrate_rows, c)) < 0.3).astype(np.uint8)
    autoencoder.calibrate(icae, rng.normal(size=(calibrate_rows, 64)),
                          rng.normal(size=(calibrate_rows, 48)), L)
    return icae, side


def test_default_blocks_are_bit_identical_to_one_block(monkeypatch):
    # what the block alignment buys: at the default block size a split of
    # several blocks, one row past whole blocks, gives the same bits as one
    # pass over the whole split
    rng = np.random.default_rng(3)
    icae, side = _random_model(rng)
    n = 2 * 4096 + 1
    X, Y = rng.normal(size=(n, 64)), rng.normal(size=(n, 48))
    L = (rng.random((n, 8)) < 0.3).astype(np.uint8)
    assert len(nn.row_blocks(n, icae.enc_ind_x, icae.enc_common)) == 3
    assert len(nn.row_blocks(n, side.x.projector)) == 2

    def run():
        ae = copy.deepcopy(icae)
        autoencoder.calibrate(ae, X, Y, L)
        codes = tuple(hashing.modality_codes(ae, m, F, hashing.VARIANTS[
            "full"]) for m, F in (("x", X), ("y", Y)))
        return [*autoencoder.raw_codes(ae, "x", X),
                *(np.asarray(v) for c in ae.calibration.values()
                  for v in dataclasses.asdict(c).values()),
                *hashing.full_base_codes(side, X, Y, codes),
                retrieval.encode_query("y", Y, ae, side)]

    blocked = run()
    monkeypatch.setattr(nn, "BLOCK_ELEMS", 1 << 40)
    for got, want in zip(blocked, run(), strict=True):
        np.testing.assert_array_equal(got, want)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_query_memory_is_bounded_by_a_block():
    # tracemalloc sees numpy's data buffers. A whole-split pass over these
    # 40,000 rows peaks at about 87 MB beyond its output; the blocked one
    # holds one block's activations, tapes and codes, about 14 MB here
    rng = np.random.default_rng(0)
    icae, side = _random_model(rng)
    raw = rng.normal(size=(40_000, 64))
    codes, peak = _traced_peak(retrieval.encode_query, "x", raw, icae, side)
    assert codes.shape == (16, 40_000)
    assert peak - codes.nbytes < 8 * nn.BLOCK_ELEMS * 8


def test_ranking_memory_is_below_one_distance_matrix():
    # the ranking holds one query block's distances and order, never the
    # (nq, nb) matrix of uint8 distances
    rng = np.random.default_rng(0)
    nq, nb, k, c = 200, 40_000, 16, 8
    Q = np.where(rng.random((k, nq)) < 0.5, 1.0, -1.0)
    D = np.where(rng.random((k, nb)) < 0.5, 1.0, -1.0)
    Lq = (rng.random((nq, c)) < 0.3).astype(np.uint8)
    Lb = (rng.random((nb, c)) < 0.3).astype(np.uint8)
    aps, peak = _traced_peak(retrieval.average_precisions, Q, Lq, D, Lb)
    assert aps.shape == (nq,)
    assert peak < nq * nb
