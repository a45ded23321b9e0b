"""Synthetic long-tail dataset generation: Zipf counts, planted structure."""

import dataclasses
import json

import numpy as np
import pytest

from tailhash import datagen, nn


# ---------------------------------------------------------------- zipf_counts

def test_zipf_counts_published_shape_c24():
    # z1=3000, c=24, IF=50 -> least-frequent label has 60 samples
    mu = datagen.mu_from_if(50, 24)
    z = datagen.zipf_counts(3000, 24, mu)
    assert z[0] == 3000
    assert z[-1] == 60


def test_zipf_counts_published_shape_c21():
    # z1=5000, c=21, IF=50 -> least-frequent label has 100 samples
    mu = datagen.mu_from_if(50, 21)
    z = datagen.zipf_counts(5000, 21, mu)
    assert z[0] == 5000
    assert z[-1] == 100


def test_zipf_counts_mu_zero_uniform():
    assert np.array_equal(datagen.zipf_counts(7, 5, 0.0), np.full(5, 7))


def test_zipf_counts_direct_evaluation():
    # z1=100, mu=1: 100/a rounded half-up -> 100, 50, 33, 25
    assert np.array_equal(datagen.zipf_counts(100, 4, 1.0),
                          np.array([100, 50, 33, 25]))


def test_zipf_counts_non_increasing_and_floored():
    z = datagen.zipf_counts(50, 30, 2.0)
    assert np.all(np.diff(z) <= 0)
    assert z.min() >= 1


def test_zipf_counts_validation():
    with pytest.raises(ValueError):
        datagen.zipf_counts(0, 4, 1.0)
    with pytest.raises(ValueError):
        datagen.zipf_counts(10, 4, -0.5)


# ----------------------------------------------------------------- mu_from_if

def test_mu_from_if_c24():
    assert datagen.mu_from_if(50, 24) == pytest.approx(
        np.log(50) / np.log(24))
    assert datagen.mu_from_if(50, 24) == pytest.approx(1.2309, abs=1e-3)


def test_mu_from_if_equals_one_when_if_is_c():
    assert datagen.mu_from_if(24, 24) == pytest.approx(1.0)


def test_mu_from_if_c21():
    assert datagen.mu_from_if(50, 21) == pytest.approx(
        np.log(50) / np.log(21))
    assert datagen.mu_from_if(50, 21) == pytest.approx(1.2850, abs=1e-3)


def test_mu_from_if_gives_target_ratio():
    mu = datagen.mu_from_if(50, 24)
    assert 24.0 ** (-mu) == pytest.approx(1 / 50)


def test_mu_from_if_validation():
    with pytest.raises(ValueError):
        datagen.mu_from_if(1.0, 24)
    with pytest.raises(ValueError):
        datagen.mu_from_if(50, 1)


# ------------------------------------------------------------------- generate

def _tiny_spec(**kw):
    base = dict(c=4, z1=20, imbalance_factor=10.0, raw_dim_x=10, raw_dim_y=8,
                shared_dim=3, private_dim=2, noise_sigma=0.0,
                secondary_label_prob=0.0, seed=0)
    base.update(kw)
    return datagen.LongTailSpec(**base)


def test_generate_noiseless_single_label_is_planted_mixture():
    spec = _tiny_spec(c=2, z1=1, imbalance_factor=None, mu=0.0)
    ds = datagen.generate(spec)
    arrays = ds.meta["arrays"]
    i = int(np.flatnonzero(ds.L[:, 0])[0])
    assert ds.L[i].sum() == 1
    expected = (arrays["shared_prototypes"][0] @ arrays["mix_Gx"].T
                + arrays["private_x"][0] @ arrays["mix_Hx"].T)
    np.testing.assert_allclose(ds.Fx_raw[i], expected, atol=1e-12)


def test_generate_total_count_matches_zipf_sum():
    spec = datagen.LongTailSpec(c=12, z1=500, imbalance_factor=50.0, seed=3)
    ds = datagen.generate(spec)
    z = datagen.zipf_counts(500, 12, spec.mu)
    assert z[-1] == 10
    assert ds.n == int(z.sum())
    assert np.array_equal(ds.meta["label_counts"], z)


def test_generate_identical_label_sets_identical_features():
    ds = datagen.generate(_tiny_spec())
    # single-label samples of label 0 all share the same noiseless features
    rows = np.flatnonzero((ds.L[:, 0] == 1) & (ds.L.sum(axis=1) == 1))
    assert rows.size >= 2
    np.testing.assert_allclose(ds.Fx_raw[rows[0]], ds.Fx_raw[rows[1]],
                               atol=1e-12)
    np.testing.assert_allclose(ds.Fy_raw[rows[0]], ds.Fy_raw[rows[1]],
                               atol=1e-12)


def test_generate_every_sample_has_a_label():
    ds = datagen.generate(_tiny_spec(secondary_label_prob=0.5))
    assert np.all(ds.L.sum(axis=1) >= 1)
    assert np.all(ds.L.sum(axis=1) <= 2)


def test_generate_exclusive_tail_labels_silent_in_one_modality():
    # with half the labels exclusive, each such label has zero planted signal
    # in the excluded modality: its single-label noiseless samples depend
    # only on the surviving private prototype
    spec = _tiny_spec(exclusive_tail_fraction=0.5)
    ds = datagen.generate(spec)
    excl = ds.meta["exclusive_labels"]
    assert excl.size == 2
    arrays = ds.meta["arrays"]
    for j, a in enumerate(excl):
        np.testing.assert_array_equal(arrays["shared_prototypes"][a], 0.0)
        rows = np.flatnonzero((ds.L[:, a] == 1) & (ds.L.sum(axis=1) == 1))
        if j % 2 == 0:      # signal lives in modality x only
            np.testing.assert_array_equal(arrays["private_y"][a], 0.0)
            np.testing.assert_allclose(ds.Fy_raw[rows], 0.0, atol=1e-12)
            assert np.abs(ds.Fx_raw[rows]).max() > 0
        else:               # signal lives in modality y only
            np.testing.assert_array_equal(arrays["private_x"][a], 0.0)
            np.testing.assert_allclose(ds.Fx_raw[rows], 0.0, atol=1e-12)
            assert np.abs(ds.Fy_raw[rows]).max() > 0


def test_generate_deterministic_per_seed():
    a = datagen.generate(_tiny_spec(noise_sigma=0.3, secondary_label_prob=0.5))
    b = datagen.generate(_tiny_spec(noise_sigma=0.3, secondary_label_prob=0.5))
    np.testing.assert_array_equal(a.Fx_raw, b.Fx_raw)
    np.testing.assert_array_equal(a.Fy_raw, b.Fy_raw)
    np.testing.assert_array_equal(a.L, b.L)


def test_generate_noise_chunks_leave_the_bytes_alone(monkeypatch):
    # the noise is drawn in row chunks from the stream a whole-matrix draw
    # would take; one row per chunk, a few rows and one chunk all agree
    spec = _tiny_spec(noise_sigma=0.7, secondary_label_prob=0.5)
    monkeypatch.setattr(nn, "BLOCK_ELEMS", 1 << 40)
    whole = datagen.generate(spec)
    for elems in (1, 25):
        monkeypatch.setattr(nn, "BLOCK_ELEMS", elems)
        chunked = datagen.generate(spec)
        assert chunked.Fx_raw.tobytes() == whole.Fx_raw.tobytes()
        assert chunked.Fy_raw.tobytes() == whole.Fy_raw.tobytes()
        assert chunked.L.tobytes() == whole.L.tobytes()


def test_generate_realized_if_close_to_target():
    spec = datagen.LongTailSpec(c=12, z1=1000, imbalance_factor=50.0)
    z = datagen.zipf_counts(spec.z1, spec.c, spec.mu)
    assert z[0] / z[-1] == pytest.approx(50.0, rel=0.05)


def test_spec_validation():
    with pytest.raises(ValueError):
        datagen.LongTailSpec(c=1, z1=10, mu=1.0)
    with pytest.raises(ValueError):
        datagen.LongTailSpec(c=4, z1=0, mu=1.0)
    with pytest.raises(ValueError):
        datagen.LongTailSpec(c=4, z1=10)           # neither mu nor IF
    with pytest.raises(ValueError):
        datagen.LongTailSpec(c=4, z1=10, mu=1.0, exclusive_tail_fraction=1.5)
    with pytest.raises(ValueError):
        datagen.LongTailSpec(c=4, z1=10, mu=1.0, secondary_label_prob=-0.1)


@pytest.mark.parametrize("mu", [None, 1.0])
def test_spec_rejects_imbalance_factor_not_above_one(mu):
    # also when mu is given and the factor would go unused
    with pytest.raises(ValueError, match="imbalance factor must exceed 1"):
        datagen.LongTailSpec(c=4, z1=10, mu=mu, imbalance_factor=1.0)


def test_spec_refuses_mu_that_contradicts_imbalance_factor():
    with pytest.raises(ValueError, match="contradicts imbalance factor 50"):
        datagen.LongTailSpec(c=8, z1=100, mu=1.0, imbalance_factor=50)
    # a spec rebuilt from its own record, as a manifest holds it, gives
    # both, and they agree
    spec = datagen.LongTailSpec(c=8, z1=100, imbalance_factor=50)
    assert dataclasses.replace(spec, seed=4).mu == spec.mu
    record = json.loads(json.dumps(dataclasses.asdict(spec)))
    assert datagen.LongTailSpec(**record) == spec


# ---------------------------------------------------------------------- split

def test_split_zero_query_all_base():
    ds = datagen.generate(_tiny_spec())
    out = datagen.split(ds, 1, seed=0)
    assert out.base_indices.size + out.query_indices.size == ds.n
    out0 = datagen.Dataset(ds.Fx_raw, ds.Fy_raw, ds.L,
                           np.arange(ds.n), np.zeros(0, dtype=np.int64),
                           ds.meta)
    assert out0.query_indices.size == 0


def test_split_sizes_and_disjointness():
    ds = datagen.generate(_tiny_spec())
    out = datagen.split(ds, 3, seed=1)
    assert out.query_indices.size == 3
    assert out.base_indices.size == ds.n - 3
    assert not set(out.base_indices) & set(out.query_indices)
    covered = np.sort(np.concatenate([out.base_indices, out.query_indices]))
    assert np.array_equal(covered, np.arange(ds.n))


def test_split_every_label_kept_in_base():
    ds = datagen.generate(_tiny_spec(secondary_label_prob=0.5))
    out = datagen.split(ds, ds.n // 3, seed=2)
    _, _, Lb = out.base()
    assert np.all(Lb.sum(axis=0) >= 1)


def test_split_deterministic():
    ds = datagen.generate(_tiny_spec())
    a = datagen.split(ds, 5, seed=7)
    b = datagen.split(ds, 5, seed=7)
    np.testing.assert_array_equal(a.query_indices, b.query_indices)


def test_split_rejects_oversized_query():
    ds = datagen.generate(_tiny_spec())
    with pytest.raises(ValueError):
        datagen.split(ds, ds.n)
    with pytest.raises(ValueError):
        datagen.split(ds, -1)


def test_contiguous_split_rows_are_read_only_views():
    ds = datagen.generate(_tiny_spec())     # base 0..n-1, no query
    for arr, whole in zip(ds.base(), (ds.Fx_raw, ds.Fy_raw, ds.L)):
        assert np.shares_memory(arr, whole) and not arr.flags.writeable
        np.testing.assert_array_equal(arr, whole)
    for arr in ds.query():
        assert arr.shape[0] == 0
    # a split of scattered rows is gathered into copies of its own
    out = datagen.split(ds, 5, seed=1)
    i = out.base_indices
    for arr, want in zip(out.base(), (ds.Fx_raw[i], ds.Fy_raw[i], ds.L[i])):
        assert arr.flags.owndata and arr.flags.writeable
        np.testing.assert_array_equal(arr, want)


@pytest.mark.parametrize("query", [True, False])
def test_keep_splits_holds_the_split_rows_once(query):
    ds = datagen.generate(_tiny_spec(secondary_label_prob=0.5))
    full = datagen.split(ds, 5, seed=1)
    kept = datagen.split(ds, 5, seed=1)
    kept.keep_splits(query=query)
    nb, nq = full.base_indices.size, full.query_indices.size
    assert kept.n == nb + (nq if query else 0)
    np.testing.assert_array_equal(kept.base_indices, np.arange(nb))
    np.testing.assert_array_equal(kept.query_indices,
                                  np.arange(nb, nb + nq) if query else [])
    pairs = [*zip(kept.base(), full.base()),
             *((got, want if query else want[:0])
               for got, want in zip(kept.query(), full.query()))]
    for got, want in pairs:
        assert not got.flags.owndata and not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    # the gathered arrays replace the full ones, which are left untouched
    assert not np.shares_memory(kept.Fx_raw, full.Fx_raw)
    np.testing.assert_array_equal(full.Fx_raw, ds.Fx_raw)
