"""Individuality-commonality autoencoder: codes, losses, phase-1 trainer."""

import copy

import numpy as np
import pytest

from tailhash import affinity, autoencoder, datagen, experiment, hashing, nn
from tailhash.verify import finite_diff_grad, flat_grads, get_flat, set_flat


def _tiny_icae(rng, d=3, k=2):
    return autoencoder.IcaeParams(
        enc_ind_x=nn.init_mlp([d, 3, k], rng),
        enc_ind_y=nn.init_mlp([d, 3, k], rng),
        enc_common=nn.init_mlp([2 * d, 3, k], rng),
        dec_x=nn.init_mlp([2 * k, 3, d], rng),
        dec_y=nn.init_mlp([2 * k, 3, d], rng))


def _labels(n, c):
    L = np.zeros((n, c), dtype=np.uint8)
    L[np.arange(n), np.arange(n) % c] = 1
    return L


def test_encode_zero_weight_encoders_give_zero_codes():
    rng = np.random.default_rng(0)
    icae = _tiny_icae(rng)
    for net in (icae.enc_ind_x, icae.enc_ind_y, icae.enc_common):
        for layer in net.layers:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
    codes, _ = autoencoder.encode(icae, rng.standard_normal((4, 3)),
                                  rng.standard_normal((4, 3)))
    assert not codes.Px.any() and not codes.Py.any() and not codes.Cstar.any()


def test_encode_shapes():
    rng = np.random.default_rng(1)
    icae = autoencoder.init_icae(10, 8, 16, rng)
    codes, _ = autoencoder.encode(icae, rng.standard_normal((5, 10)),
                                  rng.standard_normal((5, 8)))
    for arr in (codes.Px, codes.Py, codes.Cstar):
        assert arr.shape == (5, 16)


def test_encode_deterministic_replay():
    rng = np.random.default_rng(2)
    icae = _tiny_icae(rng)
    Fx = rng.standard_normal((4, 3))
    Fy = rng.standard_normal((4, 3))
    a, _ = autoencoder.encode(icae, Fx, Fy)
    b, _ = autoencoder.encode(icae, Fx, Fy)
    np.testing.assert_array_equal(a.Cstar, b.Cstar)
    np.testing.assert_array_equal(a.Px, b.Px)


def test_encode_rejects_mismatched_sample_counts():
    rng = np.random.default_rng(3)
    icae = _tiny_icae(rng)
    with pytest.raises(ValueError):
        autoencoder.encode(icae, np.zeros((3, 3)), np.zeros((4, 3)))


def test_encode_dropped_modality_zeroes_block():
    # loss1's modality dropout feeds the commonality encoder the dropped
    # modality's block as zeros
    rng = np.random.default_rng(4)
    icae = _tiny_icae(rng)
    Fx = rng.standard_normal((4, 3))
    Fy = rng.standard_normal((4, 3))
    dropped = autoencoder._common_input(Fx, Fy, "y")
    np.testing.assert_array_equal(
        dropped, autoencoder._common_input(Fx, np.zeros_like(Fy), None))
    np.testing.assert_array_equal(dropped[:3], Fx.T)
    # only the commonality encoder sees the dropout; the individuality
    # encoders read both modalities as given
    codes, tapes = autoencoder.encode(icae, Fx, Fy, drop="y")
    zeroed, _ = autoencoder.encode(icae, Fx, np.zeros_like(Fy))
    full, _ = autoencoder.encode(icae, Fx, Fy)
    np.testing.assert_array_equal(codes.Cstar, zeroed.Cstar)
    np.testing.assert_array_equal(codes.Py, full.Py)
    np.testing.assert_array_equal(tapes["enc_common"][0][0], dropped)
    L = _labels(4, 2)
    aff = affinity.label_affinity(Fx, L)
    with pytest.raises(ValueError):
        autoencoder.loss1(icae, Fx, Fy, L, aff, aff, 0.05, 0.05, drop="z")


def _standardized(cal, P):
    return (P - cal.ind_mean) / cal.ind_scale


def test_calibration_standardizes_codes():
    rng = np.random.default_rng(5)
    icae = _tiny_icae(rng)
    Xb = rng.standard_normal((40, 3))
    Yb = rng.standard_normal((40, 3))
    autoencoder.calibrate(icae, Xb, Yb, _labels(40, 2))
    cal = icae.calibration
    codes, _ = autoencoder.encode(icae, Xb, Yb)
    Px = _standardized(cal["x"], codes.Px)
    Py = _standardized(cal["y"], codes.Py)
    for arr in (Px, Py):
        np.testing.assert_allclose(np.sqrt(np.mean(arr ** 2, axis=0)), 1.0,
                                   atol=1e-10)
    # the individuality codes are also centred over the base split
    for arr in (Px, Py):
        np.testing.assert_allclose(arr.mean(axis=0), 0.0, atol=1e-12)
    # each single-modality commonality stream has its own calibration
    for modality, raw in (("x", Xb), ("y", Yb)):
        C, _ = hashing.modality_codes(icae, modality, raw,
                                      hashing.VARIANTS["full"])
        np.testing.assert_allclose(np.sqrt(np.mean(C ** 2, axis=0)), 1.0,
                                   atol=1e-10)


def test_calibration_matches_single_modality_encodings():
    # calibration runs modality_codes' single-modality pass; its statistics
    # equal those of full encodings with the other modality zeroed, bit
    # for bit
    rng = np.random.default_rng(6)
    icae = _tiny_icae(rng, k=3)
    Xb = rng.standard_normal((50, 3))
    Yb = rng.standard_normal((50, 3))
    Lb = _labels(50, 4)
    autoencoder.calibrate(icae, Xb, Yb, Lb)

    rms = lambda a: np.maximum(np.sqrt(np.mean(a ** 2, axis=0)),
                               autoencoder.SCALE_FLOOR)
    only_x, _ = autoencoder.encode(icae, Xb, np.zeros_like(Yb))
    only_y, _ = autoencoder.encode(icae, np.zeros_like(Xb), Yb)
    for mod, P, C in (("x", only_x.Px, only_x.Cstar),
                      ("y", only_y.Py, only_y.Cstar)):
        cal = icae.calibration[mod]
        mean = P.mean(axis=0)
        np.testing.assert_array_equal(cal.ind_mean, mean)
        np.testing.assert_array_equal(cal.ind_scale, rms(P - mean))
        np.testing.assert_array_equal(cal.common_scale, rms(C))
        np.testing.assert_array_equal(
            cal.prototypes,
            np.linalg.lstsq(Lb.astype(np.float64), _standardized(cal, P),
                            rcond=None)[0])


def test_recall_returns_weighted_nearest_prototype():
    # with a sharp attention a code sitting on prototype a recalls
    # weights[a] * prototype[a], at the stored output scale
    protos = np.array([[3.0, 0.0], [0.0, 3.0], [-3.0, -3.0]])
    weights = np.array([1.0, 0.5, 0.0])
    cal = autoencoder.Calibration(
        ind_mean=np.zeros(2), ind_scale=np.ones(2), common_scale=np.ones(2),
        prototypes=protos, weights=weights, dist_scale=1.0, out_scale=2.0)
    out = autoencoder.recall(cal, protos)
    np.testing.assert_allclose(out, weights[:, None] * protos / 2.0,
                               atol=1e-12)


def test_build_memory_weights_and_scale():
    rng = np.random.default_rng(9)
    icae = _tiny_icae(rng, k=3)
    Xb = rng.standard_normal((60, 3))
    Yb = rng.standard_normal((60, 3))
    Lb = _labels(60, 4)
    autoencoder.calibrate(icae, Xb, Yb, Lb)
    mx, my = icae.calibration["x"], icae.calibration["y"]
    assert mx.prototypes.shape == (4, 3)
    for cal in (mx, my):
        assert np.all((cal.weights >= 0.0) & (cal.weights <= 1.0))
    # a label is claimed by at most one modality's memory
    assert np.all(np.minimum(mx.weights, my.weights) == 0.0)
    # the recall of the standardized codes has unit RMS over the base split
    codes, _ = autoencoder.encode(icae, Xb, Yb)
    for cal, P in ((mx, codes.Px), (my, codes.Py)):
        rms = np.sqrt(np.mean(autoencoder.recall(cal, _standardized(cal, P))
                              ** 2))
        np.testing.assert_allclose(rms, 1.0, atol=1e-12)


def test_hash_codes_match_single_modality_encoding():
    rng = np.random.default_rng(10)
    icae = _tiny_icae(rng)
    Xb = rng.standard_normal((30, 3))
    Yb = rng.standard_normal((30, 3))
    full = hashing.VARIANTS["full"]
    with pytest.raises(ValueError):
        hashing.modality_codes(icae, "x", Xb, full)
    autoencoder.calibrate(icae, Xb, Yb, _labels(30, 3))
    cal = icae.calibration["y"]
    # the unscaled codes of a full encoding with the x block zeroed,
    # standardized with the y-only commonality scale
    only_y, _ = autoencoder.encode(icae, np.zeros_like(Xb), Yb)
    C, I = hashing.modality_codes(icae, "y", Yb, full)
    np.testing.assert_array_equal(C, only_y.Cstar / cal.common_scale)
    np.testing.assert_array_equal(
        I, autoencoder.recall(cal, _standardized(cal, only_y.Py)))
    with pytest.raises(ValueError):
        hashing.modality_codes(icae, "z", Xb, full)


def test_reconstruction_loss_zero_when_decoder_exact():
    # decoders that reproduce F^v exactly give J3 = 0: use identity
    # individuality encoders with k = d and a decoder reading that block
    rng = np.random.default_rng(6)
    d = k = 2
    icae = autoencoder.IcaeParams(
        enc_ind_x=nn.Mlp([nn.DenseLayer(np.eye(d), np.zeros(d))]),
        enc_ind_y=nn.Mlp([nn.DenseLayer(np.eye(d), np.zeros(d))]),
        enc_common=nn.Mlp([nn.DenseLayer(np.zeros((k, 2 * d)), np.zeros(k))]),
        dec_x=nn.Mlp([nn.DenseLayer(
            np.hstack([np.zeros((d, k)), np.eye(d)]), np.zeros(d))]),
        dec_y=nn.Mlp([nn.DenseLayer(
            np.hstack([np.zeros((d, k)), np.eye(d)]), np.zeros(d))]))
    Fx = rng.standard_normal((5, d))
    Fy = rng.standard_normal((5, d))
    codes, _ = autoencoder.encode(icae, Fx, Fy)
    value, _ = autoencoder.reconstruction_loss(icae, Fx, Fy, codes)
    assert value == pytest.approx(0.0, abs=1e-20)


def test_reconstruction_loss_quadratic_scaling():
    rng = np.random.default_rng(7)
    icae = _tiny_icae(rng)
    Fx = rng.standard_normal((4, 3))
    Fy = rng.standard_normal((4, 3))
    codes, _ = autoencoder.encode(icae, Fx, Fy)
    v1, _ = autoencoder.reconstruction_loss(icae, Fx, Fy, codes)
    # doubling every residual quadruples the loss: with the codes held
    # fixed, targets F' = 2F - dec(codes) have residuals 2(dec - F)
    Fx2 = 2.0 * Fx - _decode(icae, "x", codes)
    Fy2 = 2.0 * Fy - _decode(icae, "y", codes)
    v2, _ = autoencoder.reconstruction_loss(icae, Fx2, Fy2, codes)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-10)


def _decode(icae, modality, codes):
    dec = icae.dec_x if modality == "x" else icae.dec_y
    P = codes.Px if modality == "x" else codes.Py
    U = np.vstack([codes.Cstar.T, P.T])
    out, _ = nn.forward(dec, U)
    return out.T


def test_reconstruction_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    icae = _tiny_icae(rng)
    Fx = rng.standard_normal((4, 3))
    Fy = rng.standard_normal((4, 3))
    codes, _ = autoencoder.encode(icae, Fx, Fy)
    _, grads = autoencoder.reconstruction_loss(icae, Fx, Fy, codes)
    net = icae.dec_x
    theta = get_flat(net)

    def value_at(vec):
        set_flat(net, vec)
        v, _ = autoencoder.reconstruction_loss(icae, Fx, Fy, codes)
        set_flat(net, theta)
        return v

    numeric = finite_diff_grad(value_at, theta)
    analytic = flat_grads(grads["dec_x"])
    err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric),
                                                   1e-12)
    assert err <= 1e-4


def test_loss1_reduces_to_j3_when_alpha_beta_zero():
    rng = np.random.default_rng(9)
    icae = _tiny_icae(rng)
    n, c = 6, 3
    Fx = rng.standard_normal((n, 3))
    Fy = rng.standard_normal((n, 3))
    L = _labels(n, c)
    aff_x = affinity.label_affinity(Fx, L)
    aff_y = affinity.label_affinity(Fy, L)
    value, parts, _ = autoencoder.loss1(icae, Fx, Fy, L, aff_x, aff_y,
                                        0.0, 0.0)
    codes, _ = autoencoder.encode(icae, Fx, Fy)
    j3, _ = autoencoder.reconstruction_loss(icae, Fx, Fy, codes)
    assert value == pytest.approx(j3, abs=1e-12)
    assert parts["j3"] == pytest.approx(j3, abs=1e-12)


def test_loss1_decomposition_exact():
    rng = np.random.default_rng(10)
    icae = _tiny_icae(rng)
    n, c = 6, 3
    Fx = rng.standard_normal((n, 3))
    Fy = rng.standard_normal((n, 3))
    L = _labels(n, c)
    aff_x = affinity.label_affinity(Fx, L)
    aff_y = affinity.label_affinity(Fy, L)
    value, parts, _ = autoencoder.loss1(icae, Fx, Fy, L, aff_x, aff_y,
                                        0.3, 0.7)
    assert value == pytest.approx(
        0.3 * parts["j1"] + 0.7 * parts["j2"] + parts["j3"], abs=1e-10)


def test_loss1_gradient_matches_finite_differences():
    # the HSIC bandwidths are pinned at the base point, matching the
    # analytic stop-gradient through sigma
    from tailhash.verify import check_loss1_gradients
    name, passed, detail = check_loss1_gradients(seed=0, trials=1)
    assert passed, detail


def _tiny_dataset(seed=0, n_extra=0):
    spec = datagen.LongTailSpec(c=3, z1=12, mu=0.5, raw_dim_x=6, raw_dim_y=5,
                                shared_dim=2, private_dim=1, noise_sigma=0.05,
                                secondary_label_prob=0.3, seed=seed)
    ds = datagen.generate(spec)
    return datagen.Dataset(ds.Fx_raw, ds.Fy_raw, ds.L,
                           np.arange(ds.n, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), ds.meta)


def test_train_ae_zero_epochs_keeps_params():
    rng = np.random.default_rng(11)
    ds = _tiny_dataset()
    icae = autoencoder.init_icae(6, 5, 4, rng)
    before = {name: get_flat(net).copy()
              for name, net in icae.nets().items()}
    _, trace = autoencoder.train_ae(
        ds, icae, experiment.RunConfig(batch_size=8, max_epochs=0))
    assert trace == []
    for name, net in icae.nets().items():
        np.testing.assert_array_equal(get_flat(net), before[name])


def test_train_ae_trace_length_and_loss_decrease():
    rng = np.random.default_rng(12)
    ds = _tiny_dataset()
    icae = autoencoder.init_icae(6, 5, 4, rng)
    _, trace = autoencoder.train_ae(
        ds, icae, experiment.RunConfig(batch_size=8, max_epochs=30, seed=0))
    assert len(trace) == 30
    assert trace[-1] < trace[0]


def test_train_ae_noiseless_reconstruction_halves():
    spec = datagen.LongTailSpec(c=3, z1=12, mu=0.5, raw_dim_x=6, raw_dim_y=5,
                                shared_dim=2, private_dim=1, noise_sigma=0.0,
                                secondary_label_prob=0.0, seed=1)
    ds = datagen.generate(spec)
    ds = datagen.Dataset(ds.Fx_raw, ds.Fy_raw, ds.L,
                         np.arange(ds.n, dtype=np.int64),
                         np.zeros(0, dtype=np.int64), ds.meta)
    rng = np.random.default_rng(13)
    icae = autoencoder.init_icae(6, 5, 4, rng)
    _, trace = autoencoder.train_ae(
        ds, icae, experiment.RunConfig(alpha=0.0, beta=0.0, batch_size=8,
                                       max_epochs=50, seed=0))
    assert trace[-1] < 0.5 * trace[0]


def test_train_ae_deterministic():
    ds = _tiny_dataset()
    results = []
    for _ in range(2):
        icae = autoencoder.init_icae(6, 5, 4, np.random.default_rng(15))
        _, trace = autoencoder.train_ae(
            ds, icae, experiment.RunConfig(batch_size=8, max_epochs=5,
                                           seed=3))
        results.append((get_flat(icae.enc_common).copy(), trace))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    assert results[0][1] == results[1][1]


def test_train_ae_rejects_empty_base():
    ds = _tiny_dataset()
    empty = datagen.Dataset(ds.Fx_raw, ds.Fy_raw, ds.L,
                            np.zeros(0, dtype=np.int64),
                            np.arange(ds.n, dtype=np.int64), ds.meta)
    icae = autoencoder.init_icae(6, 5, 4, np.random.default_rng(16))
    with pytest.raises(ValueError):
        autoencoder.train_ae(empty, icae, experiment.RunConfig())


def _loss1_instance(seed, n=8, c=3, d=3):
    rng = np.random.default_rng(seed)
    icae = _tiny_icae(rng, d=d)
    Fx = rng.standard_normal((n, d))
    Fy = rng.standard_normal((n, d))
    L = _labels(n, c)
    L[:, 2] = 0                     # label 2 absent from the batch
    L[2, 0] = 1
    affs = (affinity.label_affinity(Fx, _labels(n, c)),
            affinity.label_affinity(Fy, _labels(n, c)))
    return icae, Fx, Fy, L, affs


def test_loss1_follows_float32_input():
    icae, Fx, Fy, L, affs = _loss1_instance(30)
    v64, parts64, g64 = autoencoder.loss1(icae, Fx, Fy, L, *affs, 0.3, 0.7)
    assert all(g.dtype == np.float64
               for grads in g64.values() for pair in grads for g in pair)
    icae32 = autoencoder.IcaeParams(**{name: nn.cast(net, np.float32)
                                       for name, net in icae.nets().items()})
    v32, parts32, g32 = autoencoder.loss1(
        icae32, Fx.astype(np.float32), Fy.astype(np.float32),
        L.astype(np.float32), *affs, 0.3, 0.7, drop="y")
    assert all(g.dtype == np.float32
               for grads in g32.values() for pair in grads for g in pair)
    # the shared encoder pass keeps float32 codes: nothing widens phase 1
    codes32, _ = autoencoder.encode(icae32, Fx.astype(np.float32),
                                    Fy.astype(np.float32), drop="x")
    assert all(a.dtype == np.float32
               for a in (codes32.Px, codes32.Py, codes32.Cstar))
    v32, _, g32 = autoencoder.loss1(
        icae32, Fx.astype(np.float32), Fy.astype(np.float32),
        L.astype(np.float32), *affs, 0.3, 0.7)
    assert v32 == pytest.approx(v64, rel=1e-5)
    for name in g64:
        np.testing.assert_allclose(flat_grads(g32[name]),
                                   flat_grads(g64[name]),
                                   rtol=1e-3, atol=1e-5)


def test_train_ae_widens_float32_training_to_float64():
    ds = _tiny_dataset()
    icae = autoencoder.init_icae(6, 5, 4, np.random.default_rng(17))
    arrays = [layer.weight for net in icae.nets().values()
              for layer in net.layers]
    out, _ = autoencoder.train_ae(
        ds, icae, experiment.RunConfig(batch_size=8, max_epochs=2, seed=0))
    assert out is icae
    for net in icae.nets().values():
        for layer in net.layers:
            for arr in (layer.weight, layer.bias):
                assert arr.dtype == np.float64
                # trained in float32: every entry is a float32 value
                np.testing.assert_array_equal(
                    arr, arr.astype(np.float32).astype(np.float64))
    # written back in place, into the arrays the caller gave
    assert all(a is b for a, b in zip(
        arrays, [layer.weight for net in icae.nets().values()
                 for layer in net.layers]))
    for cal in icae.calibration.values():
        for field in ("ind_mean", "ind_scale", "common_scale", "prototypes",
                      "weights"):
            assert getattr(cal, field).dtype == np.float64
        assert isinstance(cal.dist_scale, float)
        assert isinstance(cal.out_scale, float)


def test_train_ae_divergence_raises_without_numpy_warnings():
    import warnings
    ds = _tiny_dataset()
    icae = autoencoder.init_icae(6, 5, 4, np.random.default_rng(18))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nn.NumericsError):
            autoencoder.train_ae(ds, icae, experiment.RunConfig(
                batch_size=8, max_epochs=3, seed=0, lr_ae=1e30))
