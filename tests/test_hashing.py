"""Hash-code learning: likelihood loss, gradients, sign update, trainer."""

import copy

import numpy as np
import pytest

from tailhash import autoencoder, datagen, experiment, hashing, nn
from tailhash.verify import check_sign_update, finite_diff_grad, get_flat


def test_phi_orthogonal_columns():
    Mx = np.array([[1.0], [0.0]])
    My = np.array([[0.0], [1.0]])
    ph = hashing.phi(Mx, My)
    assert ph[0, 0] == 0.0
    assert nn.sigmoid(ph)[0, 0] == 0.5


def test_phi_unit_diagonal():
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    ph = hashing.phi(M, M)
    assert ph[0, 0] == 0.5 and ph[1, 1] == 0.5


def test_phi_matches_direct_inner_products():
    rng = np.random.default_rng(0)
    Mx = rng.standard_normal((4, 3))
    My = rng.standard_normal((4, 3))
    ph = hashing.phi(Mx, My)
    for i in range(3):
        for j in range(3):
            assert ph[i, j] == pytest.approx(0.5 * Mx[:, i] @ My[:, j])


def test_loss2_hand_computed_single_sample():
    # k=1, n=1, Mx=My=B=+1, S=1: phi=0.5, NLL = -(0.5 - log(1+e^0.5)),
    # quantization 0, balance eta*(1+1)
    gamma, eta = 1.0, 1.0
    one = np.array([[1.0]])
    total, parts = hashing.loss2(one, one, np.array([[1.0]]), one, gamma, eta)
    nll = -(0.5 - np.log(1 + np.exp(0.5)))
    assert parts["nll"] == pytest.approx(nll)
    assert parts["quantization"] == 0.0
    assert parts["balance"] == pytest.approx(2.0)
    assert total == pytest.approx(nll + 2.0)


def test_loss2_zero_phi_gives_n2_log2():
    # gamma = eta = 0 and phi identically zero: loss = n^2 log 2
    gamma, eta = 0.0, 0.0
    Mx = np.zeros((2, 3))
    My = np.zeros((2, 3))
    total, _ = hashing.loss2(Mx, My, np.zeros((3, 3)), np.ones((2, 3)), gamma,
                             eta)
    assert total == pytest.approx(9 * np.log(2))


def test_loss2_gamma_scales_quantization_only():
    rng = np.random.default_rng(1)
    Mx = rng.standard_normal((3, 4))
    My = rng.standard_normal((3, 4))
    S = np.eye(4)
    B = np.where(rng.random((3, 4)) < 0.5, 1.0, -1.0)
    t1, p1 = hashing.loss2(Mx, My, S, B, 1.0, 0.5)
    t2, p2 = hashing.loss2(Mx, My, S, B, 2.0, 0.5)
    assert p1["nll"] == p2["nll"] and p1["balance"] == p2["balance"]
    assert t2 - t1 == pytest.approx(p1["quantization"])


def test_loss2_decomposition_exact():
    rng = np.random.default_rng(2)
    Mx = rng.standard_normal((3, 4))
    My = rng.standard_normal((3, 4))
    S = (rng.random((4, 4)) < 0.5).astype(float)
    B = np.where(rng.random((3, 4)) < 0.5, 1.0, -1.0)
    gamma, eta = 0.7, 0.3
    total, parts = hashing.loss2(Mx, My, S, B, gamma, eta)
    assert total == pytest.approx(
        parts["nll"] + 0.7 * parts["quantization"] + 0.3 * parts["balance"],
        abs=1e-10)


def test_loss2_overflow_safe():
    gamma, eta = 0.0, 0.0
    big = np.full((2, 2), 1000.0)
    total, _ = hashing.loss2(big, big, np.ones((2, 2)), np.ones((2, 2)), gamma,
                             eta)
    assert np.isfinite(total)


def test_grad_zero_at_stationary_point():
    # S = sigma(phi), B = Mx, zero column sums -> gradient exactly zero
    Mx = np.array([[1.0, -1.0], [1.0, -1.0]])
    My = np.array([[1.0, -1.0], [-1.0, 1.0]])
    S = nn.sigmoid(hashing.phi(Mx, My))
    gamma, eta = 1.0, 1.0
    g = hashing.grad_meta(Mx, My, S, Mx, gamma, eta)
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    gamma, eta = 0.7, 0.3
    for _ in range(5):
        k, n = 4, 5
        Mx = rng.standard_normal((k, n))
        My = rng.standard_normal((k, n))
        S = (rng.random((n, n)) < 0.5).astype(float)
        B = np.where(rng.random((k, n)) < 0.5, 1.0, -1.0)
        gx = hashing.grad_meta(Mx, My, S, B, gamma, eta)
        gy = hashing.grad_meta(My, Mx, S.T, B, gamma, eta)
        fx = finite_diff_grad(
            lambda M: hashing.loss2(M, My, S, B, gamma, eta)[0], Mx)
        fy = finite_diff_grad(
            lambda M: hashing.loss2(Mx, M, S, B, gamma, eta)[0], My)
        for analytic, numeric in ((gx, fx), (gy, fy)):
            err = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(numeric), 1e-12)
            assert err <= 1e-4


def test_grad_role_exchange_symmetry():
    # the second modality's gradient is grad_meta with the roles exchanged;
    # column i of d Loss2 / d My is
    # 1/2 sum_j (sigma(phi_ji) - S_ji) Mx_j + 2 gamma (My_i - B_i) + 2 eta My 1
    rng = np.random.default_rng(4)
    Mx = rng.standard_normal((3, 4))
    My = rng.standard_normal((3, 4))
    S = (rng.random((4, 4)) < 0.5).astype(float)    # not symmetric
    B = np.where(rng.random((3, 4)) < 0.5, 1.0, -1.0)
    gamma, eta = 0.7, 0.3
    gy = hashing.grad_meta(My, Mx, S.T, B, gamma, eta)
    sig = nn.sigmoid(hashing.phi(Mx, My))
    want = np.zeros_like(My)
    for i in range(4):
        for j in range(4):
            want[:, i] += 0.5 * (sig[j, i] - S[j, i]) * Mx[:, j]
        want[:, i] += 2 * 0.7 * (My[:, i] - B[:, i]) + 2 * 0.3 * My.sum(axis=1)
    np.testing.assert_allclose(gy, want, atol=1e-12)


def test_update_B_all_positive():
    Mx = np.abs(np.random.default_rng(5).standard_normal((3, 4)))
    assert np.all(hashing.update_B(Mx, Mx) == 1.0)


def test_update_B_tie_break_plus_one():
    assert hashing.update_B(np.array([[1.0]]), np.array([[-1.0]]))[0, 0] == 1.0


def test_update_B_entries_exactly_pm1():
    rng = np.random.default_rng(6)
    B = hashing.update_B(rng.standard_normal((4, 7)),
                         rng.standard_normal((4, 7)))
    assert set(np.unique(B)) <= {-1.0, 1.0}


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_branch_free_selects_are_the_where_forms_bit_for_bit(dtype):
    rng = np.random.default_rng(12)
    z = np.concatenate([SPECIAL, 10.0 * rng.standard_normal(3000)]
                       ).astype(dtype)
    z64 = z.astype(np.float64)
    e = np.exp(np.minimum(z64, -z64))
    want = np.where(z64 >= 0, 1.0, e) / (1.0 + e)
    assert nn.sigmoid(z).view(np.uint64).tolist() == \
        want.view(np.uint64).tolist()
    # every pair of special values, then random pairs, as (k, n) matrices
    Mx = np.concatenate([np.repeat(SPECIAL, len(SPECIAL)), z[:3000]])
    My = np.concatenate([np.tile(SPECIAL, len(SPECIAL)), z[::-1][:3000]])
    Mx, My = (M.astype(dtype).reshape(8, -1) for M in (Mx, My))
    with np.errstate(invalid="ignore"):     # inf + -inf
        want = np.where(Mx.astype(np.float64) + My >= 0.0, 1.0, -1.0)
        got = hashing.update_B(Mx, My)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_update_B_exhaustive_optimality():
    name, passed, detail = check_sign_update(seed=0, trials=100)
    assert passed, detail


def test_hyper_validation():
    with pytest.raises(ValueError):
        experiment.RunConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        experiment.RunConfig(eta=-0.1)


# -------------------------------------------------------------- phase-2 trainer

def _small_setup(seed=0):
    spec = datagen.LongTailSpec(c=4, z1=40, imbalance_factor=8.0,
                                raw_dim_x=10, raw_dim_y=8, shared_dim=3,
                                private_dim=2, noise_sigma=0.3,
                                secondary_label_prob=0.3, seed=seed)
    ds = datagen.generate(spec)
    ds = datagen.split(ds, 10, seed=seed)
    cfg = experiment.RunConfig(k=4, max_epochs=3, seed=seed)
    icae, side = experiment.init_params(ds, cfg)
    autoencoder.calibrate(icae, *ds.base())
    return ds, icae, side


def test_train_hash_zero_epochs():
    ds, icae, side = _small_setup()
    before = get_flat(side.x.projector).copy()
    cfg = experiment.RunConfig(batch_size=16, max_epochs=0)
    side, B, trace = hashing.train_hash(ds, icae, side, cfg)
    assert trace == []
    np.testing.assert_array_equal(get_flat(side.x.projector), before)
    # B comes from the initial parameters and is exactly binary
    assert set(np.unique(B)) <= {-1.0, 1.0}
    assert B.shape == (4, ds.base_indices.size)


def test_train_hash_loss_decreases():
    spec = datagen.LongTailSpec(c=8, z1=120, imbalance_factor=20.0,
                                noise_sigma=0.5, seed=2)
    ds = datagen.generate(spec)   # n ~ 500
    ds = datagen.split(ds, 50, seed=2)
    cfg = experiment.RunConfig(k=16, max_epochs=10, seed=2)
    icae, side = experiment.init_params(ds, cfg)
    autoencoder.calibrate(icae, *ds.base())
    side, B, trace = hashing.train_hash(ds, icae, side, cfg)
    assert len(trace) == 10
    assert trace[-1] < trace[0]
    assert set(np.unique(B)) <= {-1.0, 1.0}


def test_train_hash_trace_length():
    ds, icae, side = _small_setup(1)
    cfg = experiment.RunConfig(batch_size=16, max_epochs=4, seed=1)
    _, _, trace = hashing.train_hash(ds, icae, side, cfg)
    assert len(trace) == 4


def test_train_hash_deterministic():
    outs = []
    for _ in range(2):
        ds, icae, side = _small_setup(3)
        cfg = experiment.RunConfig(batch_size=16, max_epochs=3, seed=3)
        side, B, trace = hashing.train_hash(ds, icae, side, cfg)
        outs.append((B.copy(), trace))
    np.testing.assert_array_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]


def test_train_hash_frozen_autoencoder():
    ds, icae, side = _small_setup(4)
    before = {name: get_flat(net).copy() for name, net in icae.nets().items()}
    cfg = experiment.RunConfig(batch_size=16, max_epochs=2, seed=4)
    hashing.train_hash(ds, icae, side, cfg)
    for name, net in icae.nets().items():
        np.testing.assert_array_equal(get_flat(net), before[name])


# ------------------------------------------------------------ variant runner

def _phase1(seed):
    ds, _, _ = _small_setup(seed)
    cfg = experiment.RunConfig(k=4, batch_size=16, max_epochs=2, seed=seed)
    return ds, cfg, experiment.train_phase1(ds, cfg)


def _side_bytes(side):
    return [get_flat(net).tobytes() for v in (side.x, side.y)
            for net in (v.projector, v.selector1)]


def test_train_variants_leaves_the_given_side_unchanged():
    ds, cfg, phase1 = _phase1(6)
    before = copy.deepcopy(phase1[1])
    models = list(experiment.train_variants(ds, cfg, phase1,
                                            hashing.VARIANTS.values()))
    assert [m.variant.name for m in models] == list(hashing.VARIANTS)
    assert _side_bytes(phase1[1]) == _side_bytes(before)
    assert _side_bytes(models[0].side) != _side_bytes(before)


def test_train_variants_equals_train_phase2_on_a_fresh_copy():
    ds, cfg, phase1 = _phase1(7)
    icae, side0, trace1 = phase1
    for model in experiment.train_variants(ds, cfg, phase1,
                                           hashing.VARIANTS.values()):
        side, B, trace2 = experiment.train_phase2(
            ds, cfg, icae, copy.deepcopy(side0), model.variant)
        assert _side_bytes(model.side) == _side_bytes(side)
        assert model.B.tobytes() == B.tobytes()
        assert model.loss2_trace == trace2
        assert model.icae is icae and model.loss1_trace is trace1

def test_variant_flags():
    assert hashing.VARIANTS["full"].flags("x") == (True, True)
    assert hashing.VARIANTS["wo_c"].flags("x") == (False, True)
    assert hashing.VARIANTS["wo_i"].flags("y") == (True, False)
    assert hashing.VARIANTS["wo_ic"].flags("x") == (False, False)
    # disabling one modality's meta features leaves the other intact
    assert hashing.VARIANTS["wo_meta_i"].flags("x") == (False, False)
    assert hashing.VARIANTS["wo_meta_i"].flags("y") == (True, True)
    assert hashing.VARIANTS["wo_meta_t"].flags("y") == (False, False)
    assert hashing.VARIANTS["wo_meta_t"].flags("x") == (True, True)


def test_wo_ic_variant_equals_selectors_forced_zero():
    # the wo_ic ablation must equal the full formula with both terms zeroed
    ds, icae, side = _small_setup(5)
    Xb, Yb, _ = ds.base()
    wo_ic = hashing.VARIANTS["wo_ic"]
    Mx, My, B = hashing.full_base_codes(
        side, Xb, Yb, (hashing.modality_codes(icae, "x", Xb, wo_ic),
                       hashing.modality_codes(icae, "y", Yb, wo_ic)))
    Fx, _ = nn.forward(side.x.projector, Xb.T)
    Fy, _ = nn.forward(side.y.projector, Yb.T)
    np.testing.assert_array_equal(Mx, Fx)
    np.testing.assert_array_equal(My, Fy)


def test_memory_does_not_hurt_without_exclusive_labels():
    # the acceptance fixture's data with no modality-exclusive labels: the
    # memory's exclusivity weights then come only from noise in the
    # prototype energies, and the memory term must still not cost MAP
    # against the same model without it (wo_i)
    data = dict(c=12, z1=1000, imbalance_factor=50, noise_sigma=2.0,
                exclusive_tail_fraction=0.0, secondary_label_prob=0.5)
    maps = {"full": [], "wo_i": []}
    for seed in (1, 2, 3, 4, 5):
        spec = datagen.LongTailSpec(seed=seed, **data)
        ds = datagen.split(datagen.generate(spec), 200, seed=seed)
        cfg1 = experiment.RunConfig(k=16, max_epochs=150, seed=seed)
        phase1 = experiment.train_phase1(ds, cfg1)
        cfg2 = experiment.RunConfig(k=16, max_epochs=20, seed=seed, eta=1.25)
        for model in experiment.train_variants(
                ds, cfg2, phase1, [hashing.VARIANTS[n] for n in maps]):
            reports = experiment.evaluate_model(ds, model)
            maps[model.variant.name].append(
                0.5 * (reports["i2t"].map + reports["t2i"].map))
    assert np.mean(maps["full"]) > np.mean(maps["wo_i"])
