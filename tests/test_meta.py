"""Meta features: projectors, bounded selector, fusion and its backward."""

import numpy as np
import pytest

from tailhash import meta, nn
from tailhash.verify import finite_diff_grad, flat_grads, get_flat, set_flat


def _side(rng, raw_dim=6, k=3):
    params = meta.init_side_params(raw_dim, raw_dim, k, rng)
    return params.x


def _forward(side, raw, rng):
    """meta_forward with random commonality and memory inputs."""
    shape = (raw.shape[0], side.projector.out_dim)
    return meta.meta_forward(side, raw, rng.standard_normal(shape),
                             rng.standard_normal(shape))


def test_direct_features_zero_projector():
    rng = np.random.default_rng(0)
    side = _side(rng)
    for layer in side.projector.layers:
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    fwd = _forward(side, rng.standard_normal((4, 6)), rng)
    assert not fwd.F.any()
    assert fwd.F.shape == (4, 3)


def test_direct_features_replay_determinism():
    rng = np.random.default_rng(1)
    side = _side(rng)
    raw = rng.standard_normal((5, 6))
    C = rng.standard_normal((5, 3))
    I = rng.standard_normal((5, 3))
    a = meta.meta_forward(side, raw, C, I)
    b = meta.meta_forward(side, raw, C, I)
    for name in ("F", "E1", "M"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_selectors_uniform_small_opening_at_init():
    # selector weights initialize at zero with a small constant bias, so at
    # init every gate equals tanh(bias) regardless of the input features
    rng = np.random.default_rng(2)
    side = _side(rng)
    expected = np.tanh(meta.SELECTOR_BIAS_INIT)
    for raw in (rng.standard_normal((4, 6)), np.zeros((2, 6))):
        np.testing.assert_allclose(_forward(side, raw, rng).E1, expected,
                                   atol=1e-14)
    assert 0.0 < expected < 0.2


def test_selectors_bounded():
    rng = np.random.default_rng(3)
    side = _side(rng)
    for layer in side.selector1.layers:
        layer.weight[:] = rng.standard_normal(layer.weight.shape) * 10
    E1 = _forward(side, rng.standard_normal((50, 6)) * 5, rng).E1
    # tanh output: strictly inside (-1, 1) up to float rounding
    assert np.abs(E1).max() <= 1.0
    for layer in side.projector.layers:
        layer.weight[:] *= 0.01
        layer.bias[:] = 0.0
    E1m = _forward(side, rng.standard_normal((50, 6)) * 0.01, rng).E1
    assert np.abs(E1m).max() < 1.0


def test_selector_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    side = _side(rng)
    for layer in side.selector1.layers:
        layer.weight[:] = rng.standard_normal(layer.weight.shape)
    raw = rng.standard_normal((4, 6))
    C = rng.standard_normal((4, 3))
    I = rng.standard_normal((4, 3))
    net = side.selector1
    theta = get_flat(net)

    def loss_at(vec):
        set_flat(net, vec)
        E1 = meta.meta_forward(side, raw, C, I).E1
        set_flat(net, theta)
        return float(np.sum(E1))

    fwd = meta.meta_forward(side, raw, C, I)
    grads, _ = nn.backward(net, fwd.sel1_tape, np.ones_like(fwd.E1.T))
    numeric = finite_diff_grad(loss_at, theta)
    np.testing.assert_allclose(flat_grads(grads), numeric,
                               rtol=1e-5, atol=1e-8)


def _random_fusion_inputs(rng, n=5, k=3):
    return (rng.standard_normal((n, k)) for _ in range(4))


def test_meta_features_identity_when_selectors_zero():
    # a closed gate removes the commonality; only the fixed-weight memory
    # term remains, and with a zero memory feature M is F itself
    rng = np.random.default_rng(5)
    F, C, I, _ = _random_fusion_inputs(rng)
    Z = np.zeros_like(F)
    np.testing.assert_array_equal(meta.meta_features(F, C, Z, Z), F.T)
    np.testing.assert_allclose(meta.meta_features(F, C, I, Z),
                               (F + meta.MEMORY_WEIGHT * I).T, atol=1e-14)


def test_meta_features_drop_individuality():
    rng = np.random.default_rng(6)
    F, C, I, E1 = _random_fusion_inputs(rng)
    M = meta.meta_features(F, C, np.zeros_like(I), E1)
    np.testing.assert_allclose(M, (F + E1 * C).T, atol=1e-14)


def test_meta_features_matches_elementwise_recomputation():
    rng = np.random.default_rng(7)
    F, C, I, E1 = _random_fusion_inputs(rng)
    M = meta.meta_features(F, C, I, E1)
    np.testing.assert_allclose(M, (F + E1 * C + meta.MEMORY_WEIGHT * I).T,
                               atol=1e-14)


def test_meta_features_selector_bound_property():
    rng = np.random.default_rng(9)
    F, C, I, _ = _random_fusion_inputs(rng)
    E1 = np.tanh(rng.standard_normal(F.shape))
    M = meta.meta_features(F, C, I, E1)
    bound = np.abs(C).max() + meta.MEMORY_WEIGHT * np.abs(I).max()
    assert np.abs(M - F.T).max() <= bound + 1e-12


def test_meta_features_shape_mismatch():
    rng = np.random.default_rng(10)
    F, C, I, E1 = _random_fusion_inputs(rng)
    with pytest.raises(ValueError):
        meta.meta_features(F, C[:, :2], I, E1)
    with pytest.raises(ValueError):
        meta.meta_features(F, C, I[:, :2], E1)


def test_meta_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    params = meta.init_side_params(6, 6, 3, rng)
    side = params.x
    # open the selector gate so its gradient path is exercised
    for layer in side.selector1.layers:
        layer.weight[:] = 0.3 * rng.standard_normal(layer.weight.shape)
        layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.shape)
    raw = rng.standard_normal((4, 6))
    C = rng.standard_normal((4, 3))
    P = rng.standard_normal((4, 3))

    fwd = meta.meta_forward(side, raw, C, P)
    upstream = np.sin(np.arange(fwd.M.size, dtype=np.float64)).reshape(fwd.M.shape)
    grads = meta.meta_backward(side, fwd, upstream)

    for part in ("projector", "selector1"):
        net = getattr(side, part)
        theta = get_flat(net)

        def loss_at(vec):
            set_flat(net, vec)
            f = meta.meta_forward(side, raw, C, P)
            set_flat(net, theta)
            return float(np.sum(upstream * f.M))

        numeric = finite_diff_grad(loss_at, theta)
        analytic = flat_grads(grads[part])
        err = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(numeric), 1e-12)
        assert err <= 1e-4, part


def test_meta_backward_respects_ablation_flags():
    rng = np.random.default_rng(12)
    params = meta.init_side_params(6, 6, 3, rng)
    side = params.x
    raw = rng.standard_normal((4, 6))
    C = rng.standard_normal((4, 3))
    P = rng.standard_normal((4, 3))
    # the variants that drop both terms pass them as zeros
    fwd = meta.meta_forward(side, raw, np.zeros_like(C), np.zeros_like(P))
    grads = meta.meta_backward(side, fwd, np.ones_like(fwd.M))
    for dW, db in grads["selector1"]:
        assert not dW.any() and not db.any()
    # with both terms dropped the projector sees dM unchanged: its gradient
    # equals that of the bare direct-feature path
    out, tape = nn.forward(side.projector, raw.T)
    bare, _ = nn.backward(side.projector, tape, np.ones_like(out))
    np.testing.assert_allclose(flat_grads(grads["projector"]),
                               flat_grads(bare), atol=1e-14)
