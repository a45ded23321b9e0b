"""Dense-network substrate: forward/backward, SGD, finite differences."""

import numpy as np
import pytest

from tailhash import nn
from tailhash.verify import finite_diff_grad, flat_grads, get_flat, set_flat


def test_forward_identity_layer():
    net = nn.Mlp([nn.DenseLayer(np.eye(3), np.zeros(3), "identity")])
    x = np.arange(6.0).reshape(3, 2)
    out, _ = nn.forward(net, x)
    assert np.array_equal(out, x)


def test_forward_zero_tanh_layer():
    net = nn.Mlp([nn.DenseLayer(np.zeros((4, 3)), np.zeros(4), "tanh")])
    out, _ = nn.forward(net, np.random.default_rng(0).standard_normal((3, 5)))
    assert np.array_equal(out, np.zeros((4, 5)))


def test_forward_matches_straight_line_evaluation():
    rng = np.random.default_rng(7)
    net = nn.init_mlp([4, 5, 2], rng)
    x = rng.standard_normal((4, 3))
    out, _ = nn.forward(net, x)
    # independent straight-line evaluation of the layer algebra
    l0, l1 = net.layers
    h = np.tanh(l0.weight @ x + l0.bias[:, None])
    expected = l1.weight @ h + l1.bias[:, None]
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)


def test_forward_dimension_mismatch():
    net = nn.init_mlp([4, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.forward(net, np.zeros((3, 2)))


def test_backward_linear_sum_loss_structure():
    # loss = sum(output) on a single linear layer: dW = 1 . x^T, db = n
    rng = np.random.default_rng(1)
    net = nn.Mlp([nn.DenseLayer(rng.standard_normal((2, 3)), np.zeros(2))])
    x = rng.standard_normal((3, 4))
    out, tape = nn.forward(net, x)
    grads, _ = nn.backward(net, tape, np.ones_like(out))
    dW, db = grads[0]
    np.testing.assert_allclose(dW, np.tile(x.sum(axis=1), (2, 1)), atol=1e-14)
    np.testing.assert_allclose(db, np.full(2, 4.0), atol=1e-14)


def test_backward_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(2)
    net = nn.init_mlp([3, 4, 2], rng)
    out, tape = nn.forward(net, rng.standard_normal((3, 5)))
    grads, dx = nn.backward(net, tape, np.zeros_like(out))
    for dW, db in grads:
        assert not dW.any() and not db.any()
    assert not dx.any()


@pytest.mark.parametrize("activation", ["identity", "tanh"])
def test_backward_matches_finite_differences(activation):
    rng = np.random.default_rng(3)
    net = nn.Mlp([nn.init_dense(3, 4, activation, rng),
                  nn.init_dense(4, 2, "identity", rng)])
    x = rng.standard_normal((3, 4)) + 0.1

    def loss_at(theta):
        set_flat(net, theta)
        out, _ = nn.forward(net, x)
        return 0.5 * float(np.sum(out ** 2))

    theta = get_flat(net)
    out, tape = nn.forward(net, x)
    grads, _ = nn.backward(net, tape, out)
    analytic = flat_grads(grads)
    numeric = finite_diff_grad(loss_at, theta)
    set_flat(net, theta)
    assert np.linalg.norm(analytic - numeric) <= 1e-4 * max(
        np.linalg.norm(numeric), 1e-12)


def test_backward_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = nn.init_mlp([3, 4, 2], rng)
    x = rng.standard_normal((3, 2))

    def loss_at(xv):
        out, _ = nn.forward(net, xv)
        return 0.5 * float(np.sum(out ** 2))

    out, tape = nn.forward(net, x)
    _, dx = nn.backward(net, tape, out)
    numeric = finite_diff_grad(loss_at, x)
    np.testing.assert_allclose(dx, numeric, rtol=1e-5, atol=1e-8)


def test_backward_without_input_gradient_keeps_parameter_grads():
    rng = np.random.default_rng(4)
    net = nn.init_mlp([3, 4, 2], rng)
    out, tape = nn.forward(net, rng.standard_normal((3, 5)))
    full, _ = nn.backward(net, tape, out)
    grads, dx = nn.backward(net, tape, out, input_grad=False)
    assert dx is None
    for (dW, db), (fW, fb) in zip(grads, full):
        np.testing.assert_array_equal(dW, fW)
        np.testing.assert_array_equal(db, fb)


def test_sgd_zero_lr_keeps_params():
    rng = np.random.default_rng(5)
    net = nn.init_mlp([2, 3], rng)
    before = get_flat(net).copy()
    nn.sgd_step(net, [(np.ones((3, 2)), np.ones(3))], 0.0)
    np.testing.assert_array_equal(get_flat(net), before)


def test_sgd_arithmetic():
    net = nn.Mlp([nn.DenseLayer(np.array([[1.0]]), np.array([1.0]))])
    nn.sgd_step(net, [(np.array([[2.0]]), np.array([2.0]))], 0.5)
    assert net.layers[0].weight[0, 0] == 0.0
    assert net.layers[0].bias[0] == 0.0


def test_sgd_quadratic_decay():
    # f(p) = p^2 from p=1, lr=0.1: p_t = (1 - 2 lr)^t, monotone |p| decrease
    net = nn.Mlp([nn.DenseLayer(np.array([[1.0]]), np.array([0.0]))])
    lr = 0.1
    prev = 1.0
    for t in range(1, 11):
        g = 2.0 * net.layers[0].weight[0, 0]
        nn.sgd_step(net, [(np.array([[g]]), np.array([0.0]))], lr)
        p = net.layers[0].weight[0, 0]
        assert abs(p) < abs(prev)
        assert p == pytest.approx((1 - 2 * lr) ** t)
        prev = p


def test_sgd_rejects_nonfinite_gradient():
    net = nn.init_mlp([2, 2], np.random.default_rng(0))
    with pytest.raises(nn.NumericsError):
        nn.sgd_step(net, [(np.full((2, 2), np.nan), np.zeros(2))], 0.1)


def test_finite_diff_quadratic():
    g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
    assert abs(g[0] - 6.0) <= 1e-6


def test_finite_diff_constant():
    g = finite_diff_grad(lambda x: 1.0, np.arange(4.0))
    assert np.array_equal(g, np.zeros(4))


def test_finite_diff_tanh_closed_form():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(5)
    g = finite_diff_grad(lambda v: float(np.sum(np.tanh(v))), x)
    np.testing.assert_allclose(g, 1.0 - np.tanh(x) ** 2, atol=1e-6)


def test_sigmoid_stable_for_extreme_inputs():
    vals = nn.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(vals))
    assert vals[0] == 0.0 and vals[1] == 0.5 and vals[2] == 1.0


def _sigmoid_branch_form(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_identical_to_branch_form():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        745.0, -745.0, 745.2, -745.2, 1000.0, -1000.0])
    rng = np.random.default_rng(7)
    z = np.concatenate([special] + [s * rng.standard_normal(4000)
                                    for s in (1.0, 10.0, 100.0, 1000.0)])
    got = nn.sigmoid(z)
    want = _sigmoid_branch_form(z)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_softplus_stable_and_accurate():
    z = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
    out = nn.softplus(z)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[1:4], np.log1p(np.exp(z[1:4])), rtol=1e-12)
    assert out[4] == pytest.approx(800.0)


def test_layer_dimension_chain_validated():
    l1 = nn.DenseLayer(np.zeros((3, 2)), np.zeros(3))
    l2 = nn.DenseLayer(np.zeros((4, 5)), np.zeros(4))
    with pytest.raises(ValueError):
        nn.Mlp([l1, l2])


def test_init_is_deterministic_per_seed():
    a = get_flat(nn.init_mlp([3, 4, 2], np.random.default_rng(11)))
    b = get_flat(nn.init_mlp([3, 4, 2], np.random.default_rng(11)))
    np.testing.assert_array_equal(a, b)


def test_flat_roundtrip():
    rng = np.random.default_rng(12)
    net = nn.init_mlp([3, 4, 2], rng)
    theta = get_flat(net)
    set_flat(net, theta * 2.0)
    np.testing.assert_array_equal(get_flat(net), theta * 2.0)


def test_sgd_rejects_nan_in_one_bias_gradient_before_any_step():
    net = nn.init_mlp([3, 4, 2], np.random.default_rng(1))
    before = get_flat(net).copy()
    grads = [(np.ones((4, 3)), np.ones(4)),
             (np.ones((2, 4)), np.array([0.5, np.nan]))]
    with pytest.raises(nn.NumericsError, match="bias gradient"):
        nn.sgd_step(net, grads, 0.1)
    np.testing.assert_array_equal(get_flat(net), before)


def test_sgd_steps_on_finite_gradients_whose_sum_overflows():
    net = nn.cast(nn.init_mlp([2, 1], np.random.default_rng(2)), np.float32)
    big = np.finfo(np.float32).max
    dw = np.full((1, 2), big, dtype=np.float32)
    with np.errstate(over="ignore"):
        nn.sgd_step(net, [(dw, np.zeros(1, dtype=np.float32))], 0.0)
    assert net.layers[0].weight.dtype == np.float32


def _net_and_batch(dtype):
    rng = np.random.default_rng(8)
    net = nn.init_mlp([4, 5, 3], rng)
    x = rng.standard_normal((4, 6))
    up = rng.standard_normal((3, 6))
    return nn.cast(net, dtype), x.astype(dtype), up.astype(dtype)


def test_forward_backward_follow_float32_input():
    net32, x32, up32 = _net_and_batch(np.float32)
    out32, tape = nn.forward(net32, x32)
    grads32, dx32 = nn.backward(net32, tape, up32)
    assert out32.dtype == np.float32 and dx32.dtype == np.float32
    assert all(g.dtype == np.float32 for pair in grads32 for g in pair)
    net, x, up = _net_and_batch(np.float64)
    out, tape = nn.forward(net, x)
    grads, dx = nn.backward(net, tape, up)
    assert out.dtype == np.float64 and dx.dtype == np.float64
    np.testing.assert_allclose(out32, out, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(flat_grads(grads32), flat_grads(grads),
                               rtol=1e-5, atol=1e-5)


def test_non_float32_input_runs_in_float64():
    net, _, _ = _net_and_batch(np.float64)
    out, tape = nn.forward(net, np.ones((4, 2), dtype=np.int64))
    assert out.dtype == np.float64
    grads, dx = nn.backward(net, tape, np.ones((3, 2), dtype=np.float16))
    assert dx.dtype == np.float64 and grads[0][0].dtype == np.float64
    assert nn.DenseLayer([[1, 2]], [0]).weight.dtype == np.float64


def test_backward_bits_do_not_depend_on_upstream_layout():
    # big enough that BLAS rounds a product of a transposed operand
    # differently; phase 2 passes a column-major upstream
    rng = np.random.default_rng(9)
    net = nn.init_mlp([10, 16, 8], rng)
    x = rng.standard_normal((10, 40))
    up = rng.standard_normal((8, 40))
    _, tape = nn.forward(net, x)
    grads_c, dx_c = nn.backward(net, tape, np.ascontiguousarray(up))
    grads_f, dx_f = nn.backward(net, tape, np.asfortranarray(up))
    np.testing.assert_array_equal(flat_grads(grads_f),
                                  flat_grads(grads_c))
    np.testing.assert_array_equal(dx_f, dx_c)


def test_cast_copies_and_round_trips_exactly():
    net, _, _ = _net_and_batch(np.float64)
    net32 = nn.cast(net, np.float32)
    back = nn.cast(net32, np.float64)
    np.testing.assert_array_equal(get_flat(back),
                                  get_flat(net32).astype(np.float64))
    net32.layers[0].weight[:] = 0.0
    assert net.layers[0].weight.any()
