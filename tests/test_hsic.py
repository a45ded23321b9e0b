"""RBF-kernel independence criterion: value, oracle equality, gradients."""

import numpy as np
import pytest

from tailhash import hsic
from tailhash.verify import (bandwidth, finite_diff_grad, hsic_expanded_oracle,
                             hsic_grad_oracle, hsic_value, rbf_kernel)


def test_rbf_kernel_identical_rows_all_ones():
    P = np.tile(np.array([[1.0, -2.0]]), (4, 1))
    K = rbf_kernel(P, 1.0)
    np.testing.assert_allclose(K, np.ones((4, 4)))


def test_rbf_kernel_known_distance():
    # rows at squared distance sigma -> off-diagonal exp(-1)
    P = np.array([[0.0], [2.0]])
    K = rbf_kernel(P, 4.0)
    assert K[0, 1] == pytest.approx(np.exp(-1.0))
    assert K[0, 0] == 1.0


def test_rbf_kernel_matches_elementwise_recomputation():
    rng = np.random.default_rng(0)
    P = rng.standard_normal((5, 3))
    sigma = 2.5
    K = rbf_kernel(P, sigma)
    for a in range(5):
        for b in range(5):
            expected = np.exp(-np.sum((P[a] - P[b]) ** 2) / sigma)
            assert K[a, b] == pytest.approx(expected, abs=1e-12)


def test_rbf_kernel_properties():
    rng = np.random.default_rng(1)
    K = rbf_kernel(rng.standard_normal((6, 2)), 1.7)
    assert np.allclose(K, K.T)
    assert np.allclose(np.diag(K), 1.0)
    assert np.all(K > 0) and np.all(K <= 1)


def test_rbf_kernel_rejects_bad_sigma():
    with pytest.raises(ValueError):
        rbf_kernel(np.zeros((3, 2)), 0.0)


def test_hsic_constant_kernel_is_zero():
    rng = np.random.default_rng(2)
    Kx = np.ones((5, 5))                          # constant codes
    Ky = rbf_kernel(rng.standard_normal((5, 2)), 1.0)
    assert abs(hsic_value(Kx, Ky)) <= 1e-14


def test_hsic_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    Kx = rbf_kernel(rng.standard_normal((6, 2)), 1.0)
    Ky = rbf_kernel(rng.standard_normal((6, 3)), 2.0)
    assert hsic_value(Kx, Ky) == pytest.approx(hsic_value(Ky, Kx))


def test_hsic_matches_expanded_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(3, 13))
        Px = rng.standard_normal((n, 3))
        Py = rng.standard_normal((n, 2))
        sx, sy = bandwidth(Px), bandwidth(Py)
        val = hsic_value(rbf_kernel(Px, sx), rbf_kernel(Py, sy))
        assert abs(val - hsic_expanded_oracle(Px, Py, sx, sy)) <= 1e-10


def test_hsic_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        Kx = rbf_kernel(rng.standard_normal((n, 2)), 1.0)
        Ky = rbf_kernel(rng.standard_normal((n, 2)), 1.0)
        assert hsic_value(Kx, Ky) >= -1e-12


def test_hsic_shift_invariance():
    rng = np.random.default_rng(6)
    Px = rng.standard_normal((6, 3))
    Py = rng.standard_normal((6, 3))
    shifted = Px + np.array([5.0, -2.0, 1.0])
    v1 = hsic_value(rbf_kernel(Px, 1.3), rbf_kernel(Py, 1.1))
    v2 = hsic_value(rbf_kernel(shifted, 1.3), rbf_kernel(Py, 1.1))
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_hsic_rejects_single_sample():
    with pytest.raises(ValueError):
        hsic_value(np.ones((1, 1)), np.ones((1, 1)))


def test_hsic_grad_zero_for_constant_rows():
    rng = np.random.default_rng(7)
    Px = np.tile(np.array([[1.0, 2.0]]), (5, 1))
    Py = rng.standard_normal((5, 2))
    _, gx, _ = hsic.hsic_value_and_grad(Px, Py)
    np.testing.assert_allclose(gx, 0.0, atol=1e-12)


def test_hsic_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(4, 8))
        Px = rng.standard_normal((n, 3))
        Py = rng.standard_normal((n, 2))
        sx, sy = bandwidth(Px), bandwidth(Py)
        _, gx, gy = hsic.hsic_value_and_grad(Px, Py)
        fx = finite_diff_grad(
            lambda P: hsic_value(rbf_kernel(P, sx), rbf_kernel(Py, sy)), Px)
        fy = finite_diff_grad(
            lambda P: hsic_value(rbf_kernel(Px, sx), rbf_kernel(P, sy)), Py)
        for analytic, numeric in ((gx, fx), (gy, fy)):
            err = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(numeric), 1e-12)
            assert err <= 1e-4


def test_hsic_grad_swap_symmetry():
    rng = np.random.default_rng(9)
    Px = rng.standard_normal((5, 2))
    Py = rng.standard_normal((5, 2))
    _, gx, gy = hsic.hsic_value_and_grad(Px, Py)
    _, gy2, gx2 = hsic.hsic_value_and_grad(Py, Px)
    np.testing.assert_allclose(gx, gx2, atol=1e-12)
    np.testing.assert_allclose(gy, gy2, atol=1e-12)


@pytest.mark.parametrize("rows", [(3, 4), (1, 1)],
                         ids=["mismatched", "single"])
def test_hsic_grad_rejects_bad_row_counts(rows):
    with pytest.raises(ValueError):
        hsic.hsic_value_and_grad(np.zeros((rows[0], 2)),
                                 np.zeros((rows[1], 2)))


def test_hsic_value_and_grad_value_matches_composed_path():
    rng = np.random.default_rng(10)
    for n in (2, 3, 17, 128, 129):
        Px = rng.standard_normal((n, 16))
        Py = rng.standard_normal((n, 16))
        value, _, _ = hsic.hsic_value_and_grad(Px, Py)
        assert value == hsic_value(rbf_kernel(Px, bandwidth(Px)),
                                   rbf_kernel(Py, bandwidth(Py)))


def test_hsic_value_and_grad_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 128, 129):
        Px = rng.standard_normal((n, 16))
        Py = 0.1 * rng.standard_normal((n, 16))
        _, gx, gy = hsic.hsic_value_and_grad(Px, Py)
        ox, oy = hsic_grad_oracle(Px, Py, bandwidth(Px), bandwidth(Py))
        for got, want in ((gx, ox), (gy, oy)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_bandwidth_is_mean_offdiagonal_sq_distance():
    P = np.array([[0.0], [1.0], [3.0]])
    # squared distances: 1, 9, 4 (each appearing twice off-diagonal)
    assert bandwidth(P) == pytest.approx((1 + 9 + 4) / 3)


def test_bandwidth_floor_on_identical_rows():
    P = np.zeros((4, 2))
    assert bandwidth(P) == hsic.BANDWIDTH_FLOOR


def test_value_and_grad_follow_float32_input():
    rng = np.random.default_rng(21)
    Px = rng.standard_normal((9, 4))
    Py = rng.standard_normal((9, 4))
    v64, gx64, gy64 = hsic.hsic_value_and_grad(Px, Py)
    assert gx64.dtype == np.float64 and gy64.dtype == np.float64
    assert hsic.pairwise_sq_dists(Px.astype(np.float32)).dtype == np.float32
    v32, gx32, gy32 = hsic.hsic_value_and_grad(Px.astype(np.float32),
                                               Py.astype(np.float32))
    assert gx32.dtype == np.float32 and gy32.dtype == np.float32
    assert v32 == pytest.approx(v64, rel=1e-4)
    np.testing.assert_allclose(gx32, gx64, rtol=1e-3, atol=1e-5)
    np.testing.assert_allclose(gy32, gy64, rtol=1e-3, atol=1e-5)
