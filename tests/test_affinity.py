"""Pair similarity, average Hausdorff label affinity, prototype regularizer."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tailhash import affinity, verify


# ------------------------------------------------------------ pair_similarity

def test_pair_similarity_shared_label():
    L = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    S = affinity.pair_similarity(L)
    assert S[0, 1] == 1


def test_pair_similarity_disjoint():
    L = np.array([[1, 0, 0], [0, 0, 1]], dtype=np.uint8)
    assert affinity.pair_similarity(L)[0, 1] == 0


def test_pair_similarity_matches_brute_force():
    rng = np.random.default_rng(0)
    L = (rng.random((6, 3)) < 0.5).astype(np.uint8)
    L[L.sum(axis=1) == 0, 0] = 1
    S = affinity.pair_similarity(L)
    for i in range(6):
        for j in range(6):
            shared = any(L[i, a] and L[j, a] for a in range(3))
            assert S[i, j] == (1 if shared else 0)
    assert np.array_equal(S, S.T)
    assert np.all(np.diag(S) == 1)


def test_pair_similarity_rejects_unlabeled_sample():
    with pytest.raises(ValueError):
        affinity.pair_similarity(np.array([[1, 0], [0, 0]], dtype=np.uint8))


def _labels(rng, n, c):
    """n random 0/1 label rows over c labels, about two labels a row."""
    return (rng.random((n, c)) < min(0.5, 2.0 / c)).astype(np.uint8)


@pytest.mark.parametrize("c", [1, 7, 8, 9, 24, 70])
@pytest.mark.parametrize("nq, nb", [(13, 17), (1, 17), (13, 1), (1, 1)])
def test_shares_label_is_the_label_product_test(c, nq, nb):
    rng = np.random.default_rng(c)
    Lq, Lb = _labels(rng, nq, c), _labels(rng, nb, c)
    want = Lq.astype(np.int64) @ Lb.T.astype(np.int64) > 0
    q, b = affinity.pack_labels(Lq), affinity.pack_labels(Lb)
    got = affinity.shares_label(q, b)
    assert got.dtype == bool and np.array_equal(got, want)
    # single-row and single-column blocks of the packed sets, as ranking
    # slices them
    for i in range(nq):
        assert np.array_equal(affinity.shares_label(q[:, i:i + 1], b),
                              want[i:i + 1])
    for j in range(nb):
        assert np.array_equal(affinity.shares_label(q, b[:, j:j + 1]),
                              want[:, j:j + 1])


@pytest.mark.parametrize("c", [1, 9, 70])
def test_pair_similarity_is_the_label_product_test(c):
    L = _labels(np.random.default_rng(c), 30, c)
    L[:, -1] = 1        # every sample carries a label
    S = affinity.pair_similarity(L)
    assert S.dtype == np.uint8
    assert np.array_equal(S, (L.astype(np.int64) @ L.T > 0).astype(np.uint8))
    L[7] = 0
    with pytest.raises(ValueError, match="at least one label"):
        affinity.pair_similarity(L)


# ------------------------------------------------------- verify.avg_hausdorff

def test_avg_hausdorff_identical_sets():
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert verify.avg_hausdorff(A, A) == 0.0


def test_avg_hausdorff_singletons():
    u = np.array([[0.0, 0.0]])
    v = np.array([[3.0, 4.0]])
    assert verify.avg_hausdorff(u, v) == pytest.approx(5.0)


def test_avg_hausdorff_three_point_enumeration():
    # A = {0, 2}, B = {1} in 1-D: min-terms 1, 1 and 1, denominator 3
    A = np.array([[0.0], [2.0]])
    B = np.array([[1.0]])
    assert verify.avg_hausdorff(A, B) == pytest.approx(1.0)


def test_avg_hausdorff_symmetric():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((6, 3))
    assert verify.avg_hausdorff(A, B) == pytest.approx(
        verify.avg_hausdorff(B, A))


def test_avg_hausdorff_rejects_empty():
    with pytest.raises(ValueError):
        verify.avg_hausdorff(np.zeros((0, 2)), np.zeros((1, 2)))


def _avg_hausdorff_loops(A, B):
    """The definition as a pure-Python double loop."""
    near_a = [min(math.dist(a, b) for b in B) for a in A]
    near_b = [min(math.dist(a, b) for a in A) for b in B]
    return (sum(near_a) + sum(near_b)) / (len(A) + len(B))


@pytest.mark.parametrize("na, nb", [(37, 23), (23, 37), (1, 50), (50, 1)])
def test_avg_hausdorff_matches_double_loop_across_row_blocks(monkeypatch,
                                                             na, nb):
    # blocks of a few rows, the last one short, and sets that repeat
    # points within themselves and share some with the other set
    monkeypatch.setattr(verify, "BLOCK_ELEMS", 64)
    rng = np.random.default_rng(na * nb)
    A = rng.standard_normal((na, 3))
    B = rng.standard_normal((nb, 3))
    A[na // 2:] = A[:na - na // 2]
    B[:nb // 3] = A[:nb // 3]
    assert verify.avg_hausdorff(A, B) == pytest.approx(
        _avg_hausdorff_loops(A, B), rel=1e-12)


def test_avg_hausdorff_holds_row_blocks_not_the_distance_matrix():
    # the whole 2,000 x 2,000 matrix of distances would take 32 MB
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2000, 4))
    B = rng.standard_normal((2000, 4))
    tracemalloc.start()
    try:
        verify.avg_hausdorff(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ------------------------------------------------------------- label_affinity

def test_label_affinity_identical_sets_all_one():
    feats = np.tile(np.array([[1.0, 2.0]]), (4, 1))
    L = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.uint8)
    aff = affinity.label_affinity(feats, L)
    np.testing.assert_array_equal(aff.H, np.zeros((2, 2)))
    np.testing.assert_allclose(aff.R, np.ones((2, 2)))


def test_label_affinity_two_label_substitution():
    # H_12 = sigma (the only off-diagonal entry) -> R_12 = exp(-1/sigma)
    feats = np.array([[0.0], [3.0]])
    L = np.eye(2, dtype=np.uint8)
    aff = affinity.label_affinity(feats, L)
    assert aff.sigma == pytest.approx(3.0)
    assert aff.R[0, 1] == pytest.approx(np.exp(-1.0 / 3.0))


def test_label_affinity_matches_direct_recomputation():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((9, 4))
    L = np.zeros((9, 3), dtype=np.uint8)
    L[np.arange(9), np.arange(9) % 3] = 1
    aff = affinity.label_affinity(feats, L)
    sets = [feats[L[:, a] > 0] for a in range(3)]
    H = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            if a != b:
                H[a, b] = verify.avg_hausdorff(sets[a], sets[b])
    sigma = H[~np.eye(3, dtype=bool)].mean()
    np.testing.assert_allclose(aff.H, H, atol=1e-12)
    np.testing.assert_allclose(aff.R, np.exp(-H / sigma ** 2), atol=1e-12)
    np.testing.assert_allclose(aff.laplacian.sum(axis=1), 0.0, atol=1e-12)


def test_label_affinity_properties():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((12, 3))
    L = np.zeros((12, 4), dtype=np.uint8)
    L[np.arange(12), np.arange(12) % 4] = 1
    aff = affinity.label_affinity(feats, L)
    assert np.all(aff.R > 0) and np.all(aff.R <= 1)
    assert np.allclose(aff.R, aff.R.T)
    # Laplacian of a symmetric nonnegative affinity is PSD
    eigs = np.linalg.eigvalsh(aff.laplacian)
    assert eigs.min() >= -1e-10


def test_label_affinity_rejects_empty_label():
    with pytest.raises(ValueError):
        affinity.label_affinity(np.zeros((2, 2)),
                                np.array([[1, 0], [1, 0]], dtype=np.uint8))


def test_label_affinity_rejects_non_finite_features():
    feats = np.zeros((4, 2))
    L = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.uint8)
    for bad in (np.nan, np.inf, -np.inf):
        feats[2, 1] = bad
        with pytest.raises(ValueError, match=r"^x features hold 1 NaN or "
                                             r"infinite value\(s\)"):
            affinity.label_affinity(feats, L, name="x features")


@pytest.mark.parametrize("n_workers", [1, 3])
def test_label_affinity_rejects_overflowing_distances(workers, n_workers):
    # finite features whose squared distances overflow float64: refused
    # without a numpy warning, from the calling thread or a helper
    workers(n_workers)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((60, 5))
    L = np.zeros((60, 3), dtype=np.uint8)
    L[np.arange(60), np.arange(60) % 3] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1e150 is still in range; the affinity stays finite
        aff = affinity.label_affinity(feats * 1e150, L)
        assert np.isfinite(aff.H).all() and np.isfinite(aff.R).all()
        with pytest.raises(ValueError, match=r"^x features are too large "
                                             r"for the label affinity"):
            affinity.label_affinity(feats * 1e160, L, name="x features")


@pytest.mark.parametrize("n_workers", [1, 3])
def test_label_affinity_exact_beside_a_huge_constant_column(workers,
                                                            n_workers):
    # a constant column adds nothing to any distance, however large: the
    # screen's centring must not overflow on it, nor warn
    workers(n_workers)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((60, 5))
    L = np.zeros((60, 3), dtype=np.uint8)
    L[np.arange(60), np.arange(60) % 3] = 1
    zeroed = feats.copy()
    zeroed[:, 0] = 0.0
    feats[:, 0] = 1e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = affinity.label_affinity(feats, L)
        want = affinity.label_affinity(zeroed, L)
    np.testing.assert_array_equal(got.H, want.H)
    np.testing.assert_array_equal(got.R, want.R)


def test_label_affinity_oracle():
    # blocked nearest-member pass vs per-pair avg_hausdorff, multi-block
    # instances with shared samples; an injected bug must be caught
    for seed in (0, 1):
        _, passed, detail = verify.check_label_affinity(seed=seed)
        assert passed, detail
    _, passed, _ = verify.check_label_affinity(seed=0, bug=True)
    assert not passed


# ----------------------------------------------------------------- J1 and grad

def _random_affinity(rng, c):
    feats = rng.standard_normal((3 * c, 3))
    L = np.zeros((3 * c, c), dtype=np.uint8)
    L[np.arange(3 * c), np.arange(3 * c) % c] = 1
    return affinity.label_affinity(feats, L)


def test_j1_zero_on_constant_prototypes():
    rng = np.random.default_rng(5)
    aff = _random_affinity(rng, 4)
    C = np.tile(rng.standard_normal((3, 1)), (1, 4))
    val, _ = affinity.j1_trace(C, aff.laplacian + aff.laplacian)
    assert abs(val) <= 1e-10


def test_j1_two_label_closed_form():
    # c=2: J1 = (Rx_12 + Ry_12) ||C_1 - C_2||^2
    rng = np.random.default_rng(6)
    aff = _random_affinity(rng, 2)
    C = rng.standard_normal((3, 2))
    val, _ = affinity.j1_trace(C, aff.laplacian + aff.laplacian)
    expected = 2 * aff.R[0, 1] * float(np.sum((C[:, 0] - C[:, 1]) ** 2))
    assert val == pytest.approx(expected)


def test_j1_trace_equals_pairwise_sum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = int(rng.integers(2, 6))
        aff_x = _random_affinity(rng, c)
        aff_y = _random_affinity(rng, c)
        C = rng.standard_normal((4, c))
        val, _ = affinity.j1_trace(C, aff_x.laplacian + aff_y.laplacian)
        assert abs(val - verify.j1_pairwise(C, aff_x, aff_y)) <= 1e-10


def test_j1_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(10):
        aff = _random_affinity(rng, 3)
        C = rng.standard_normal((2, 3))
        val, _ = affinity.j1_trace(C, aff.laplacian + aff.laplacian)
        assert val >= -1e-12


def test_j1_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    aff_x = _random_affinity(rng, 4)
    aff_y = _random_affinity(rng, 4)
    C = rng.standard_normal((3, 4))
    _, grad = affinity.j1_trace(C, aff_x.laplacian + aff_y.laplacian)
    numeric = verify.finite_diff_grad(
        lambda M: affinity.j1_trace(M, aff_x.laplacian + aff_y.laplacian)[0],
        C)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)


def test_j1_dimension_mismatch():
    rng = np.random.default_rng(10)
    aff = _random_affinity(rng, 3)
    with pytest.raises(ValueError):
        affinity.j1_trace(np.zeros((2, 4)), aff.laplacian + aff.laplacian)


def test_j1_value_is_float64_for_large_float32_prototypes():
    # near-constant prototypes about 1e15: the float32 trace cancels and
    # comes out negative in about half of these cases
    rng = np.random.default_rng(11)
    for _ in range(20):
        aff = _random_affinity(rng, 5)
        lap = aff.laplacian + aff.laplacian
        C = (1e15 + 1e10 * rng.standard_normal((4, 5))).astype(np.float32)
        val, grad = affinity.j1_trace(C, lap)
        assert val == affinity.j1_trace(C.astype(np.float64), lap)[0]
        assert val > 0
        assert grad.dtype == np.float32
        np.testing.assert_array_equal(grad,
                                      2.0 * (C @ lap.astype(np.float32)))


def _batch_without(rng, n, c, absent):
    """(n, c) batch labels that lack the labels ``absent``: each sample
    carries one present label in turn, some a second one."""
    present = np.setdiff1d(np.arange(c), absent)
    L = np.zeros((n, c), dtype=np.uint8)
    L[np.arange(n), present[np.arange(n) % present.size]] = 1
    second = rng.random(n) < 0.5
    L[second, rng.choice(present, size=int(second.sum()))] = 1
    return L, present


def test_j1_batch_is_pairwise_form_over_present_labels():
    rng = np.random.default_rng(12)
    aff_x, aff_y = _random_affinity(rng, 5), _random_affinity(rng, 5)
    L, present = _batch_without(rng, 8, 5, absent=[1, 3])
    Cs = rng.standard_normal((3, 8))
    value, _ = affinity.j1_batch(Cs, L, aff_x, aff_y)
    # each present label's mean code, and each R's sub-block on its own,
    # so that the degrees come from the sub-block
    prototypes = np.stack([Cs[:, L[:, a] > 0].mean(axis=1) for a in present],
                          axis=1)
    sub = np.ix_(present, present)
    sub_x, sub_y = (affinity.LabelAffinity(aff.H[sub], aff.R[sub], aff.sigma)
                    for aff in (aff_x, aff_y))
    assert value == pytest.approx(
        verify.j1_pairwise(prototypes, sub_x, sub_y), rel=1e-12)


def test_j1_batch_gradient_with_absent_labels():
    rng = np.random.default_rng(13)
    aff_x, aff_y = _random_affinity(rng, 5), _random_affinity(rng, 5)
    L, _ = _batch_without(rng, 8, 5, absent=[0, 3])
    Cs = rng.standard_normal((3, 8))
    _, grad = affinity.j1_batch(Cs, L, aff_x, aff_y)
    numeric = verify.finite_diff_grad(
        lambda M: affinity.j1_batch(M, L, aff_x, aff_y)[0], Cs)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)


# ------------------------------------------- threads of the nearest-member pass

@pytest.fixture
def workers(monkeypatch):
    """Set the thread count, split every pass of at least one block per
    thread, and shrink the row blocks to 120 elements so that small data
    takes several blocks per label pass (single rows for the largest label).
    Threads switch far more often than by default, to shake out races."""
    def set_workers(n):
        monkeypatch.setattr(affinity, "WORKERS", n)
        monkeypatch.setattr(affinity, "MIN_BLOCKS_PER_WORKER", 1)

    monkeypatch.setattr(affinity, "BLOCK_ELEMS", 120)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield set_workers
    finally:
        sys.setswitchinterval(interval)


def _labelled_cloud():
    rng = np.random.default_rng(0)
    feats = 2.0 * rng.standard_normal((90, 5))
    L = (rng.random((90, 6)) < [0.6, 0.4, 0.2, 0.1, 0.05, 0.3]).astype(np.uint8)
    L[L.sum(axis=1) == 0, 0] = 1
    L[:, 5] = L[:, 1]
    return feats, L


def _spy_passes(monkeypatch, before=None):
    """Record the thread of every label pass; ``before(thread)`` runs ahead
    of each pass."""
    threads = []
    real = affinity._label_pass

    def spy(*args):
        threads.append(threading.current_thread())
        if before is not None:
            before(threads[-1])
        real(*args)

    monkeypatch.setattr(affinity, "_label_pass", spy)
    return threads


def test_pass_split_only_with_enough_blocks_per_worker(monkeypatch):
    monkeypatch.setattr(affinity, "WORKERS", 2)
    assert affinity._workers_for(0) == 1
    assert affinity._workers_for(13) == 1       # a train-accept affinity pass
    assert affinity._workers_for(16) == 2
    assert affinity._workers_for(867) == 2      # a cli-large affinity pass


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 3])
def test_label_affinity_identical_at_any_worker_count(workers, n, order):
    feats, L = _labelled_cloud()
    workers(1)
    want = affinity.label_affinity(feats, L)
    workers(n)
    got = affinity.label_affinity(np.asarray(feats, order=order), L)
    np.testing.assert_array_equal(got.H, want.H)
    np.testing.assert_array_equal(got.R, want.R)
    assert got.sigma == want.sigma


def test_label_affinity_leaves_no_thread_running(workers, monkeypatch):
    feats, L = _labelled_cloud()
    workers(3)
    threads = _spy_passes(monkeypatch)
    affinity.label_affinity(feats, L)
    assert len(threads) == 6                    # one pass per label
    assert len(set(threads)) > 1                # the pass was split
    assert not any(t.is_alive() for t in threads
                   if t is not threading.current_thread())


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_label_pass_error_reaches_caller(workers, monkeypatch, raiser):
    feats, L = _labelled_cloud()
    workers(3)
    caller = threading.current_thread()
    # each of the three threads holds its first pass until all three have one
    barrier = threading.Barrier(3, timeout=10)
    started = set()

    def fail(thread):
        if thread not in started:
            started.add(thread)
            barrier.wait()
        if (thread is caller) == (raiser == "caller"):
            raise KeyError(raiser)

    threads = _spy_passes(monkeypatch, fail)
    with pytest.raises(KeyError, match=raiser):
        affinity.label_affinity(feats, L)
    assert not barrier.broken
    assert not any(t.is_alive() for t in threads if t is not caller)


# ---------------------------------------- exactness of the nearest-member pass

def _grid_cloud(rng, n=80, d=3):
    """Points on a grid of step 0.1, which float64 does not hold exactly:
    many members tie for nearest in real arithmetic and differ in the last
    bits in float64, and some samples repeat."""
    feats = 0.1 * rng.integers(-3, 4, size=(n, d))
    feats[rng.integers(0, n, 10)] = feats[rng.integers(0, n, 10)]
    return feats


def _duplicated_cloud(rng, n=80, d=4):
    feats = rng.standard_normal((n // 4, d))
    return feats[rng.integers(0, n // 4, n)]


CLOUDS = {
    "ties": _grid_cloud,
    "duplicates": _duplicated_cloud,
    "offset": lambda rng: _grid_cloud(rng) + 1e3 * 0.3,
    "scale_1e30": lambda rng: 1e30 * _grid_cloud(rng),
    "scale_1e-30": lambda rng: 1e-30 * _grid_cloud(rng),
}


def _brute_nearest_sq_dists(feats, members):
    """Each non-member's float64 min over the members y of
    ((y - x) ** 2).sum(), one sample at a time."""
    want = np.zeros(members.shape)
    for b in range(members.shape[1]):
        Y = feats[members[:, b]]
        for i in np.flatnonzero(~members[:, b]):
            want[i, b] = ((Y - feats[i]) ** 2).sum(axis=1).min()
    return want


@pytest.mark.parametrize("cloud", sorted(CLOUDS))
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n_workers", [1, 3])
@pytest.mark.parametrize("block", [120, affinity.BLOCK_ELEMS])
def test_nearest_member_pass_equals_float64_oracle(monkeypatch, block,
                                                   n_workers, order, cloud):
    # bit for bit: the float32 screen must never drop the member of least
    # float64 square, whatever the blocks, the threads or the layout
    monkeypatch.setattr(affinity, "BLOCK_ELEMS", block)
    monkeypatch.setattr(affinity, "WORKERS", n_workers)
    monkeypatch.setattr(affinity, "MIN_BLOCKS_PER_WORKER", 1)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        feats = CLOUDS[cloud](rng)
        members = rng.random((feats.shape[0], 5)) < [0.5, 0.3, 0.2, 0.1, 0.05]
        members[members.sum(axis=1) == 0, 0] = True
        members[:2, 4] = True
        got = affinity._nearest_member_sq_dists(
            np.asarray(feats, order=order), members)
        np.testing.assert_array_equal(got,
                                      _brute_nearest_sq_dists(feats, members))


@pytest.mark.parametrize("scale", [1e-14, 1e-15])
def test_nearest_member_pass_exact_when_the_first_scaling_underflows(scale):
    # beside a column at 2^1019, scaling the features to max |x| < 1 leaves
    # the other columns a few subnormal bits; the screen's floor must cover
    # that loss, or it drops nearest members
    for seed in range(30):
        rng = np.random.default_rng(seed)
        feats = np.zeros((60, 3))
        feats[:, 0] = 2.0 ** 1019
        feats[:, 1:] = scale * rng.standard_normal((60, 2))
        members = rng.random((60, 4)) < [0.5, 0.3, 0.2, 0.1]
        members[members.sum(axis=1) == 0, 0] = True
        got = affinity._nearest_member_sq_dists(feats, members)
        np.testing.assert_array_equal(got,
                                      _brute_nearest_sq_dists(feats, members))
