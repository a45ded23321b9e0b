"""Query encoding, Hamming ranking, MAP and head/tail decomposition."""

import numpy as np
import pytest

from tailhash import autoencoder, datagen, experiment, hashing, retrieval
from tailhash.verify import map_oracle


def test_hamming_matrix_matches_pairwise():
    rng = np.random.default_rng(1)
    # 7, 8, 9 and 17 bits sit on either side of a packed-byte boundary
    for k in (1, 5, 7, 8, 9, 17):
        Q = np.where(rng.random((k, 4)) < 0.5, 1.0, -1.0)
        D = np.where(rng.random((k, 7)) < 0.5, 1.0, -1.0)
        dist = retrieval.hamming_matrix(Q, D)
        assert dist.shape == (4, 7)
        for i in range(4):
            for j in range(7):
                assert dist[i, j] == sum(1 for t in range(k)
                                         if Q[t, i] != D[t, j])


def test_hamming_matrix_rejects_mismatched_lengths():
    # k = 9 and k = 10 pack to the same two bytes
    with pytest.raises(ValueError):
        retrieval.hamming_matrix(np.ones((9, 2)), np.ones((10, 3)))


@pytest.mark.parametrize("bad", [0.0, 0.5, 2.0, np.nan])
def test_hamming_matrix_rejects_non_pm1_entries(bad):
    Q = np.ones((4, 2))
    D = -np.ones((4, 3))
    Q[1, 1] = bad
    with pytest.raises(ValueError):
        retrieval.hamming_matrix(Q, D)
    with pytest.raises(ValueError):
        retrieval.hamming_matrix(D, Q)


def test_map_all_relevant_is_one():
    rng = np.random.default_rng(2)
    Q = np.where(rng.random((4, 3)) < 0.5, 1.0, -1.0)
    D = np.where(rng.random((4, 6)) < 0.5, 1.0, -1.0)
    Lq = np.ones((3, 1), dtype=np.uint8)
    Lb = np.ones((6, 1), dtype=np.uint8)
    assert retrieval.mean_average_precision(Q, Lq, D, Lb) == 1.0


def test_map_hand_computed_pattern():
    # one query; base ranked by distance gives relevance pattern (1, 0, 1):
    # AP = (1/1 + 2/3) / 2 = 5/6
    Q = np.array([[1.0], [1.0], [1.0]])
    D = np.array([[1.0, 1.0, -1.0],
                  [1.0, -1.0, -1.0],
                  [1.0, 1.0, 1.0]])     # distances 0, 1, 2
    Lq = np.array([[1, 0]], dtype=np.uint8)
    Lb = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.uint8)
    got = retrieval.mean_average_precision(Q, Lq, D, Lb)
    assert got == pytest.approx(5.0 / 6.0)


def test_map_matches_quadratic_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        nb = int(rng.integers(3, 31))
        nq = int(rng.integers(1, 11))
        c = int(rng.integers(2, 5))
        Q = np.where(rng.random((k, nq)) < 0.5, 1.0, -1.0)
        D = np.where(rng.random((k, nb)) < 0.5, 1.0, -1.0)
        Lq = (rng.random((nq, c)) < 0.5).astype(np.uint8)
        Lb = (rng.random((nb, c)) < 0.5).astype(np.uint8)
        Lq[Lq.sum(axis=1) == 0, 0] = 1
        Lb[Lb.sum(axis=1) == 0, 0] = 1
        got = retrieval.mean_average_precision(Q, Lq, D, Lb)
        assert got == pytest.approx(map_oracle(Q, Lq, D, Lb), abs=1e-12)


def test_map_permutation_invariance_with_distinct_distances():
    # with all pairwise distances distinct, base order cannot matter
    Q = np.array([[1.0], [1.0], [1.0]])
    D = np.array([[1.0, -1.0, -1.0],
                  [1.0, 1.0, -1.0],
                  [1.0, 1.0, -1.0]])    # distances 0, 1, 3
    Lq = np.array([[1]], dtype=np.uint8)
    Lb = np.array([[1], [0], [1]], dtype=np.uint8)
    base_map = retrieval.mean_average_precision(Q, Lq, D, Lb)
    perm = [2, 0, 1]
    assert retrieval.mean_average_precision(
        Q, Lq, D[:, perm], Lb[perm]) == pytest.approx(base_map)


def test_map_excludes_queries_without_relevant_items():
    Q = np.ones((2, 2))
    D = np.ones((2, 3))
    Lq = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    Lb = np.array([[1, 0], [1, 0], [1, 0]], dtype=np.uint8)
    aps = retrieval.average_precisions(Q, Lq, D, Lb)
    assert np.isnan(aps[1]) and aps[0] == 1.0
    assert retrieval.mean_average_precision(Q, Lq, D, Lb) == 1.0


def test_map_topR_truncation():
    Q = np.array([[1.0], [1.0]])
    # ranked distances: 0, 1, 2 with relevance 0, 1, 1
    D = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
    Lq = np.array([[1]], dtype=np.uint8)
    Lb = np.array([[0], [1], [1]], dtype=np.uint8)
    full = retrieval.mean_average_precision(Q, Lq, D, Lb)
    assert full == pytest.approx((1 / 2 + 2 / 3) / 2)
    top2 = retrieval.mean_average_precision(Q, Lq, D, Lb, topR=2)
    assert top2 == pytest.approx(1 / 2)


@pytest.mark.parametrize("topR", [0, -1])
def test_map_and_evaluate_reject_top_r_below_one(topR):
    Q, Lq, D, Lb = _tied_instance()
    with pytest.raises(ValueError, match="top R"):
        retrieval.mean_average_precision(Q, Lq, D, Lb, topR=topR)
    with pytest.raises(ValueError, match="top R"):
        retrieval.evaluate("i2t", Q, Lq, D, Lb, Lb.sum(axis=0), 2, topR=topR)


@pytest.mark.parametrize("head", [-1, 5])
def test_evaluate_rejects_head_count_outside_labels(head):
    Q, Lq, D, Lb = _tied_instance()             # c = 4
    with pytest.raises(ValueError, match="head count"):
        retrieval.evaluate("i2t", Q, Lq, D, Lb, Lb.sum(axis=0), head)


def test_map_no_valid_queries_raises():
    Q = np.ones((2, 1))
    D = np.ones((2, 2))
    Lq = np.array([[1, 0]], dtype=np.uint8)
    Lb = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        retrieval.mean_average_precision(Q, Lq, D, Lb)


def test_precision_at_counts_hits():
    Q = np.array([[1.0], [1.0]])
    D = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
    Lq = np.array([[1]], dtype=np.uint8)
    Lb = np.array([[1], [0], [1]], dtype=np.uint8)
    report = retrieval.evaluate("i2t", Q, Lq, D, Lb, Lb.sum(axis=0), 1,
                                ks=(1, 2, 3))
    out = dict(report.precision_at)
    assert out[1] == pytest.approx(1.0)
    assert out[2] == pytest.approx(0.5)
    assert out[3] == pytest.approx(2 / 3)


def _tied_instance():
    """Queries against a base of five distinct codes (many tied distances);
    label 3 is on no base item, so queries carrying only it have no
    relevant item."""
    rng = np.random.default_rng(4)
    nq, nb, c = 23, 40, 4
    Q = np.where(rng.random((6, nq)) < 0.5, 1.0, -1.0)
    codes = np.where(rng.random((6, 5)) < 0.5, 1.0, -1.0)
    D = codes[:, rng.integers(0, 5, nb)]
    Lq = (rng.random((nq, c)) < 0.4).astype(np.uint8)
    Lq[[2, nq - 1]] = [0, 0, 0, 1]
    Lb = (rng.random((nb, c)) < 0.4).astype(np.uint8)
    Lb[:, 3] = 0
    Lb[Lb.sum(axis=1) == 0, 0] = 1
    return Q, Lq, D, Lb


@pytest.mark.parametrize("topR", [None, 15])
def test_evaluate_identical_across_query_blocks(monkeypatch, topR):
    Q, Lq, D, Lb = _tied_instance()
    nb = D.shape[1]

    def run(block_elems):
        monkeypatch.setattr(retrieval, "BLOCK_ELEMS", block_elems)
        report = retrieval.evaluate("i2t", Q, Lq, D, Lb, Lb.sum(axis=0), 2,
                                    ks=(1, 5, 100), topR=topR)
        report.runtime = 0.0
        aps = retrieval.average_precisions(Q, Lq, D, Lb, topR)
        return report, aps

    default = run(retrieval.BLOCK_ELEMS)
    assert default[0].n_excluded >= 2
    for rows in (1, 4):
        report, aps = run(rows * nb)
        assert report == default[0]
        np.testing.assert_array_equal(aps, default[1])
    # blocks of 4 rows: the first and the (short) last block
    for i in (0, 1, 2, 3, 20, 21, 22):
        if np.isnan(aps[i]):
            assert not (Lq[i] @ Lb.T).any()
            continue
        assert aps[i] == pytest.approx(
            map_oracle(Q[:, [i]], Lq[[i]], D, Lb, topR), abs=1e-12)


# -------------------------------------------------------- per-label breakdown

def test_per_label_single_label_equals_global():
    aps = np.array([0.5, 0.7, np.nan])
    Lq = np.ones((3, 1), dtype=np.uint8)
    per_label, head, tail = retrieval.per_label_breakdown(
        aps, Lq, np.array([0]), head_count=1)
    assert per_label[0] == pytest.approx(0.6)
    assert head == pytest.approx(0.6)
    assert tail is None


def test_per_label_head_count_c_leaves_no_tail():
    aps = np.array([0.5, 1.0])
    Lq = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    _, head, tail = retrieval.per_label_breakdown(
        aps, Lq, np.array([0, 1]), head_count=2)
    assert head == pytest.approx(0.75)
    assert tail is None


def test_per_label_absent_label_excluded():
    aps = np.array([0.4])
    Lq = np.array([[1, 0]], dtype=np.uint8)
    per_label, head, tail = retrieval.per_label_breakdown(
        aps, Lq, np.array([0, 1]), head_count=1)
    assert per_label[1] is None
    assert tail is None


# ---------------------------------------------------------------- encode_query

def _trained_tiny(seed=0, variant=hashing.VARIANTS["full"]):
    spec = datagen.LongTailSpec(c=4, z1=40, imbalance_factor=8.0,
                                raw_dim_x=10, raw_dim_y=8, shared_dim=3,
                                private_dim=2, noise_sigma=0.3,
                                secondary_label_prob=0.3, seed=seed)
    ds = datagen.generate(spec)
    ds = datagen.split(ds, 10, seed=seed)
    cfg = experiment.RunConfig(k=4, max_epochs=3, seed=seed)
    model = experiment.train_full(ds, cfg, variant)
    return ds, model


def test_encode_query_deterministic_pm1():
    ds, model = _trained_tiny()
    Xq, _, _ = ds.query()
    c1 = retrieval.encode_query("x", Xq, model.icae, model.side)
    c2 = retrieval.encode_query("x", Xq, model.icae, model.side)
    np.testing.assert_array_equal(c1, c2)
    assert set(np.unique(c1)) <= {-1.0, 1.0}
    assert c1.shape == (4, Xq.shape[0])


def test_encode_query_rejects_bad_modality():
    ds, model = _trained_tiny()
    with pytest.raises(ValueError):
        retrieval.encode_query("z", ds.query()[0], model.icae, model.side)


def test_score_rejects_codes_that_do_not_fit_labels():
    rng = np.random.default_rng(5)
    codes = np.where(rng.random((8, 6)) < 0.5, 1.0, -1.0)
    labels = np.eye(6, 3, dtype=np.uint8)
    labels[3:, 0] = 1
    retrieval.average_precisions(codes, labels, codes, labels)
    with pytest.raises(ValueError, match="query codes have 6 columns"):
        retrieval.average_precisions(codes, labels[:5], codes, labels)
    with pytest.raises(ValueError, match="base codes have 6 columns"):
        retrieval.average_precisions(codes, labels, codes, labels[:4])


def test_encode_query_consistent_with_training_pass():
    # for every variant, base samples encoded through the per-modality hash
    # functions equal sign(M) from the training-time full pass: both run
    # meta.meta_forward on the same hashing.modality_codes, with the
    # variant's dropped terms zeroed
    for variant in hashing.VARIANTS.values():
        ds, model = _trained_tiny(1, variant)
        Xb, Yb, _ = ds.base()
        Mx, My, _ = hashing.full_base_codes(
            model.side, Xb, Yb, tuple(
                hashing.modality_codes(model.icae, v, raw, variant)
                for v, raw in (("x", Xb), ("y", Yb))))
        qx = retrieval.encode_query("x", Xb, model.icae, model.side, variant)
        qy = retrieval.encode_query("y", Yb, model.icae, model.side, variant)
        np.testing.assert_array_equal(qx, np.where(Mx >= 0, 1.0, -1.0),
                                      err_msg=variant.name)
        np.testing.assert_array_equal(qy, np.where(My >= 0, 1.0, -1.0),
                                      err_msg=variant.name)


def test_evaluate_report_fields():
    ds, model = _trained_tiny(2)
    reports = experiment.evaluate_model(ds, model)
    for direction in ("i2t", "t2i"):
        r = reports[direction]
        assert 0.0 <= r.map <= 1.0
        assert r.head_tail_split_index == ds.c // 2
        assert r.n_queries == ds.query_indices.size
        for _, p in r.precision_at:
            assert 0.0 <= p <= 1.0
        assert len(r.per_label_map) == ds.c
