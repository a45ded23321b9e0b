"""Worker threads of the blocked passes: results independent of the worker
count, errors raised in any thread reach the caller."""

import sys
import threading

import numpy as np
import pytest

from tailhash import _pool, affinity


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count and split every pass of at least one block per
    worker; a fresh pool is sized for the count and shut down afterwards.
    Threads switch far more often than by default, to shake out races."""
    def set_workers(n):
        monkeypatch.setattr(_pool, "WORKERS", n)
        monkeypatch.setattr(_pool, "MIN_BLOCKS_PER_WORKER", 1)
        monkeypatch.setattr(_pool, "_executor", None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield set_workers
    finally:
        sys.setswitchinterval(interval)
        if _pool._executor is not None:
            _pool._executor.shutdown()


def test_pass_split_only_with_enough_blocks_per_worker(monkeypatch):
    monkeypatch.setattr(_pool, "WORKERS", 2)
    assert _pool.workers_for(0) == 1
    assert _pool.workers_for(13) == 1       # a train-accept affinity pass
    assert _pool.workers_for(16) == 2
    assert _pool.workers_for(867) == 2      # a cli-large affinity pass


@pytest.mark.parametrize("n", [1, 3])
def test_label_affinity_identical_at_any_worker_count(workers, monkeypatch, n):
    rng = np.random.default_rng(0)
    feats = 2.0 * rng.standard_normal((90, 5))
    L = (rng.random((90, 6)) < [0.6, 0.4, 0.2, 0.1, 0.05, 0.3]).astype(np.uint8)
    L[L.sum(axis=1) == 0, 0] = 1
    L[:, 5] = L[:, 1]
    want = affinity.label_affinity(feats, L)
    workers(n)
    # several row blocks per label pass, down to single rows for label 0
    monkeypatch.setattr(affinity, "BLOCK_ELEMS", 120)
    got = affinity.label_affinity(feats, L)
    np.testing.assert_array_equal(got.H, want.H)
    np.testing.assert_array_equal(got.R, want.R)
    assert got.sigma == want.sigma


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_task_error_reaches_caller(workers, raiser):
    workers(3)
    caller = threading.current_thread()
    # each of the three threads holds one task until all three have one
    barrier = threading.Barrier(3, timeout=10)

    def task():
        barrier.wait()
        on_caller = threading.current_thread() is caller
        if on_caller == (raiser == "caller"):
            raise KeyError(raiser)

    with pytest.raises(KeyError, match=raiser):
        _pool.run([task] * 3, 3)
    assert not barrier.broken
