"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Criteria 1-5 pin analytic quantities against independent oracles; 6 checks
the imbalanced-dataset construction through the CLI; 7-9 run the full
two-phase pipeline over five seeds and check the retrieval effect, its
head/tail distribution and training sanity; 10 checks persistence.

Criterion 8 is a soft criterion: the verdict line reports per-seed
violations, and the test fails only if the seed-mean is violated.
"""

import copy
import time

import numpy as np
import pytest

from tailhash import (affinity, cli, datagen, experiment, hashing, hsic,
                      retrieval, store, verify)

# configuration for the five-seed end-to-end runs (criteria 7-9)
SEEDS = (1, 2, 3, 4, 5)
DATA = dict(c=12, z1=1000, imbalance_factor=50, noise_sigma=2.0,
            exclusive_tail_fraction=0.5, secondary_label_prob=0.5)
QUERY_SIZE = 200
K = 16
EPOCHS_AE = 150
EPOCHS_HASH = 20
ETA = 1.25
VARIANTS = ("full", "wo_ic", "wo_c", "wo_i")


# one line per criterion; conftest.py echoes these in the terminal summary
VERDICTS = {}


def _verdict(num, passed, detail):
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    VERDICTS[num] = line
    print(line, flush=True)
    return passed


# ----------------------------------------------------------- oracle criteria

def test_criterion_1_loss_gradients():
    name1, ok1, det1 = verify.check_loss1_gradients(seed=0, trials=10)
    name2, ok2, det2 = verify.check_loss2_gradients(seed=0, trials=20)
    passed = _verdict(1, ok1 and ok2,
                      f"phase-1 loss {det1} (10 instances x 5 nets), "
                      f"phase-2 loss {det2} (20 instances); tol 1e-4")
    assert passed


def test_criterion_2_hsic_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 5))
        Px = rng.standard_normal((n, d))
        Py = rng.standard_normal((n, d))
        sx, sy = hsic.bandwidth(Px), hsic.bandwidth(Py)
        val = hsic.hsic_value(hsic.rbf_kernel(Px, sx), hsic.rbf_kernel(Py, sy))
        worst = max(worst,
                    abs(val - verify.hsic_expanded_oracle(Px, Py, sx, sy)))
    passed = _verdict(2, worst <= 1e-10,
                      f"50 instances, worst |value - expanded sum| "
                      f"{worst:.2e} (tol 1e-10)")
    assert passed


def test_criterion_3_trace_vs_pairwise():
    rng = np.random.default_rng(0)
    worst_dual, worst_const = 0.0, 0.0
    for _ in range(30):
        c = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        n = c * 3
        feats = rng.standard_normal((n, 3))
        L = np.zeros((n, c), dtype=np.uint8)
        L[np.arange(n), np.arange(n) % c] = 1
        aff = affinity.label_affinity(feats, L)
        C = rng.standard_normal((k, c))
        val, _ = affinity.j1_trace(C, aff.laplacian + aff.laplacian)
        worst_dual = max(worst_dual,
                         abs(val - verify.j1_pairwise(C, aff, aff)))
        const, _ = affinity.j1_trace(
            np.tile(rng.standard_normal((k, 1)), (1, c)),
            aff.laplacian + aff.laplacian)
        worst_const = max(worst_const, abs(const))
    passed = _verdict(3, worst_dual <= 1e-10 and worst_const <= 1e-10,
                      f"30 instances, worst |trace - pairwise| "
                      f"{worst_dual:.2e}, constant-prototype value "
                      f"{worst_const:.2e} (tol 1e-10)")
    assert passed


def test_criterion_4_sign_update_optimality():
    _, ok, _ = verify.check_sign_update(seed=0, trials=100)
    passed = _verdict(4, ok, "100 instances, k*n <= 12, exhaustive "
                             "enumeration of all sign matrices")
    assert passed


def test_criterion_5_map_oracle():
    _, ok, det = verify.check_map(seed=0, trials=100)
    passed = _verdict(5, ok, f"100 instances vs quadratic-time oracle, {det}")
    assert passed


# --------------------------------------------------- dataset construction

def test_criterion_6_zipf_tail_counts(tmp_path):
    results = []
    for c, z1, want_zc in ((24, 3000, 60), (21, 5000, 100)):
        out = tmp_path / f"c{c}"
        code = cli.main(["gen-data", "--c", str(c), "--z1", str(z1),
                         "--if", "50", "--out", str(out)])
        assert code == 0
        counts = store.load_dataset(out / "dataset").meta["label_counts"]
        results.append((c, z1, int(counts[0]), int(counts[-1]), want_zc))
    ok = all(got_z1 == z1 and got_zc == want
             for c, z1, got_z1, got_zc, want in results)
    detail = "; ".join(f"c={c}, z1={got_z1}, zc={got_zc} (want {want})"
                       for c, z1, got_z1, got_zc, want in results)
    passed = _verdict(6, ok, detail)
    assert passed


# ------------------------------------------------- five-seed pipeline runs

@pytest.fixture(scope="module")
def pipeline_runs():
    t0 = time.time()
    runs = []
    for seed in SEEDS:
        spec = datagen.LongTailSpec(seed=seed, **DATA)
        ds = datagen.split(datagen.generate(spec), QUERY_SIZE, seed=seed)
        cfg1 = experiment.RunConfig(k=K, max_epochs=EPOCHS_AE, seed=seed)
        icae, side0, trace1 = experiment.train_phase1(ds, cfg1)
        cfg2 = experiment.RunConfig(k=K, max_epochs=EPOCHS_HASH, seed=seed,
                                    eta=ETA)
        per_variant = {}
        for name in VARIANTS:
            side = copy.deepcopy(side0)
            side, B, trace2 = experiment.train_phase2(
                ds, cfg2, icae, side, hashing.VARIANTS[name])
            model = experiment.TrainedModel(icae, side, B, trace1, trace2,
                                            hashing.VARIANTS[name])
            reports = experiment.evaluate_model(ds, model)
            per_variant[name] = {
                "map": 0.5 * (reports["i2t"].map + reports["t2i"].map),
                "head": 0.5 * (reports["i2t"].head_map
                               + reports["t2i"].head_map),
                "tail": 0.5 * (reports["i2t"].tail_map
                               + reports["t2i"].tail_map),
                "trace2": trace2,
                "B": B,
            }
        runs.append({"seed": seed, "trace1": trace1, **per_variant})
    return runs, time.time() - t0


def _mean(runs, variant, field):
    return float(np.mean([run[variant][field] for run in runs]))


def test_criterion_7_ablation_gap(pipeline_runs):
    runs, elapsed = pipeline_runs
    full = _mean(runs, "full", "map")
    wo_ic = _mean(runs, "wo_ic", "map")
    wo_c = _mean(runs, "wo_c", "map")
    wo_i = _mean(runs, "wo_i", "map")
    gap = full - wo_ic
    ok = (gap >= 0.03 and full > wo_c and full > wo_i
          and elapsed <= 15 * 60)
    passed = _verdict(
        7, ok,
        f"5-seed mean MAP full {full:.4f} vs wo_ic {wo_ic:.4f} "
        f"(gap {gap:.4f}, need >= 0.03), wo_c {wo_c:.4f}, wo_i {wo_i:.4f}; "
        f"runtime {elapsed:.0f}s (limit 900s)")
    assert passed


def test_criterion_8_tail_benefit(pipeline_runs):
    runs, _ = pipeline_runs
    per_seed = [(run["full"]["tail"] - run["wo_ic"]["tail"])
                - (run["full"]["head"] - run["wo_ic"]["head"])
                for run in runs]
    mean_diff = float(np.mean(per_seed))
    violated = sum(1 for d in per_seed if d < 0)
    seeds_txt = ", ".join(f"{s}:{d:+.4f}" for s, d in zip(SEEDS, per_seed))
    ok = mean_diff >= 0.0
    passed = _verdict(
        8, ok,
        f"tail minus head improvement, seed-mean {mean_diff:+.4f} "
        f"(need >= 0); violated on {violated}/{len(SEEDS)} seeds "
        f"[{seeds_txt}]")
    # soft criterion: per-seed violations are reported above; the test fails
    # only when the seed-mean itself is negative
    assert passed, (
        f"tail-label MAP improvement ({mean_diff:+.4f} seed-mean relative to "
        f"head labels) is below the head-label improvement. The tail labels "
        f"here are modality-exclusive: only one modality's individuality "
        f"code carries them, and the cross-modal pair loss cannot reward "
        f"them because the other modality has no signal for them. A gate "
        f"trained by that loss closes on them and the direct features cancel "
        f"what an open one adds, so they reach the hash codes only through "
        f"the label memory's fixed-weight term (autoencoder.calibrate, "
        f"meta.MEMORY_WEIGHT). Check the memory weights of those labels and "
        f"the per-seed breakdown above.")


def test_criterion_9_training_sanity(pipeline_runs):
    runs, _ = pipeline_runs
    ok = True
    worst_ratio1, worst_ratio2 = -np.inf, -np.inf
    for run in runs:
        trace1 = run["trace1"]
        ok = ok and trace1[-1] < trace1[0]
        worst_ratio1 = max(worst_ratio1, trace1[-1] / trace1[0])
        for name in VARIANTS:
            trace2 = run[name]["trace2"]
            ok = ok and trace2[-1] < trace2[0]
            worst_ratio2 = max(worst_ratio2, trace2[-1] / trace2[0])
            ok = ok and set(np.unique(run[name]["B"])) <= {-1.0, 1.0}
    passed = _verdict(
        9, ok,
        f"final/first epoch loss ratios: phase 1 worst {worst_ratio1:.3f}, "
        f"phase 2 worst {worst_ratio2:.3f} over {len(SEEDS)} seeds x "
        f"{len(VARIANTS)} variants; all B entries exactly +/-1")
    assert passed


# ----------------------------------------------------------------- storage

def test_criterion_10_persistence(tmp_path):
    spec = datagen.LongTailSpec(c=4, z1=40, imbalance_factor=8.0,
                                raw_dim_x=10, raw_dim_y=8, shared_dim=3,
                                private_dim=2, noise_sigma=0.3, seed=0)
    ds = datagen.split(datagen.generate(spec), 10, seed=0)

    store.save_dataset(ds, tmp_path / "d")
    back = store.load_dataset(tmp_path / "d")
    dataset_ok = (np.array_equal(back.Fx_raw, ds.Fx_raw)
                  and np.array_equal(back.Fy_raw, ds.Fy_raw)
                  and np.array_equal(back.L, ds.L)
                  and np.array_equal(back.base_indices, ds.base_indices)
                  and np.array_equal(back.query_indices, ds.query_indices))

    cfg = experiment.RunConfig(k=4, max_epochs=2, seed=0)
    model = experiment.train_full(ds, cfg)
    store.save_checkpoint(tmp_path / "ck", "hash", model.icae, model.side,
                          hyper={"k": 4}, loss_trace=model.loss2_trace,
                          B=model.B)
    ckpt = store.load_checkpoint(tmp_path / "ck")
    Xq, Yq, _ = ds.query()
    forward_ok = all(
        np.array_equal(
            retrieval.encode_query(m, raw, model.icae, model.side),
            retrieval.encode_query(m, raw, ckpt.icae, ckpt.side))
        for m, raw in (("x", Xq), ("y", Yq)))
    checkpoint_ok = np.array_equal(ckpt.B, model.B) and forward_ok

    passed = _verdict(
        10, dataset_ok and checkpoint_ok,
        "dataset arrays exact after round-trip; checkpoint reload gives "
        "bit-identical codes on both modalities of a probe batch")
    assert passed
