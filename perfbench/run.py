"""tailhash benchmark: end-to-end timings and MAP, or a per-layer trace.

    python3 perfbench/run.py --workload train-accept --seed 1 --seconds 25 --trace 0

Run from the repository root. ``--trace 0`` sets up the workload several
times, runs its body for about ``--seconds`` seconds and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` sets up once, runs the
body untraced, traced and untraced again, and reports the per-layer
metrics. The last line of standard output is one JSON object whose
``correct``, ``attempted`` and ``failed`` report the output checks. The
exit code is 0 when every metric was measured, even if a check failed, and
non-zero when a failure left metrics unmeasured. See perfbench/README.md.
"""

import os

# pinned before numpy is first imported; 2 threads on 2 cores used about
# twice the CPU time of 1 for no wall-time gain
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# set-up is repeated in windows of at least this long, one before the
# first body pass and one after each; on a shared host the speed changes
# from second to second, and samples spread over the run follow it as the
# body timings do
SETUP_WINDOW_SECONDS = 1.0
# every timing is a median over at least this many body passes
MIN_PASSES = 2
# retrieval quality of the first pass: printed and written to the report,
# but not in BENCHMARK.json, because it varies with the seed's data by
# about 0.2 of its median (IQR over ten seeds)
QUALITY = ("map", "tail_map")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "commit": _commit()}


def run_setup(wl, seed: int, root: Path, ledger):
    """One set-up; returns (state, wall seconds) or None."""
    from workloads import PROGRAM_ERRORS
    t0 = time.perf_counter()
    try:
        state = wl.setup(seed, root, ledger)
    except PROGRAM_ERRORS as e:
        ledger.fail(f"set-up raised {type(e).__name__}: {e}")
        return None
    return state, time.perf_counter() - t0


def run_body(wl, state, root: Path, ledger, tracer=None, repeats=1):
    """One body pass; returns (outcome, wall seconds, clock) or None."""
    from workloads import PROGRAM_ERRORS, Clock
    clock = Clock(tracer)
    root.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        outcome = wl.body(state, root, clock, ledger, repeats)
    except PROGRAM_ERRORS as e:
        ledger.fail(f"body raised {type(e).__name__}: {e}")
        return None
    return outcome, time.perf_counter() - t0, clock


def same_quality(ledger, outcomes, what: str) -> None:
    first = (outcomes[0].map, outcomes[0].tail_map)
    ledger.check(all((o.map, o.tail_map) == first for o in outcomes),
                 f"map/tail_map differ between {what}")


def measure(wl, seed: int, seconds: float, tmp: Path, ledger, report: dict):
    """Untraced run: end-to-end metrics, or None if an operation failed."""
    setup_times, states = [], []

    def setup_window() -> bool:
        """Set up until the window is over; keeps the run's first state."""
        end = time.perf_counter() + SETUP_WINDOW_SECONDS
        while True:
            root = tmp / f"setup-{len(setup_times)}"
            result = run_setup(wl, seed, root, ledger)
            if result is None:
                return False
            setup_times.append(result[1])
            if states:
                shutil.rmtree(root)
            else:
                states.append(result[0])
            if time.perf_counter() >= end:
                return True

    if not setup_window():
        return None
    state = states[0]
    # every body pass is checked; after MIN_PASSES, stop starting new passes
    # once the next would probably take the body time past ``seconds``
    passes = []
    while True:
        result = run_body(wl, state, tmp / f"body-{len(passes)}", ledger,
                          repeats=wl.eval_repeats)
        if result is None:
            return None
        passes.append(result)
        if len(passes) == 1:
            # later passes repeat the same work; their heap reuse only
            # adds noise
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024)
        if not setup_window():
            return None
        body_s = sum(p[1] for p in passes)
        if (len(passes) >= MIN_PASSES
                and body_s * (len(passes) + 1) / len(passes) > seconds):
            break
    outcomes = [p[0] for p in passes]
    for k, outcome in enumerate(outcomes):
        wl.check(state, outcome, ledger, oracle=k == len(outcomes) - 1)
    same_quality(ledger, outcomes, "body passes")
    report["samples"] = {
        "setup_s": setup_times,
        "train_s": [p[2].times["train"] for p in passes],
        "eval_s": [t for p in passes for t in p[2].eval_samples],
    }
    return {
        "setup_s": statistics.median(setup_times),
        "train_s": statistics.median(report["samples"]["train_s"]),
        "eval_s": statistics.median(report["samples"]["eval_s"]),
        "map": outcomes[0].map,
        "tail_map": outcomes[0].tail_map,
        "peak_rss_mb": peak_rss_mb,
    }


def _per(num: int, den: int, what: str) -> float:
    if den == 0:
        raise RuntimeError(f"no {what} call in the traced pass")
    return num / den


def layer_metrics(names, tracer, dataset, overhead: float) -> dict:
    """Per-layer metrics named ``<module>.<function>.<stat>`` from the spans.

    A ``<module>.self_s`` name sums the self time of all the module's
    functions. Ratios are exact call counts; the two sizes are computed
    from the dataset, not measured.
    """
    stats = tracer.stats()

    def calls(fn):
        return stats.get(fn, {}).get("calls", 0)

    loss1 = calls("autoencoder.loss1")
    _, _, Lb = dataset.base()
    n_a = Lb.sum(axis=0).astype(float)
    special = {
        "hsic.pairwise_sq_dists.per_loss1":
            _per(calls("hsic.pairwise_sq_dists"), loss1, "loss1"),
        "nn.check_finite.per_loss1":
            _per(tracer.count_under("nn.check_finite", "autoencoder.train_ae"),
                 loss1, "loss1"),
        "meta.meta_forward.per_loss2":
            _per(calls("meta.meta_forward"), calls("hashing.loss2"), "loss2"),
        "retrieval.hamming_matrix.per_evaluate":
            _per(calls("retrieval.hamming_matrix"),
                 calls("retrieval.evaluate"), "evaluate"),
        # sum over label pairs a < b of n_a * n_b, once per modality
        "affinity.label_affinity.cdist_elems":
            float(n_a.sum() ** 2 - (n_a ** 2).sum()),
        "retrieval.dist_bytes":
            float(dataset.query_indices.size * dataset.base_indices.size * 8),
        "trace.overhead_frac": overhead,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        prefix, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = calls(prefix)
        elif stat == "self_s" and "." in prefix:
            out[name] = stats.get(prefix, {}).get("self_s", 0.0)
        elif stat == "self_s":
            out[name] = sum(s["self_s"] for fn, s in stats.items()
                            if fn.startswith(prefix + "."))
        else:
            raise RuntimeError(f"unknown per-layer metric {name!r}")
    return out


def traced(wl, seed: int, tmp: Path, ledger, names, spans_path: Path):
    """Traced run: per-layer metrics, or None if an operation failed."""
    from tracing import Tracer
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        result = run_setup(wl, seed, tmp / "setup", ledger)
    if result is None:
        return None
    state = result[0]
    # untraced, traced, untraced: the first pass warms the allocator and
    # caches, and the overhead is taken against the last
    warm = run_body(wl, state, tmp / "body-warm", ledger)
    if warm is None:
        return None
    with tracer.installed(), tracer.span("bench.body"):
        spanned = run_body(wl, state, tmp / "body-traced", ledger, tracer)
    if spanned is None:
        return None
    plain = run_body(wl, state, tmp / "body-plain", ledger)
    if plain is None:
        return None
    wl.check(state, spanned[0], ledger, oracle=True)
    same_quality(ledger, [warm[0], spanned[0], plain[0]],
                 "untraced and traced passes")
    metrics = layer_metrics(names, tracer, state["dataset"],
                            spanned[1] / plain[1] - 1.0)
    tracer.write(spans_path)
    return metrics


def main(argv=None) -> int:
    names = ("train-accept", "cli-large")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "tailhash" / "__init__.py").is_file():
        print(f"error: no tailhash sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # cli._out_dir prefers this variable over --out
    os.environ.pop("TAILHASH_OUTPUT_DIR", None)
    from workloads import WORKLOADS, Ledger

    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = environment(args.seed)
    ledger = Ledger()
    ledger.check(env["blas_threads"] in (None, BLAS_THREADS)
                 and BLAS_THREADS <= env["nproc"],
                 f"BLAS threads {env['blas_threads']}, want {BLAS_THREADS} "
                 f"<= nproc {env['nproc']}")
    wl = WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}"
    report = {"workload": args.workload, "trace": args.trace,
              "environment": env}
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        if args.trace:
            wanted = spec["per_layer"]
            values = traced(wl, args.seed, tmp, ledger,
                            [m["name"] for m in wanted],
                            OUT / f"{stem}-spans.json")
        else:
            wanted = spec["end_to_end"]
            values = measure(wl, args.seed, seconds, tmp, ledger, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics, quality = {}, {}
    if values is not None:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
        quality = {q: values[q] for q in QUALITY if q in values}
    correct = ledger.failed == 0 and values is not None
    report.update(metrics=metrics, quality=quality,
                  attempted=ledger.attempted, failed=ledger.failed,
                  problems=ledger.problems)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"# environment: {json.dumps(env)}")
    for problem in ledger.problems:
        print(f"# FAILED: {problem}")
    samples = report.get("samples", {})
    for name, m in metrics.items():
        n = len(samples.get(name, ()))
        note = f" (median of {n})" if n else ""
        print(f"# {args.workload} {name} = {m['value']!r} {m['unit']}{note}")
    for name, value in quality.items():
        print(f"# {args.workload} {name} = {value!r} frac (exact for the seed, "
              f"not a bounded metric)")
    print(f"# failed_frac = {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / max(ledger.attempted, 1)!r}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if values is not None else 1


if __name__ == "__main__":
    sys.exit(main())
