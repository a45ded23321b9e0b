"""The benchmark's two workloads, their output checks and their bookkeeping.

Each workload has a set-up (data generation through ``tailhash gen-data``)
and a body that trains and then evaluates. The body is timed in two
sections, ``train`` and ``eval``; everything else (output checks, the MAP
oracle) runs outside them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tailhash import cli, experiment, hashing, nn, retrieval, store, verify

K = 16
# queries whose AP is recomputed by the pure-Python oracle, per direction
ORACLE_QUERIES = 3
ORACLE_TOL = 1e-12


class OperationFailed(Exception):
    """A call into the program returned a failure status."""


# errors a failing call into the program can raise
PROGRAM_ERRORS = (nn.NumericsError, store.StoreError, ValueError,
                  OperationFailed)


@dataclass
class Ledger:
    """Operations attempted and failed; a failed output check is a failure."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise OperationFailed(f"tailhash {argv[0]} exited with {rc}")

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok


class Clock:
    """Wall time per body section, opening a ``bench.<section>`` span when
    a tracer is given, and the times of the repeated evaluations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, float] = {"train": 0.0}
        # one sample per repeated evaluation, pooled over the run's passes
        self.eval_samples: list[float] = []

    @contextlib.contextmanager
    def section(self, name: str):
        span = (self.tracer.span(f"bench.{name}") if self.tracer
                else contextlib.nullcontext())
        with span:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.times[name] += time.perf_counter() - t0


@dataclass
class Outcome:
    """What one body pass produced: quality plus artifacts for the checks."""
    map: float
    tail_map: float
    models: list = field(default_factory=list)   # in-process TrainedModels
    run_dir: Path | None = None                  # cli-large artifacts


def _quality(reports) -> tuple[float, float]:
    i2t, t2i = reports["i2t"], reports["t2i"]
    if i2t.tail_map is None or t2i.tail_map is None:
        raise OperationFailed("no tail-label query in a direction")
    return 0.5 * (i2t.map + t2i.map), 0.5 * (i2t.tail_map + t2i.tail_map)


def _evaluate(run, quality, what: str, clock: Clock, ledger: Ledger,
              repeats: int) -> tuple[float, float]:
    """``run(r)`` for r < ``repeats``, each timed as one eval sample.

    ``quality`` turns what a run returned into (MAP, tail MAP), outside the
    timing; every repeat must give the same pair, bit for bit.
    """
    times, results = [], []
    for r in range(repeats):
        t0 = time.perf_counter()
        out = run(r)
        times.append(time.perf_counter() - t0)
        results.append(quality(out))
    clock.eval_samples.extend(times)
    ledger.check(all(q == results[0] for q in results),
                 f"{what} gave different MAPs on identical inputs")
    return results[0]


def _gen_data(ledger: Ledger, flags: list, seed: int, out: Path):
    ledger.cli("gen-data", *flags, "--seed", seed, "--out", out)
    return ledger.call(store.load_dataset, out / "dataset")


# ------------------------------------------------------------- output checks

def _check_codes(ledger: Ledger, codes: np.ndarray, n: int, what: str) -> None:
    ledger.check(codes.shape == (K, n) and bool(np.all(np.abs(codes) == 1.0)),
                 f"{what}: not a ({K}, {n}) matrix of exact +/-1")


def _check_traces(ledger: Ledger, trace1, trace2, what: str) -> None:
    ledger.check(len(trace1) > 0 and all(map(math.isfinite, trace1))
                 and trace1[-1] < trace1[0],
                 f"{what}: phase-1 loss trace not finite or not decreasing")
    ledger.check(len(trace2) > 0 and all(map(math.isfinite, trace2)),
                 f"{what}: phase-2 loss trace not finite")


def _check_oracle(ledger: Ledger, direction: str, q_codes, Lq, b_codes, Lb
                  ) -> None:
    """Per-query AP of a fixed handful of queries against verify.map_oracle."""
    aps = retrieval.average_precisions(q_codes, Lq, b_codes, Lb)
    for i in np.linspace(0, aps.size - 1, ORACLE_QUERIES).astype(int):
        if np.isnan(aps[i]):
            continue
        want = verify.map_oracle(q_codes[:, [i]], Lq[[i]], b_codes, Lb)
        ledger.check(abs(aps[i] - want) <= ORACLE_TOL,
                     f"{direction} query {i}: AP {aps[i]!r} vs oracle {want!r}")


def _check_models(ledger: Ledger, dataset, models, oracle: bool) -> None:
    Xq, Yq, Lq = dataset.query()
    _, _, Lb = dataset.base()
    for model in models:
        name = model.variant.name
        _check_codes(ledger, model.B, Lb.shape[0], f"{name} B")
        _check_traces(ledger, model.loss1_trace, model.loss2_trace, name)
        for direction, modality, raw in (("i2t", "x", Xq), ("t2i", "y", Yq)):
            q = retrieval.encode_query(modality, raw, model.icae, model.side,
                                       model.variant)
            _check_codes(ledger, q, Lq.shape[0], f"{name} {modality} codes")
            if oracle:
                _check_oracle(ledger, direction, q, Lq, model.B, Lb)


# ----------------------------------------------------------------- workloads

ACCEPT_DATA = ["--c", 12, "--z1", 1000, "--if", 50, "--noise-sigma", 2.0,
               "--exclusive-tail-fraction", 0.5, "--query-size", 200]
EPOCHS_AE = 150
EPOCHS_HASH = 20
ETA = 1.25
# phase-1 SGD step; at the default 1e-2 phase 1 diverges on every cli-large
# seed and on about 1 acceptance-data seed in 45 (see perfbench/README.md)
LR_AE = 2e-3


class TrainAccept:
    """The acceptance-fixture configuration for one seed."""
    eval_repeats = 25

    def setup(self, seed: int, root: Path, ledger: Ledger) -> dict:
        return {"seed": seed,
                "dataset": _gen_data(ledger, ACCEPT_DATA, seed, root)}

    def body(self, state: dict, root: Path, clock: Clock, ledger: Ledger,
             repeats: int) -> Outcome:
        ds, seed = state["dataset"], state["seed"]
        variant = hashing.VARIANTS["full"]
        with clock.section("train"):
            icae, side, trace1 = ledger.call(
                experiment.train_phase1, ds,
                experiment.RunConfig(k=K, max_epochs=EPOCHS_AE, seed=seed,
                                     lr_ae=LR_AE))
            side, B, trace2 = ledger.call(
                experiment.train_phase2, ds,
                experiment.RunConfig(k=K, max_epochs=EPOCHS_HASH, seed=seed,
                                     eta=ETA), icae, side, variant)
        model = experiment.TrainedModel(icae, side, B, trace1, trace2, variant)
        quality = _evaluate(
            lambda r: ledger.call(experiment.evaluate_model, ds, model),
            _quality, "evaluate_model", clock, ledger, repeats)
        return Outcome(*quality, models=[model])

    def check(self, state: dict, outcome: Outcome, ledger: Ledger,
              oracle: bool) -> None:
        _check_models(ledger, state["dataset"], outcome.models, oracle)


LARGE_DATA = ["--c", 24, "--z1", 5000, "--if", 50, "--noise-sigma", 2.0,
              "--exclusive-tail-fraction", 0.5, "--query-size", 1000]
LARGE_EPOCHS = 2
# (direction, query codes, base codes): each direction ranks against the
# other modality's encoded base codes
LARGE_EVALS = (("i2t", "codes_x_query", "codes_y_base"),
               ("t2i", "codes_y_query", "codes_x_base"))


def _report_quality(reports: Path) -> tuple[float, float]:
    docs = [json.loads((reports / f"report_{d}.json").read_text())
            for d in ("i2t", "t2i")]
    if any(d["tail_map"] is None for d in docs):
        raise OperationFailed("no tail-label query in a direction")
    return (0.5 * (docs[0]["map"] + docs[1]["map"]),
            0.5 * (docs[0]["tail_map"] + docs[1]["tail_map"]))


class CliLarge:
    """The user's CLI flow on a large long-tailed dataset."""
    eval_repeats = 2

    def setup(self, seed: int, root: Path, ledger: Ledger) -> dict:
        return {"seed": seed, "root": root,
                "dataset": _gen_data(ledger, LARGE_DATA, seed, root)}

    def body(self, state: dict, root: Path, clock: Clock, ledger: Ledger,
             repeats: int) -> Outcome:
        data = state["root"] / "dataset"
        model = root / "model"
        with clock.section("train"):
            ledger.cli("train", "--dataset", data, "--out", model, "--k", K,
                       "--max-epochs", LARGE_EPOCHS, "--lr-ae", LR_AE,
                       "--seed", state["seed"])

        def encode_and_rank(r: int) -> Path:
            # each repeat writes its own codes and reports
            codes, reports = root / f"codes-{r}", root / f"eval-{r}"
            for modality in ("x", "y"):
                for split in ("query", "base"):
                    ledger.cli("encode", "--checkpoint",
                               model / "checkpoint_hash", "--dataset", data,
                               "--modality", modality, "--split", split,
                               "--out", codes)
            for direction, query, base in LARGE_EVALS:
                ledger.cli("eval", "--query-codes", codes / query,
                           "--base-codes", codes / base, "--dataset", data,
                           "--direction", direction, "--out", reports)
            return reports

        quality = _evaluate(encode_and_rank, _report_quality,
                            "encode and eval", clock, ledger, repeats)
        return Outcome(*quality, run_dir=root)

    def check(self, state: dict, outcome: Outcome, ledger: Ledger,
              oracle: bool) -> None:
        ds = state["dataset"]
        _, _, Lq = ds.query()
        _, _, Lb = ds.base()
        run = outcome.run_dir
        ae = store.load_checkpoint(run / "model" / "checkpoint_ae", "ae")
        hashed = store.load_checkpoint(run / "model" / "checkpoint_hash",
                                       "hash")
        _check_codes(ledger, hashed.B, Lb.shape[0], "checkpoint B")
        _check_traces(ledger, ae.loss_trace, hashed.loss_trace, "cli train")
        codes = {}
        for modality in ("x", "y"):
            for split, n in (("query", Lq.shape[0]), ("base", Lb.shape[0])):
                name = f"codes_{modality}_{split}"
                codes[name], _ = store.load_codes(run / "codes-0" / name)
                _check_codes(ledger, codes[name], n, name)
        if oracle:
            for direction, query, base in LARGE_EVALS:
                _check_oracle(ledger, direction, codes[query], Lq,
                              codes[base], Lb)


WORKLOADS = {"train-accept": TrainAccept(), "cli-large": CliLarge()}
