"""Command-line entry point.

Subcommands: gen-data, train, encode, eval, ablate, check-grad.
Exit codes: 0 success, 1 validation error, 2 runtime, numeric or I/O error,
3 verification failure. The output directory can be overridden with the
TAILHASH_OUTPUT_DIR environment variable. Flag values take precedence over
a JSON config file (--config), which takes precedence over defaults.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import datagen, experiment, hashing, nn, retrieval, store, verify


class CliError(Exception):
    """Validation error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _out_dir(args) -> Path:
    """The output directory. It is made by the first write into it, so a
    command that fails validation leaves none behind."""
    out = os.environ.get("TAILHASH_OUTPUT_DIR") or args.out
    if out is None:
        raise CliError("give --out or set TAILHASH_OUTPUT_DIR")
    return Path(out)


def _write_run_manifest(out: Path, command: str, config: dict) -> None:
    doc = {"command": command,
           "config": {k: v for k, v in config.items()
                      if v is not None and not callable(v)}}
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_manifest.json").write_text(json.dumps(doc, indent=1))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    for f in dataclasses.fields(experiment.RunConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=type(f.default), default=None)


def _run_config(args) -> experiment.RunConfig:
    values = {f.name: f.default for f in dataclasses.fields(experiment.RunConfig)}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"bad config file: {e}")
        if not isinstance(file_cfg, dict):
            raise CliError("bad config file: not a JSON object")
        for k, v in file_cfg.items():
            if k not in values:
                raise CliError(f"unknown config key {k!r}")
            # a JSON integer is a valid float; a bool is not a number here
            want = type(values[k])
            ok = (int, float) if want is float else want
            if isinstance(v, bool) or not isinstance(v, ok):
                raise CliError(f"config key {k!r} must be of type "
                               f"{want.__name__}, not {v!r}")
            values[k] = v
    for name in values:
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            values[name] = flag_val
    try:
        return experiment.RunConfig(**values)
    except ValueError as e:
        raise CliError(str(e))


# ---------------------------------------------------------------- commands

def cmd_gen_data(args) -> int:
    out = _out_dir(args)
    if args.imbalance_factor is not None and args.imbalance_factor <= 1:
        raise CliError("imbalance factor must exceed 1")
    try:
        spec = datagen.LongTailSpec(
            c=args.c, z1=args.z1, mu=args.mu,
            imbalance_factor=args.imbalance_factor,
            raw_dim_x=args.raw_dim_x, raw_dim_y=args.raw_dim_y,
            shared_dim=args.shared_dim, private_dim=args.private_dim,
            noise_sigma=args.noise_sigma,
            exclusive_tail_fraction=args.exclusive_tail_fraction,
            secondary_label_prob=args.secondary_label_prob,
            seed=args.seed)
    except ValueError as e:
        raise CliError(str(e))
    dataset = datagen.generate(spec)
    if not 0 <= args.query_size < dataset.n:
        raise CliError(f"--query-size must lie in 0..{dataset.n - 1} for "
                       f"{dataset.n} samples, not {args.query_size}")
    if args.query_size > 0:
        dataset = datagen.split(dataset, args.query_size, seed=args.seed)
    store.save_dataset(dataset, out / "dataset")
    _write_run_manifest(out, "gen-data", vars(args))
    counts = dataset.meta["label_counts"]
    print(f"dataset written to {out / 'dataset'}: n={dataset.n}, "
          f"c={dataset.c}, z1={counts[0]}, zc={counts[-1]}, "
          f"query={dataset.query_indices.size}, "
          f"base={dataset.base_indices.size}")
    return 0


def _load_dataset(path) -> datagen.Dataset:
    try:
        return store.load_dataset(path)
    except store.StoreError as e:
        raise CliError(str(e))


def _dataset_fingerprint(dataset: datagen.Dataset) -> dict[str, int]:
    """CRC-32 of each feature array, as the dataset container records it."""
    return {"features_x_crc32": store.array_crc32(dataset.Fx_raw),
            "features_y_crc32": store.array_crc32(dataset.Fy_raw)}


def _check_resumable(path: Path, ckpt: store.Checkpoint,
                     cfg: experiment.RunConfig,
                     dataset: datagen.Dataset) -> None:
    """Reject a phase-1 checkpoint whose shapes, phase-1 settings (loss
    weights, step) or training data do not fit this run. A key missing from
    the checkpoint's record raises StoreError."""
    checks = [(name, ckpt.hyper[name], getattr(cfg, name))
              for name in ("k", "alpha", "beta", "lr_ae")]
    checks += [("raw_dim_x", ckpt.icae.enc_ind_x.in_dim,
                dataset.Fx_raw.shape[1]),
               ("raw_dim_y", ckpt.icae.enc_ind_y.in_dim,
                dataset.Fy_raw.shape[1])]
    checks += [(name, ckpt.hyper[name], want)
               for name, want in _dataset_fingerprint(dataset).items()]
    for name, have, want in checks:
        if have != want:
            raise CliError(f"cannot resume from {path}: checkpoint has "
                           f"{name} = {have}, this run needs {want}")


def cmd_train(args) -> int:
    out = _out_dir(args)
    cfg = _run_config(args)
    dataset = _load_dataset(args.dataset)
    variant = hashing.VARIANTS[args.variant]

    # every checkpoint records the whole run configuration
    hyper = dataclasses.asdict(cfg)
    ae_path = out / "checkpoint_ae"
    resumed = False
    if args.resume and (ae_path / "manifest.json").exists():
        try:
            ckpt = store.load_checkpoint(ae_path, expect_phase="ae")
            _check_resumable(ae_path, ckpt, cfg, dataset)
        except store.StoreError as e:
            raise CliError(str(e))
        icae, side, trace1 = ckpt.icae, ckpt.side, ckpt.loss_trace
        resumed = True
    else:
        icae, side, trace1 = experiment.train_phase1(dataset, cfg)
        store.save_checkpoint(ae_path, "ae", icae, side,
                              dict(hyper, **_dataset_fingerprint(dataset)),
                              trace1)
    side, B, trace2 = experiment.train_phase2(dataset, cfg, icae, side,
                                              variant)
    store.save_checkpoint(out / "checkpoint_hash", "hash", icae, side,
                          dict(hyper, variant=variant.name), trace2, B=B)
    _write_run_manifest(out, "train", dict(vars(args), **hyper))
    print(f"phase 1 {'resumed from checkpoint' if resumed else 'trained'}; "
          f"checkpoints under {out}")
    return 0


def cmd_encode(args) -> int:
    out = _out_dir(args)
    dataset = _load_dataset(args.dataset)
    try:
        ckpt = store.load_checkpoint(args.checkpoint, expect_phase="hash")
        name = ckpt.hyper["variant"]
    except store.StoreError as e:
        raise CliError(str(e))
    variant = hashing.VARIANTS.get(name) if isinstance(name, str) else None
    if variant is None:
        raise CliError(f"{args.checkpoint}: unknown variant {name!r}")
    X, Y, _ = dataset.base() if args.split == "base" else dataset.query()
    raw = X if args.modality == "x" else Y
    codes = retrieval.encode_query(args.modality, raw, ckpt.icae, ckpt.side,
                                   variant)
    store.save_codes(out / f"codes_{args.modality}_{args.split}", codes,
                     info={"modality": args.modality, "split": args.split,
                           "k": codes.shape[0], "n": codes.shape[1],
                           "variant": variant.name})
    print(f"codes written to {out / f'codes_{args.modality}_{args.split}'}")
    return 0


def _head_count(args, dataset: datagen.Dataset) -> int:
    """--head-count, which must lie in 0..c; c // 2 when not given."""
    if args.head_count is None:
        return dataset.c // 2
    if not 0 <= args.head_count <= dataset.c:
        raise CliError(f"--head-count must be in 0..{dataset.c}, got "
                       f"{args.head_count}")
    return args.head_count


def cmd_eval(args) -> int:
    out = _out_dir(args)
    if args.top_r is not None and args.top_r < 1:
        raise CliError(f"--top-r must be >= 1, got {args.top_r}")
    dataset = _load_dataset(args.dataset)
    head = _head_count(args, dataset)
    try:
        q_codes, q_info = store.load_codes(args.query_codes)
        b_codes, _ = store.load_codes(args.base_codes)
    except store.StoreError as e:
        raise CliError(str(e))
    _, _, Lb = dataset.base()
    _, _, Lq = dataset.query()
    for path, codes, split, labels in (
            (args.query_codes, q_codes, "query", Lq),
            (args.base_codes, b_codes, "base", Lb)):
        if codes.shape[1] != labels.shape[0]:
            raise CliError(f"{path}: {codes.shape[1]} codes, but the "
                           f"dataset's {split} split has {labels.shape[0]} "
                           f"items")
    counts = dataset.meta.get("label_counts", Lb.sum(axis=0))
    report = retrieval.evaluate(args.direction, q_codes, Lq, b_codes, Lb,
                                counts, head, topR=args.top_r,
                                variant=q_info.get("variant", "full"))
    stem = out / f"report_{args.direction}"
    store.emit_report(report, "json", stem.with_suffix(".json"))
    store.emit_report(report, "csv", stem.with_suffix(".csv"))
    print(f"{args.direction} MAP {report.map:.6f} "
          f"(head {report.head_map}, tail {report.tail_map}); "
          f"reports at {stem}.json/.csv")
    return 0


def cmd_ablate(args) -> int:
    out = _out_dir(args)
    cfg = _run_config(args)
    dataset = _load_dataset(args.dataset)
    head = _head_count(args, dataset)
    icae, side0, trace1 = experiment.train_phase1(dataset, cfg)
    summary = {}
    for name, variant in hashing.VARIANTS.items():
        # phase 1 leaves the initial hash side untouched; every variant's
        # phase 2 starts from a copy of it
        side, B, trace2 = experiment.train_phase2(
            dataset, cfg, icae, copy.deepcopy(side0), variant)
        model = experiment.TrainedModel(icae, side, B, trace1, trace2,
                                        variant)
        reports = experiment.evaluate_model(dataset, model, head_count=head)
        for direction, report in reports.items():
            stem = out / f"report_{name}_{direction}"
            store.emit_report(report, "json", stem.with_suffix(".json"))
            store.emit_report(report, "csv", stem.with_suffix(".csv"))
        summary[name] = {d: r.map for d, r in reports.items()}
        print(f"{name}: i2t={summary[name]['i2t']:.4f} "
              f"t2i={summary[name]['t2i']:.4f}")
    _write_run_manifest(out, "ablate", dict(vars(args),
                                            **dataclasses.asdict(cfg)))
    (out / "ablation_summary.json").write_text(json.dumps(summary, indent=1))
    return 0


def cmd_check_grad(args) -> int:
    results = verify.run_all(seed=args.seed, bug=args.inject_bug)
    failed = False
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        failed = failed or not passed
    return 3 if failed else 0


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    parser = _Parser(prog="tailhash",
                     description="Long-tail cross-modal hashing pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--z1", type=int, required=True)
    p.add_argument("--if", dest="imbalance_factor", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--raw-dim-x", type=int, default=64)
    p.add_argument("--raw-dim-y", type=int, default=48)
    p.add_argument("--shared-dim", type=int, default=8)
    p.add_argument("--private-dim", type=int, default=4)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--exclusive-tail-fraction", type=float, default=0.0)
    p.add_argument("--secondary-label-prob", type=float, default=0.5)
    p.add_argument("--query-size", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="two-phase training")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--variant", default="full",
                   choices=sorted(hashing.VARIANTS))
    p.add_argument("--resume", action="store_true",
                   help="reuse an existing phase-1 checkpoint in --out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a split with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--modality", required=True, choices=("x", "y"))
    p.add_argument("--split", default="query", choices=("base", "query"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="retrieval evaluation from codes files")
    p.add_argument("--query-codes", required=True)
    p.add_argument("--base-codes", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--direction", required=True, choices=("i2t", "t2i"))
    p.add_argument("--head-count", type=int, default=None)
    p.add_argument("--top-r", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate all variants")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--head-count", type=int, default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("check-grad", help="run gradient and oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-bug", action="store_true",
                   help="perturb analytic gradients to force failures")
    p.set_defaults(func=cmd_check_grad)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (nn.NumericsError, store.StoreError, ValueError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
