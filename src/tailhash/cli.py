"""Command-line entry point.

Subcommands: gen-data, train, encode, eval, ablate, check-grad.
Exit codes: 0 success, 1 validation error (a rejected flag, or a rejected
or malformed input artifact), 2 runtime, numeric or I/O error, 3
verification failure. The output directory can be overridden with the
TAILHASH_OUTPUT_DIR environment variable. gen-data's settings flags and
their defaults are datagen.LongTailSpec's fields; train's and ablate's are
experiment.RunConfig's, and there flag values take precedence over a JSON
config file (--config), which takes precedence over the defaults.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import os
import sys
import typing
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


def _write_run_manifest(out: Path, args, settings) -> None:
    """The command, its flags and the whole settings dataclass it ran on."""
    config = dict(vars(args), **dataclasses.asdict(settings))
    doc = {"command": args.command,
           "config": {k: v for k, v in config.items()
                      if v is not None and not callable(v)}}
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_manifest.json").write_text(json.dumps(doc, indent=1))


@functools.cache
def _field_types(cls) -> dict[str, type]:
    """Field name -> the type its annotation names, T for Optional[T]
    (Union[T, None]), of the settings dataclass ``cls``; resolved once."""
    return {name: (typing.get_args(hint) or (hint,))[0]
            for name, hint in typing.get_type_hints(cls).items()}


def _add_field_flags(p: argparse.ArgumentParser, cls, **flags: str) -> None:
    """One flag per field of the settings dataclass ``cls``, named
    --field-name unless ``flags`` names it, and typed by its annotation.
    A field without a default is a required flag; an absent flag parses to
    None, so that the field keeps the default ``cls`` gives it."""
    types = _field_types(cls)
    for f in dataclasses.fields(cls):
        flag = flags.get(f.name, "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, type=types[f.name], default=None,
                       required=f.default is dataclasses.MISSING)


def _settings(cls, args, values: typing.Optional[dict] = None):
    """``cls`` from ``values`` and the flags given, which override them; a
    value its checks refuse is a validation error."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if getattr(args, f.name) is not None}
    try:
        return cls(**{**(values or {}), **given})
    except ValueError as e:
        raise CliError(str(e))


def _run_config(args) -> experiment.RunConfig:
    types = _field_types(experiment.RunConfig)
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"bad config file: {e}")
        if not isinstance(values, dict):
            raise CliError("bad config file: not a JSON object")
        for k, v in values.items():
            if k not in types:
                raise CliError(f"unknown config key {k!r}")
            # a JSON integer is a valid float; a bool is not a number here
            want = types[k]
            ok = (int, float) if want is float else want
            if isinstance(v, bool) or not isinstance(v, ok):
                raise CliError(f"config key {k!r} must be of type "
                               f"{want.__name__}, not {v!r}")
    return _settings(experiment.RunConfig, args, values)


# ---------------------------------------------------------------- commands

def cmd_gen_data(args) -> int:
    out = _out_dir(args)
    spec = _settings(datagen.LongTailSpec, args)
    dataset = datagen.generate(spec)
    if not 0 <= args.query_size < dataset.n:
        raise CliError(f"--query-size must lie in 0..{dataset.n - 1} for "
                       f"{dataset.n} samples, not {args.query_size}")
    if args.query_size > 0:
        dataset = datagen.split(dataset, args.query_size, seed=spec.seed)
    store.save_dataset(dataset, out / "dataset")
    _write_run_manifest(out, args, spec)
    counts = dataset.meta["label_counts"]
    print(f"dataset written to {out / 'dataset'}: n={dataset.n}, "
          f"c={dataset.c}, z1={counts[0]}, zc={counts[-1]}, "
          f"query={dataset.query_indices.size}, "
          f"base={dataset.base_indices.size}")
    return 0


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
    dataset = store.load_dataset(args.dataset)
    variant = hashing.VARIANTS[args.variant]

    # every checkpoint records the whole run configuration
    hyper = dataclasses.asdict(cfg)
    ae_path = out / "checkpoint_ae"
    resumed = False
    if args.resume and (ae_path / "manifest.json").exists():
        ckpt = store.load_checkpoint(ae_path, expect_phase="ae")
        _check_resumable(ae_path, ckpt, cfg, dataset)
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
    _write_run_manifest(out, args, cfg)
    print(f"phase 1 {'resumed from checkpoint' if resumed else 'trained'}; "
          f"checkpoints under {out}")
    return 0


def cmd_encode(args) -> int:
    out = _out_dir(args)
    dataset = store.load_dataset(args.dataset)
    ckpt = store.load_checkpoint(args.checkpoint, expect_phase="hash")
    name = ckpt.hyper["variant"]
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


def _check_head_count(args, dataset: datagen.Dataset) -> None:
    """--head-count, when given, must lie in 0..c."""
    if args.head_count is not None and not 0 <= args.head_count <= dataset.c:
        raise CliError(f"--head-count must be in 0..{dataset.c}, got "
                       f"{args.head_count}")


def cmd_eval(args) -> int:
    out = _out_dir(args)
    if args.top_r is not None and args.top_r < 1:
        raise CliError(f"--top-r must be >= 1, got {args.top_r}")
    dataset = store.load_dataset(args.dataset)
    _check_head_count(args, dataset)
    q_codes, q_info = store.load_codes(args.query_codes)
    b_codes, _ = store.load_codes(args.base_codes)
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
                                counts, args.head_count, topR=args.top_r,
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
    dataset = store.load_dataset(args.dataset)
    _check_head_count(args, dataset)
    icae, side0, trace1 = experiment.train_phase1(dataset, cfg)
    summary = {}
    for name, variant in hashing.VARIANTS.items():
        # phase 1 leaves the initial hash side untouched; every variant's
        # phase 2 starts from a copy of it
        side, B, trace2 = experiment.train_phase2(
            dataset, cfg, icae, copy.deepcopy(side0), variant)
        model = experiment.TrainedModel(icae, side, B, trace1, trace2,
                                        variant)
        reports = experiment.evaluate_model(dataset, model,
                                            head_count=args.head_count)
        for direction, report in reports.items():
            stem = out / f"report_{name}_{direction}"
            store.emit_report(report, "json", stem.with_suffix(".json"))
            store.emit_report(report, "csv", stem.with_suffix(".csv"))
        summary[name] = {d: r.map for d, r in reports.items()}
        print(f"{name}: i2t={summary[name]['i2t']:.4f} "
              f"t2i={summary[name]['t2i']:.4f}")
    _write_run_manifest(out, args, cfg)
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
    _add_field_flags(p, datagen.LongTailSpec, imbalance_factor="--if")
    p.add_argument("--query-size", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="two-phase training")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--variant", default="full",
                   choices=sorted(hashing.VARIANTS))
    p.add_argument("--resume", action="store_true",
                   help="reuse an existing phase-1 checkpoint in --out")
    p.add_argument("--config", help="JSON config file (flags override it)")
    _add_field_flags(p, experiment.RunConfig)
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
    p.add_argument("--config", help="JSON config file (flags override it)")
    _add_field_flags(p, experiment.RunConfig)
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
    except (CliError, store.StoreError) as e:
        # a rejected or malformed artifact is a validation error
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (nn.NumericsError, ValueError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
