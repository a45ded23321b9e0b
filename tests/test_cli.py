"""End-to-end command-line interface: exit codes, files produced, resume."""

import argparse
import dataclasses
import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

from tailhash import cli, datagen, experiment, hashing, store


def run_cli(argv):
    return cli.main(argv)


def _gen(tmp_path, name="d", c=4, z1=40, query=10, seed=0, extra=()):
    out = tmp_path / name
    code = run_cli(["gen-data", "--c", str(c), "--z1", str(z1), "--if", "8",
                    "--raw-dim-x", "10", "--raw-dim-y", "8",
                    "--shared-dim", "3", "--private-dim", "2",
                    "--noise-sigma", "0.3", "--query-size", str(query),
                    "--seed", str(seed), "--out", str(out), *extra])
    assert code == 0
    return out


def _checksums(root):
    manifest = json.loads((root / "dataset" / "manifest.json").read_text())
    return {name: entry["crc32"] for name, entry in manifest["arrays"].items()}


# ------------------------------------------------------------------ gen-data

def test_gen_data_writes_loadable_dataset(tmp_path):
    out = _gen(tmp_path)
    ds = store.load_dataset(out / "dataset")
    assert ds.c == 4
    assert ds.meta["label_counts"][0] == 40
    assert (out / "run_manifest.json").exists()


def test_gen_data_deterministic_checksums(tmp_path):
    a = _gen(tmp_path, "a", seed=3)
    b = _gen(tmp_path, "b", seed=3)
    assert _checksums(a) == _checksums(b)


def test_gen_data_seed_changes_output(tmp_path):
    a = _gen(tmp_path, "a", seed=3)
    b = _gen(tmp_path, "b", seed=4)
    assert _checksums(a) != _checksums(b)


@pytest.mark.parametrize("size", [-5, 67, 70, 5000])
def test_gen_data_rejects_query_size_outside_dataset(tmp_path, capsys, size):
    # the data has n = 67 samples: a query split takes 0..66 of them
    out = tmp_path / "d"
    code = run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "8",
                    "--query-size", str(size), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --query-size must lie in 0..66")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "dataset").exists()


@pytest.mark.parametrize("size", [-1, 67])
def test_gen_data_refuses_query_size_before_generating(tmp_path, monkeypatch,
                                                       capsys, size):
    def generate(spec):
        raise AssertionError("generate ran before the query size was checked")

    monkeypatch.setattr(datagen, "generate", generate)
    code = run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "8",
                    "--query-size", str(size), "--out", str(tmp_path / "d")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --query-size must lie in 0..66 for 67 samples, not {size}\n")


def test_gen_data_bytes_are_pinned(tmp_path):
    # CRC-32s of the files this spec gave before the noise was drawn in row
    # chunks, and of its split indices as little-endian int64: a change to
    # the noise drawing or to the RNG stream changes them. The features
    # pass through BLAS products, pinned here as numpy's bundled OpenBLAS
    # rounds them
    out = tmp_path / "d"
    assert run_cli(["gen-data", "--c", "8", "--z1", "120", "--if", "8",
                    "--noise-sigma", "1.0", "--exclusive-tail-fraction", "0.5",
                    "--query-size", "40", "--seed", "3",
                    "--out", str(out)]) == 0
    data = out / "dataset"
    manifest = json.loads((data / "manifest.json").read_text())
    crcs = {name: zlib.crc32((data / f"{name}.bin").read_bytes())
            for name in ("features_x", "features_y", "labels")}
    crcs.update({key: zlib.crc32(np.asarray(manifest[key], "<i8").tobytes())
                 for key in ("base_indices", "query_indices")})
    assert crcs == {"features_x": 3053562241, "features_y": 1614501573,
                    "labels": 3058208442, "base_indices": 1453826523,
                    "query_indices": 723348961}


def test_gen_data_reports_split_sizes_written(tmp_path, capsys):
    # 66 of 67 asked for; the split keeps one sample of every label in base
    out = tmp_path / "d"
    code = run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "8",
                    "--query-size", "66", "--out", str(out)])
    assert code == 0
    ds = store.load_dataset(out / "dataset")
    assert 0 < ds.query_indices.size < 66
    assert capsys.readouterr().out.strip().endswith(
        f"query={ds.query_indices.size}, base={ds.base_indices.size}")


def test_gen_data_rejects_imbalance_factor_one(tmp_path, capsys):
    code = run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "1",
                    "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--if", "1"), ("--query-size", "-5")],
                         ids=["imbalance_factor", "query_size"])
def test_gen_data_validation_error_leaves_no_out_dir(tmp_path, flags):
    out = tmp_path / "qs" / "d"
    code = run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "8",
                    *flags, "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_gen_data_refuses_mu_that_contradicts_imbalance_factor(
        tmp_path, monkeypatch, capsys):
    # mu 1 gives z1 / zc = 7.69 here: a record of --if 50 would be false
    def generate(spec):
        raise AssertionError("generate ran on a contradictory spec")

    monkeypatch.setattr(datagen, "generate", generate)
    out = tmp_path / "d"
    assert run_cli(["gen-data", "--c", "8", "--z1", "100", "--mu", "1",
                    "--if", "50", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mu 1.0 contradicts imbalance factor 50.0")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_gen_data_rejects_bad_dimensions(tmp_path):
    code = run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "8",
                    "--shared-dim", "0", "--out", str(tmp_path / "x")])
    assert code == 1


def test_gen_data_requires_out_or_env(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TAILHASH_OUTPUT_DIR", raising=False)
    code = run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "8"])
    assert code == 1
    monkeypatch.setenv("TAILHASH_OUTPUT_DIR", str(tmp_path / "env_out"))
    code = run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "8",
                    "--raw-dim-x", "10", "--raw-dim-y", "8",
                    "--shared-dim", "3", "--private-dim", "2"])
    assert code == 0
    assert (tmp_path / "env_out" / "dataset" / "manifest.json").exists()


def test_unknown_subcommand_is_validation_error(capsys):
    assert run_cli(["frobnicate"]) == 1


# gen-data's flags, names and types as they were declared by hand
GEN_DATA_FLAGS = {
    "--c": int, "--z1": int, "--mu": float, "--if": float,
    "--raw-dim-x": int, "--raw-dim-y": int, "--shared-dim": int,
    "--private-dim": int, "--noise-sigma": float,
    "--exclusive-tail-fraction": float, "--secondary-label-prob": float,
    "--seed": int, "--query-size": int, "--out": None, "--help": None}


def _subparser(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def test_gen_data_flags_keep_their_names_and_types():
    actions = _subparser("gen-data")._actions
    assert {a.option_strings[-1]: a.type for a in actions} == GEN_DATA_FLAGS
    assert {a.option_strings[0] for a in actions if a.required} == {"--c",
                                                                   "--z1"}


@pytest.mark.parametrize("command, cls, given", [
    ("gen-data", datagen.LongTailSpec, ["--c", "4", "--z1", "40"]),
    ("train", experiment.RunConfig, ["--dataset", "d"]),
    ("ablate", experiment.RunConfig, ["--dataset", "d"])])
def test_every_settings_field_has_one_flag_that_defaults_to_none(
        command, cls, given):
    actions = _subparser(command)._actions
    for f in dataclasses.fields(cls):
        flags = [s for a in actions if a.dest == f.name
                 for s in a.option_strings]
        assert len(flags) == 1, (f.name, flags)
    args = cli.build_parser().parse_args([command, *given])
    absent = [f.name for f in dataclasses.fields(cls)
              if f.default is not dataclasses.MISSING]
    assert {name: getattr(args, name) for name in absent} == dict.fromkeys(
        absent, None)


def test_gen_data_builds_the_spec_of_the_flags_given(tmp_path, monkeypatch):
    specs = []
    generate = datagen.generate
    monkeypatch.setattr(datagen, "generate",
                        lambda spec: specs.append(spec) or generate(spec))
    out = tmp_path / "d"
    assert run_cli(["gen-data", "--c", "4", "--z1", "40", "--if", "8",
                    "--out", str(out)]) == 0
    spec = datagen.LongTailSpec(c=4, z1=40, imbalance_factor=8)
    assert specs == [spec]
    # both records of the spec hold the whole spec, the derived mu too
    manifest = json.loads((out / "dataset" / "manifest.json").read_text())
    assert manifest["spec"] == dataclasses.asdict(spec)
    run = json.loads((out / "run_manifest.json").read_text())["config"]
    assert {k: run[k] for k in manifest["spec"]} == dataclasses.asdict(spec)


def test_gen_data_writes_the_bytes_of_the_library_path(tmp_path):
    out = _gen(tmp_path, seed=3)
    # --if parses to a float, which the manifest's spec records as such
    spec = datagen.LongTailSpec(c=4, z1=40, imbalance_factor=8.0,
                                raw_dim_x=10, raw_dim_y=8, shared_dim=3,
                                private_dim=2, noise_sigma=0.3, seed=3)
    lib = tmp_path / "lib"
    store.save_dataset(datagen.split(datagen.generate(spec), 10, seed=3), lib)
    names = sorted(p.name for p in lib.iterdir())
    assert sorted(p.name for p in (out / "dataset").iterdir()) == names
    for name in names:
        assert (out / "dataset" / name).read_bytes() == \
            (lib / name).read_bytes(), name


# --------------------------------------------------------------------- train

def _train(tmp_path, data, name="run", extra=()):
    out = tmp_path / name
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(out), "--k", "4", "--max-epochs", "2",
                    "--seed", "0", *extra])
    assert code == 0
    return out


def test_train_writes_both_checkpoints(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    ae = store.load_checkpoint(run / "checkpoint_ae", expect_phase="ae")
    hs = store.load_checkpoint(run / "checkpoint_hash", expect_phase="hash")
    assert len(ae.loss_trace) == 2 and len(hs.loss_trace) == 2
    assert hs.B is not None and set(np.unique(hs.B)) <= {-1.0, 1.0}


def test_train_resume_skips_phase_one(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    before = (run / "checkpoint_ae" / "manifest.json").read_bytes()
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(run), "--k", "4", "--max-epochs", "2",
                    "--seed", "0", "--resume"])
    assert code == 0
    assert (run / "checkpoint_ae" / "manifest.json").read_bytes() == before



@pytest.mark.parametrize("command", ["train", "ablate"])
def test_training_views_the_split_rows_it_keeps(tmp_path, monkeypatch,
                                               command):
    # train and ablate gather their split rows once; phase 1, phase 2 and
    # ablate's evaluation then view them instead of gathering copies. Of
    # the split, ablate's evaluation asks only for the query rows (once per
    # variant) and the base labels, so 1 + 6 + 6 calls
    data = _gen(tmp_path)
    seen = []
    for name in ("base", "query"):
        real = getattr(datagen.Dataset, name)
        monkeypatch.setattr(datagen.Dataset, name,
                            lambda self, real=real: seen.append(real(self))
                            or seen[-1])
    assert run_cli([command, "--dataset", str(data / "dataset"),
                    "--out", str(tmp_path / "run"), "--k", "4",
                    "--max-epochs", "1", "--seed", "0"]) == 0
    assert len(seen) >= (2 if command == "train" else 13)
    for arrays in seen:
        for arr in arrays:
            assert not arr.flags.owndata and not arr.flags.writeable


def test_train_and_resume_write_the_codes_of_the_variant_runner(tmp_path):
    data = _gen(tmp_path)
    ds = store.load_dataset(data / "dataset")
    cfg = experiment.RunConfig(k=4, max_epochs=2, seed=0)
    model = next(experiment.train_variants(
        ds, cfg, experiment.train_phase1(ds, cfg), [hashing.VARIANTS["wo_c"]]))
    for resume in ((), ("--resume",)):
        run = _train(tmp_path, data, extra=("--variant", "wo_c", *resume))
        hs = store.load_checkpoint(run / "checkpoint_hash", "hash")
        assert hs.hyper["variant"] == "wo_c"
        np.testing.assert_array_equal(hs.B, model.B)
        assert hs.loss_trace == model.loss2_trace

@pytest.mark.parametrize("flags, gen_extra, mismatch", [
    (("--k", "8"), (), "k = 4, this run needs 8"),
    ((), ("--raw-dim-x", "12"), "raw_dim_x = 10, this run needs 12"),
    (("--alpha", "0.9"), (), "alpha = 0.05, this run needs 0.9"),
    (("--beta", "0.5"), (), "beta = 0.05, this run needs 0.5"),
    (("--lr-ae", "0.005"), (), "lr_ae = 0.01, this run needs 0.005"),
    # same dimensions, other features
    ((), ("--seed", "1"), "features_x_crc32 = ")],
    ids=["k", "raw_dim_x", "alpha", "beta", "lr_ae", "dataset"])
def test_train_resume_rejects_incompatible_checkpoint(tmp_path, capsys, flags,
                                                      gen_extra, mismatch):
    run = _train(tmp_path, _gen(tmp_path))
    before = (run / "checkpoint_hash" / "manifest.json").read_bytes()
    manifest = (run / "run_manifest.json").read_bytes()
    data = _gen(tmp_path, "d2", extra=gen_extra)
    capsys.readouterr()
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(run), "--k", "4", "--max-epochs", "2",
                    "--seed", "0", "--resume", *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and mismatch in err
    assert len(err.strip().splitlines()) == 1
    assert (run / "checkpoint_hash" / "manifest.json").read_bytes() == before
    assert (run / "run_manifest.json").read_bytes() == manifest


def test_train_missing_dataset_is_validation_error(tmp_path):
    code = run_cli(["train", "--dataset", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "r")])
    assert code == 1


def test_train_config_file_and_flag_precedence(tmp_path):
    data = _gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 4, "max_epochs": 1, "seed": 7}))
    run = tmp_path / "run"
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(run), "--config", str(cfg),
                    "--max-epochs", "2"])
    assert code == 0
    manifest = json.loads((run / "run_manifest.json").read_text())
    assert manifest["config"]["max_epochs"] == 2   # flag beats config file
    assert manifest["config"]["seed"] == 7         # config file beats default


def test_train_rejects_unknown_config_key(tmp_path):
    data = _gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bits": 4}))
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == 1


@pytest.mark.parametrize("flag, value", [("--gamma", "-1"),
                                         ("--eta", "-0.5")],
                         ids=["gamma", "eta"])
def test_train_rejects_negative_loss_weight_before_training(tmp_path, capsys,
                                                            flag, value):
    data = _gen(tmp_path)
    run = tmp_path / "r"
    capsys.readouterr()
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(run), "--k", "4", "--max-epochs", "2",
                    flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-negative" in err
    assert len(err.strip().splitlines()) == 1
    assert not (run / "checkpoint_ae").exists()


def test_train_validation_error_leaves_no_out_dir(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "r"
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(out), "--gamma", "-1"])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_non_finite_feature_is_one_line_runtime_error(tmp_path, capsys,
                                                            bad):
    data = _gen(tmp_path)
    ds = store.load_dataset(data / "dataset")
    ds.Fy_raw[ds.base_indices[3], 1] = bad
    store.save_dataset(ds, tmp_path / "bad" / "dataset")
    capsys.readouterr()
    out = tmp_path / "run"
    code = run_cli(["train", "--dataset", str(tmp_path / "bad" / "dataset"),
                    "--out", str(out), "--k", "4", "--max-epochs", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: base y features hold 1 NaN or "
                          "infinite value(s)")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "checkpoint_ae").exists()


@pytest.mark.parametrize("content, detail", [
    ({"gamma": "x"}, "'gamma' must be of type float"),
    ({"max_epochs": 1.5}, "'max_epochs' must be of type int"),
    ([1], "not a JSON object")], ids=["str", "float_for_int", "list"])
def test_train_rejects_mistyped_config_file(tmp_path, capsys, content,
                                            detail):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    code = run_cli(["train", "--dataset", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and detail in err
    assert len(err.strip().splitlines()) == 1


def test_train_rejects_unknown_variant(tmp_path):
    data = _gen(tmp_path)
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(tmp_path / "r"), "--variant", "nope"])
    assert code == 1


# ------------------------------------------------------------- encode / eval

def _encode(tmp_path, data, run, modality, split, name):
    out = tmp_path / name
    code = run_cli(["encode", "--checkpoint", str(run / "checkpoint_hash"),
                    "--dataset", str(data / "dataset"),
                    "--modality", modality, "--split", split,
                    "--out", str(out)])
    assert code == 0
    return out / f"codes_{modality}_{split}"


def test_encode_and_eval_pipeline(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    qx = _encode(tmp_path, data, run, "x", "query", "e1")
    by = _encode(tmp_path, data, run, "y", "base", "e2")
    out = tmp_path / "ev"
    code = run_cli(["eval", "--query-codes", str(qx), "--base-codes", str(by),
                    "--dataset", str(data / "dataset"),
                    "--direction", "i2t", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "report_i2t.json").read_text())
    assert doc["format_version"] == store.FORMAT_VERSION
    assert 0.0 <= doc["map"] <= 1.0
    assert (out / "report_i2t.csv").exists()


def test_encode_rejects_bad_modality(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    code = run_cli(["encode", "--checkpoint", str(run / "checkpoint_hash"),
                    "--dataset", str(data / "dataset"),
                    "--modality", "z", "--out", str(tmp_path / "e")])
    assert code == 1


def test_encode_rejects_ae_checkpoint(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    code = run_cli(["encode", "--checkpoint", str(run / "checkpoint_ae"),
                    "--dataset", str(data / "dataset"),
                    "--modality", "x", "--out", str(tmp_path / "e")])
    assert code == 1


def test_encode_of_missing_query_split_refused_before_checkpoint(
        tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path, query=0)
    capsys.readouterr()

    def load_checkpoint(*args, **kwargs):
        raise AssertionError("the checkpoint was loaded")
    monkeypatch.setattr(cli.store, "load_checkpoint", load_checkpoint)
    out = tmp_path / "e"
    code = run_cli(["encode", "--checkpoint", str(tmp_path / "run"),
                    "--dataset", str(data / "dataset"), "--modality", "x",
                    "--split", "query", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {data / 'dataset'}: no query split to encode\n"
    assert not out.exists()


def test_eval_on_dataset_without_query_split_refused(tmp_path, capsys):
    # empty query codes fit the empty split; the dataset is refused anyway
    data = _gen(tmp_path, query=0)
    n = store.load_dataset(data / "dataset").base_indices.size
    qx, by = tmp_path / "qx", tmp_path / "by"
    for path, modality, codes in ((qx, "x", np.ones((4, 0))),
                                  (by, "y", np.ones((4, n)))):
        store.save_codes(path, codes, info={"modality": modality,
                                            "variant": "full"})
    capsys.readouterr()
    code = run_cli(["eval", "--query-codes", str(qx), "--base-codes", str(by),
                    "--dataset", str(data / "dataset"),
                    "--direction", "i2t", "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"error: {data / 'dataset'}: no query split to "
                   f"evaluate on\n")


def test_eval_rejects_bad_direction(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    qx = _encode(tmp_path, data, run, "x", "query", "e1")
    by = _encode(tmp_path, data, run, "y", "base", "e2")
    code = run_cli(["eval", "--query-codes", str(qx), "--base-codes", str(by),
                    "--dataset", str(data / "dataset"),
                    "--direction", "sideways", "--out", str(tmp_path / "ev")])
    assert code == 1


def _eval_argv(tmp_path, data, run, *flags):
    qx = _encode(tmp_path, data, run, "x", "query", "e1")
    by = _encode(tmp_path, data, run, "y", "base", "e2")
    return ["eval", "--query-codes", str(qx), "--base-codes", str(by),
            "--dataset", str(data / "dataset"), "--direction", "i2t",
            "--out", str(tmp_path / "ev"), *flags]


@pytest.mark.parametrize("flag, value", [
    ("--top-r", "0"), ("--top-r", "-1"), ("--head-count", "-3"),
    ("--head-count", "5")],
    ids=["top_r_0", "top_r_negative", "head_count_negative",
         "head_count_above_c"])
def test_eval_rejects_out_of_range_ranking_flags(tmp_path, capsys, flag,
                                                 value):
    data = _gen(tmp_path)           # c = 4
    argv = _eval_argv(tmp_path, data, _train(tmp_path, data), flag, value)
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "ev" / "report_i2t.json").exists()


@pytest.mark.parametrize("head", [0, 4])
def test_eval_head_count_takes_explicit_bounds(tmp_path, head):
    # an explicit 0 is a head of no labels, not the c // 2 default
    data = _gen(tmp_path)
    argv = _eval_argv(tmp_path, data, _train(tmp_path, data),
                      "--head-count", str(head), "--top-r", "1")
    assert run_cli(argv) == 0
    doc = json.loads((tmp_path / "ev" / "report_i2t.json").read_text())
    assert doc["head_tail_split_index"] == head
    assert (doc["head_map"] is None) == (head == 0)
    assert (doc["tail_map"] is None) == (head == 4)


@pytest.mark.parametrize("query, base, wrong", [
    (("x", "query"), ("y", "query"), "base"),
    (("x", "base"), ("y", "base"), "query")],
    ids=["query_codes_as_base", "base_codes_as_query"])
def test_eval_rejects_codes_of_another_split(tmp_path, capsys, query, base,
                                             wrong):
    # codes whose count does not fit the dataset split they are ranked
    # against are refused before ranking, naming the file
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    q = _encode(tmp_path, data, run, *query, "e1")
    b = _encode(tmp_path, data, run, *base, "e2")
    capsys.readouterr()
    code = run_cli(["eval", "--query-codes", str(q), "--base-codes", str(b),
                    "--dataset", str(data / "dataset"),
                    "--direction", "i2t", "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(b if wrong == "base" else q) in err
    assert f"{wrong} split" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "ev" / "report_i2t.json").exists()


def _eval_refused(capsys, argv, *named):
    """``argv`` exits 1 with one error line naming each of ``named``, and
    writes no report."""
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(str(p) in err for p in named)
    assert len(err.strip().splitlines()) == 1
    out = Path(argv[argv.index("--out") + 1])
    assert not list(out.glob("report_*"))


def test_eval_rejects_codes_of_different_lengths(pipeline, tmp_path, capsys):
    # 8-bit x query codes against the pipeline's 4-bit y base codes
    root = tmp_path / "p"
    shutil.copytree(pipeline, root)
    data, by = root / "d" / "dataset", root / "e2" / "codes_y_base"
    qx = root / "e8" / "codes_x_query"
    n = store.load_dataset(data).query_indices.size
    store.save_codes(qx, np.ones((8, n)), info={
        "modality": "x", "split": "query", "k": 8, "n": n, "variant": "full"})
    _eval_refused(capsys, [
        "eval", "--query-codes", str(qx), "--base-codes", str(by),
        "--dataset", str(data), "--direction", "i2t",
        "--out", str(root / "ev")], qx, by)


@pytest.mark.parametrize("direction, query, base, refused", [
    ("i2t", ("y", "query"), ("x", "base"), "query"),
    ("t2i", ("x", "query"), ("y", "base"), "query"),
    ("i2t", ("y", "query"), ("y", "base"), "query"),
    ("i2t", ("x", "query"), ("x", "base"), "base"),
    ("t2i", ("y", "query"), ("y", "base"), "base")],
    ids=["i2t_swapped", "t2i_swapped", "i2t_query_y", "i2t_base_x",
         "t2i_base_y"])
def test_eval_rejects_codes_of_the_wrong_modality(pipeline, tmp_path, capsys,
                                                  direction, query, base,
                                                  refused):
    # a pair of the other direction would rank and report the wrong MAP
    root = tmp_path / "p"
    shutil.copytree(pipeline, root)
    data, run = root / "d", root / "run"
    q = _encode(root, data, run, *query, "q")
    b = _encode(root, data, run, *base, "b")
    _eval_refused(capsys, [
        "eval", "--query-codes", str(q), "--base-codes", str(b),
        "--dataset", str(data / "dataset"), "--direction", direction,
        "--out", str(root / "ev")], q if refused == "query" else b)


def test_eval_rejects_codes_of_different_variants(pipeline, tmp_path,
                                                  capsys):
    root = tmp_path / "p"
    shutil.copytree(pipeline, root)
    qx, by = root / "e1" / "codes_x_query", root / "e2" / "codes_y_base"
    _edit_manifest(by, lambda m: m["info"].update(variant="wo_i"))
    _eval_refused(capsys, [
        "eval", "--query-codes", str(qx), "--base-codes", str(by),
        "--dataset", str(root / "d" / "dataset"), "--direction", "i2t",
        "--out", str(root / "ev")], qx, by)


@pytest.mark.parametrize("command", ["encode", "eval"])
def test_missing_codes_file_is_one_line_error(tmp_path, capsys, command):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    qx = _encode(tmp_path, data, run, "x", "query", "e1")
    by = _encode(tmp_path, data, run, "y", "base", "e2")
    if command == "encode":
        missing = run / "checkpoint_hash" / "codes.bin"
        argv = ["encode", "--checkpoint", str(run / "checkpoint_hash"),
                "--modality", "x"]
    else:
        missing = by / "codes.bin"
        argv = ["eval", "--query-codes", str(qx), "--base-codes", str(by),
                "--direction", "i2t"]
    missing.unlink()
    capsys.readouterr()
    code = run_cli([*argv, "--dataset", str(data / "dataset"),
                    "--out", str(tmp_path / "out")])
    # an unreadable input artifact is a validation error, like a CRC mismatch
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err
    assert len(err.strip().splitlines()) == 1


def _edit_manifest(container, edit):
    path = container / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _drop_manifest_key(container, *keys):
    """Delete manifest[keys[0]]...[keys[-1]]."""
    def drop(manifest):
        for key in keys[:-1]:
            manifest = manifest[key]
        del manifest[keys[-1]]
    _edit_manifest(container, drop)


def _one_line_error(capsys, prefix, key):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and repr(key) in err
    assert len(err.strip().splitlines()) == 1


def test_train_dataset_manifest_missing_key_is_one_line_error(tmp_path,
                                                              capsys):
    data = _gen(tmp_path)
    _drop_manifest_key(data / "dataset", "base_indices")
    capsys.readouterr()
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(tmp_path / "r")])
    # a rejected input artifact is a validation error, like a CRC mismatch
    assert code == 1
    _one_line_error(capsys, "error:", "base_indices")


@pytest.mark.parametrize("command", ["encode", "eval", "ablate"])
def test_dataset_manifest_missing_key_is_one_line_error(tmp_path, capsys,
                                                        command):
    data = _gen(tmp_path)
    out = tmp_path / "out"
    argv = {"ablate": ["ablate"]}
    if command != "ablate":
        run = _train(tmp_path, data)
        qx = _encode(tmp_path, data, run, "x", "query", "e1")
        by = _encode(tmp_path, data, run, "y", "base", "e2")
        argv["encode"] = ["encode", "--checkpoint",
                          str(run / "checkpoint_hash"), "--modality", "x"]
        argv["eval"] = ["eval", "--query-codes", str(qx), "--base-codes",
                        str(by), "--direction", "i2t"]
    _drop_manifest_key(data / "dataset", "base_indices")
    capsys.readouterr()
    code = run_cli([*argv[command], "--dataset", str(data / "dataset"),
                    "--out", str(out)])
    assert code == 1
    _one_line_error(capsys, "error:", "base_indices")
    assert not out.exists()


MALFORMED_MANIFESTS = {
    "truncated": lambda text: text[:len(text) // 2],
    "list": lambda text: b"[1, 2]",
    "not_utf8": lambda text: text.replace(b'"dataset"', b'"\xff\xfe"', 1)}


@pytest.mark.parametrize("damage", MALFORMED_MANIFESTS)
def test_malformed_dataset_manifest_is_one_line_error(tmp_path, capsys,
                                                      damage):
    data = _gen(tmp_path)
    path = data / "dataset" / "manifest.json"
    path.write_bytes(MALFORMED_MANIFESTS[damage](path.read_bytes()))
    capsys.readouterr()
    out = tmp_path / "r"
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a JSON")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_resume_checkpoint_manifest_missing_key_is_one_line_error(tmp_path,
                                                                  capsys):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    _drop_manifest_key(run / "checkpoint_ae", "nets")
    capsys.readouterr()
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(run), "--k", "4", "--max-epochs", "2",
                    "--seed", "0", "--resume"])
    # an unreadable phase-1 checkpoint is rejected input, as in encode
    assert code == 1
    _one_line_error(capsys, "error:", "nets")


def test_resume_checkpoint_without_loss_weight_is_refused(tmp_path, capsys):
    # a checkpoint that does not record alpha cannot show it matches the run
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    _drop_manifest_key(run / "checkpoint_ae", "hyper", "alpha")
    capsys.readouterr()
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(run), "--k", "4", "--max-epochs", "2",
                    "--seed", "0", "--alpha", "0.05", "--resume"])
    assert code == 1
    _one_line_error(capsys, "error:", "alpha")


def test_encode_unknown_variant_is_one_line_error(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    _edit_manifest(run / "checkpoint_hash",
                   lambda m: m["hyper"].update(variant="bogus"))
    capsys.readouterr()
    code = run_cli(["encode", "--checkpoint", str(run / "checkpoint_hash"),
                    "--dataset", str(data / "dataset"), "--modality", "x",
                    "--out", str(tmp_path / "e")])
    assert code == 1
    _one_line_error(capsys, "error:", "bogus")


def test_checkpoint_missing_net_is_one_line_error(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    _drop_manifest_key(run / "checkpoint_hash", "nets", "icae.dec_y")
    capsys.readouterr()
    code = run_cli(["encode", "--checkpoint", str(run / "checkpoint_hash"),
                    "--dataset", str(data / "dataset"), "--modality", "x",
                    "--out", str(tmp_path / "e")])
    assert code == 1
    _one_line_error(capsys, "error:", "icae.dec_y")


@pytest.mark.parametrize("command", ["encode", "train"])
def test_version_2_checkpoint_is_one_line_error(tmp_path, capsys, command):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    if command == "encode":
        ckpt = run / "checkpoint_hash"
        argv = ["encode", "--checkpoint", str(ckpt), "--modality", "x",
                "--out", str(tmp_path / "e")]
    else:
        ckpt = run / "checkpoint_ae"
        argv = ["train", "--out", str(run), "--k", "4", "--max-epochs", "2",
                "--seed", "0", "--resume"]
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["format_version"] = 2
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run_cli([*argv, "--dataset", str(data / "dataset")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "format_version 2" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_codes_manifest_missing_key_is_one_line_error(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    qx = _encode(tmp_path, data, run, "x", "query", "e1")
    by = _encode(tmp_path, data, run, "y", "base", "e2")
    _drop_manifest_key(by, "arrays", "codes", "shape")
    capsys.readouterr()
    code = run_cli(["eval", "--query-codes", str(qx), "--base-codes", str(by),
                    "--dataset", str(data / "dataset"),
                    "--direction", "i2t", "--out", str(tmp_path / "ev")])
    assert code == 1
    _one_line_error(capsys, "error:", "shape")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A dataset, a trained run and two codes containers, made once; each
    test works on its own copy."""
    root = tmp_path_factory.mktemp("pipeline")
    data = _gen(root)
    run = _train(root, data)
    _encode(root, data, run, "x", "query", "e1")
    _encode(root, data, run, "y", "base", "e2")
    return root


def _set_manifest_value(*keys, value):
    """An edit that sets manifest[keys[0]]...[keys[-1]] to ``value``."""
    def put(manifest):
        for key in keys[:-1]:
            manifest = manifest[key]
        manifest[keys[-1]] = value
    return lambda container: _edit_manifest(container, put)


def _drop_label_rows(container):
    """Cut the labels three rows short, with a shape and CRC-32 that fit."""
    path = container / "labels.bin"
    manifest = json.loads((container / "manifest.json").read_text())
    c = manifest["arrays"]["labels"]["shape"][1]
    data = path.read_bytes()[:-3 * c]
    path.write_bytes(data)
    _edit_manifest(container, lambda m: m["arrays"]["labels"].update(
        shape=[len(data) // c, c], crc32=zlib.crc32(data)))


def _flatten_codes(container):
    """Give the codes as one row of as many bits; the byte count fits."""
    def flatten(manifest):
        k, n = manifest["arrays"]["codes"]["shape"]
        manifest["arrays"]["codes"]["shape"] = [k * n]
    _edit_manifest(container, flatten)


def _empty_codes_of_no_room(container):
    """Empty codes.bin under a shape numpy cannot hold; with its zero
    column the file and the CRC-32 of no bytes fit the entry."""
    (container / "codes.bin").write_bytes(b"")
    _edit_manifest(container, lambda m: m["arrays"]["codes"].update(
        shape=[2 ** 62, 0], crc32=0))


def _move_array_out(name, absolute):
    """Move an array file next to its container and point its entry at it,
    by an absolute path or through ..; the file still fits the entry."""
    def move(container):
        moved = container.parent / f"moved_{name}.bin"
        (container / f"{name}.bin").rename(moved)
        _edit_manifest(container, lambda m: m["arrays"][name].update(
            file=str(moved) if absolute else f"../{moved.name}"))
    return move


BAD_ARTIFACTS = {
    "arrays_list": ("dataset", _set_manifest_value("arrays", value=[1])),
    "features_x_list": ("dataset", _set_manifest_value(
        "arrays", "features_x", value=[1])),
    "shape_string": ("dataset", _set_manifest_value(
        "arrays", "features_x", "shape", value="ab")),
    "base_indices_string": ("dataset", _set_manifest_value(
        "base_indices", value="ab")),
    "base_index_out_of_range": ("dataset", _set_manifest_value(
        "base_indices", 0, value=10 ** 6)),
    "query_index_negative": ("dataset", _set_manifest_value(
        "query_indices", 0, value=-1)),
    "labels_short": ("dataset", _drop_label_rows),
    "net_integer": ("checkpoint", _set_manifest_value(
        "nets", "icae.enc_ind_x", value=5)),
    "hyper_list": ("checkpoint", _set_manifest_value("hyper", value=[1])),
    "activation_relu": ("checkpoint", _set_manifest_value(
        "nets", "icae.enc_ind_x", 0, "activation", value="relu")),
    "info_list": ("codes", _set_manifest_value("info", value=[1])),
    "info_without_modality": ("codes", lambda container: _drop_manifest_key(
        container, "info", "modality")),
    "info_without_variant": ("codes", lambda container: _drop_manifest_key(
        container, "info", "variant")),
    "codes_one_row": ("codes", _flatten_codes),
    "codes_shape_too_big": ("codes", _empty_codes_of_no_room),
    "features_x_file_outside": ("dataset",
                                _move_array_out("features_x", False)),
    # encode --modality x and eval read no features_y, and refuse it alike
    "features_y_crc_string": ("dataset", _set_manifest_value(
        "arrays", "features_y", "crc32", value="ab")),
    "codes_file_absolute": ("codes", _move_array_out("codes", True)),
}


def _bad_artifact_cases():
    commands = {"dataset": ["train", "encode", "eval"],
                "checkpoint": ["resume", "encode"], "codes": ["eval"]}
    return [pytest.param(command, damage, id=f"{command}-{damage}")
            for damage, (kind, _) in BAD_ARTIFACTS.items()
            for command in commands[kind]]


@pytest.mark.parametrize("command, damage", _bad_artifact_cases())
def test_malformed_or_inconsistent_artifact_is_one_line_error(
        pipeline, tmp_path, capsys, command, damage):
    # exit 1 with one error: line that names the manifest, never a
    # traceback, whichever command reads the artifact
    root = tmp_path / "p"
    shutil.copytree(pipeline, root)
    data, run = root / "d" / "dataset", root / "run"
    qx, by = root / "e1" / "codes_x_query", root / "e2" / "codes_y_base"
    train = ["train", "--dataset", str(data), "--k", "4", "--max-epochs",
             "2", "--seed", "0"]
    argv = {"train": [*train, "--out", str(root / "r2")],
            "resume": [*train, "--out", str(run), "--resume"],
            "encode": ["encode", "--checkpoint", str(run / "checkpoint_hash"),
                       "--dataset", str(data), "--modality", "x",
                       "--out", str(root / "e3")],
            "eval": ["eval", "--query-codes", str(qx), "--base-codes",
                     str(by), "--dataset", str(data), "--direction", "i2t",
                     "--out", str(root / "ev")]}[command]
    kind, edit = BAD_ARTIFACTS[damage]
    ckpt = run / ("checkpoint_ae" if command == "resume"
                  else "checkpoint_hash")
    container = {"dataset": data, "codes": by, "checkpoint": ckpt}[kind]
    edit(container)
    capsys.readouterr()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {container / 'manifest.json'}: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["eval", "encode", "train"])
def test_each_command_reads_only_the_arrays_it_uses(
        pipeline, tmp_path, monkeypatch, command):
    data, run = pipeline / "d" / "dataset", pipeline / "run"
    qx, by = pipeline / "e1" / "codes_x_query", pipeline / "e2" / "codes_y_base"
    argv = {"eval": ["eval", "--query-codes", str(qx), "--base-codes",
                     str(by), "--dataset", str(data), "--direction", "i2t"],
            "encode": ["encode", "--checkpoint", str(run / "checkpoint_hash"),
                       "--dataset", str(data), "--modality", "x"],
            "train": ["train", "--dataset", str(data), "--k", "4",
                      "--max-epochs", "1", "--seed", "0"]}[command]
    read, real = [], store._read_array

    def spy(path, *entry):
        read.append(path)
        return real(path, *entry)
    monkeypatch.setattr(store, "_read_array", spy)
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 0
    from_dataset = sorted(p.name for p in read if p.parent == data)
    if command == "eval":
        assert sorted(read) == sorted([data / "labels.bin", qx / "codes.bin",
                                       by / "codes.bin"])
    elif command == "encode":
        assert from_dataset == ["features_x.bin"]
    else:
        assert from_dataset == sorted(p.name for p in data.glob("*.bin"))


# -------------------------------------------------------------------- ablate

def test_ablate_writes_all_variant_reports(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "ab"
    code = run_cli(["ablate", "--dataset", str(data / "dataset"),
                    "--out", str(out), "--k", "4", "--max-epochs", "1",
                    "--seed", "0"])
    assert code == 0
    summary = json.loads((out / "ablation_summary.json").read_text())
    expected = {"full", "wo_c", "wo_i", "wo_ic", "wo_meta_i", "wo_meta_t"}
    assert set(summary) == expected
    for name in expected:
        for direction in ("i2t", "t2i"):
            doc = json.loads(
                (out / f"report_{name}_{direction}.json").read_text())
            assert doc["format_version"] == store.FORMAT_VERSION
            assert doc["variant"] == name
            assert doc["direction"] == direction


@pytest.mark.parametrize("head", ["-1", "5"])
def test_ablate_rejects_out_of_range_head_count_before_training(
        tmp_path, capsys, monkeypatch, head):
    data = _gen(tmp_path)           # c = 4
    capsys.readouterr()

    def phase1(*args):
        raise AssertionError("phase 1 ran")
    monkeypatch.setattr(cli.experiment, "train_phase1", phase1)
    code = run_cli(["ablate", "--dataset", str(data / "dataset"),
                    "--out", str(tmp_path / "ab"), "--head-count", head])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--head-count" in err
    assert len(err.strip().splitlines()) == 1



def test_ablate_rejects_dataset_without_query_split_before_training(
        tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path, query=0)
    capsys.readouterr()

    def phase1(*args):
        raise AssertionError("phase 1 ran")
    monkeypatch.setattr(cli.experiment, "train_phase1", phase1)
    out = tmp_path / "ab"
    code = run_cli(["ablate", "--dataset", str(data / "dataset"),
                    "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no query split" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()

# ---------------------------------------------------------------- check-grad

SUITES = ("mlp_gradients", "hsic_value_and_grad", "j1_dual_form",
          "label_affinity_oracle", "loss1_gradients", "loss2_gradients",
          "sign_update_optimality", "map_oracle")


def _suite_verdicts(out):
    """Suite name -> PASS or FAIL, from check-grad's output lines."""
    return {line.split()[1].rstrip(":"): line.split()[0]
            for line in out.strip().splitlines()}


def test_check_grad_passes(capsys):
    assert run_cli(["check-grad", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert _suite_verdicts(out) == dict.fromkeys(SUITES, "PASS")


def test_check_grad_inject_bug_fails(capsys):
    # every suite can fail: each perturbs what it checks under the bug
    assert run_cli(["check-grad", "--seed", "0", "--inject-bug"]) == 3
    out = capsys.readouterr().out
    assert _suite_verdicts(out) == dict.fromkeys(SUITES, "FAIL")


def test_train_overflowing_label_affinity_is_one_line_runtime_error(
        tmp_path, capsys):
    # finite features whose squared distances overflow float64
    data = _gen(tmp_path)
    ds = store.load_dataset(data / "dataset")
    ds.Fx_raw *= 1e160
    store.save_dataset(ds, tmp_path / "big" / "dataset")
    capsys.readouterr()
    out = tmp_path / "run"
    code = run_cli(["train", "--dataset", str(tmp_path / "big" / "dataset"),
                    "--out", str(out), "--k", "4", "--max-epochs", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: base x features are too large")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "checkpoint_ae").exists()


def test_train_diverging_phase_one_is_one_line_runtime_error(tmp_path,
                                                             capsys):
    data = _gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "run"
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(out), "--k", "4", "--max-epochs", "2",
                    "--seed", "0", "--lr-ae", "1e30"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: non-finite")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "checkpoint_ae").exists()


def test_train_growing_phase_one_loss_is_one_line_runtime_error(tmp_path,
                                                                capsys):
    # at this step the losses stay finite (epoch means 5.76, then 2.2e18)
    data = _gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "run"
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(out), "--k", "4", "--max-epochs", "2",
                    "--seed", "0", "--lr-ae", "1e9"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: phase 1 diverged")
    assert len(err.strip().splitlines()) == 1
    # the message names the batch's terms, so the one that grew shows
    assert all(f"{term}=" in err for term in ("j1", "j2", "j3"))
    assert not (out / "checkpoint_ae").exists()


def test_checkpoints_store_float64_and_resume_loads_them(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    for phase, codes in (("ae", set()), ("hash", {"bits"})):
        manifest = json.loads(
            (run / f"checkpoint_{phase}" / "manifest.json").read_text())
        # every real array as <f8; the hash checkpoint adds packed codes
        dtypes = [e["dtype"] for e in manifest["arrays"].values()]
        assert set(dtypes) == {"float64"} | codes
    ae = store.load_checkpoint(run / "checkpoint_ae", expect_phase="ae")
    assert all(layer.weight.dtype == np.dtype("<f8")
               for net in ae.icae.nets().values() for layer in net.layers)
    code = run_cli(["train", "--dataset", str(data / "dataset"),
                    "--out", str(run), "--k", "4", "--max-epochs", "2",
                    "--seed", "0", "--resume"])
    assert code == 0
