"""On-disk container formats: exact round-trips and typed failure modes."""

import dataclasses
import json
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from tailhash import autoencoder, datagen, experiment, hashing, retrieval, store


def _dataset(seed=0):
    spec = datagen.LongTailSpec(c=4, z1=30, imbalance_factor=6.0,
                                raw_dim_x=10, raw_dim_y=8, shared_dim=3,
                                private_dim=2, noise_sigma=0.2,
                                exclusive_tail_fraction=0.5,
                                secondary_label_prob=0.4, seed=seed)
    ds = datagen.generate(spec)
    return datagen.split(ds, 8, seed=seed)


# ------------------------------------------------------------------- datasets

def test_dataset_roundtrip_exact(tmp_path):
    ds = _dataset()
    store.save_dataset(ds, tmp_path / "d")
    back = store.load_dataset(tmp_path / "d")
    np.testing.assert_array_equal(back.Fx_raw, ds.Fx_raw)
    np.testing.assert_array_equal(back.Fy_raw, ds.Fy_raw)
    np.testing.assert_array_equal(back.L, ds.L)
    np.testing.assert_array_equal(back.base_indices, ds.base_indices)
    np.testing.assert_array_equal(back.query_indices, ds.query_indices)
    np.testing.assert_array_equal(back.meta["label_counts"],
                                  ds.meta["label_counts"])
    np.testing.assert_array_equal(back.meta["exclusive_labels"],
                                  ds.meta["exclusive_labels"])
    for name, arr in ds.meta["arrays"].items():
        np.testing.assert_array_equal(back.meta["arrays"][name], arr)
    assert back.meta["spec"]["noise_sigma"] == 0.2


def test_dataset_corrupted_byte_raises_checksum_error(tmp_path):
    ds = _dataset()
    store.save_dataset(ds, tmp_path / "d")
    target = tmp_path / "d" / "features_x.bin"
    data = bytearray(target.read_bytes())
    data[10] ^= 0xFF
    target.write_bytes(bytes(data))
    with pytest.raises(store.ChecksumError):
        store.load_dataset(tmp_path / "d")


def test_dataset_truncated_file_raises(tmp_path):
    ds = _dataset()
    store.save_dataset(ds, tmp_path / "d")
    target = tmp_path / "d" / "features_y.bin"
    target.write_bytes(target.read_bytes()[:-16])
    with pytest.raises(store.TruncatedFileError):
        store.load_dataset(tmp_path / "d")


@pytest.mark.parametrize("kind", ["float64", "bits"])
def test_array_file_with_trailing_bytes_refused(tmp_path, kind):
    if kind == "float64":
        store.save_dataset(_dataset(), tmp_path / "d")
        target, load = tmp_path / "d" / "features_x.bin", store.load_dataset
    else:
        store.save_codes(tmp_path / "d", np.ones((4, 9)))
        target, load = tmp_path / "d" / "codes.bin", store.load_codes
    size = target.stat().st_size
    target.write_bytes(target.read_bytes() + b"\0")
    with pytest.raises(store.TruncatedFileError,
                       match=f"^{re.escape(str(target))}: expected {size} "
                             f"bytes, found {size + 1}$"):
        load(tmp_path / "d")


def test_loaded_arrays_are_c_ordered_writable_and_own_their_data(tmp_path):
    store.save_dataset(_dataset(), tmp_path / "d")
    ds = store.load_dataset(tmp_path / "d")
    store.save_codes(tmp_path / "c", np.ones((4, 9)))
    codes, _ = store.load_codes(tmp_path / "c")
    for arr in (ds.Fx_raw, ds.Fy_raw, ds.L, *ds.meta["arrays"].values(),
                codes):
        assert arr.flags.c_contiguous and arr.flags.writeable
        assert arr.flags.owndata


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _array_bytes(ds) -> int:
    return sum(a.nbytes for a in (ds.Fx_raw, ds.Fy_raw, ds.L,
                                  *ds.meta["arrays"].values()))


@pytest.fixture(scope="module")
def sizable_dataset():
    # about 3.7 MB of arrays, so that the manifest's index lists stay small
    # beside them
    spec = datagen.LongTailSpec(c=8, z1=1500, imbalance_factor=8.0, seed=0)
    return datagen.split(datagen.generate(spec), 200, seed=0)


def test_load_dataset_memory_is_about_its_arrays(tmp_path, sizable_dataset):
    # tracemalloc sees numpy's data buffers: each array is read into its
    # final buffer, with no bytes object or copy beside it
    store.save_dataset(sizable_dataset, tmp_path / "d")
    ds, peak = _traced_peak(store.load_dataset, tmp_path / "d")
    assert peak <= 1.15 * _array_bytes(ds)


def test_save_dataset_memory_is_a_fraction_of_its_arrays(tmp_path,
                                                          sizable_dataset):
    # each array is written, and checksummed, from its own buffer
    _, peak = _traced_peak(store.save_dataset, sizable_dataset,
                           tmp_path / "d")
    assert peak <= 0.3 * _array_bytes(sizable_dataset)


def test_dataset_version_mismatch_raises(tmp_path):
    ds = _dataset()
    store.save_dataset(ds, tmp_path / "d")
    mpath = tmp_path / "d" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["format_version"] = 999
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(store.FormatVersionError):
        store.load_dataset(tmp_path / "d")


def test_dataset_missing_path_raises(tmp_path):
    with pytest.raises(store.StoreError):
        store.load_dataset(tmp_path / "nothing_here")


LOADERS = {"dataset": store.load_dataset, "codes": store.load_codes,
           "checkpoint": store.load_checkpoint}


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("text, detail", [
    (b'{"format_version": 5, "ki', "not a JSON manifest: Unterminated"),
    (b"[1, 2]", "not a JSON object"),
    (b"null", "not a JSON object"),
    (b'{"kind": "\xff"}', "not a JSON manifest: 'utf-8' codec")],
    ids=["truncated", "list", "null", "not_utf8"])
def test_malformed_manifest_raises_store_error_naming_it(tmp_path, kind,
                                                         text, detail):
    path = tmp_path / "manifest.json"
    path.write_bytes(text)
    with pytest.raises(store.StoreError,
                       match=f"^{re.escape(str(path))}: {detail}"):
        LOADERS[kind](tmp_path)


@pytest.mark.parametrize("kind", LOADERS)
def test_container_of_another_kind_raises_store_error(tmp_path, kind):
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"format_version": store.FORMAT_VERSION, "kind": "other"}))
    with pytest.raises(store.StoreError,
                       match=f"^{re.escape(str(tmp_path))} is not a {kind} "
                             f"container$"):
        LOADERS[kind](tmp_path)


def _edit(container, edit):
    mpath = container / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))


def test_dataset_fingerprint_is_the_verified_feature_crc32s(tmp_path):
    ds = _dataset()
    store.save_dataset(ds, tmp_path / "d")
    back = store.load_dataset(tmp_path / "d")
    assert back.meta["fingerprint"] == {
        f"features_{m}_crc32": zlib.crc32(np.ascontiguousarray(
            arr, dtype="<f8").tobytes())
        for m, arr in (("x", ds.Fx_raw), ("y", ds.Fy_raw))}


@pytest.mark.parametrize("edit, detail", [
    (lambda m: m["base_indices"].__setitem__(0, 10 ** 6), "split indices"),
    (lambda m: m["query_indices"].__setitem__(0, -1),
     "query_indices must be a list of non-negative integers"),
    (lambda m: m["query_indices"].append(m["base_indices"][0]),
     "split indices"),
    (lambda m: m["base_indices"].append(m["base_indices"][-1]),
     "split indices"),
    (lambda m: m["label_counts"].pop(), "label_counts must hold 4 counts")],
    ids=["index_out_of_range", "negative_index", "in_both_splits",
         "repeated_index", "label_count_missing"])
def test_inconsistent_dataset_refused(tmp_path, edit, detail):
    store.save_dataset(_dataset(), tmp_path / "d")
    _edit(tmp_path / "d", edit)
    with pytest.raises(store.StoreError, match=re.escape(
            f"{tmp_path / 'd' / 'manifest.json'}: ") + ".*" + detail):
        store.load_dataset(tmp_path / "d")


@pytest.mark.parametrize("name", [
    "absolute", "../moved_features_x.bin", "sub/features_x.bin", ".", "..",
    ""])
def test_array_file_outside_the_container_refused(tmp_path, name):
    # each name points at a copy of the features that fits the entry, where
    # the name allows one; only a plain name inside the container is read
    store.save_dataset(_dataset(), tmp_path / "d")
    data = (tmp_path / "d" / "features_x.bin").read_bytes()
    (tmp_path / "moved_features_x.bin").write_bytes(data)
    (tmp_path / "d" / "sub").mkdir()
    (tmp_path / "d" / "sub" / "features_x.bin").write_bytes(data)
    if name == "absolute":
        name = str(tmp_path / "moved_features_x.bin")
    _edit(tmp_path / "d",
          lambda m: m["arrays"]["features_x"].update(file=name))
    with pytest.raises(store.StoreError, match=re.escape(
            f"{tmp_path / 'd' / 'manifest.json'}: arrays.features_x.file "
            f"must be a plain file name")):
        store.load_dataset(tmp_path / "d")


def test_dataset_labels_short_of_rows_refused(tmp_path):
    # a labels file three rows short, with a CRC-32 and shape that fit it
    ds = _dataset()
    store.save_dataset(ds, tmp_path / "d")
    L = ds.L[:-3].astype(np.uint8)
    (tmp_path / "d" / "labels.bin").write_bytes(L.tobytes())

    def shorten(m):
        m["arrays"]["labels"].update(shape=list(L.shape),
                                     crc32=zlib.crc32(L.tobytes()))
    _edit(tmp_path / "d", shorten)
    with pytest.raises(store.StoreError, match="are not as many rows"):
        store.load_dataset(tmp_path / "d")


# ---------------------------------------------------------------------- codes

def test_code_bit_packing_roundtrip():
    rng = np.random.default_rng(1)
    B = np.where(rng.random((16, 37)) < 0.5, 1.0, -1.0)
    packed = store.pack_codes(B)
    np.testing.assert_array_equal(store.unpack_codes(packed, B.shape), B)


def test_codes_container_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    B = np.where(rng.random((8, 21)) < 0.5, 1.0, -1.0)
    store.save_codes(tmp_path / "c", B, info={"modality": "x"})
    back, info = store.load_codes(tmp_path / "c")
    np.testing.assert_array_equal(back, B)
    assert info["modality"] == "x"


@pytest.mark.parametrize("stored, claimed", [((8, 40), [8, 48]),
                                             ((8, 370), [16, 370])],
                         ids=["wider", "taller"])
def test_codes_shape_mismatch_refused(tmp_path, stored, claimed):
    # a manifest shape that does not fit codes.bin's length is refused,
    # whatever the CRC-32 says
    rng = np.random.default_rng(4)
    B = np.where(rng.random(stored) < 0.5, 1.0, -1.0)
    store.save_codes(tmp_path / "c", B)
    mpath = tmp_path / "c" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["arrays"]["codes"]["shape"] = claimed
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(store.TruncatedFileError):
        store.load_codes(tmp_path / "c")


def test_codes_unknown_dtype_refused(tmp_path):
    store.save_codes(tmp_path / "c", np.ones((4, 9)))
    mpath = tmp_path / "c" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["arrays"]["codes"]["dtype"] = "int4"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(store.StoreError, match="unknown dtype 'int4'"):
        store.load_codes(tmp_path / "c")


def test_codes_of_one_dimension_refused(tmp_path):
    # the same bits as one row: the packed byte count still fits
    store.save_codes(tmp_path / "c", np.ones((4, 9)))
    _edit(tmp_path / "c", lambda m: m["arrays"]["codes"].update(shape=[36]))
    with pytest.raises(store.StoreError, match=r"codes must be a \(k, n\)"):
        store.load_codes(tmp_path / "c")


def test_codes_corruption_detected(tmp_path):
    B = np.ones((4, 9))
    store.save_codes(tmp_path / "c", B)
    target = tmp_path / "c" / "codes.bin"
    data = bytearray(target.read_bytes())
    data[0] ^= 0x01
    target.write_bytes(bytes(data))
    with pytest.raises(store.ChecksumError):
        store.load_codes(tmp_path / "c")


# ---------------------------------------------------------------- checkpoints

def _trained(seed=0):
    ds = _dataset(seed)
    cfg = experiment.RunConfig(k=4, max_epochs=2, seed=seed)
    model = experiment.train_full(ds, cfg)
    return ds, model


def test_checkpoint_roundtrip_forward_bit_identical(tmp_path):
    ds, model = _trained()
    store.save_checkpoint(tmp_path / "ck", "hash", model.icae, model.side,
                          hyper={"k": 4}, loss_trace=model.loss2_trace,
                          B=model.B)
    ckpt = store.load_checkpoint(tmp_path / "ck")
    assert ckpt.phase == "hash"
    assert ckpt.loss_trace == model.loss2_trace
    np.testing.assert_array_equal(ckpt.B, model.B)
    # forward pass on a probe batch is bit-identical after reload
    Xq, Yq, _ = ds.query()
    for modality, raw in (("x", Xq), ("y", Yq)):
        before = retrieval.encode_query(modality, raw, model.icae, model.side)
        after = retrieval.encode_query(modality, raw, ckpt.icae, ckpt.side)
        np.testing.assert_array_equal(before, after)
    # every field of each modality's calibration survives the round-trip
    # exactly, scalars as floats
    assert ckpt.icae.calibration.keys() == {"x", "y"}
    for mod, cal in model.icae.calibration.items():
        back = ckpt.icae.calibration[mod]
        for field in dataclasses.fields(cal):
            want = getattr(cal, field.name)
            got = getattr(back, field.name)
            assert type(got) is type(want), field.name
            np.testing.assert_array_equal(got, want, err_msg=field.name)


def test_checkpoint_refuses_uncalibrated_autoencoder(tmp_path):
    ds = _dataset()
    icae, side = experiment.init_params(ds, experiment.RunConfig(k=4))
    with pytest.raises(ValueError, match="calibrate"):
        store.save_checkpoint(tmp_path / "ck", "ae", icae, side, hyper={},
                              loss_trace=[])
    assert not (tmp_path / "ck").exists()


def test_checkpoint_missing_calibration_array_refused(tmp_path):
    _, model = _trained(1)
    store.save_checkpoint(tmp_path / "ck", "ae", model.icae, model.side,
                          hyper={}, loss_trace=[1.0])
    mpath = tmp_path / "ck" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    del manifest["arrays"]["icae.y.out_scale"]
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(store.StoreError, match="'icae.y.out_scale'"):
        store.load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_checkpoint_old_version_refused(tmp_path, version):
    # version-1 checkpoints lack the label memories and hold uncentred
    # individuality scales; version-2 checkpoints hold direct-feature maps
    # that the current autoencoder no longer has; version-3 checkpoints keep
    # B outside the manifest's arrays and take unrecorded loss weights as
    # 0.05; version-4 checkpoints keep the calibration under
    # icae.code_scale.* and icae.memory.* names
    _, model = _trained(2)
    store.save_checkpoint(tmp_path / "ck", "hash", model.icae, model.side,
                          hyper={}, loss_trace=[1.0], B=model.B)
    mpath = tmp_path / "ck" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["format_version"] = version
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(store.FormatVersionError):
        store.load_checkpoint(tmp_path / "ck")


def test_checkpoint_phase_mismatch(tmp_path):
    _, model = _trained(1)
    store.save_checkpoint(tmp_path / "ck", "ae", model.icae, model.side,
                          hyper={}, loss_trace=[1.0])
    with pytest.raises(store.PhaseMismatchError):
        store.load_checkpoint(tmp_path / "ck", expect_phase="hash")


def test_checkpoint_rejects_bad_phase(tmp_path):
    _, model = _trained(2)
    with pytest.raises(ValueError):
        store.save_checkpoint(tmp_path / "ck", "warmup", model.icae,
                              model.side, hyper={}, loss_trace=[])


def test_checkpoint_corrupted_weights_detected(tmp_path):
    _, model = _trained(3)
    store.save_checkpoint(tmp_path / "ck", "hash", model.icae, model.side,
                          hyper={}, loss_trace=[])
    target = tmp_path / "ck" / "icae.enc_common.l0.weight.bin"
    data = bytearray(target.read_bytes())
    data[4] ^= 0xFF
    target.write_bytes(bytes(data))
    with pytest.raises(store.ChecksumError):
        store.load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("edit, detail", [
    (lambda m: m["nets"]["icae.enc_ind_x"][0].update(activation="relu"),
     "nets.icae.enc_ind_x: unknown activation 'relu'"),
    # the second layer's weight taken from another net: it fits no bias
    (lambda m: m["arrays"].update({"icae.enc_ind_x.l1.weight":
                                   m["arrays"]["icae.dec_x.l1.weight"]}),
     "nets.icae.enc_ind_x: weight must be"),
    # the second layer taken from a 4 -> 4 net: the layers do not chain
    (lambda m: m["arrays"].update({
        "icae.enc_ind_x.l1." + part: m["arrays"]["side.x.selector1.l0." + part]
        for part in ("weight", "bias")}),
     "nets.icae.enc_ind_x: layer dims do not chain"),
    (lambda m: m["nets"].update({"icae.enc_ind_x": []}),
     "nets.icae.enc_ind_x must be a non-empty list"),
    (lambda m: m["nets"]["icae.dec_y"].__setitem__(0, "s"),
     r"nets.icae.dec_y\[0\] must be an object"),
    (lambda m: m["loss_trace"].append(None),
     "loss_trace must be a list of numbers")],
    ids=["activation", "bias_mismatch", "unchained", "no_layers",
         "layer_string", "loss_trace_null"])
def test_checkpoint_bad_net_or_trace_refused(tmp_path, edit, detail):
    _, model = _trained(1)
    store.save_checkpoint(tmp_path / "ck", "ae", model.icae, model.side,
                          hyper={}, loss_trace=[1.0])
    _edit(tmp_path / "ck", edit)
    with pytest.raises(store.StoreError, match=re.escape(
            f"{tmp_path / 'ck' / 'manifest.json'}: ") + detail):
        store.load_checkpoint(tmp_path / "ck")


# ------------------------------------------------------- manifest mutations

@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """One container of each kind, as the loaders' tests write them."""
    root = tmp_path_factory.mktemp("containers")
    ds, model = _trained()
    store.save_dataset(ds, root / "dataset")
    store.save_codes(root / "codes", model.B, info={"modality": "x"})
    store.save_checkpoint(root / "checkpoint", "hash", model.icae,
                          model.side, hyper={"k": 4, "variant": "full"},
                          loss_trace=model.loss2_trace, B=model.B)
    return root


def _manifest_paths(value, path=()):
    """The path of every value in a manifest: each key of an object and the
    first item of a list, at any depth."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))[:1]
    else:
        items = []
    for key, inner in items:
        yield path + (key,)
        yield from _manifest_paths(inner, path + (key,))


REPLACEMENTS = {"list": [], "object": {}, "string": "s", "float": 1.5,
                "null": None}


@pytest.mark.parametrize("replacement", REPLACEMENTS)
@pytest.mark.parametrize("kind", LOADERS)
def test_manifest_with_any_value_replaced_loads_or_raises_store_error(
        containers, kind, replacement):
    # every value a loader reads, at any depth, replaced by a value of
    # another type: the loader returns or raises StoreError, never another
    # exception
    mpath = containers / kind / "manifest.json"
    text = mpath.read_text()
    paths = list(_manifest_paths(json.loads(text)))
    failures = []
    try:
        for path in paths:
            manifest = json.loads(text)
            target = manifest
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = REPLACEMENTS[replacement]
            mpath.write_text(json.dumps(manifest))
            try:
                LOADERS[kind](containers / kind)
            except store.StoreError:
                pass
            except Exception as e:     # reported below
                failures.append(f"{path}: {type(e).__name__}: {e}")
    finally:
        mpath.write_text(text)
    assert len(paths) > 10
    assert not failures, "\n".join(failures)


# -------------------------------------------------------------------- reports

def _report():
    return retrieval.EvalReport(
        direction="i2t", map=0.654321987, precision_at=[(10, 0.5), (50, 0.25)],
        per_label_map=[0.4, None], head_tail_split_index=1, head_map=0.4,
        tail_map=None, n_queries=10, n_excluded=1, runtime=0.01,
        variant="full")


def test_report_json_roundtrip(tmp_path):
    r = _report()
    store.write_reports(r, tmp_path / "r")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["format_version"] == store.FORMAT_VERSION
    assert doc["map"] == r.map
    assert doc["direction"] == "i2t"
    assert doc["per_label_map"] == [0.4, None]
    assert doc["precision_at"] == [[10, 0.5], [50, 0.25]]


def test_report_csv_schema(tmp_path):
    r = _report()
    store.write_reports(r, tmp_path / "r")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert header == store.CSV_HEADER
    assert len(row) == len(header)
    # MAP serialized with 6 decimal places
    assert row[header.index("map")] == "0.654322"
