"""On-disk container formats: exact round-trips and typed failure modes."""

import dataclasses
import json

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


# -------------------------------------------------------------------- reports

def _report():
    return retrieval.EvalReport(
        direction="i2t", map=0.654321987, precision_at=[(10, 0.5), (50, 0.25)],
        per_label_map=[0.4, None], head_tail_split_index=1, head_map=0.4,
        tail_map=None, n_queries=10, n_excluded=1, runtime=0.01,
        variant="full")


def test_report_json_roundtrip(tmp_path):
    r = _report()
    store.emit_report(r, "json", tmp_path / "r.json")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["format_version"] == store.FORMAT_VERSION
    assert doc["map"] == r.map
    assert doc["direction"] == "i2t"
    assert doc["per_label_map"] == [0.4, None]
    assert doc["precision_at"] == [[10, 0.5], [50, 0.25]]


def test_report_csv_schema(tmp_path):
    r = _report()
    store.emit_report(r, "csv", tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert header == store.CSV_HEADER
    assert len(row) == len(header)
    # MAP serialized with 6 decimal places
    assert row[header.index("map")] == "0.654322"


def test_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        store.emit_report(_report(), "xml", tmp_path / "r.xml")
