"""Bit-exact on-disk formats for datasets, checkpoints, codes and reports.

Each container is a directory holding a ``manifest.json`` plus one raw binary
file per matrix: little-endian float64 row-major for real arrays, one byte
per cell (0/1) for label matrices, packed bits for hash codes (-1 stored as
0, in ``codes.bin``). Every array has one entry under the manifest's
``arrays`` with its file, dtype, shape and CRC-32, and is checked against
all of them on load. All formats share one ``format_version``, and a
container of any other version is refused.

Version 5 checkpoints hold the five autoencoder nets, each modality's
calibration record (``icae.<modality>.<field>``: the individuality centring
and scale, the commonality scale and the label memory), a single
(commonality) selector per modality and, after phase 2, the unified codes
B. Their ``hyper`` is the caller's record of the run (the CLI writes the
whole run configuration plus the dataset fingerprint or the variant); this
module does not interpret it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from . import autoencoder, meta, nn
from .datagen import Dataset
from .retrieval import EvalReport

FORMAT_VERSION = 5

CSV_HEADER = ["direction", "variant", "map", "head_map", "tail_map",
              "head_tail_split_index", "n_queries", "n_excluded",
              "precision_at", "runtime"]


class StoreError(Exception):
    """Base class for container format errors."""


class ChecksumError(StoreError):
    pass


class FormatVersionError(StoreError):
    pass


class TruncatedFileError(StoreError):
    pass


class PhaseMismatchError(StoreError):
    pass


_DTYPES = {"float64": "<f8", "uint8": "u1"}
BITS = "bits"   # a +/-1 matrix packed one bit per cell


def pack_codes(B: np.ndarray) -> bytes:
    """Bit-pack a +/-1 matrix (-1 stored as 0)."""
    return np.packbits(np.asarray(B) > 0).tobytes()


def unpack_codes(data: bytes, shape: tuple[int, int]) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=int(np.prod(shape)))
    return np.where(bits.reshape(shape) > 0, 1.0, -1.0)


def _array_bytes(arr: np.ndarray, dtype: Optional[str] = None
                 ) -> tuple[str, bytes]:
    """(dtype name, bytes) of an array as written to disk; dtype BITS packs
    a +/-1 matrix, otherwise the dtype follows the array."""
    if dtype == BITS:
        return BITS, pack_codes(arr)
    if arr.dtype == np.uint8:
        return "uint8", np.ascontiguousarray(arr).tobytes()
    return "float64", np.ascontiguousarray(arr, dtype="<f8").tobytes()


def array_crc32(arr: np.ndarray) -> int:
    """CRC-32 of an array's on-disk bytes, as its manifest entry records it."""
    return zlib.crc32(_array_bytes(arr)[1])


def _write_array(root: Path, name: str, arr: np.ndarray,
                 dtype: Optional[str] = None) -> dict:
    dtype, data = _array_bytes(arr, dtype)
    fname = name + ".bin"
    (root / fname).write_bytes(data)
    return {"file": fname, "dtype": dtype, "shape": list(arr.shape),
            "crc32": zlib.crc32(data)}


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise StoreError(f"cannot read {path}: {e}") from e


def _read_array(root: Path, entry: dict) -> np.ndarray:
    path = root / entry["file"]
    data = _read_bytes(path)
    shape = tuple(entry["shape"])
    kind = entry["dtype"]
    if kind == BITS:
        expected = (int(np.prod(shape)) + 7) // 8
    elif kind in _DTYPES:
        expected = int(np.prod(shape)) * np.dtype(_DTYPES[kind]).itemsize
    else:
        raise StoreError(f"{path}: unknown dtype {kind!r}")
    if len(data) != expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} bytes, found {len(data)}")
    if zlib.crc32(data) != entry["crc32"]:
        raise ChecksumError(f"{path}: CRC-32 mismatch")
    if kind == BITS:
        return unpack_codes(data, shape)
    return np.frombuffer(data, dtype=_DTYPES[kind]).reshape(shape).copy()


def _write_manifest(root: Path, manifest: dict) -> None:
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1))


class _Manifest(dict):
    """A manifest object, at any depth, whose missing keys raise StoreError
    naming the key and the file instead of a bare KeyError."""
    path: Optional[Path] = None

    def __missing__(self, key):
        raise StoreError(f"{self.path}: missing key {key!r}")


def _read_manifest(root: Path) -> dict:
    path = Path(root) / "manifest.json"
    if not path.is_file():
        raise StoreError(f"no manifest at {path}")

    def manifest_object(pairs):
        obj = _Manifest(pairs)
        obj.path = path
        return obj

    manifest = json.loads(path.read_text(), object_pairs_hook=manifest_object)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: format_version {manifest.get('format_version')}, "
            f"expected {FORMAT_VERSION}")
    return manifest


# ---------------------------------------------------------------- datasets

def save_dataset(dataset: Dataset, path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    arrays = {
        "features_x": _write_array(root, "features_x", dataset.Fx_raw),
        "features_y": _write_array(root, "features_y", dataset.Fy_raw),
        "labels": _write_array(root, "labels",
                               dataset.L.astype(np.uint8)),
    }
    for name, arr in dataset.meta.get("arrays", {}).items():
        arrays["meta." + name] = _write_array(root, "meta." + name, arr)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "dataset",
        "n": int(dataset.n),
        "c": int(dataset.c),
        "raw_dim_x": int(dataset.Fx_raw.shape[1]),
        "raw_dim_y": int(dataset.Fy_raw.shape[1]),
        "label_counts": [int(v) for v in dataset.meta.get(
            "label_counts", dataset.L.sum(axis=0))],
        "realized_label_counts": [int(v) for v in dataset.meta.get(
            "realized_label_counts", dataset.L.sum(axis=0))],
        "exclusive_labels": [int(v) for v in
                             dataset.meta.get("exclusive_labels", [])],
        "spec": dataset.meta.get("spec", {}),
        "base_indices": [int(i) for i in dataset.base_indices],
        "query_indices": [int(i) for i in dataset.query_indices],
        "arrays": arrays,
    }
    _write_manifest(root, manifest)


def load_dataset(path) -> Dataset:
    root = Path(path)
    m = _read_manifest(root)
    if m.get("kind") != "dataset":
        raise StoreError(f"{root} is not a dataset container")
    meta_arrays = {}
    for name, entry in m["arrays"].items():
        if name.startswith("meta."):
            meta_arrays[name[len("meta."):]] = _read_array(root, entry)
    return Dataset(
        Fx_raw=_read_array(root, m["arrays"]["features_x"]),
        Fy_raw=_read_array(root, m["arrays"]["features_y"]),
        L=_read_array(root, m["arrays"]["labels"]),
        base_indices=np.asarray(m["base_indices"], dtype=np.int64),
        query_indices=np.asarray(m["query_indices"], dtype=np.int64),
        meta={
            "spec": m["spec"],
            "label_counts": np.asarray(m["label_counts"], dtype=np.int64),
            "realized_label_counts": np.asarray(
                m["realized_label_counts"], dtype=np.int64),
            "exclusive_labels": np.asarray(m["exclusive_labels"],
                                           dtype=np.int64),
            "arrays": meta_arrays,
        })


# ------------------------------------------------------------------- codes

def save_codes(path, B: np.ndarray, info: Optional[dict] = None) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _write_manifest(root, {
        "format_version": FORMAT_VERSION,
        "kind": "codes",
        "arrays": {"codes": _write_array(root, "codes", B, BITS)},
        "info": info or {},
    })


def load_codes(path) -> tuple[np.ndarray, dict]:
    root = Path(path)
    m = _read_manifest(root)
    if m.get("kind") != "codes":
        raise StoreError(f"{root} is not a codes container")
    return _read_array(root, m["arrays"]["codes"]), m["info"]


# ------------------------------------------------------------- checkpoints

def _net_manifest(net: nn.Mlp) -> list[dict]:
    return [{"in": l.in_dim, "out": l.out_dim, "activation": l.activation}
            for l in net.layers]


def _save_net(root: Path, name: str, net: nn.Mlp, arrays: dict) -> list[dict]:
    for i, layer in enumerate(net.layers):
        arrays[f"{name}.l{i}.weight"] = _write_array(
            root, f"{name}.l{i}.weight", layer.weight)
        arrays[f"{name}.l{i}.bias"] = _write_array(
            root, f"{name}.l{i}.bias", layer.bias)
    return _net_manifest(net)


def _load_net(root: Path, name: str, spec: list[dict], arrays: dict) -> nn.Mlp:
    layers = []
    for i, ls in enumerate(spec):
        w = _read_array(root, arrays[f"{name}.l{i}.weight"])
        b = _read_array(root, arrays[f"{name}.l{i}.bias"])
        layers.append(nn.DenseLayer(w, b, ls["activation"]))
    return nn.Mlp(layers)


@dataclasses.dataclass
class Checkpoint:
    phase: str                    # "ae" or "hash"
    icae: autoencoder.IcaeParams
    side: meta.HashSideParams
    hyper: dict                   # missing keys raise StoreError
    loss_trace: list[float]
    B: Optional[np.ndarray] = None


def save_checkpoint(path, phase: str, icae: autoencoder.IcaeParams,
                    side: meta.HashSideParams, hyper: dict,
                    loss_trace: list[float],
                    B: Optional[np.ndarray] = None) -> None:
    if phase not in ("ae", "hash"):
        raise ValueError("phase must be 'ae' or 'hash'")
    if icae.calibration is None:
        raise ValueError("calibrate the autoencoder before saving it")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    arrays: dict = {}
    nets = {}
    for name, net in icae.nets().items():
        nets["icae." + name] = _save_net(root, "icae." + name, net, arrays)
    for mod, cal in icae.calibration.items():
        for field in dataclasses.fields(cal):
            key = f"icae.{mod}.{field.name}"
            arrays[key] = _write_array(
                root, key, np.atleast_1d(getattr(cal, field.name)))
    for mod in ("x", "y"):
        sv = getattr(side, mod)
        for part in ("projector", "selector1"):
            key = f"side.{mod}.{part}"
            nets[key] = _save_net(root, key, getattr(sv, part), arrays)
    if B is not None:
        arrays["codes"] = _write_array(root, "codes", B, BITS)
    _write_manifest(root, {
        "format_version": FORMAT_VERSION,
        "kind": "checkpoint",
        "phase": phase,
        "hyper": hyper,
        "loss_trace": [float(v) for v in loss_trace],
        "nets": nets,
        "arrays": arrays,
    })


def _load_calibration(root: Path, arrays: dict, mod: str
                      ) -> autoencoder.Calibration:
    values = {}
    for field in dataclasses.fields(autoencoder.Calibration):
        arr = _read_array(root, arrays[f"icae.{mod}.{field.name}"])
        # scalars are stored as one-element arrays
        values[field.name] = float(arr[0]) if field.type == "float" else arr
    return autoencoder.Calibration(**values)


def load_checkpoint(path, expect_phase: Optional[str] = None) -> Checkpoint:
    root = Path(path)
    m = _read_manifest(root)
    if m.get("kind") != "checkpoint":
        raise StoreError(f"{root} is not a checkpoint container")
    if expect_phase is not None and m["phase"] != expect_phase:
        raise PhaseMismatchError(
            f"{root}: phase {m['phase']!r}, expected {expect_phase!r}")
    # m["nets"] is a manifest object: a missing net raises StoreError
    net = lambda name: _load_net(root, name, m["nets"][name], m["arrays"])
    # m["arrays"] is a manifest object too: a missing array raises StoreError
    icae = autoencoder.IcaeParams(
        enc_ind_x=net("icae.enc_ind_x"), enc_ind_y=net("icae.enc_ind_y"),
        enc_common=net("icae.enc_common"),
        dec_x=net("icae.dec_x"), dec_y=net("icae.dec_y"),
        calibration={mod: _load_calibration(root, m["arrays"], mod)
                     for mod in ("x", "y")})
    side = meta.HashSideParams(
        x=meta.ModalitySide(net("side.x.projector"), net("side.x.selector1")),
        y=meta.ModalitySide(net("side.y.projector"), net("side.y.selector1")))
    B = (_read_array(root, m["arrays"]["codes"])
         if "codes" in m["arrays"] else None)
    return Checkpoint(phase=m["phase"], icae=icae, side=side,
                      hyper=m["hyper"], loss_trace=m["loss_trace"], B=B)


# ----------------------------------------------------------------- reports

def emit_report(report: EvalReport, fmt: str, path) -> None:
    """Serialize an evaluation report as JSON or a flat one-row CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        doc = dataclasses.asdict(report)
        doc["format_version"] = FORMAT_VERSION
        path.write_text(json.dumps(doc, indent=1))
    elif fmt == "csv":
        prec = ";".join(f"{k}:{v:.6f}" for k, v in report.precision_at)
        row = [report.direction, report.variant, f"{report.map:.6f}",
               "" if report.head_map is None else f"{report.head_map:.6f}",
               "" if report.tail_map is None else f"{report.tail_map:.6f}",
               report.head_tail_split_index, report.n_queries,
               report.n_excluded, prec, f"{report.runtime:.3f}"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            w.writerow(row)
    else:
        raise ValueError("format must be 'json' or 'csv'")

