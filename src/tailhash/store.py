"""Bit-exact on-disk formats for datasets, checkpoints, codes and reports.

Each container is a directory holding a ``manifest.json`` plus one raw binary
file per named array: little-endian float64 row-major for real arrays, one
byte per cell (0/1) for label matrices, packed bits for hash codes (-1
stored as 0). One writer, ``_save``, writes every container and one reader,
``_load``, reads every one: each array has an entry under the manifest's
``arrays`` with its file (a plain name inside the container), dtype, shape
and CRC-32. Every entry is checked, and each array read is checked against
its entry; ``load_dataset`` reads only the arrays its caller names. An
array that is C-ordered in its stored dtype is written, and its CRC-32
taken, from its own buffer; an array is read into its final buffer once
the file's size fits the entry, and its CRC-32 is checked there, with no
copy of the bytes beside it. All
formats share one ``format_version``; a container of another version or
kind is refused. A loader maps its record onto named arrays (a net's layers
``<net>.l<i>.weight|bias``, a modality's calibration ``icae.<mod>.<field>``,
hash codes ``codes``) and checks the type of every manifest value it reads,
that codes are a matrix and, in a dataset, that features and labels have as
many rows by their manifest shapes, one count per label and split indices
in 0..n-1 that appear once. These failures and a missing key raise
StoreError naming the manifest; an array file that does not fit its entry
raises one naming the file.

A checkpoint's ``hyper`` is the caller's record of the run, which this
module stores as given.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import zlib
from pathlib import Path
from typing import Iterable, Optional

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


def pack_codes(B: np.ndarray) -> np.ndarray:
    """Bit-pack a +/-1 matrix (-1 stored as 0) into uint8 bytes."""
    return np.packbits(np.asarray(B) > 0)


def unpack_codes(data, shape: tuple[int, int]) -> np.ndarray:
    """The +/-1 matrix of ``shape`` whose bits the bytes ``data`` pack."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=int(np.prod(shape)))
    # 2 * bit - 1, without a data-dependent branch
    codes = bits.reshape(shape) * 2.0
    codes -= 1.0
    return codes


def _are_counts(v) -> bool:     # JSON true and false are not integers
    return (isinstance(v, list) and set(map(type, v)) <= {int}
            and min(v, default=0) >= 0 and max(v, default=0) < 2 ** 63)


# what a manifest value must be -> its test
_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "a string": lambda v: isinstance(v, str),
    # a file inside the container: no absolute path, separator, . or ..
    "a plain file name": lambda v: (
        isinstance(v, str) and v not in ("", "..") and Path(v).name == v),
    "a non-negative integer": lambda v: _are_counts([v]),
    "a list of non-negative integers": _are_counts,
    "a list of numbers": lambda v: (
        isinstance(v, list) and all(type(x) in (int, float) for x in v)),
    "a non-empty list": lambda v: isinstance(v, list) and len(v) > 0,
}


def _checked(value, kind: str, path: Path, name: str):
    """``value``, the manifest ``path``'s ``name``, which must be ``kind``."""
    if not _KINDS[kind](value):
        raise StoreError(f"{path}: {name} must be {kind}")
    return value


class _Manifest(dict):
    """A manifest object, at any depth, whose missing keys raise StoreError
    naming the key and the file instead of a bare KeyError."""
    def __init__(self, pairs, path: Path):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise StoreError(f"{self.path}: missing key {key!r}")

    def get_as(self, key: str, kind: str, name: Optional[str] = None):
        """self[key], which must be ``kind`` (an error calls it ``name``)."""
        return _checked(self[key], kind, self.path, name or key)


def _save(path, kind: str, arrays: dict[str, np.ndarray], bits=(),
          **fields) -> None:
    """Write the ``kind`` container at ``path``: a manifest of ``fields`` and
    ``arrays``, one file per array, bit-packed for the names in ``bits``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name, arr in arrays.items():
        if name in bits:
            dtype, stored = BITS, pack_codes(arr)
        elif arr.dtype == np.uint8:
            dtype, stored = "uint8", np.ascontiguousarray(arr)
        else:
            dtype, stored = "float64", np.ascontiguousarray(arr, "<f8")
        data = _bytes_of(stored)
        (root / f"{name}.bin").write_bytes(data)
        entries[name] = {"file": f"{name}.bin", "dtype": dtype,
                         "shape": list(arr.shape), "crc32": zlib.crc32(data)}
    manifest = {"format_version": FORMAT_VERSION, "kind": kind, **fields,
                "arrays": entries}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _bytes_of(arr: np.ndarray) -> np.ndarray:
    """The bytes of the C-contiguous ``arr``, as a flat uint8 view."""
    return arr.reshape(-1).view(np.uint8)


def _read_array(path: Path, dtype: str, shape, crc32) -> np.ndarray:
    """The array of the entry (path, dtype, shape, CRC-32), read into its
    final buffer once the file's size fits the entry, and checked there."""
    if dtype == BITS:
        kind, stored = np.dtype(np.uint8), ((math.prod(shape) + 7) // 8,)
    else:
        kind, stored = np.dtype(_DTYPES[dtype]), tuple(shape)
    expected = math.prod(stored) * kind.itemsize
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size == expected:
                arr = np.empty(stored, kind)
                data = _bytes_of(arr)
                size = fh.readinto(data)
    except OSError as e:
        raise StoreError(f"cannot read {path}: {e}") from e
    if size != expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} bytes, found {size}")
    if zlib.crc32(data) != crc32:
        raise ChecksumError(f"{path}: CRC-32 mismatch")
    return unpack_codes(arr, shape) if dtype == BITS else arr


def _load(path, kind: str, names: Optional[Iterable[str]] = None
          ) -> tuple[_Manifest, _Manifest]:
    """The manifest of the ``kind`` container at ``path`` and, by name, the
    arrays in ``names`` (every array when None), which raise StoreError for
    a missing name, as the manifest does. Every array entry is checked; only
    the files of the arrays in ``names`` are read and checked against it."""
    root = Path(path)
    mpath = root / "manifest.json"
    if not mpath.is_file():
        raise StoreError(f"no manifest at {mpath}")
    try:
        m = json.loads(mpath.read_text(encoding="utf-8"),
                       object_pairs_hook=lambda p: _Manifest(p, mpath))
    except ValueError as e:     # not UTF-8, or not JSON
        raise StoreError(f"{mpath}: not a JSON manifest: {e}") from e
    if not isinstance(m, _Manifest):
        raise StoreError(f"{mpath}: not a JSON object")
    if m.get("format_version") != FORMAT_VERSION:
        raise FormatVersionError(
            f"{mpath}: format_version {m.get('format_version')}, "
            f"expected {FORMAT_VERSION}")
    if m.get("kind") != kind:
        raise StoreError(f"{root} is not a {kind} container")
    # name -> (file, dtype, shape, CRC-32), each checked
    entries = _Manifest({}, mpath)
    for name, entry in m.get_as("arrays", "an object").items():
        at = f"arrays.{name}"
        _checked(entry, "an object", mpath, at)
        file = entry.get_as("file", "a plain file name", at + ".file")
        dtype = entry.get_as("dtype", "a string", at + ".dtype")
        if dtype != BITS and dtype not in _DTYPES:
            raise StoreError(f"{mpath}: {at}.dtype: unknown dtype {dtype!r}")
        entries[name] = (root / file, dtype,
                         tuple(entry.get_as("shape", "a list of non-negative "
                                            "integers", at + ".shape")),
                         entry.get_as("crc32", "a non-negative integer",
                                      at + ".crc32"))
    arrays = _Manifest({}, mpath)
    for name in entries if names is None else names:
        arrays[name] = _read_array(*entries[name])
    return m, arrays


# ---------------------------------------------------------------- datasets

def save_dataset(dataset: Dataset, path) -> None:
    arrays = {"features_x": dataset.Fx_raw, "features_y": dataset.Fy_raw,
              "labels": dataset.L.astype(np.uint8, copy=False)}
    for name, arr in dataset.meta.get("arrays", {}).items():
        arrays["meta." + name] = arr
    _save(path, "dataset", arrays,
          n=int(dataset.n),
          c=int(dataset.c),
          raw_dim_x=int(dataset.Fx_raw.shape[1]),
          raw_dim_y=int(dataset.Fy_raw.shape[1]),
          label_counts=[int(v) for v in dataset.meta.get(
              "label_counts", dataset.L.sum(axis=0))],
          exclusive_labels=[int(v) for v in
                            dataset.meta.get("exclusive_labels", [])],
          spec=dataset.meta.get("spec", {}),
          base_indices=[int(i) for i in dataset.base_indices],
          query_indices=[int(i) for i in dataset.query_indices])


def load_dataset(path, names: Optional[Iterable[str]] = None) -> Dataset:
    """The dataset at ``path``, with the arrays in ``names`` read (every one
    when None) and the others None. The row counts and split indices are
    checked on the manifest's shapes, whichever arrays are read.
    ``meta["fingerprint"]`` holds the manifest's CRC-32s of the feature
    arrays; this load verified those of the features it read."""
    m, arrays = _load(path, "dataset", names)
    entries = m["arrays"]
    shapes = [entries[name]["shape"]
              for name in ("features_x", "features_y", "labels")]
    if not all(len(s) == 2 for s in shapes) or len(
            {s[0] for s in shapes}) != 1:
        raise StoreError(f"{m.path}: features and labels of shapes "
                         f"{', '.join(str(tuple(s)) for s in shapes)} are "
                         f"not as many rows")
    n, c = shapes[2]
    ints = {key: np.asarray(m.get_as(key, "a list of non-negative integers"),
                            dtype=np.int64)
            for key in ("base_indices", "query_indices", "label_counts",
                        "exclusive_labels")}
    if ints["label_counts"].size != c:
        raise StoreError(f"{m.path}: label_counts must hold {c} counts")
    split = np.concatenate([ints["base_indices"], ints["query_indices"]])
    if np.any(split >= n) or np.bincount(split).max(initial=0) > 1:
        raise StoreError(f"{m.path}: the split indices must name samples "
                         f"0..{n - 1}, each at most once")
    return Dataset(arrays.get("features_x"), arrays.get("features_y"),
                   arrays.get("labels"), ints["base_indices"],
                   ints["query_indices"],
                   meta={"spec": m["spec"],
                         "label_counts": ints["label_counts"],
                         "exclusive_labels": ints["exclusive_labels"],
                         "arrays": {name[len("meta."):]: arr
                                    for name, arr in arrays.items()
                                    if name.startswith("meta.")},
                         "fingerprint": {
                             f"{name}_crc32": entries[name]["crc32"]
                             for name in ("features_x", "features_y")}})


# ------------------------------------------------------------------- codes

def save_codes(path, B: np.ndarray, info: Optional[dict] = None) -> None:
    _save(path, "codes", {"codes": B}, bits=("codes",), info=info or {})


def load_codes(path) -> tuple[np.ndarray, dict]:
    m, arrays = _load(path, "codes")
    if arrays["codes"].ndim != 2:
        raise StoreError(f"{m.path}: codes must be a (k, n) matrix")
    return arrays["codes"], m.get_as("info", "an object")


# ------------------------------------------------------------- checkpoints

@dataclasses.dataclass
class Checkpoint:
    phase: str                    # "ae" or "hash"
    icae: autoencoder.IcaeParams
    side: meta.HashSideParams
    hyper: dict                   # missing keys raise StoreError
    loss_trace: list[float]
    B: Optional[np.ndarray] = None


def _layer_arrays(nets: dict[str, nn.Mlp]) -> dict[str, np.ndarray]:
    return {f"{name}.l{i}.{part}": getattr(layer, part)
            for name, net in nets.items()
            for i, layer in enumerate(net.layers)
            for part in ("weight", "bias")}


def save_checkpoint(path, phase: str, icae: autoencoder.IcaeParams,
                    side: meta.HashSideParams, hyper: dict,
                    loss_trace: list[float],
                    B: Optional[np.ndarray] = None) -> None:
    if phase not in ("ae", "hash"):
        raise ValueError("phase must be 'ae' or 'hash'")
    if icae.calibration is None:
        raise ValueError("calibrate the autoencoder before saving it")
    nets = {"icae." + name: net for name, net in icae.nets().items()}
    arrays = _layer_arrays(nets)
    arrays.update({f"icae.{mod}.{f.name}": np.atleast_1d(getattr(cal, f.name))
                   for mod, cal in icae.calibration.items()
                   for f in dataclasses.fields(cal)})
    side_nets = {f"side.{mod}.{part}": getattr(getattr(side, mod), part)
                 for mod in ("x", "y") for part in ("projector", "selector1")}
    arrays.update(_layer_arrays(side_nets))
    nets.update(side_nets)
    if B is not None:
        arrays["codes"] = B
    _save(path, "checkpoint", arrays, bits=("codes",), phase=phase,
          hyper=hyper, loss_trace=[float(v) for v in loss_trace],
          nets={name: [{"in": l.in_dim, "out": l.out_dim,
                        "activation": l.activation} for l in net.layers]
                for name, net in nets.items()})


def load_checkpoint(path, expect_phase: Optional[str] = None) -> Checkpoint:
    m, arrays = _load(path, "checkpoint")
    if expect_phase is not None and m["phase"] != expect_phase:
        raise PhaseMismatchError(f"{m.path.parent}: phase {m['phase']!r}, "
                                 f"expected {expect_phase!r}")
    specs = m.get_as("nets", "an object")

    def net(name: str) -> nn.Mlp:
        at = f"nets.{name}"
        layers = _checked(specs[name], "a non-empty list", m.path, at)
        try:
            return nn.Mlp([nn.DenseLayer(
                arrays[f"{name}.l{i}.weight"], arrays[f"{name}.l{i}.bias"],
                _checked(layer, "an object", m.path, f"{at}[{i}]").get_as(
                    "activation", "a string", f"{at}[{i}].activation"))
                for i, layer in enumerate(layers)])
        except ValueError as e:     # a bad activation or shape
            raise StoreError(f"{m.path}: {at}: {e}") from e

    def calibration(mod: str) -> autoencoder.Calibration:
        values = {}
        for field in dataclasses.fields(autoencoder.Calibration):
            arr = arrays[f"icae.{mod}.{field.name}"]
            # scalars are stored as one-element arrays
            values[field.name] = (float(arr.flat[0]) if field.type == "float"
                                  else arr)
        return autoencoder.Calibration(**values)

    icae = autoencoder.IcaeParams(
        enc_ind_x=net("icae.enc_ind_x"), enc_ind_y=net("icae.enc_ind_y"),
        enc_common=net("icae.enc_common"),
        dec_x=net("icae.dec_x"), dec_y=net("icae.dec_y"),
        calibration={mod: calibration(mod) for mod in ("x", "y")})
    side = meta.HashSideParams(
        x=meta.ModalitySide(net("side.x.projector"), net("side.x.selector1")),
        y=meta.ModalitySide(net("side.y.projector"), net("side.y.selector1")))
    return Checkpoint(phase=m["phase"], icae=icae, side=side,
                      hyper=m.get_as("hyper", "an object"),
                      loss_trace=m.get_as("loss_trace", "a list of numbers"),
                      B=arrays.get("codes"))


# ----------------------------------------------------------------- reports

def write_reports(report: EvalReport, stem) -> None:
    """Write an evaluation report as ``<stem>.json`` and as a flat one-row
    ``<stem>.csv``."""
    Path(stem).parent.mkdir(parents=True, exist_ok=True)
    doc = dataclasses.asdict(report)
    doc["format_version"] = FORMAT_VERSION
    Path(f"{stem}.json").write_text(json.dumps(doc, indent=1))
    prec = ";".join(f"{k}:{v:.6f}" for k, v in report.precision_at)
    row = [report.direction, report.variant, f"{report.map:.6f}",
           "" if report.head_map is None else f"{report.head_map:.6f}",
           "" if report.tail_map is None else f"{report.tail_map:.6f}",
           report.head_tail_split_index, report.n_queries,
           report.n_excluded, prec, f"{report.runtime:.3f}"]
    with open(f"{stem}.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([CSV_HEADER, row])
