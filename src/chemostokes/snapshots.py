"""Binary field snapshots and the run manifest.

Field file layout (little-endian throughout):

    bytes 0..3    magic b"CSLB"
    4..7          format version (u32, currently 1)
    8..11         dim (u32, 2 or 3)
    12..23        array shape (3 x u32; trailing 1 for 2-D)
    24..31        simulation time (f64)
    32..63        reserved, zero
    64..          payload: f64 array values, x-fastest (Fortran order)

One file per field per sample keeps resume and inspection trivial; the
manifest records sha256 checksums, so a resumed run starts from verified
bytes and tallies stored as exact hex floats.  Resumed runs therefore
reproduce the uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from .config import load_json
from .errors import ConfigError

MAGIC = b"CSLB"
VERSION = 1
_HEADER = struct.Struct("<4sII3Id32x")
assert _HEADER.size == 64


def write_field(path: str, arr: np.ndarray, t: float) -> str:
    """Write one field; returns the sha256 hex digest of the file."""
    shape3 = tuple(arr.shape) + (1,) * (3 - arr.ndim)
    header = _HEADER.pack(MAGIC, VERSION, arr.ndim, *shape3, float(t))
    payload = np.ascontiguousarray(
        arr.flatten(order="F"), dtype="<f8").tobytes()
    blob = header + payload
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def read_field(path: str, expect_sha256: str | None = None):
    """Read one field back; returns (array, time)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if expect_sha256 is not None:
        got = hashlib.sha256(blob).hexdigest()
        if got != expect_sha256:
            raise ConfigError(
                f"snapshot {path}: checksum mismatch "
                f"(expected {expect_sha256[:12]}..., got {got[:12]}...)")
    if len(blob) < _HEADER.size:
        raise ConfigError(f"snapshot {path}: truncated header")
    magic, version, ndim, s0, s1, s2, t = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ConfigError(f"snapshot {path}: bad magic {magic!r}")
    if version != VERSION:
        raise ConfigError(
            f"snapshot {path}: unsupported version {version}")
    shape = (s0, s1, s2)[:ndim]
    count = int(np.prod(shape))
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if data.size != count:
        raise ConfigError(
            f"snapshot {path}: payload has {data.size} values, "
            f"header promises {count}")
    return data.reshape(shape, order="F").astype(float), float(t)


def write_snapshot(run_dir: str, index: int, state, dim: int) -> dict:
    """Write all fields of one sample; returns the manifest files entry."""
    snap_dir = os.path.join(run_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    fields = {"n": state.n, "c": state.c, "p": state.p,
              **{f"u{a}": state.u[a] for a in range(dim)}}
    files = {}
    for name, arr in fields.items():
        rel = os.path.join("snapshots", f"sample_{index:06d}_{name}.bin")
        digest = write_field(os.path.join(run_dir, rel), arr, state.t)
        files[name] = {"path": rel, "sha256": digest}
    return files


def load_snapshot(run_dir: str, files: dict, dim: int):
    """Load a sample back as (t, fields dict), verifying checksums."""
    fields = {}
    t = None
    for name, entry in files.items():
        arr, t_read = read_field(os.path.join(run_dir, entry["path"]),
                                 expect_sha256=entry["sha256"])
        fields[name] = arr
        if t is None:
            t = t_read
        elif t_read != t:
            raise ConfigError(
                f"snapshot field {name}: time {t_read} disagrees with {t}")
    return t, fields


MANIFEST_NAME = "manifest.json"


def write_json(path: str, obj):
    """Atomic-enough JSON file update (write to temp, then replace)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def write_manifest(run_dir: str, manifest: dict):
    write_json(os.path.join(run_dir, MANIFEST_NAME), manifest)


def load_manifest(run_dir: str) -> dict:
    path = os.path.join(run_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ConfigError(f"no manifest at {path}")
    return load_json(path, f"manifest {path}")
