"""The binary format shared by the embedding, representative and Q-network
artifacts.

Layout: a 4-byte magic, a version byte, three pad bytes, three u32 LE
dimensions and the 8-byte model id, then the artifact's arrays back to
back, each row-major in its stored dtype. The dimensions fix every
array's shape, so the header implies the file's length. `tplrec train`
stamps one model id, a digest of all its artifacts' payloads, into
every artifact it writes, so a caller can tell whether files come from
the same training run without hashing them: `model_id_in` reads it
back. One layout per magic lists the arrays for `Artifact.of` and
`read_artifact` alike. The training curves beside them are CSV.

Every file `tplrec train` and `evaluate` write goes through
`write_atomic`, which replaces it by rename: a reader that maps a file
(see `read_artifact`) keeps the old file's bytes, and a reader that
opens it afterwards sees the whole new file.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

VERSION = 2
ID_BYTES = 8
# 28 bytes: float32 arrays after it stay 4-byte aligned in the mapped file.
_HEADER = struct.Struct(f"<4sB3x3I{ID_BYTES}s")


@dataclass(frozen=True, eq=False)
class Artifact:
    """An artifact's magic, dimensions and encoded arrays."""

    magic: bytes
    dims: tuple[int, int, int]
    payload: bytes

    @classmethod
    def of(cls, magic: bytes, layout, dims, arrays) -> "Artifact":
        """Encode `arrays` in order, each in the (shape, stored dtype) that
        `layout(*dims)` lists for it."""
        dims = tuple(int(x) for x in dims)
        return cls(magic, dims, b"".join(np.asarray(array).astype(dtype).reshape(shape).tobytes()
                                         for array, (shape, dtype) in zip(arrays, layout(*dims), strict=True)))

    def write(self, path, model_id: str | None = None) -> bytes:
        """Write the header, then the payload, and return the bytes written;
        without `model_id` the header holds the artifact's own id."""
        header = _HEADER.pack(self.magic, VERSION, *self.dims, bytes.fromhex(model_id or model_id_of(self)))
        return write_atomic(path, header + self.payload)


def model_id_of(*artifacts: Artifact) -> str:
    """Hex id of a model: the truncated sha256 of its artifacts' magics,
    dimensions and payloads, in the given order."""
    digest = hashlib.sha256()
    for art in artifacts:
        digest.update(art.magic)
        digest.update(struct.pack("<3I", *art.dims))
        digest.update(art.payload)
    return digest.hexdigest()[:2 * ID_BYTES]


def model_id_in(path) -> str:
    """The hex model id in an artifact's header, which ends with it."""
    with open(path, "rb") as file:
        return file.read(_HEADER.size)[-ID_BYTES:].hex()


def read_artifact(path, magic: bytes, layout) -> list[np.ndarray]:
    """The arrays of an artifact, where `layout(*dims)` lists each array's
    (shape, stored dtype). The file is mapped read-only, and the arrays
    are read-only views of the mapping, not copies; the mapping lives as
    long as an array does. A file replaced by rename (as `write_atomic`
    does) leaves the arrays the old bytes. A file rewritten in place
    under them does not, and reading a page that a truncation cut off
    kills the process (SIGBUS).

    Raises DataError on a wrong magic or version, nonzero pad bytes, a
    file length other than the one its header implies, or a float array
    holding NaN or Inf. An empty file fails the magic check. The model
    id is not checked: see `model_id_in`.
    """
    with open(path, "rb") as file:
        try:
            raw = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # an empty file cannot be mapped
            raw = b""
    if raw[:4] != magic:
        raise DataError(f"bad magic in {path}: expected {magic!r}")
    if len(raw) < 5:
        raise DataError(f"truncated header in {path}")
    if raw[4] != VERSION:
        raise DataError(f"unsupported version {raw[4]} in {path} (expected {VERSION}; retrain the model)")
    if len(raw) < _HEADER.size:
        raise DataError(f"truncated header in {path}")
    if any(raw[5:8]):
        raise DataError(f"nonzero pad bytes in the header of {path}")
    _, _, *dims, _ = _HEADER.unpack_from(raw)
    parts = [(shape, np.dtype(dtype)) for shape, dtype in layout(*dims)]
    sizes = [math.prod(shape) * dtype.itemsize for shape, dtype in parts]
    expected = _HEADER.size + sum(sizes)
    if len(raw) != expected:
        raise DataError(f"{path} has {len(raw)} bytes where its header implies {expected}")
    arrays, off = [], _HEADER.size
    for (shape, dtype), size in zip(parts, sizes):
        array = np.frombuffer(raw, dtype=dtype, count=size // dtype.itemsize, offset=off).reshape(shape)
        if dtype.kind == "f" and not np.isfinite(array).all():
            raise DataError(f"{path} holds non-finite values")
        arrays.append(array)
        off += size
    return arrays


def write_csv(path, rows) -> bytes:
    """Write rows (lists of fields) as CSV and return the bytes written."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return write_atomic(path, text.getvalue().encode())


def write_atomic(path, data: bytes) -> bytes:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`, and return `data`. A reader sees the old file or the new one,
    never a part of either, and a mapping of the old file stays whole.
    The temporary file is removed if the write fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return data
