"""The binary format shared by the embedding, representative and Q-network
artifacts.

Layout: a 4-byte magic, a version byte, three u32 LE dimensions, then
the artifact's arrays back to back, each row-major in its stored dtype.
The dimensions fix every array's shape, so the header implies the
file's length.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError

VERSION = 1
_HEADER = struct.Struct("<4sB3I")


def write_artifact(path, magic: bytes, dims: tuple[int, int, int], arrays) -> None:
    """Header, then each (array, stored dtype) pair of `arrays` in order."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, VERSION, *dims))
        for array, dtype in arrays:
            fh.write(np.asarray(array).astype(dtype).tobytes())


def read_artifact(path, magic: bytes, layout) -> list[np.ndarray]:
    """The arrays of an artifact, where `layout(*dims)` lists each one's
    (shape, stored dtype).

    Raises DataError on a wrong magic or version, when the file's
    length differs from the one its header implies, or when a float
    array holds NaN or Inf.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise DataError(f"bad magic in {path}: expected {magic!r}")
    if len(raw) < _HEADER.size:
        raise DataError(f"truncated header in {path}")
    _, version, *dims = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise DataError(f"unsupported version {version} in {path}")
    parts = [(shape, np.dtype(dtype)) for shape, dtype in layout(*dims)]
    sizes = [int(np.prod(shape)) * dtype.itemsize for shape, dtype in parts]
    expected = _HEADER.size + sum(sizes)
    if len(raw) != expected:
        raise DataError(f"{path} has {len(raw)} bytes where its header implies {expected}")
    arrays, off = [], _HEADER.size
    for (shape, dtype), size in zip(parts, sizes):
        array = np.frombuffer(raw[off:off + size], dtype=dtype).reshape(shape)
        if dtype.kind == "f" and not np.isfinite(array).all():
            raise DataError(f"{path} holds non-finite values")
        arrays.append(array)
        off += size
    return arrays
