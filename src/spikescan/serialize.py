"""Flat binary container for named tensors.

Byte layout (little-endian throughout):

    magic   5 bytes  b"SPKN1"
    then, repeated until end of file, one record per tensor:
        name_len  uint32
        name      name_len bytes, UTF-8
        rank      uint32          (0..3)
        extents   rank * uint64
        payload   prod(extents) * float64

Used for neuron parameters and dataset caches.  Readers stop at EOF.  A
file that cannot be parsed exactly -- bad magic, a record cut short, rank
above 3, extents beyond the size cap, a name that is not UTF-8 or that
repeats -- raises :class:`~spikescan.errors.CorruptContainer` with the byte
offset of the offending field.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptContainer

MAGIC = b"SPKN1"
# cap on a tensor's nominal bytes (zero extents counted as 1), below numpy's
# 2^63 - 1 limit on an array's size even when the array is empty
MAX_TENSOR_BYTES = 2 ** 62


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named arrays; values are converted to float64."""
    buf = bytearray(MAGIC)
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f8")  # rank 0 stays rank 0
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack("<I", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        buf += arr.tobytes()
    Path(path).write_bytes(bytes(buf))


def _unpack(path, fmt: str, raw: bytes, offset: int, what: str) -> tuple:
    if offset + struct.calcsize(fmt) > len(raw):
        raise CorruptContainer(f"{path}: file ends inside the {what}", offset)
    return struct.unpack_from(fmt, raw, offset)


def load_tensors(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:5] != MAGIC:
        raise CorruptContainer(f"{path}: bad magic {raw[:5]!r}", 0)
    out: dict[str, np.ndarray] = {}
    offset = 5
    total = len(raw)
    while offset < total:
        (name_len,) = _unpack(path, "<I", raw, offset, "name length")
        offset += 4
        if offset + name_len > total:
            raise CorruptContainer(f"{path}: file ends inside a tensor name", offset)
        try:
            name = raw[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptContainer(f"{path}: tensor name is not UTF-8", offset) from None
        if name in out:
            raise CorruptContainer(f"{path}: tensor {name!r} appears twice", offset)
        offset += name_len
        (rank,) = _unpack(path, "<I", raw, offset, f"rank of tensor {name!r}")
        if rank > 3:
            raise CorruptContainer(f"{path}: tensor {name!r} has rank {rank} > 3", offset)
        offset += 4
        shape = _unpack(path, f"<{rank}Q", raw, offset,
                        f"extents of tensor {name!r}")
        if 8 * math.prod(max(e, 1) for e in shape) > MAX_TENSOR_BYTES:
            raise CorruptContainer(f"{path}: tensor {name!r} extents {shape} "
                                   "exceed the size cap", offset)
        offset += 8 * rank
        count = math.prod(shape)
        end = offset + 8 * count
        if end > total:
            raise CorruptContainer(f"{path}: truncated payload for tensor {name!r}",
                                   offset)
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        out[name] = arr.reshape(shape).copy()
        offset = end
    return out
