"""Binary checkpoint format for named tensors.

Layout, all little-endian:

* magic bytes ``FFCK``
* format version, u32
* tensor count, u32
* per tensor: name length u16, UTF-8 name, dtype code u8 (0 = float32,
  1 = float64), rank u8, each dim u32, then the raw array bytes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint", "write_atomically",
           "MAGIC", "VERSION"]

MAGIC = b"FFCK"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES_BY_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class CheckpointError(RuntimeError):
    pass


def write_atomically(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it
    over ``path``, so a failed write leaves any old file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Serialize ``tensors`` to ``path`` through ``write_atomically``."""
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _CODES_BY_KIND:
            raise CheckpointError(f"cannot serialize dtype {arr.dtype} for {name!r}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]!r}...")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _CODES_BY_KIND[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())
    write_atomically(path, b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"truncated checkpoint: needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def load_checkpoint(path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint file")
    version = r.u("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    count = r.u("<I")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u("<H")
        name = r.take(name_len).decode("utf-8")
        code = r.u("<B")
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
        dtype = _DTYPE_CODES[code]
        rank = r.u("<B")
        shape = tuple(struct.unpack(f"<{rank}I", r.take(4 * rank))) if rank else ()
        n_items = int(np.prod(shape, dtype=np.int64)) if rank else 1
        raw = r.take(n_items * dtype.itemsize)
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if name in out:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        out[name] = arr
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes after last tensor")
    return out
