"""Flat binary parameter container.

Layout: magic "MIRT", version u32, then per entry: name length u16, UTF-8
name, rank u8, extents as u32s, raw little-endian IEEE-754 single-precision
values.  Rank 0 carries exactly one scalar.  Entry order is preserved, so a
round trip is byte-identical for the same inputs.  Loaded entries are
read-only views of the file's bytes: the file is held in memory once.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"MIRT"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays: dict[str, np.ndarray]):
    """Write `<path>.tmp`, then rename it over `path`: a write that fails
    leaves any previous file at `path` as it was, and no temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            for name, arr in arrays.items():
                a = np.asarray(arr, dtype="<f4")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", a.ndim))
                for extent in a.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(a.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; an unreadable file, or any malformed or truncated
    field, raises CheckpointError (naming the field's byte offset)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}")
    pos = 4

    def take(size, what):
        nonlocal pos
        if size > len(raw) - pos:
            raise CheckpointError(
                f"truncated {what} at byte {pos}: needs {size} bytes, "
                f"{len(raw) - pos} left")
        start, pos = pos, pos + size
        return start

    (version,) = struct.unpack_from("<I", raw, take(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    out: dict[str, np.ndarray] = {}
    while pos < len(raw):
        (nlen,) = struct.unpack_from("<H", raw, take(2, "name length"))
        start = take(nlen, "name")
        try:
            name = raw[start:pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"name at byte {start} is not UTF-8") from exc
        if name in out:
            raise CheckpointError(f"repeated entry {name!r} at byte {start}")
        (rank,) = struct.unpack_from("<B", raw, take(1, f"rank of {name!r}"))
        extents = take(4 * rank, f"extents of {name!r}")
        shape = struct.unpack_from(f"<{rank}I", raw, extents)
        count = math.prod(shape)
        start = take(4 * count, f"values of {name!r}")
        try:
            out[name] = np.frombuffer(raw, dtype="<f4", count=count, offset=start).reshape(shape)
        except ValueError as exc:  # a zero extent beside extents too large for numpy
            raise CheckpointError(f"extents of {name!r} at byte {extents}: {exc}") from exc
    return out
