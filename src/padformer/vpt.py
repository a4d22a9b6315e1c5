"""VPT1 binary tensor files.

Layout: 4-byte magic ``VPT1``, u8 dtype code (0 = float32, 1 = float64),
u8 rank, ``rank`` little-endian u32 extents, then the raw little-endian
scalars in row-major order. Used for weights, dataset clips and attention
maps; ``replace_tree`` writes a directory of them (a checkpoint or a clip
store) all at once or not at all.
"""

from __future__ import annotations

import os
import shutil
import struct
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"VPT1"
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class VptFormatError(ValueError):
    """File does not follow the VPT1 layout."""


def write_tensor(path, array: np.ndarray) -> None:
    arr = np.asarray(array)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    code = _DTYPE_CODE.get(arr.dtype)
    if code is None:
        raise VptFormatError(f"unsupported dtype {arr.dtype}; use float32 or float64")
    if arr.ndim > 255:
        raise VptFormatError(f"rank {arr.ndim} exceeds u8")
    header = MAGIC + struct.pack("<BB", code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    Path(path).write_bytes(header + payload)


def read_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 6 or raw[:4] != MAGIC:
        raise VptFormatError(f"{path}: missing VPT1 magic")
    code, rank = struct.unpack_from("<BB", raw, 4)
    if code not in _CODE_DTYPE:
        raise VptFormatError(f"{path}: unknown dtype code {code}")
    offset = 6
    if len(raw) < offset + 4 * rank:
        raise VptFormatError(f"{path}: truncated extent list")
    shape = struct.unpack_from(f"<{rank}I", raw, offset)
    offset += 4 * rank
    dtype = _CODE_DTYPE[code]
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    expected = offset + count * dtype.itemsize
    if len(raw) != expected:
        raise VptFormatError(f"{path}: payload is {len(raw) - offset} bytes, expected {count * dtype.itemsize}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    return data.reshape(shape).astype(dtype.newbyteorder("="), copy=True)


def read_member(root: Path, rel: str, where: str) -> np.ndarray:
    """Read the tensor a manifest lists at ``rel`` under ``root``.

    A path that leads outside ``root`` is rejected, naming the manifest line
    ``where``. The check is lexical (no file-system lookups), so loading a
    store of thousands of clips stays I/O-bound.
    """
    norm = os.path.normpath(rel)
    if os.path.isabs(norm) or norm.split(os.sep, 1)[0] == os.pardir:
        raise ValueError(f"{where}: path {rel!r} resolves outside {root}")
    return read_tensor(root / rel)


@contextmanager
def replace_tree(path, manifest: str):
    """Yield an empty directory beside ``path`` to write a tree into; on a
    clean exit it takes ``path``'s place with ``os.replace``.

    An old tree at ``path`` is moved aside and removed only after the swap.
    It must be empty or hold ``manifest`` (an earlier tree of the same kind),
    so an unrelated directory is never deleted. If the body raises, the new
    tree is removed and ``path`` is left as it was.
    """
    target = Path(os.path.abspath(path))
    if target.exists() and not (target / manifest).is_file() and (
            not target.is_dir() or any(target.iterdir())):
        raise FileExistsError(f"{target} exists and holds no {manifest}; not replacing it")
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex[:12]}.tmp")
    old = tmp.with_suffix(".old")
    tmp.mkdir()
    try:
        yield tmp
        if target.exists():
            os.replace(target, old)
        os.replace(tmp, target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if old.exists() and not target.exists():
            os.replace(old, target)
        raise
    shutil.rmtree(old, ignore_errors=True)
