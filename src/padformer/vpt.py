"""VPT1 binary tensor files.

Layout: 4-byte magic ``VPT1``, u8 dtype code (0 = float32, 1 = float64),
u8 rank, ``rank`` little-endian u32 extents, then the raw little-endian
scalars in row-major order. Used for weights, dataset clips and attention
maps; ``replace_tree`` writes a directory of them (a checkpoint or a clip
store) all at once or not at all.

Each payload is copied once: the writer hands the array's own buffer to the
file, and the reader reads the file straight into the array it returns.
"""

from __future__ import annotations

import math
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
_HEAD = 6  # magic, dtype code, rank


class VptFormatError(ValueError):
    """File does not follow the VPT1 layout."""


def write_tensor(path, array: np.ndarray) -> None:
    """Write ``array`` (float32 or float64, any memory order) as a VPT1 file.

    The header and the payload go to the file in two writes; the payload is
    the array's own buffer unless the array has to be made row-major or
    little-endian first.
    """
    arr = np.asarray(array)
    code = _DTYPE_CODE.get(arr.dtype)
    if code is None:
        raise VptFormatError(f"unsupported dtype {arr.dtype}; use float32 or float64")
    if arr.ndim > 255:
        raise VptFormatError(f"rank {arr.ndim} exceeds u8")
    if any(n >= 2 ** 32 for n in arr.shape):
        raise VptFormatError(f"extent {max(arr.shape)} of shape {arr.shape} exceeds u32")
    header = MAGIC + struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape)
    arr = arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr)


def read_tensor(path) -> np.ndarray:
    """Read a VPT1 file into a new native-byte-order array that owns its data.

    The header is checked against the file size before the array is
    allocated, so a corrupt or hostile header raises ``VptFormatError``
    naming ``path`` and never asks for more memory than the file holds.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEAD)
        if len(head) < _HEAD or head[:4] != MAGIC:
            raise VptFormatError(f"{path}: missing VPT1 magic")
        code, rank = head[4], head[5]
        if code not in _CODE_DTYPE:
            raise VptFormatError(f"{path}: unknown dtype code {code}")
        extents = fh.read(4 * rank)
        if len(extents) < 4 * rank:
            raise VptFormatError(f"{path}: truncated extent list")
        shape = struct.unpack(f"<{rank}I", extents)
        dtype = _CODE_DTYPE[code]
        expected = math.prod(shape) * dtype.itemsize
        payload = os.fstat(fh.fileno()).st_size - _HEAD - 4 * rank
        if payload != expected:
            raise VptFormatError(f"{path}: payload is {payload} bytes, expected {expected}")
        out = np.empty(shape, dtype=dtype)
        got = fh.readinto(out)
        if got != expected:
            raise VptFormatError(f"{path}: payload is {got} bytes, expected {expected}")
    return out.astype(dtype.newbyteorder("="), copy=False)


def read_member(root: Path, rel: str, where: str) -> np.ndarray:
    """Read the tensor a manifest lists at ``rel`` under ``root``.

    A path that leads outside ``root`` or holds a NUL byte, and one that
    cannot be opened as a file (missing, empty, ``.``, a directory), is
    rejected, naming the manifest line ``where``. The first checks are
    lexical and the last is the open's own error (no extra file-system
    lookups), so loading a store of thousands of clips stays I/O-bound.
    """
    norm = os.path.normpath(rel)
    if os.path.isabs(norm) or norm.split(os.sep, 1)[0] == os.pardir:
        raise ValueError(f"{where}: path {rel!r} resolves outside {root}")
    if "\0" in rel:
        raise ValueError(f"{where}: cannot read {rel!r}: it holds a NUL byte")
    try:
        return read_tensor(root / rel)
    except OSError as exc:
        raise ValueError(f"{where}: cannot read {rel!r}: {exc.strerror or exc}") from exc


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
