"""Binary weight checkpoints, self-describing and written atomically.

Layout: magic "ITN2", a little-endian u32 header length, the header (a
UTF-8 JSON object), a u32 entry count, then per entry a u16 name length,
the UTF-8 name, a u8 rank, rank little-endian u32 dims, and the row-major
float32 payload. Round-trips are bit-exact for float32 data.

Header keys: "model" (the spec) and "data" (its window settings) in a
`save_model` file; "members" and "member_sha256" in an ensemble head.
`save_checkpoint` adds "payload_sha256", the hex sha256 of every byte after
the header (entry count and entries), and `load_checkpoint` checks it before
it parses any entry, so a changed byte is an error rather than another
model. A header without the key, as older files have, still loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from ..errors import CheckpointError
from .core import Tensor

MAGIC = b"ITN2"
PAYLOAD_KEY = "payload_sha256"


def write_atomic(path, data: bytes):
    """Replace `path` with `data` whole or not at all: write a temp file in
    the same directory, flush it to disk, then rename it over `path`. On
    failure the temp file is removed and `path` is left as it was. The file
    gets the mode `open()` would give a new file, 0o666 less the umask."""
    path = Path(path)
    umask = os.umask(0o022)  # reading the umask means setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates it 0o600
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_checkpoint(path, params: Mapping[str, "Tensor | np.ndarray"], meta: Optional[dict] = None):
    """Write the JSON object `meta` with the payload's digest and the named
    tensors, in mapping order."""
    blobs = [struct.pack("<I", len(params))]
    for name, value in params.items():
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        # asarray, not ascontiguousarray: the latter promotes rank 0 to rank 1
        arr = np.asarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"entry name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"entry rank too large: {name!r}")
        blobs.append(struct.pack("<H", len(encoded)))
        blobs.append(encoded)
        blobs.append(struct.pack("<B", arr.ndim))
        blobs.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        blobs.append(arr.tobytes())
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    header = json.dumps({**(meta or {}), PAYLOAD_KEY: digest.hexdigest()}).encode("utf-8")
    write_atomic(path, b"".join([MAGIC, struct.pack("<I", len(header)), header, *blobs]))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint back into (header object without its payload
    digest, name -> float32 array), preserving entry order."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {buf[:4]!r} in {path}; expected {MAGIC!r}")
    view = memoryview(buf)
    pos = 4

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(f"truncated checkpoint: {path}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    def text(n: int) -> str:
        try:
            return bytes(take(n)).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"checkpoint text is not UTF-8 in {path}: {e}") from e

    (header_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(text(header_len))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint header is not JSON in {path}: {e}") from e
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint header is not a JSON object in {path}")
    if PAYLOAD_KEY in meta and meta.pop(PAYLOAD_KEY) != hashlib.sha256(view[pos:]).hexdigest():
        raise CheckpointError(f"checkpoint payload does not match its {PAYLOAD_KEY} in {path}: the file is corrupt")
    (count,) = struct.unpack("<I", take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len)
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(4 * size), dtype="<f4").reshape(dims)
        if name in out:
            raise CheckpointError(f"duplicate entry {name!r} in {path}")
        out[name] = np.array(data, dtype=np.float32)
    if pos != len(buf):
        raise CheckpointError(f"trailing bytes in checkpoint: {path}")
    return meta, out
