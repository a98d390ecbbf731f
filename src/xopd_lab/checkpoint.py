"""Checkpoint files: one JSON header line, then raw float64 payloads.

The header records parameter names, shapes, and byte offsets (relative to
the end of the header line), the payload's byte size and SHA-256, plus
arbitrary metadata such as the model config. Payloads are little-endian
float64, written in header order. Loading checks the size and the hash, so
a truncated or corrupted file raises CheckpointError instead of loading; so
does a parameter holding NaN or inf, which no model can run on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointError


def save_checkpoint(path: str | Path, params: dict[str, Tensor], meta: dict | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    chunks = []
    offset = 0
    for name in sorted(params):
        arr = params[name].data
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.astype("<f8").tobytes(order="C"))
        offset += arr.size * 8
    payload = b"".join(chunks)
    header = {
        "params": entries,
        "meta": meta or {},
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(payload)


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], dict]:
    path = Path(path)
    try:
        with open(path, "rb") as f:
            header_line = f.readline()
            payload = f.read()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read ({e.strerror})") from None
    try:
        header = json.loads(header_line.decode("utf-8"))
        entries, meta = header["params"], header["meta"]
        size, digest = header["payload_bytes"], header["payload_sha256"]
    except (ValueError, RecursionError, TypeError, KeyError) as e:
        raise CheckpointError(f"{path}: not a checkpoint header ({type(e).__name__}: {e})") from None
    if len(payload) != size:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, header says {size}")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CheckpointError(f"{path}: payload SHA-256 does not match the header")
    params: dict[str, Tensor] = {}
    try:
        for entry in entries:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape)) if shape else 1
            off = entry["offset"]
            arr = np.frombuffer(payload[off : off + n * 8], dtype="<f8").reshape(shape).copy()
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{path}: parameter {entry['name']} holds NaN or inf")
            params[entry["name"]] = Tensor(arr, requires_grad=True)
    except (TypeError, KeyError, ValueError, OverflowError) as e:
        raise CheckpointError(f"{path}: bad parameter entry ({type(e).__name__}: {e})") from None
    return params, meta


def params_hash(params: dict[str, Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].data.astype("<f8").tobytes(order="C"))
    return h.hexdigest()
