"""Flat binary checkpoint container.

Layout: magic "RADL1", a little-endian uint64 header length, a UTF-8 JSON
header mapping tensor name -> {shape, offset}, then the payload of
float64 little-endian C-order arrays.  The header also carries a free-form
"meta" dict (model config, training step, optimizer state bookkeeping).
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import MalformedDoc

MAGIC = b"RADL1"


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    names = sorted(tensors)
    header: dict = {"version": 1, "meta": meta or {}, "tensors": {}}
    offset = 0
    blobs = []
    for name in names:
        arr = np.asarray(tensors[name], dtype=np.float64)
        blob = arr.astype("<f8").tobytes(order="C")
        header["tensors"][name] = {"shape": list(arr.shape), "offset": offset}
        blobs.append(blob)
        offset += len(blob)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise MalformedDoc(f"{path}: bad magic, not a RADL1 checkpoint")
    pos = len(MAGIC) + 8
    if len(data) < pos:
        raise MalformedDoc(f"{path}: truncated checkpoint header")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    try:
        header = json.loads(data[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise MalformedDoc(f"{path}: corrupt checkpoint header: {e}") from e
    pos += header_len
    if not (
        isinstance(header, dict)
        and isinstance(header.get("tensors"), dict)
        and isinstance(header.get("meta", {}), dict)
    ):
        raise MalformedDoc(f"{path}: checkpoint header needs a 'tensors' and a 'meta' object")
    tensors = {}
    for name, info in header["tensors"].items():
        if not (
            isinstance(info, dict)
            and isinstance(info.get("shape"), list)
            and all(map(_is_count, info["shape"]))
            and _is_count(info.get("offset"))
        ):
            raise MalformedDoc(f"{path}: tensor {name!r} needs a 'shape' and an 'offset' of counts")
        shape = tuple(info["shape"])
        count = math.prod(shape)
        start = pos + info["offset"]
        if start + 8 * count > len(data):
            raise MalformedDoc(f"{path}: tensor {name!r} lies outside the payload")
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=start)
        tensors[name] = arr.reshape(shape).astype(np.float64)
    return tensors, header.get("meta", {})
