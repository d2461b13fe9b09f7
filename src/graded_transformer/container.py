"""Self-describing, byte-deterministic array container.

Layout: 8-byte magic, 8-byte little-endian header length, JSON header,
then the raw array payloads concatenated in header order.  Arrays are
stored little-endian ('<f8' or '<i8'), C-order.  Identical inputs always
produce identical bytes, which npz archives do not guarantee.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MAGIC = b"GTCONT01"
FORMAT_VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    entries = []
    payloads = []
    for name in sorted(arrays):
        a = np.asarray(arrays[name])
        dt = "<i8" if np.issubdtype(a.dtype, np.integer) else "<f8"
        a = np.ascontiguousarray(a.astype(_DTYPES[dt]))
        entries.append({"name": name, "dtype": dt, "shape": list(a.shape)})
        payloads.append(a.tobytes())
    header = json.dumps(
        {"version": FORMAT_VERSION, "meta": meta or {}, "arrays": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for blob in payloads:
            fh.write(blob)


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and meta of a container; ValueError naming the file if it is
    not a well-formed container."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC or len(raw) < 16:
        raise ValueError(f"{path}: not a container file")
    hlen = int.from_bytes(raw[8:16], "little")
    if 16 + hlen > len(raw):
        raise ValueError(f"{path}: header length {hlen} runs past the end of the file")
    try:
        header = json.loads(raw[16 : 16 + hlen].decode())
        version, meta, entries = header["version"], header["meta"], header["arrays"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed container header") from exc
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise ValueError(f"{path}: malformed container header")
    arrays = {}
    offset = 16 + hlen
    for entry in entries:
        name, dt, shape = _entry(path, entry)
        count = math.prod(shape)
        end = offset + count * dt.itemsize
        if end > len(raw):
            raise ValueError(f"{path}: payload of {name!r} truncated")
        arrays[name] = np.frombuffer(raw, dt, count, offset).reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes after the payload")
    return arrays, meta


def _entry(path, entry) -> tuple[str, np.dtype, list[int]]:
    """(name, dtype, shape) of one header entry, validated."""
    try:
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed array entry {entry!r}") from exc
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise ValueError(f"{path}: unknown dtype {dtype!r} for array {name!r}")
    if not isinstance(name, str) or not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise ValueError(f"{path}: malformed shape {shape!r} for array {name!r}")
    return name, _DTYPES[dtype], shape
