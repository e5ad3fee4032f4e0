"""Binary tensor container: text header plus raw little-endian float64.

Layout: one ASCII magic line (``HSPECBIN <version> <kind>``), one JSON line
holding arbitrary metadata plus the ordered tensor directory
(``name``/``shape`` pairs), then the concatenated C-order payloads.  Floats
are stored as raw IEEE-754 bytes, so a write/read cycle is bit-exact.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

MAGIC = "HSPECBIN"
VERSION = 1


class ContainerError(Exception):
    """Malformed or mismatched container file."""


def write_container(
    path,
    kind: str,
    meta: Mapping,
    tensors: Sequence[tuple[str, np.ndarray]],
) -> None:
    directory = [
        {"name": name, "shape": list(np.asarray(arr).shape)} for name, arr in tensors
    ]
    header = dict(meta)
    header["tensors"] = directory
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC} {VERSION} {kind}\n".encode("ascii"))
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic_line = fh.readline().decode("ascii", errors="replace").strip()
        parts = magic_line.split()
        if len(parts) != 3 or parts[0] != MAGIC:
            raise ContainerError(f"bad magic line: {magic_line!r}")
        if int(parts[1]) != VERSION:
            raise ContainerError(f"unsupported version {parts[1]}")
        kind = parts[2]
        try:
            header = json.loads(fh.readline().decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"bad header: {exc}") from None
        tensors = {}
        for spec in header.pop("tensors", []):
            shape = tuple(int(d) for d in spec["shape"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != count * 8:
                raise ContainerError(f"truncated payload for tensor {spec['name']}")
            tensors[spec["name"]] = arr
        trailing = fh.read(1)
        if trailing:
            raise ContainerError("trailing bytes after declared payload")
    return kind, header, tensors
