"""Binary tensor container: text header plus raw little-endian float64.

Layout: one ASCII magic line (``HSPECBIN <version> <kind>``), one JSON line
holding arbitrary metadata plus the ordered tensor directory
(``name``/``shape`` pairs), then the concatenated C-order payloads.  Floats
are stored as raw IEEE-754 bytes, so a write/read cycle is bit-exact.
"""

from __future__ import annotations

import json
import math
import os
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


def _directory_entry(spec) -> tuple[str, tuple[int, ...]]:
    """The name and shape of one tensor directory entry, refused unless well-formed."""
    name = spec.get("name") if isinstance(spec, dict) else None
    if not isinstance(name, str):
        raise ContainerError(f"tensor directory entry {spec!r} has no name")
    shape = spec.get("shape")
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
        raise ContainerError(
            f"tensor {name!r} has shape {shape!r}, need a list of non-negative integers"
        )
    return name, tuple(shape)


def read_container(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        # a bounded read, so a file that is not a model is neither read whole nor echoed
        line = fh.readline(256)
        magic_line = line.decode("ascii", errors="replace").strip()
        parts = magic_line.split()
        if len(parts) != 3 or parts[0] != MAGIC or not line.endswith(b"\n"):
            raise ContainerError(f"bad magic line: {magic_line[:32]!r}")
        if parts[1] != str(VERSION):
            raise ContainerError(f"unsupported version {parts[1]}")
        kind = parts[2]
        try:
            header = json.loads(fh.readline().decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"bad header: {exc}") from None
        if not isinstance(header, dict):
            raise ContainerError(f"header is a JSON {type(header).__name__}, need an object")
        directory = header.pop("tensors", [])
        if not isinstance(directory, list):
            raise ContainerError("header field 'tensors' is not a list")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        tensors = {}
        for spec in directory:
            name, shape = _directory_entry(spec)
            size = 8 * math.prod(shape)
            left -= size
            if left < 0:  # before allocating what the file cannot hold
                raise ContainerError(f"truncated payload for tensor {name}")
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != size:
                raise ContainerError(f"truncated payload for tensor {name}")
            tensors[name] = arr
        trailing = fh.read(1)
        if trailing:
            raise ContainerError("trailing bytes after declared payload")
    return kind, header, tensors
