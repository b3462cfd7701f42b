"""Versioned binary model checkpoints, and the atomic file write that every
run artifact goes through.

Layout: an ASCII magic line, a JSON header line (format version, component
tag, model config, tensor names and shapes in payload order), then the raw
tensor payloads as little-endian float32, row-major, each preceded by the
zero bytes (at most ``ALIGN - 1``) that make it start at a multiple of
``ALIGN`` bytes from the start of the file. The header records nothing that a
tensor's shape already says: a model rebuilds an optional head, such as the
encoder's classifier, from its tensors. Tensor order is the sorted name
order, so files are byte-stable for identical models. float32 is the only
on-disk format: the header records no dtype, and ``Model.save`` refuses any
other rather than round it.

A load maps the file read-only and hands out each tensor as a read-only view
of the mapping, so a stage that only reads weights never copies them; the
alignment keeps those views on the same BLAS paths as fresh arrays. A model
that trains copies its parameters first (``AdamW`` owns their storage). The
package never rewrites a file in place: every write goes through
``atomic_write``, which renames a new file over the old one, and a mapping
keeps reading the file it was made from. A mapped file that another process
truncates in place while a stage still reads it raises SIGBUS.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"CLUSTERSUM-CKPT"
FORMAT_VERSION = 3
# every payload starts at a multiple of this many bytes from the file's start
ALIGN = 64


@dataclass
class Checkpoint:
    component: str
    config: dict
    tensors: dict[str, np.ndarray]


@contextmanager
def atomic_write(path: str | Path):
    """Yield a binary file beside ``path`` and rename it over ``path`` when the
    block exits cleanly: a failed write leaves the old file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: list[dict]) -> None:
    """Atomically write one key-sorted JSON record per line."""
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    with atomic_write(path) as fh:
        fh.write(lines.encode("utf-8"))


def save_checkpoint(path: str | Path, component: str, config: dict,
                    tensors: dict[str, np.ndarray]) -> None:
    names = sorted(tensors)
    header = {
        "version": FORMAT_VERSION,
        "component": component,
        "config": config,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    with atomic_write(path) as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in names:
            fh.write(bytes(-fh.tell() % ALIGN))
            fh.write(memoryview(np.ascontiguousarray(tensors[name], dtype="<f4")))


def _is_tensor_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"]))


def _read_header(line: bytes, path) -> dict:
    """The header line's JSON object, checked to be one this module writes."""
    header = json.loads(line.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"{path} has a malformed checkpoint header")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    if not isinstance(header.get("component"), str):
        raise ValueError(f"{path}: checkpoint header 'component' must be a string")
    if not isinstance(header.get("config"), dict):
        raise ValueError(f"{path}: checkpoint header 'config' must be an object")
    entries = header.get("tensors")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: checkpoint header 'tensors' must be a list")
    for i, entry in enumerate(entries):
        if not _is_tensor_entry(entry):
            raise ValueError(f"{path}: checkpoint tensor entry {i} needs a string 'name' "
                             "and a 'shape' list of non-negative integers")
    if len({e["name"] for e in entries}) != len(entries):
        raise ValueError(f"{path}: checkpoint header names a tensor twice")
    return header


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Map a checkpoint read-only; each tensor is a read-only float32 view of
    the mapping, with no copy. Every payload's size is checked against the
    file's before any view is taken: a short file is refused as truncated,
    and a file with bytes after the last payload is refused too."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.readline().rstrip(b"\n") != MAGIC:
            raise ValueError(f"{path} is not a model checkpoint (bad magic)")
        header = _read_header(fh.readline(), path)
        layout = []
        end = fh.tell()
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            start = end + -end % ALIGN
            end = start + 4 * math.prod(shape)
            if end > size:
                raise ValueError(f"truncated checkpoint payload for {entry['name']!r}")
            layout.append((entry["name"], shape, start))
        if size > end:
            raise ValueError(f"{path} has {size - end} bytes after the last payload")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    tensors = {name: np.frombuffer(mapped, "<f4", math.prod(shape), start).reshape(shape)
               for name, shape, start in layout}
    return Checkpoint(component=header["component"], config=header["config"], tensors=tensors)
