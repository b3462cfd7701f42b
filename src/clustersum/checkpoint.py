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

Every JSON file a stage reads is read here too: ``read_jsonl`` (blank lines
skipped) and ``read_json`` parse it, and ``check_fields`` checks each record
against a table of field kinds, so a malformed record fails as one
``ValueError``, ``path:line: ...``, naming the field and the type it needs.
Each caller keeps only the rules of its own format.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

MAGIC = b"CLUSTERSUM-CKPT"
FORMAT_VERSION = 4
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


# A field kind: the JSON type an error names, and the test a value must pass.
Kind = tuple[str, Callable[[object], bool]]

INTEGER: Kind = ("an integer", lambda v: type(v) is int)
NUMBER: Kind = ("a number", lambda v: type(v) in (int, float))
STRING: Kind = ("a string", lambda v: type(v) is str)
OBJECT: Kind = ("an object", lambda v: type(v) is dict)
LIST: Kind = ("a list", lambda v: type(v) is list)
NUMBERS: Kind = ("a list of numbers",
                 lambda v: type(v) is list and all(type(x) in (int, float) for x in v))
SIZES: Kind = ("a list of non-negative integers",
               lambda v: type(v) is list and all(type(d) is int and d >= 0 for d in v))


def check_fields(where: str, obj, fields: dict[str, Kind], what: str) -> dict:
    """``obj`` when it is a JSON object whose every field in ``fields`` has
    its kind (an absent field reads as null); otherwise a ``ValueError``
    that names ``where``, the field and the type it needs."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: {what} must be a JSON object")
    for name, (kind, valid) in fields.items():
        if not valid(obj.get(name)):
            raise ValueError(f"{where}: {what} needs {name!r} as {kind}")
    return obj


def _parse(where: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not JSON ({exc})") from None


def read_jsonl(path: str | Path, fields: dict[str, Kind],
               what: str) -> Iterator[tuple[str, dict]]:
    """``(where, record)`` for each non-blank line of a JSON-lines file,
    with ``where`` = ``path:line``, each record checked by ``check_fields``.
    Lines end at ``\n``; each is decoded here, so a line that is not UTF-8
    fails as ``path:line: not UTF-8 (...)``, with the offset in that line."""
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            where = f"{path}:{number}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where}: not UTF-8 ({exc})") from None
            if line.strip():
                yield where, check_fields(where, _parse(where, line), fields, what)


def read_json(path: str | Path, fields: dict[str, Kind], what: str) -> dict:
    """A file holding one JSON object, checked by ``check_fields``."""
    with open(path, "r", encoding="utf-8") as fh:
        return check_fields(str(path), _parse(str(path), fh.read()), fields, what)


_HEADER = {"version": INTEGER, "component": STRING, "config": OBJECT, "tensors": LIST}
_TENSOR_ENTRY = {"name": STRING, "shape": SIZES}


def _read_header(line: bytes, path) -> dict:
    """The header line's JSON object, checked to be one this module writes."""
    where = str(path)
    header = check_fields(where, _parse(where, line.decode("utf-8")), _HEADER,
                          "a checkpoint header")
    if header["version"] != FORMAT_VERSION:
        raise ValueError(f"{where}: unsupported checkpoint version {header['version']}")
    for i, entry in enumerate(header["tensors"]):
        check_fields(where, entry, _TENSOR_ENTRY, f"checkpoint tensor entry {i}")
    if len({e["name"] for e in header["tensors"]}) != len(header["tensors"]):
        raise ValueError(f"{where}: checkpoint header names a tensor twice")
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
